"""A simulated compute node: cores, GPUs, fork path, NVMe, container runtimes.

The node is where all the launch-rate physics lives:

* ``cores`` — a counted :class:`~repro.sim.resources.Resource`; a running
  task holds one core (hardware thread) for its duration;
* ``fork_station`` — the kernel's process-start path, a
  :class:`~repro.sim.resources.RateStation` at the node's ``fork_rate``
  (≈6,400/s on the paper's Perlmutter node);
* ``runtime_station(runtime)`` — per-container-runtime serialization
  (Shifter's image setup at ~5,200/s, Podman-HPC's database lock at
  ~65/s), created lazily per runtime;
* ``gpus`` — a :class:`~repro.gpu.GpuPool` enforcing the isolation
  invariant (two concurrent claims on one device raise);
* ``nvme`` — a private :class:`~repro.storage.filesystem.Filesystem`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.machines import NodeSpec
from repro.containers.runtime import ContainerRuntime
from repro.gpu.device import GpuPool
from repro.sim.kernel import Environment, Event
from repro.sim.resources import RateStation, Resource
from repro.storage.filesystem import Filesystem, make_nvme

__all__ = ["SimNode"]


class SimNode:
    """One compute node inside a simulation."""

    def __init__(
        self,
        env: Environment,
        spec: NodeSpec,
        name: str,
        rng: np.random.Generator,
        lustre: Optional[Filesystem] = None,
    ):
        self.env = env
        self.spec = spec
        self.name = name
        self.rng = rng
        self.cores = Resource(env, spec.cores)
        self.gpus = GpuPool(spec.gpus)
        self.fork_station = RateStation(env, spec.fork_rate, name=f"{name}:fork")
        self.nvme = make_nvme(
            env,
            read_bw=spec.nvme_read_bw,
            write_bw=spec.nvme_write_bw,
            name=f"{name}:nvme",
        )
        #: The shared parallel filesystem this node mounts (may be None for
        #: single-node stress tests that never touch Lustre).
        self.lustre = lustre
        self._runtime_stations: dict[str, RateStation] = {}
        #: Launches currently in flight (for container failure models).
        self.launches_in_flight = 0
        #: Counters.
        self.tasks_completed = 0
        self.launch_failures: dict[str, int] = {}

    def runtime_station(self, runtime: ContainerRuntime) -> Optional[RateStation]:
        """The node's serialization point for ``runtime`` (None if lock-free)."""
        if runtime.serial_rate is None:
            return None
        station = self._runtime_stations.get(runtime.name)
        if station is None:
            station = RateStation(
                self.env, runtime.serial_rate, name=f"{self.name}:{runtime.name}"
            )
            self._runtime_stations[runtime.name] = station
        return station

    def fork(self) -> Event:
        """One pass through the kernel process-start path."""
        return self.fork_station.serve()

    def record_launch_failure(self, mode: str) -> None:
        """Count a failed container launch by failure mode."""
        self.launch_failures[mode] = self.launch_failures.get(mode, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimNode {self.name} cores={self.spec.cores} gpus={self.spec.gpus}>"

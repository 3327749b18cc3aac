"""Machine presets and calibration constants.

Every constant here is traceable to a number the paper (or its cited
references) reports.  The simulator's job is to reproduce the *shape* of
the paper's figures from these first-principles rates, so keeping them in
one annotated module is the core of the calibration story.

Calibration sources
-------------------
* ``ENGINE_DISPATCH_RATE`` = 470 jobs/s — §III "Stress Tests": "a single
  instance of GNU Parallel can launch approximately 470 processes per
  second".
* ``NODE_FORK_RATE`` = 6,400 jobs/s — same section: "Multiple parallel
  instances ... with an upper bound of approximately 6,400 processes per
  second" (the node-wide kernel fork/exec ceiling).
* ``SHIFTER_LAUNCH_RATE`` = 5,200 launches/s — §III "Containers": Shifter
  ceiling, "startup overhead of only 19% compared to bare metal"
  (1 − 5200/6400 = 18.75%).
* ``PODMAN_LAUNCH_RATE`` = 65 launches/s — §III: Podman-HPC ceiling, two
  orders of magnitude below Shifter, with reliability failures at scale.
* Frontier node: 64 dual-threaded cores = 128 schedulable CPUs, 8
  schedulable GPUs (MI250X GCDs) — §III "Scalability Runs".
* Perlmutter CPU node: 256 CPU threads — §III: "Using 256 CPU threads on a
  Perlmutter CPU-only compute node, full utilization is achieved if tasks
  run for at least 545 milliseconds" (256/470 ≈ 0.545 s) and "tasks as
  short as 40 milliseconds" with many instances (256/6400 = 0.040 s).
* Frontier scale: up to 9,000 nodes = 96% of Frontier (§III), i.e. 9,408
  total.
* Darshan pipeline (§IV-B): one dataset processes in 86 min from Lustre
  and 68 min from NVMe; the NVMe/Lustre effective-throughput ratio for
  that read-heavy workload is therefore 86/68 ≈ 1.26.
* DTN transfer (§IV-E): 2,385 Mb/s measured per DTN node with 32 rsync
  streams; 8-node cluster = 256-way transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ENGINE_DISPATCH_RATE",
    "NODE_FORK_RATE",
    "SHIFTER_LAUNCH_RATE",
    "PODMAN_LAUNCH_RATE",
    "NodeSpec",
    "MachineSpec",
    "FRONTIER_NODE",
    "PERLMUTTER_CPU_NODE",
    "DTN_NODE",
    "FRONTIER",
    "PERLMUTTER_CPU",
    "DTN_CLUSTER",
    "fork_rate_from_curve",
]

from repro.constants import (  # noqa: F401  (re-exported calibration rates)
    ENGINE_DISPATCH_RATE,
    NODE_FORK_RATE,
    PODMAN_LAUNCH_RATE,
    SHIFTER_LAUNCH_RATE,
)

_MB = 1024 * 1024
_GB = 1024 * _MB


def fork_rate_from_curve(curve: "dict[str | int, float]") -> float:
    """Calibrate a node's fork-rate ceiling from a measured contention curve.

    ``curve`` maps concurrent-spawner count K (int or its string form,
    as JSON stores it) to the *aggregate* spawn rate those K processes
    achieved — the ``spawn_ceiling_curve`` of every workload in an
    ``hthpc`` benchmark result file is exactly this.  The node's
    fork-bandwidth ceiling — what :attr:`NodeSpec.fork_rate` models as a
    :class:`~repro.sim.resources.RateStation` — is the curve's peak
    aggregate: the paper's ~6,400/s is the flat top of its Fig. 3 curve,
    reached before K exhausts the cores.  On a 1-vCPU box the curve is
    flat-to-falling from K=1, so the peak correctly degenerates to the
    single-dispatcher ceiling.

    Usage::

        result = json.load(open("benchmarks/hthpc/results/seed11.json"))
        curve = result["workloads"]["true_spawn"]["spawn_ceiling_curve"]
        node = NodeSpec(name="dev", cores=os.cpu_count(),
                        fork_rate=fork_rate_from_curve(curve))
    """
    if not curve:
        raise ValueError("empty fork-contention curve")
    rates = [float(v) for v in curve.values()]
    if any(r <= 0 for r in rates):
        raise ValueError(f"non-positive aggregate rate in curve: {curve}")
    return max(rates)


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute-node type."""

    name: str
    #: Schedulable CPU threads (GNU Parallel slots at -j<cores>).
    cores: int
    #: Schedulable GPU devices (8 GCDs on Frontier).
    gpus: int = 0
    #: Node-wide process-start ceiling (forks/s).
    fork_rate: float = NODE_FORK_RATE
    #: Node-local NVMe bandwidths (bytes/s).
    nvme_read_bw: float = 5.0 * _GB
    nvme_write_bw: float = 3.0 * _GB
    #: NIC bandwidth (bytes/s) for data-motion modeling.
    nic_bw: float = 25.0 * _GB / 8  # 25 Gb/s Slingshot-ish per direction

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"node must have >= 1 core, got {self.cores}")
        if self.fork_rate <= 0:
            raise ValueError("fork_rate must be positive")


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a machine: homogeneous nodes + shared storage."""

    name: str
    node: NodeSpec
    total_nodes: int
    #: Aggregate parallel-filesystem bandwidths (bytes/s).
    pfs_read_bw: float = 5.0e12
    pfs_write_bw: float = 5.0e12
    #: Concurrent client I/O flows the PFS serves before queueing
    #: (models per-OST RPC limits; keeps the fluid model tractable too).
    pfs_max_flows: int = 512
    #: Metadata operations/s (file create/stat) at the MDS.
    pfs_metadata_rate: float = 50_000.0
    #: Mean per-node readiness delay when an allocation starts (s).
    alloc_delay_mean: float = 2.0
    #: Straggler model: per-node probability of an outlier delay, and the
    #: lognormal parameters of that delay (seconds).  Calibrated against
    #: Fig. 1's 9,000-node tail (max 561 s for 1.152 M tasks).
    straggler_prob: float = 0.004
    straggler_sigma: float = 1.0
    straggler_scale: float = 60.0
    #: Node counts above which extra contention-driven stragglers appear
    #: (the paper saw outliers at >= 7,000 nodes).
    contention_threshold: int = 7000

    def __post_init__(self) -> None:
        if self.total_nodes < 1:
            raise ValueError("machine needs at least one node")


#: One Frontier compute node: 64 dual-threaded EPYC cores (128 threads),
#: 8 schedulable MI250X GCDs, ~2×1.9 TB NVMe.
FRONTIER_NODE = NodeSpec(
    name="frontier-node",
    cores=128,
    gpus=8,
    fork_rate=NODE_FORK_RATE,
    nvme_read_bw=5.5 * _GB,
    nvme_write_bw=3.5 * _GB,
)

#: One Perlmutter CPU-only node: 2×64-core EPYC, 256 threads, no GPUs.
PERLMUTTER_CPU_NODE = NodeSpec(
    name="perlmutter-cpu-node",
    cores=256,
    gpus=0,
    fork_rate=NODE_FORK_RATE,
)

#: One scheduled Data Transfer Node (DTN): modest core count, fast NICs.
DTN_NODE = NodeSpec(
    name="dtn-node",
    cores=32,
    gpus=0,
    nic_bw=2 * 12.5 * _GB / 8,  # dual 100GbE-class links, bytes/s
)

#: OLCF Frontier (9,408 nodes; the paper used up to 9,000 = 96%).
FRONTIER = MachineSpec(
    name="frontier",
    node=FRONTIER_NODE,
    total_nodes=9408,
    pfs_read_bw=9.0e12,   # Orion-class aggregate
    pfs_write_bw=4.5e12,
    # Fig. 1 calibration: per-node readiness averages ~30 s on small
    # allocations, approaching ~60 s at full scale (median completion
    # "less than a minute", p75 "less than two minutes" at 8,000 nodes);
    # the straggler tail produces the 561 s maximum at 9,000 nodes.
    alloc_delay_mean=30.0,
    straggler_prob=0.002,
    straggler_scale=70.0,
    straggler_sigma=0.75,
)

#: NERSC Perlmutter CPU partition (stress tests use a single node).
PERLMUTTER_CPU = MachineSpec(
    name="perlmutter-cpu",
    node=PERLMUTTER_CPU_NODE,
    total_nodes=3072,
    pfs_read_bw=5.0e12,
    pfs_write_bw=5.0e12,
)

#: The 8-node scheduled DTN cluster from §IV-E.
DTN_CLUSTER = MachineSpec(
    name="dtn-cluster",
    node=DTN_NODE,
    total_nodes=8,
    pfs_read_bw=1.0e12,
    pfs_write_bw=1.0e12,
    alloc_delay_mean=1.0,
    straggler_prob=0.0,
)

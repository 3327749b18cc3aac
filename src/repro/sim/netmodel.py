"""Calibrated network cost model for the simulated remote transport.

Separates *what the network costs* from *who pays it*: the remote
layer's :class:`~repro.remote.transport.SimTransport` advances per-host
virtual clocks by the durations this model computes, so a simulated
multi-host scaling experiment (EXPERIMENTS.md) uses the same latency and
bandwidth vocabulary as the DTN/filesystem models elsewhere in
:mod:`repro.sim`.

Jitter draws come from :class:`~repro.sim.random.RngRegistry` named
streams (one per host), keeping multi-host simulations reproducible and
insensitive to host-callback ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["NetModel"]


@dataclass(frozen=True)
class NetModel:
    """Per-hop latency + bandwidth, with optional fractional jitter.

    Defaults approximate a datacenter-class interconnect: 200 µs
    round-trip setup per operation and a 10 GbE-ish 1.25 GB/s stream.
    ``jitter`` widens each duration uniformly by up to ±``jitter``
    fraction (0 disables it).

    One operation is one stream: the executable transport copies each
    file with a single kernel copy, so there is no per-flow cap to model.
    """

    latency_s: float = 200e-6
    bw_Bps: float = 1.25e9
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise SimulationError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.bw_Bps <= 0:
            raise SimulationError(f"bw_Bps must be > 0, got {self.bw_Bps}")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {self.jitter}")

    def transfer_time(self, nbytes: int, u: float = 0.0) -> float:
        """Seconds to move ``nbytes`` one hop; ``u`` in [-1, 1] jitters it."""
        base = self.latency_s + max(0, nbytes) / self.bw_Bps
        return base * (1.0 + self.jitter * u)

    def remove_time(self, nfiles: int, u: float = 0.0) -> float:
        """Seconds for one batched remove of ``nfiles`` staged files.

        One round-trip per *batch* — the point of batching — regardless
        of how many paths ride in it (zero files, zero cost).
        """
        if nfiles <= 0:
            return 0.0
        return self.latency_s * (1.0 + self.jitter * u)

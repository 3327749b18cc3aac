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
from typing import Optional

from repro.errors import SimulationError

__all__ = ["NetModel"]


@dataclass(frozen=True)
class NetModel:
    """Per-hop latency + bandwidth, with optional fractional jitter.

    Defaults approximate a datacenter-class interconnect: 200 µs
    round-trip setup per operation and a 10 GbE-ish 1.25 GB/s stream.
    ``jitter`` widens each duration uniformly by up to ±``jitter``
    fraction (0 disables it).

    ``stream_bw_Bps`` caps what *one* stream can carry (TCP-window or
    per-flow QoS limits): a multi-stream transfer then reaches
    ``min(bw_Bps, streams * stream_bw_Bps)``.  Left ``None``, a single
    stream already saturates the link and streams change nothing — the
    honest default for a loopback/SAN-class hop.
    """

    latency_s: float = 200e-6
    bw_Bps: float = 1.25e9
    jitter: float = 0.0
    stream_bw_Bps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise SimulationError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.bw_Bps <= 0:
            raise SimulationError(f"bw_Bps must be > 0, got {self.bw_Bps}")
        if not 0.0 <= self.jitter < 1.0:
            raise SimulationError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.stream_bw_Bps is not None and self.stream_bw_Bps <= 0:
            raise SimulationError(
                f"stream_bw_Bps must be > 0, got {self.stream_bw_Bps}"
            )

    def effective_bw(self, streams: int = 1) -> float:
        """Aggregate bandwidth ``streams`` concurrent flows achieve."""
        if streams < 1:
            raise SimulationError(f"streams must be >= 1, got {streams}")
        if self.stream_bw_Bps is None:
            return self.bw_Bps
        return min(self.bw_Bps, streams * self.stream_bw_Bps)

    def transfer_time(self, nbytes: int, u: float = 0.0, streams: int = 1) -> float:
        """Seconds to move ``nbytes`` one hop; ``u`` in [-1, 1] jitters it."""
        base = self.latency_s + max(0, nbytes) / self.effective_bw(streams)
        return base * (1.0 + self.jitter * u)

    def remove_time(self, nfiles: int, u: float = 0.0) -> float:
        """Seconds for one batched remove of ``nfiles`` staged files.

        One round-trip per *batch* — the point of batching — regardless
        of how many paths ride in it (zero files, zero cost).
        """
        if nfiles <= 0:
            return 0.0
        return self.latency_s * (1.0 + self.jitter * u)

"""Centralized multi-host execution (GNU Parallel ``--sshlogin``).

Layers, bottom-up:

:mod:`repro.remote.hosts`
    Roster parsing (``-S``/``--sshloginfile``, ``N/host``, ``:``) and the
    thread-safe least-loaded :class:`HostPool` with per-host slots and
    ban-on-repeated-failure health tracking.
:mod:`repro.remote.transport`
    Pluggable command/file movement, one session per host: real
    subprocesses with per-host directory roots (:class:`LocalTransport`)
    or calibrated virtual time (:class:`SimTransport`).
:mod:`repro.remote.cache`
    Per-run content-addressed :class:`StagingCache` (dedup'd staging,
    refcounted ``--cleanup``).
:mod:`repro.remote.staging`
    ``--transferfile``/``--return``/``--cleanup``/``--basefile`` file
    movement policy rendered per job.
:mod:`repro.remote.backend`
    The :class:`RemoteBackend` tying them together under the existing
    scheduler.
"""

from repro.remote.backend import RemoteBackend
from repro.remote.cache import StagingCache
from repro.remote.hosts import (
    HostLease,
    HostPool,
    HostSpec,
    hosts_from_options,
    parse_sshlogin,
    parse_sshloginfile,
)
from repro.remote.staging import StagingPolicy
from repro.remote.transport import (
    ExecResult,
    LocalTransport,
    SimTransport,
    Transport,
)

__all__ = [
    "RemoteBackend",
    "HostSpec",
    "HostLease",
    "HostPool",
    "parse_sshlogin",
    "parse_sshloginfile",
    "hosts_from_options",
    "StagingCache",
    "StagingPolicy",
    "Transport",
    "LocalTransport",
    "SimTransport",
    "ExecResult",
]

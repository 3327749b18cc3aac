"""Execution backends for the engine."""

from repro.core.backends.base import Backend
from repro.core.backends.callable_backend import CallableBackend
from repro.core.backends.local import LocalShellBackend

__all__ = ["Backend", "CallableBackend", "LocalShellBackend", "MultiprocessBackend"]


def __getattr__(name: str):
    # MultiprocessBackend pulls in concurrent.futures; load it on first use.
    if name == "MultiprocessBackend":
        from repro.core.backends.multiprocess import MultiprocessBackend

        return MultiprocessBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

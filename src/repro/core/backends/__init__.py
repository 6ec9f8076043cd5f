"""Execution backends for the scenario engine.

========== ==================================================== =========
name       runs tasks                                           parallel
========== ==================================================== =========
serial     inline in the calling process (debug/CI default)    no
process    on a persistent local process pool                   yes
========== ==================================================== =========

Pick one by name with :func:`create_backend` (what the engine and the
CLI's ``--backend`` flag use).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type

from ...errors import BackendError
from .base import (
    CHUNKS_PER_WORKER,
    ExecutionBackend,
    adaptive_chunk_size,
    chunked,
    run_chunk,
)
from .process import ProcessPoolBackend
from .serial import SerialBackend

#: Environment variable selecting the default backend by name.
BACKEND_ENV = "REPRO_BACKEND"

_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def backend_names() -> Tuple[str, ...]:
    """The backend names :func:`create_backend` accepts."""
    return tuple(_BACKENDS)


def default_backend_name(workers: int = 1) -> str:
    """The backend used when none is named explicitly.

    ``$REPRO_BACKEND`` wins (that is how CI re-runs the suite per
    backend); otherwise a process pool when ``workers > 1``, inline
    execution otherwise.
    """
    env = os.environ.get(BACKEND_ENV)
    if env:
        return env
    return "process" if workers > 1 else "serial"


def create_backend(
    name: Optional[str] = None, workers: int = 1
) -> ExecutionBackend:
    """Instantiate a backend by name via each class's ``create`` hook.

    ``name=None`` falls back to :func:`default_backend_name`.  Raises
    :class:`~repro.errors.BackendError` for unknown names.
    """
    resolved = name or default_backend_name(workers)
    try:
        cls = _BACKENDS[resolved]
    except KeyError:
        known = ", ".join(_BACKENDS)
        raise BackendError(
            f"unknown backend {resolved!r} (known: {known})"
        ) from None
    return cls.create(workers=workers)


__all__ = [
    "BACKEND_ENV",
    "CHUNKS_PER_WORKER",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "adaptive_chunk_size",
    "backend_names",
    "chunked",
    "create_backend",
    "default_backend_name",
    "run_chunk",
]

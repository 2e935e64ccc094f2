"""Parallel execution substrate mirroring the paper's multi-GPU setup.

:mod:`repro.parallel.backend` is the pluggable execution layer every engine
speaks — the :class:`ClientJob` -> :class:`ClientResult` contract, handed
over through the streaming ``submit_many(jobs) -> [JobHandle]`` /
``collect(handles)`` interface;
:mod:`repro.parallel.shm` publishes broadcast arrays into shared memory so
pool jobs ship descriptors instead of payloads; :mod:`repro.parallel.pool`
keeps the lower-level fork-pool primitives (:func:`parallel_map`,
:func:`resolve_workers`).
"""

from repro.parallel.backend import (
    BACKENDS,
    ClientJob,
    ClientResult,
    ExecutionBackend,
    JobHandle,
    ProcessPoolBackend,
    SerialBackend,
    build_job_runtime,
    execute_job,
    execute_jobs,
    make_backend,
    resolve_backend,
    resolve_streaming,
)
from repro.parallel.pool import parallel_map, resolve_workers
from repro.parallel.shm import ArrayRef, BroadcastStore, resolve_job_refs

__all__ = [
    "ClientJob",
    "ClientResult",
    "JobHandle",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKENDS",
    "ArrayRef",
    "BroadcastStore",
    "resolve_job_refs",
    "make_backend",
    "resolve_backend",
    "resolve_streaming",
    "execute_job",
    "execute_jobs",
    "build_job_runtime",
    "parallel_map",
    "resolve_workers",
]

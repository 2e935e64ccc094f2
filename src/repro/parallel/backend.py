"""Pluggable execution backends: one job contract for every engine kind.

Before this module the compute path was forked: the asynchronous policy had
a serial branch (live algorithm, live model — the only branch that could
carry packed client state and BatchNorm buffers) and a worker-pool branch
(stateless jobs only), and parameter sweeps ran grid points one at a time.
This module closes the fork with a task-runner/executor split (the same
architecture OpenFL uses): engines describe client work as
:class:`ClientJob` values and an :class:`ExecutionBackend` decides *where*
the jobs run.

The contract makes every job a pure function of its inputs::

    ClientJob(round_idx, client_id, x_ref,
              client_state, buffers, broadcast_state)
        -> ClientResult(update, new_state, buffers, train_loss)

* ``client_state`` — the client's persistent algorithm state (SCAFFOLD
  control variates, FedDyn duals) packed through the
  :class:`~repro.algorithms.base.FederatedAlgorithm` pack/unpack contract;
  ``None`` for stateless methods (and for engines whose live algorithm
  already holds the state, i.e. the serial backend under synchronous
  rounds).
* ``buffers`` — the server's current BatchNorm-style buffer estimate the
  client starts training from; the post-training buffers come back in the
  result.
* ``broadcast_state`` — server-side state the method's ``client_updates``
  reads (SCAFFOLD's ``c``, FedCM's ``Delta``), declared per method via
  ``broadcast_attrs``; ``None`` when the executing algorithm instance is
  the live one.

The execution interface is *streaming*: work is handed over in batches
and results are picked up as they finish, so an engine can overlap worker
compute with its own event processing::

    handles = backend.submit_many(jobs)       # returns immediately
    pairs   = backend.collect(handles,        # [(handle, result), ...]
                              block=True)     # block=False: only the ready ones

Every backend implements exactly these two calls; one ``submit_many`` lets
a transport that pays per call amortize it across the batch.

Whatever holds a job list — the serial backend, a pool task, a remote
worker's ``JOB_BATCH`` — runs it with one :func:`execute_jobs` call,
which trains consecutive runs of jobs as one stacked cohort
(:meth:`~repro.algorithms.base.FederatedAlgorithm.client_updates`).
A job's result does not depend on the jobs it is stacked with.

Because jobs are pure, the backends are interchangeable and bit-identical
(``tests/test_backends.py`` pins serial == process across all four engine
kinds, batch and streaming; ``tests/test_net.py`` pins :mod:`repro.net`'s
remote backend):

* :class:`SerialBackend` — in-process against the engine's live context and
  algorithm; the default, and the reference semantics.  ``submit_many``
  executes eagerly (there is nothing to overlap with in one process).
* :class:`ProcessPoolBackend` — forked worker processes that accept and
  return packed state and buffer dicts; ``submit_many`` is a true
  asynchronous hand-off (pickled tasks, each written to a worker's pipe
  once that worker has room).

Backends have an explicit lifecycle — ``bind`` → submit_many/collect →
``close()`` — and double as context managers.  An engine builds or takes
one backend at construction and closes it at the end of every ``run()``,
whether the run raises or not, so a failed run still reaps its worker
pool; a closed backend binds again, so the next run re-uses the same
instance.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import Callable, Sequence

import numpy as np

from repro.parallel.pool import resolve_workers
from repro.parallel.shm import BroadcastStore, resolve_job_refs
from repro.simulation.context import SimulationContext
from repro.utils.validation import positive_count

#: seconds :meth:`ProcessPoolBackend.close` waits for in-flight pool tasks
#: before it gives up on draining and kills the workers still busy
_CLOSE_DRAIN_S = 5.0
#: seconds a pool worker with nothing outstanding gets to exit once stopped
#: (or once its pipe closed) before it is killed
_STOP_JOIN_S = 1.0
#: tasks a pool worker holds at once: the one it runs and the next, in hand
#: when that one ends; the rest wait in the parent for the first free worker
_WORKER_TASKS = 2

__all__ = [
    "ClientJob",
    "ClientResult",
    "JobHandle",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKENDS",
    "make_backend",
    "resolve_backend",
    "resolve_streaming",
    "execute_job",
    "execute_jobs",
    "build_job_runtime",
    "warn_on_replica_config_mismatch",
]


@dataclass(frozen=True)
class ClientJob:
    """One unit of client work, self-contained and order-independent.

    Attributes:
        round_idx: RNG round key for ``client_updates`` (the round for
            barrier/deadline engines, the dispatch sequence for async).
        client_id: which client trains.
        x_ref: the broadcast parameter vector trained from.  In transit a
            transport may substitute a descriptor (a shared-memory
            :class:`~repro.parallel.shm.ArrayRef`, a wire token) that the
            executing side resolves back to the real array before compute.
        client_state: packed per-client algorithm state to train from, or
            None when the executing algorithm already holds it (stateless
            methods, or the serial backend under synchronous rounds).
        buffers: model buffers (BatchNorm running stats) to start from, or
            None for buffer-free models.
        broadcast_state: server-side method state ``client_updates`` reads
            (see ``FederatedAlgorithm.broadcast_attrs``), or None when the
            executing instance is the live one.
        collect_timing: stamp the result with queue-wait/compute timing
            (set by a recording :class:`~repro.runtime.events.EventCore`;
            the flag rides in the job because pool workers fork at bind
            time, before any recorder exists).
        submitted_at: the queue-wait anchor, ``time.monotonic()`` where the
            event core built the job (or, unset, where a backend accepted
            it); monotonic is cross-process comparable on Linux.
    """

    round_idx: int
    client_id: int
    x_ref: np.ndarray = field(repr=False)
    client_state: dict | None = field(default=None, repr=False)
    buffers: dict | None = field(default=None, repr=False)
    broadcast_state: dict | None = field(default=None, repr=False)
    collect_timing: bool = field(default=False, repr=False, compare=False)
    submitted_at: float | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ClientResult:
    """What one :class:`ClientJob` produced.

    Attributes:
        update: the algorithm's ``ClientUpdate`` (displacement + extras).
        new_state: packed post-training client state (None if the job
            carried no ``client_state``).
        buffers: post-training model buffers (None if the job carried no
            ``buffers``).
        train_loss: mean local training loss, when the method reports one.
        timing: per-job timing dict (``queue_wait_s``, ``compute_s``, and —
            under the process pool — ``pickle_bytes``), present only when
            the job asked for it via ``collect_timing``.
    """

    update: object = field(repr=False)
    new_state: dict | None = field(default=None, repr=False)
    buffers: dict | None = field(default=None, repr=False)
    train_loss: float | None = None
    timing: dict | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class JobHandle:
    """Ticket for one submitted :class:`ClientJob`.

    Identity (hash/equality) is the backend-local submission sequence
    number, so handles work as dictionary keys on both sides of the
    contract; the job rides along (as actually submitted, timing stamps
    included) for journaling at collect time.  Handles are plain data —
    the backend keeps the future/async-result internally — so policies can
    hold them across checkpoints without dragging live resources into
    pickles.
    """

    seq: int
    job: ClientJob = field(repr=False, compare=False)


def execute_job(ctx: SimulationContext, algorithm, *jobs: ClientJob) -> list[ClientResult]:
    """Run one stacked cohort of jobs against ``(ctx, algorithm)``.

    ``execute_job(ctx, algorithm, job)`` is the one-job case; several jobs
    must be a cohort :func:`execute_jobs` would stack (distinct clients, one
    ``broadcast_state`` object, no model buffers).  Restore buffers,
    broadcast state and every job's client state, train the cohort through
    ``algorithm.client_updates``, and pack what changed into each job's
    result, in job order.
    """
    head = jobs[0]
    if head.buffers is not None:
        ctx.model.set_buffers(head.buffers)
    if head.broadcast_state is not None:
        algorithm.unpack_broadcast_state(head.broadcast_state)
    for job in jobs:
        if job.client_state is not None:
            algorithm.unpack_client_state(job.client_id, job.client_state)
    updates = algorithm.client_updates(
        ctx, [(job.round_idx, job.client_id, job.x_ref) for job in jobs]
    )
    results = []
    for job, update in zip(jobs, updates):
        loss = update.extras.get("train_loss")
        results.append(ClientResult(
            update=update,
            new_state=(
                algorithm.pack_client_state(job.client_id)
                if job.client_state is not None
                else None
            ),
            buffers=ctx.model.get_buffers(copy=True) if job.buffers is not None else None,
            train_loss=float(loss) if loss is not None else None,
        ))
    return results


def _same_broadcast(a: dict | None, b: dict | None) -> bool:
    """Whether two jobs carry one broadcast state: the same dict, or dicts
    holding the same value objects (a pool worker resolves each job's
    shared-memory refs into a dict of its own over one cached array)."""
    if a is b:
        return True
    return (
        a is not None and b is not None and a.keys() == b.keys()
        and all(a[k] is b[k] for k in a)
    )


def _cohorts(ctx: SimulationContext, jobs: Sequence[ClientJob]) -> list[list[ClientJob]]:
    """Split a job list, in order, into the consecutive runs that stack.

    A run ends before a client id it already holds (the unpacked state would
    be overwritten), before a different broadcast state, and after every job
    when the model has buffers (BatchNorm statistics are per client, so
    those models train one job at a time).
    """
    cohorts: list[list[ClientJob]] = []
    ids: set[int] = set()
    alone = bool(ctx.model.buffers)
    for job in jobs:
        run = cohorts[-1] if cohorts else None
        if (
            run is None or alone or job.client_id in ids
            or not _same_broadcast(job.broadcast_state, run[0].broadcast_state)
        ):
            cohorts.append([job])
            ids = {job.client_id}
        else:
            run.append(job)
            ids.add(job.client_id)
    return cohorts


def execute_jobs(
    ctx: SimulationContext, algorithm, jobs: Sequence[ClientJob], job_bytes: int | None = None
) -> list[ClientResult]:
    """Run a job list against ``(ctx, algorithm)``; results in job order.

    *The* worker-side compute path, shared by every executor — the serial
    backend, pool tasks, and :mod:`repro.net`'s remote worker processes —
    so every execution path computes and reports alike.
    The list runs as consecutive stacked cohorts (:func:`execute_job`).
    Jobs that ask for timing (``collect_timing``) get ``queue_wait_s``
    (submission to the start of their cohort; ``time.monotonic`` is
    cross-process comparable on one machine), ``compute_s`` (their cohort's
    wall time split evenly across its jobs) and — where the jobs actually
    crossed a process boundary — ``pickle_bytes``, the serialized size per
    job the *transport* already measured (``job_bytes``: the pool's chunk
    payload share).  Executors never re-pickle a job just to weigh it.
    Remote transports additionally stamp ``send_bytes`` / ``recv_bytes`` on
    the service side, where the framed sizes are known.
    """
    results: list[ClientResult] = []
    for cohort in _cohorts(ctx, jobs):
        if not any(job.collect_timing for job in cohort):
            results += execute_job(ctx, algorithm, *cohort)
            continue
        start = time.monotonic()
        done = execute_job(ctx, algorithm, *cohort)
        compute_s = (time.monotonic() - start) / len(cohort)
        for job, res in zip(cohort, done):
            if job.collect_timing:
                timing = {
                    "queue_wait_s": (
                        start - job.submitted_at if job.submitted_at is not None else 0.0
                    ),
                    "compute_s": compute_s,
                }
                if job_bytes is not None:
                    timing["pickle_bytes"] = int(job_bytes)
                res = replace(res, timing=timing)
            results.append(res)
    return results


def warn_on_replica_config_mismatch(algorithm) -> None:
    """Default worker replicas are ``type(algorithm)()`` — flag silently
    diverging hyperparameters.

    Workers only run ``client_updates``, so a replica built with default
    constructor arguments is correct as long as every non-default
    hyperparameter is server-side.  Algorithms declare such knobs via a
    ``replica_safe_hyperparams`` class attribute (FedAsync/FedBuff whitelist
    all of theirs); anything else that differs from the default-constructed
    probe draws a warning instead of silently breaking the parallel ==
    serial bit-identity guarantee.
    """
    try:
        probe = type(algorithm)()
    except TypeError:
        warnings.warn(
            f"{type(algorithm).__name__} cannot be rebuilt with no arguments "
            "for worker replicas; pass algo_builder to the engine",
            stacklevel=3,
        )
        return
    # private attributes are runtime state (buffers, last-alpha traces), not
    # constructor config, and declared server-side knobs cannot affect
    # client_updates — only the remaining public knobs are compared
    safe = getattr(algorithm, "replica_safe_hyperparams", frozenset())

    def config_of(obj) -> dict:
        return {
            k: v for k, v in vars(obj).items()
            if not k.startswith("_") and k not in safe
        }

    a, b = config_of(algorithm), config_of(probe)
    mismatched = set(a) ^ set(b)
    for key in set(a) & set(b):
        try:
            if not bool(np.all(a[key] == b[key])):
                mismatched.add(key)
        except (TypeError, ValueError):
            mismatched.add(key)
    if mismatched:
        warnings.warn(
            f"worker replicas of {type(algorithm).__name__} are built with "
            f"default hyperparameters but the main instance differs in "
            f"{sorted(mismatched)}; pass algo_builder if any of these affect "
            "client_updates, or results will differ from the serial backend",
            stacklevel=3,
        )


class ExecutionBackend:
    """Where client jobs execute.

    Life cycle: construct (cheap, picks a worker count), :meth:`bind` to a
    problem (the engine's context plus replica builders — this is where
    pools spin up), :meth:`submit_many` / :meth:`collect` any number of
    times, :meth:`close` (or use the backend as a context manager).

    Subclasses implement :meth:`submit_many` and :meth:`collect`.

    Attributes:
        shares_state: True when jobs run against the engine's *live*
            algorithm and model, so engine-side state is visible to jobs
            without being shipped through the job contract.  Engines use
            this to skip packing client/broadcast state for the serial
            backend, and to keep lazy-batch dispatch (there is nothing to
            overlap with when compute runs in the engine's own process).
    """

    name = "base"
    shares_state = False
    # class-level defaults so subclasses need not call super().__init__();
    # the first mutation creates the instance attribute
    _handle_seq = 0

    def bind(
        self,
        ctx: SimulationContext,
        algorithm,
        model_builder: Callable | None = None,
        algo_builder: Callable | None = None,
        loss_builder=None,
        sampler_builder=None,
    ) -> "ExecutionBackend":
        raise NotImplementedError

    # -- the streaming contract ----------------------------------------------
    def submit_many(self, jobs: Sequence[ClientJob]) -> list[JobHandle]:
        """Hand a batch of jobs over in one call; handles in job order.

        Returns immediately.  Transports that pay per-call overhead (pickle
        + IPC round-trip per pool task, one wire frame per remote job)
        amortize it across the batch; results still come back through
        :meth:`collect` one handle at a time, and a job's result does not
        depend on the batch it came in.  Implementations stamp
        ``submitted_at`` (via :meth:`_stamp`) the moment a timed job is
        accepted, so ``queue_wait_s`` measures real queueing — unless the
        caller stamped an earlier anchor already (the event core stamps a
        job where it builds it).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement submit_many()"
        )

    def collect(
        self, handles: Sequence[JobHandle] | None = None, block: bool = True
    ) -> list[tuple[JobHandle, ClientResult]]:
        """Completed ``(handle, result)`` pairs for submitted jobs.

        Args:
            handles: which jobs to collect, in the order the pairs should
                come back; None means every outstanding job, in submit
                order.  Each handle is returned at most once across calls.
            block: wait for every requested job (the default); ``False``
                returns only the ones already finished.

        Every backend keeps one non-blocking contract, pinned per backend by
        ``tests/test_scaling.py``: ``collect(block=False)`` reports finished
        work only and never raises on a handle that is unknown, still
        running, or already collected (only ``block=True`` raises
        ``KeyError`` for an unknown/already-collected handle).
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement collect()")

    # -- helpers shared by implementations -----------------------------------
    def _make_handle(self, job: ClientJob) -> JobHandle:
        seq = self._handle_seq
        self._handle_seq = seq + 1
        return JobHandle(seq, job)

    @staticmethod
    def _stamp(job: ClientJob) -> ClientJob:
        """Anchor ``submitted_at`` now, unless the caller anchored earlier."""
        if job.collect_timing and job.submitted_at is None:
            return replace(job, submitted_at=time.monotonic())
        return job

    @staticmethod
    def _take(
        done: dict, handles: Sequence[JobHandle] | None, block: bool
    ) -> list[tuple[JobHandle, ClientResult]]:
        """Pop completed results for ``handles`` (None: all) out of ``done``."""
        out = []
        for h in list(done) if handles is None else handles:
            if h in done:
                out.append((h, done.pop(h)))
            elif block:
                raise KeyError(f"unknown or already-collected handle {h!r}")
        return out

    def transport_stats(self) -> dict:
        """Cumulative transport counters for observability (may be empty).

        In-process backends have no wire; :class:`repro.net`'s remote
        backend reports worker counts, bytes on the wire, and requeues.
        The recorder folds a non-empty dict into the journal's ``meta`` /
        ``stop`` / ``end`` records.
        """
        return {}

    def close(self) -> None:
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution against the live context — the reference
    semantics every other backend must reproduce bit-for-bit.

    ``submit_many`` executes eagerly: a single process has nothing to overlap
    compute with, and running at submission time preserves the live-state
    mutation order synchronous rounds rely on.
    """

    name = "serial"
    shares_state = True

    def __init__(self, workers: int | None = None) -> None:
        # accepts (and ignores) a worker count so make_backend is uniform
        self._ctx: SimulationContext | None = None
        self._algo = None
        self._done: dict[JobHandle, ClientResult] = {}

    def bind(self, ctx, algorithm, model_builder=None, algo_builder=None,
             loss_builder=None, sampler_builder=None) -> "SerialBackend":
        self._ctx = ctx
        self._algo = algorithm
        self._done = {}
        return self

    def submit_many(self, jobs: Sequence[ClientJob]) -> list[JobHandle]:
        """Execute the batch now, as one :func:`execute_jobs` call, so a
        recorded cohort stacks exactly like an unrecorded one."""
        if self._ctx is None:
            raise RuntimeError("SerialBackend.submit_many before bind()")
        handles = [self._make_handle(self._stamp(job)) for job in jobs]
        results = execute_jobs(self._ctx, self._algo, [h.job for h in handles])
        self._done.update(zip(handles, results))
        return handles

    def collect(self, handles=None, block=True):
        # everything completed at submit time; block never has to wait
        return self._take(self._done, handles, block)

    def run_jobs_inline(self, jobs: Sequence[ClientJob]) -> list[ClientResult]:
        """Execute a batch without handle bookkeeping, results in job order.

        Same compute path as ``submit_many`` (one :func:`execute_jobs` call
        against the live context), minus the handle/dict churn that only
        exists to serve the streaming contract.  The core's
        ``run_backend_jobs`` — which discards handles anyway — takes this
        lane on unrecorded runs, where nothing (journal, timing stamps)
        observes the difference.
        """
        if self._ctx is None:
            raise RuntimeError("SerialBackend.run_jobs_inline before bind()")
        return execute_jobs(self._ctx, self._algo, [self._stamp(job) for job in jobs])

    def close(self) -> None:
        self._done = {}


def build_job_runtime(model_builder, dataset, config, loss_builder=None,
                      sampler_builder=None, algo_builder=None):
    """Build one worker replica: the ``(ctx, algorithm)`` jobs execute against.

    The single construction path for every out-of-process executor — pool
    workers (via fork-shipped builders) and :mod:`repro.net` remote
    workers (via builders rebuilt from the shipped
    :class:`~repro.experiments.ExperimentSpec`) — so a replica is always
    assembled the same way and stays bit-identical to the serial reference.
    """
    ctx = SimulationContext(
        model_builder(), dataset, config,
        loss_builder=loss_builder, sampler_builder=sampler_builder,
    )
    algo = algo_builder()
    algo.setup(ctx)
    return ctx, algo


# -- process pool ------------------------------------------------------------
# worker-global replica: (context, algorithm) built once per process
_WORKER: dict = {}


def _pool_worker_init(model_builder, dataset, config, loss_builder,
                      sampler_builder, algo_builder) -> None:
    _WORKER["ctx"], _WORKER["algo"] = build_job_runtime(
        model_builder, dataset, config,
        loss_builder=loss_builder, sampler_builder=sampler_builder,
        algo_builder=algo_builder,
    )


def _pool_worker_run_payload(payload: bytes) -> list[ClientResult]:
    """Run one pre-pickled chunk of jobs; the pool task granularity.

    The parent pickles the chunk itself and writes those bytes to the
    worker's pipe as they are, so the serialized size is known on both
    sides without any extra ``pickle.dumps``: each job's ``pickle_bytes``
    is its share of the chunk payload.
    """
    jobs = pickle.loads(payload)
    share = len(payload) // max(len(jobs), 1)
    return execute_jobs(
        _WORKER["ctx"], _WORKER["algo"], [resolve_job_refs(job) for job in jobs],
        job_bytes=share,
    )


def _pool_worker_reply(payload: bytes) -> bytes:
    """The pickled reply to one task: ``(True, results)``, or ``(False,
    exception)`` with the worker's traceback as a note.  An exception that
    does not survive pickling comes back as a ``RuntimeError`` carrying
    its repr."""
    try:
        return pickle.dumps((True, _pool_worker_run_payload(payload)),
                            pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        # what exc.add_note does, on Python 3.10 too (shown from 3.11 on)
        exc.__notes__ = [*getattr(exc, "__notes__", ()),
                         f"in process-pool worker {os.getpid()}:\n{traceback.format_exc()}"]
        try:
            reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            pickle.loads(reply)
            return reply
        except Exception:
            return pickle.dumps((False, RuntimeError(repr(exc))),
                                pickle.HIGHEST_PROTOCOL)


def _pool_worker_main(conn, inherited, builders) -> None:
    """A forked pool worker: build the replica, then answer tasks in order
    until an empty stop payload or EOF.

    ``inherited`` are the parent's pipe ends the fork copied in (this
    worker's and every earlier one's); closing them is what makes the
    parent's exit reach every worker as EOF.  A reader thread takes each
    task off the pipe as it arrives, so the parent's write never waits for
    the task before it to finish, and the loop writing a large reply never
    stops the parent writing: neither side can block writing while the
    other blocks writing back.
    """
    for end in inherited:
        end.close()
    tasks: queue.SimpleQueue = queue.SimpleQueue()

    def read() -> None:
        try:
            while payload := conn.recv_bytes():
                tasks.put(payload)
        except (EOFError, OSError):
            pass  # the parent is gone
        tasks.put(None)

    threading.Thread(target=read, daemon=True).start()
    _pool_worker_init(*builders)
    for payload in iter(tasks.get, None):
        try:
            conn.send_bytes(_pool_worker_reply(payload))
        except OSError:  # the parent is gone
            return


class _PoolTask:
    """One chunk in flight; ``reply`` is ``(ok, results or exception)`` once
    its worker answered."""

    __slots__ = ("reply",)

    def __init__(self) -> None:
        self.reply: tuple | None = None


class _PoolWorker:
    """A forked worker, the parent's end of its pipe, and its outstanding
    tasks, oldest first (a worker answers in the order it was sent)."""

    __slots__ = ("process", "conn", "pending")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pending: deque[_PoolTask] = deque()


class ProcessPoolBackend(ExecutionBackend):
    """Fork-based process pool speaking the full job contract.

    Workers accept and return packed state and buffer dicts, so stateful
    methods (SCAFFOLD, FedDyn) and BatchNorm buffer tracking run under the
    pool with results bit-identical to the serial backend.
    :meth:`bind` forks ``workers`` daemonic processes, each joined to the
    parent by one duplex pipe.  ``submit_many`` pickles each chunk into a
    backlog and returns; a worker holds at most ``_WORKER_TASKS`` tasks,
    and is handed the next from the backlog when a reply of its comes
    back, so a free worker takes the next task however uneven the jobs.
    ``collect`` waits on the pipes and matches each reply to its worker's
    oldest outstanding task.  The parent runs no helper thread: the event
    loop itself is the pool's only reader and writer.  A worker that dies
    shows up as EOF on its pipe, and its tasks raise at ``collect``.

    Two transport optimizations, both off by default and both identity-
    preserving (jobs are stamped from dispatch-time state before they reach
    the backend, and results are applied in virtual-time order):

    * ``job_batch=k`` — :meth:`submit_many` groups k jobs per pool task,
      amortizing one pickle + one pipe round-trip across the group.
    * ``shared_memory=True`` — broadcast arrays (``x_ref``, round-stable
      ``broadcast_state`` entries) are published once per version into a
      :class:`~repro.parallel.shm.BroadcastStore` and jobs ship tiny
      :class:`~repro.parallel.shm.ArrayRef` descriptors instead; workers
      attach the segments read-only.  Segments are reference-counted per
      in-flight job and the store is unlinked from :meth:`close`, so a run
      that raises mid-stream (engines close their backend in a
      ``finally``) still reaps its shared memory.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        job_batch: int | None = None,
        shared_memory: bool = False,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.job_batch = (
            positive_count(job_batch, "job_batch") if job_batch is not None else None
        )
        self.shared_memory = bool(shared_memory)
        self._pool: list[_PoolWorker] | None = None
        # pickled tasks no worker has room for yet, oldest first
        self._backlog: deque[tuple[_PoolTask, bytes]] = deque()
        self._store: BroadcastStore | None = None
        # handle -> (chunk task, index into the chunk's result list)
        self._inflight: dict[JobHandle, tuple[_PoolTask, int]] = {}
        # shm refs acquired per handle, released at collect
        self._handle_refs: dict[JobHandle, tuple] = {}
        self._jobs_submitted = 0
        self._tasks_submitted = 0

    def bind(self, ctx, algorithm, model_builder=None, algo_builder=None,
             loss_builder=None, sampler_builder=None) -> "ProcessPoolBackend":
        if model_builder is None:
            raise ValueError(
                f"backend {self.name!r} needs a model_builder for worker replicas"
            )
        if algo_builder is None:
            warn_on_replica_config_mismatch(algorithm)
            algo_builder = type(algorithm)
        self.close()
        if self.shared_memory:
            self._store = BroadcastStore()
        builders = (model_builder, ctx.dataset, ctx.config,
                    loss_builder, sampler_builder, algo_builder)
        fork = mp.get_context("fork")
        self._pool = []
        for _ in range(self.workers):
            ours, theirs = fork.Pipe()
            inherited = [w.conn for w in self._pool] + [ours]
            process = fork.Process(target=_pool_worker_main,
                                   args=(theirs, inherited, builders), daemon=True)
            process.start()
            theirs.close()
            self._pool.append(_PoolWorker(process, ours))
        return self

    def submit_many(self, jobs: Sequence[ClientJob]) -> list[JobHandle]:
        """Chunk by ``job_batch`` and queue each chunk, pickled, as one
        task; a worker with room gets it at once."""
        if self._pool is None:
            raise RuntimeError("ProcessPoolBackend.submit_many before bind()")
        chunk = self.job_batch or 1
        handles: list[JobHandle] = []
        for start in range(0, len(jobs), chunk):
            if not self._pool:  # the last one exited, here or earlier
                raise RuntimeError(
                    "ProcessPoolBackend.submit_many after every worker exited"
                )
            group = [self._stamp(j) for j in jobs[start:start + chunk]]
            if self._store is not None:
                packed = [self._store.pack_job(j) for j in group]
                ship = [j for j, _ in packed]
                refs = [r for _, r in packed]
            else:
                ship, refs = group, [()] * len(group)
            payload = pickle.dumps(tuple(ship), pickle.HIGHEST_PROTOCOL)
            task = _PoolTask()
            self._tasks_submitted += 1
            for idx, (job_s, job_refs) in enumerate(zip(group, refs)):
                handle = self._make_handle(job_s)
                self._inflight[handle] = (task, idx)
                if job_refs:
                    self._handle_refs[handle] = job_refs
                handles.append(handle)
            self._jobs_submitted += len(group)
            self._backlog.append((task, payload))
            self._feed()
        return handles

    def _feed(self) -> None:
        """Write backlog tasks, oldest first, to the least-loaded workers
        while one has room."""
        while self._backlog and self._pool:
            worker = min(self._pool, key=lambda w: len(w.pending))
            if len(worker.pending) >= _WORKER_TASKS:
                return
            task, payload = self._backlog.popleft()
            worker.pending.append(task)
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                self._retire(worker)  # it exited; the task fails at collect
            except BaseException:
                # interrupted mid-write: the worker would read the rest of
                # this task as the next one
                self._retire(worker, kill=True)
                raise

    def _receive(self, timeout: float | None) -> None:
        """Read every reply that is ready, waiting up to ``timeout`` (None:
        for good) for the first, into each worker's oldest pending task;
        then refill the workers from the backlog."""
        busy = {w.conn: w for w in self._pool if w.pending}
        for conn in wait(list(busy), timeout):
            worker = busy[conn]
            try:
                while worker.pending:
                    reply = pickle.loads(conn.recv_bytes())
                    worker.pending.popleft().reply = reply
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                self._retire(worker)
            except BaseException:
                # interrupted mid-read: the rest of this reply would be
                # read as the next one's header
                self._retire(worker, kill=True)
                raise
        self._feed()

    def _retire(self, worker: _PoolWorker, kill: bool = False) -> None:
        """Take a worker out of the pool: one whose pipe broke (it exited),
        or with ``kill`` one whose pipe was left mid-message.  It is reaped,
        killed first if it still runs; its outstanding tasks, and the
        backlog once no worker is left, fail with an error naming its pid
        and exit code."""
        process = worker.process
        if not kill:
            process.join(_STOP_JOIN_S)  # its pipe closed as it exited
        if process.exitcode is None:
            process.kill()
            process.join()
        error = RuntimeError(
            f"process-pool worker pid {process.pid} exited with code "
            f"{process.exitcode} with {len(worker.pending)} task(s) outstanding"
        )
        self._pool.remove(worker)
        worker.conn.close()
        stranded = list(worker.pending)
        worker.pending.clear()
        if not self._pool:
            stranded += [task for task, _ in self._backlog]
            self._backlog.clear()
        for task in stranded:
            task.reply = (False, error)

    def collect(self, handles=None, block=True):
        if self._pool:
            self._receive(0.0)
        out = []
        for h in list(self._inflight) if handles is None else handles:
            try:
                task, idx = self._inflight[h]
            except KeyError:
                if block:
                    raise KeyError(
                        f"unknown or already-collected handle {h!r}"
                    ) from None
                continue
            if task.reply is None:
                if not block:
                    continue
                while task.reply is None:
                    self._receive(None)
            ok, value = task.reply
            if not ok:
                raise value  # the worker's exception, or its death
            del self._inflight[h]
            for ref in self._handle_refs.pop(h, ()):
                self._store.release(ref)
            out.append((h, value[idx]))
        return out

    def transport_stats(self) -> dict:
        """Pool transport counters — non-empty only when a transport
        optimization (batching / shared memory) is actually on."""
        if not self.shared_memory and not self.job_batch:
            return {}
        stats = {
            "transport": "pool",
            "jobs": self._jobs_submitted,
            "pool_tasks": self._tasks_submitted,
            "job_batch": self.job_batch or 1,
        }
        if self._store is not None:
            self._last_shm_stats = self._store.stats()
        if getattr(self, "_last_shm_stats", None):
            stats.update(self._last_shm_stats)  # survives the store's close
        return stats

    def close(self) -> None:
        try:
            if self._pool is not None:
                self._stop_workers()
        finally:
            self._pool = None
            if self._store is not None:
                # snapshot counters first: the journal's end record reads
                # transport_stats after the engine closed the backend
                self._last_shm_stats = self._store.stats()
                # after the workers are gone: none still maps the segments
                self._store.close()
                self._store = None
            self._inflight = {}
            self._handle_refs = {}

    def _stop_workers(self) -> None:
        """Stop and reap every worker.

        Each gets the empty stop payload at once and answers the tasks it
        holds first; a run that died with work in flight lets that finish
        for up to ``_CLOSE_DRAIN_S``, reading the replies so no worker
        stays blocked writing one.  A worker with nothing outstanding then
        gets at least ``_STOP_JOIN_S`` to exit; only one still busy past
        the bound, or still running after its own, is killed.  The reaping
        runs even if the drain raises.
        """
        self._backlog.clear()
        deadline = time.monotonic() + _CLOSE_DRAIN_S
        try:
            for w in self._pool:
                try:
                    w.conn.send_bytes(b"")
                except OSError:
                    pass  # it exited already; the join below reaps it
            while any(w.pending for w in self._pool):
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._receive(left)
        finally:
            for w in self._pool:
                left = deadline - time.monotonic()
                w.process.join(max(left, 0.0 if w.pending else _STOP_JOIN_S))
                if w.process.exitcode is None:
                    w.process.kill()
                    w.process.join()
                w.conn.close()


# "remote" registers lazily (module path string resolved at first use):
# repro.net imports the job contract from here, so a class reference would
# be a circular import — and the socket layer should not load unless used
BACKENDS: dict[str, "type | str"] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "remote": "repro.net.service:RemoteBackend",
}


def _resolve_backend_class(name: str) -> type:
    try:
        cls = BACKENDS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
    if isinstance(cls, str):
        import importlib

        mod_name, _, attr = cls.partition(":")
        cls = getattr(importlib.import_module(mod_name), attr)
        BACKENDS[name.lower()] = cls  # cache the resolved class
    return cls


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by registry name."""
    return _resolve_backend_class(name)(workers=workers)


def resolve_backend(
    name: str | None = None,
    workers: int | None = None,
    env: bool = False,
) -> str:
    """Resolve a backend name.

    Precedence: explicit ``name`` (anything but None/"auto") > the
    ``REPRO_BACKEND`` environment variable (only when ``env=True`` — the
    spec facade and sweeps opt in; direct engine construction does not, so
    tests and libraries keep explicit control) > ``"process"`` when
    ``workers`` asks for more than one > ``"serial"``.

    Inside a daemonic pool worker (a grid point of a process sweep) the
    implicit choices collapse to ``"serial"``, because nested process pools
    cannot fork; an explicit ``"process"`` there is refused.
    """
    daemon = mp.current_process().daemon
    if name is not None and name != "auto":
        if name.lower() not in BACKENDS:
            raise ValueError(
                f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
            )
        if daemon and name.lower() == "process":
            raise ValueError(
                "backend 'process' cannot run inside a process-pool worker "
                "(e.g. a grid point of a process sweep): a daemonic process "
                "cannot fork its own pool; set runtime.backend='auto' or "
                "'serial' for the runs inside the pool"
            )
        return name.lower()
    if env:
        env_name = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if env_name:
            if env_name not in BACKENDS:
                raise ValueError(
                    f"REPRO_BACKEND must be one of {sorted(BACKENDS)}, "
                    f"got {env_name!r}"
                )
            # a daemonic pool worker can neither fork a nested pool nor sit
            # listening for federation workers — both collapse to serial
            return (
                "serial"
                if (daemon and env_name in ("process", "remote"))
                else env_name
            )
    if workers is not None and workers > 1:
        return "serial" if daemon else "process"
    return "serial"


def resolve_streaming(streaming: bool | None = None, env: bool = False) -> bool:
    """Resolve the async engines' streaming-dispatch flag.

    Precedence: explicit ``streaming`` (True/False) > the
    ``REPRO_STREAMING`` environment variable (only when ``env=True`` — the
    spec facade opts in, mirroring ``REPRO_BACKEND``; direct engine
    construction does not) > on.  Streaming and lazy-batch dispatch produce
    bit-identical histories — every job is stamped from dispatch-time state
    — so the default is the overlap win; the knob exists for apples-to-
    apples wall-clock comparison and as an escape hatch.  Backends that
    share live state (serial) always keep the lazy-batch path regardless.
    """
    if streaming is not None:
        return bool(streaming)
    if env:
        raw = os.environ.get("REPRO_STREAMING", "").strip().lower()
        if raw:
            if raw in ("1", "true", "on", "yes"):
                return True
            if raw in ("0", "false", "off", "no"):
                return False
            raise ValueError(
                f"REPRO_STREAMING must be boolean-like (1/0/true/false/on/off), "
                f"got {raw!r}"
            )
    return True

"""The federation aggregator: remote workers behind the backend contract.

Two layers live here:

* :class:`AggregatorService` — a long-lived TCP listener (one background
  I/O thread, stdlib ``selectors``) that accepts worker registrations,
  schedules encoded :class:`~repro.parallel.ClientJob` frames across the
  registered workers (least-loaded first, bounded by a per-worker in-flight
  cap), collects results, and detects worker death — clean disconnect *or*
  heartbeat silence — by **requeueing** the dead worker's in-flight jobs
  onto survivors.  Jobs are pure functions of their payload, so a requeued
  job lands bit-identically wherever it re-executes.
* :class:`RemoteBackend` — the :class:`~repro.parallel.ExecutionBackend`
  adapter (registry name ``"remote"``): ``bind`` starts the service and
  waits for ``workers`` registrations, ``submit_many``/``collect`` speak
  the same streaming contract every other backend speaks, ``close`` shuts
  the service down.  Every engine kind, the recorder, snapshots and
  ``repro watch`` therefore work over the wire unchanged.

The aggregator is the engine process itself — ``repro serve`` runs an
ordinary experiment whose backend listens for workers, mirroring openfl's
aggregator/collaborator split.  Deployment knobs that are not experiment
science ride environment variables (overridable per constructor):

==============================  =============================================
``REPRO_NET_HEARTBEAT``         worker heartbeat interval, seconds (1.0)
``REPRO_NET_HEARTBEAT_TIMEOUT`` silence declaring a worker dead (5.0)
``REPRO_NET_INFLIGHT``          per-worker in-flight job cap (4)
``REPRO_NET_WORKER_TIMEOUT``    bind-time wait for registrations (60)
``REPRO_BACKEND_ADDRESS``       default ``host:port`` for ``backend=remote``
==============================  =============================================
"""

from __future__ import annotations

import math
import os
import selectors
import socket
import sys
import threading
import time
from collections import OrderedDict, deque
from dataclasses import replace

import numpy as np

from repro.net.framing import (
    JOB_SCHEMA_VERSION,
    PROTOCOL_VERSION,
    XREF_CACHE_VERSIONS,
    FrameDecoder,
    FrameError,
    MsgType,
    XRefToken,
    encode_frame,
    parse_address,
)
from repro.parallel.backend import ClientResult, ExecutionBackend, JobHandle
from repro.utils.validation import positive_count

__all__ = ["AggregatorService", "RemoteBackend", "WorkerError"]

_RECV_CHUNK = 1 << 16


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def positive_seconds(value: float, name: str) -> float:
    """``value`` if finite and > 0, else a ValueError naming its source.

    A heartbeat timeout <= 0 drops every worker as soon as it registers; a
    negative interval spins the worker's heartbeat loop."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number of seconds > 0, got {value!r}")
    return float(value)


def env_inflight() -> int:
    """``REPRO_NET_INFLIGHT``, the per-worker in-flight cap: the environment,
    else 4."""
    raw = os.environ.get("REPRO_NET_INFLIGHT", "").strip()
    try:
        return positive_count(int(raw or 4), "REPRO_NET_INFLIGHT")
    except ValueError:
        raise ValueError(f"REPRO_NET_INFLIGHT must be an integer >= 1, got {raw!r}") from None


#: the service's timing knobs: environment variable -> default seconds
TIMING_ENV = {
    "REPRO_NET_HEARTBEAT": 1.0,
    "REPRO_NET_HEARTBEAT_TIMEOUT": 5.0,
    "REPRO_NET_WORKER_TIMEOUT": 60.0,
}


def env_seconds(name: str) -> float:
    """The :data:`TIMING_ENV` knob ``name``: the environment, else its default."""
    return positive_seconds(_env_float(name, TIMING_ENV[name]), name)


class WorkerError(RuntimeError):
    """A job raised on a remote worker; carries the worker-side traceback."""


class _Conn:
    """Per-connection server-side state (I/O thread only, except counters)."""

    __slots__ = (
        "sock", "addr", "decoder", "outbox", "worker_id",
        "registered", "last_seen", "inflight", "closing", "sent_versions",
    )

    def __init__(self, sock: socket.socket, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.decoder = FrameDecoder()
        self.outbox = bytearray()
        self.worker_id: int | None = None
        self.registered = False
        self.last_seen = time.monotonic()
        self.inflight: set[int] = set()
        self.closing = False  # flush the outbox, then close (handshake error)
        # server-side mirror of the worker's broadcast-version cache:
        # inserted exactly when a version is inlined on this conn, evicted
        # oldest-inserted-first at the same cap the worker uses — TCP frame
        # ordering keeps the two caches identical without any round-trip
        self.sent_versions: "OrderedDict[int, None]" = OrderedDict()


class AggregatorService:
    """Listen, register workers, schedule jobs, survive worker death.

    Thread model: the engine thread calls :meth:`submit_many` /
    :meth:`collect` / :meth:`stop`; one background thread owns every socket
    and the selector.  Shared queues and result maps are guarded by a single
    lock whose condition wakes blocking collects and registration waits.
    """

    def __init__(
        self,
        address: str,
        spec_payload: dict | None = None,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float | None = None,
        inflight_cap: int | None = None,
        batch_limit: int | None = None,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.spec_payload = spec_payload
        #: jobs per JOB_BATCH frame (further bounded by a worker's in-flight
        #: room); 1 keeps per-job scheduling granularity, the pre-batching
        #: behavior — broadcast-vector dedup is on either way
        self.batch_limit = (
            positive_count(batch_limit, "batch_limit") if batch_limit is not None else 1
        )
        self.heartbeat_interval = (
            positive_seconds(heartbeat_interval, "heartbeat_interval")
            if heartbeat_interval is not None
            else env_seconds("REPRO_NET_HEARTBEAT")
        )
        self.heartbeat_timeout = (
            positive_seconds(heartbeat_timeout, "heartbeat_timeout")
            if heartbeat_timeout is not None
            else env_seconds("REPRO_NET_HEARTBEAT_TIMEOUT")
        )
        self.inflight_cap = (
            positive_count(inflight_cap, "inflight_cap")
            if inflight_cap is not None
            else env_inflight()
        )
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        # seq -> (wire job, collect_timing, x_ref version | None): kept
        # until the result lands, so a requeue after worker death re-enters
        # scheduling with nothing lost (frames are encoded per assignment,
        # because the batch grouping and which versions to inline both
        # depend on the worker the jobs land on)
        self._wire_jobs: dict[int, tuple[object, bool, int | None]] = {}
        # per-seq share of the last assignment frame, for send_bytes timing
        self._sent_bytes: dict[int, int] = {}
        # broadcast-vector registry: the engine's x_ref is versioned by
        # object identity (the server mutates it only by replacement) and
        # shipped at most once per version per worker
        self._xref_obj: object | None = None
        self._xref_next_version = 0
        self._xref_store: dict[int, np.ndarray] = {}
        self._pending: deque[int] = deque()
        self._results: dict[int, ClientResult] = {}
        self._errors: dict[int, str] = {}
        self._conns: dict[int, _Conn] = {}  # keyed by fd
        self._next_worker_id = 0
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._thread_error: BaseException | None = None
        self._stopping = False
        # cumulative transport counters (read via stats())
        self._bytes_sent = 0
        self._bytes_received = 0
        self._workers_seen = 0
        self._workers_lost = 0
        self._requeued_jobs = 0
        self._batch_frames = 0
        self._bytes_saved = 0  # x_ref payloads not re-shipped (dedup wins)

    # -- lifecycle (engine thread) -------------------------------------------
    def start(self) -> "AggregatorService":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]  # resolve an ephemeral :0
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._thread = threading.Thread(
            target=self._serve, name="repro-aggregator", daemon=True
        )
        self._thread.start()
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _wake(self) -> None:
        try:
            if self._wake_w is not None:
                self._wake_w.send(b"\x01")
        except OSError:
            pass

    # -- engine-side API ------------------------------------------------------
    def submit_many(self, pairs: list[tuple[int, object]]) -> None:
        """Queue ``(seq, job)`` pairs in one call; the I/O thread ships them.

        The broadcast vector is swapped for an :class:`XRefToken` here (the
        engine thread, where object identity is meaningful); which workers
        still need the actual array is decided per assignment.
        """
        with self._lock:
            self._raise_if_dead()
            for seq, job in pairs:
                version = self._tokenize_locked(job)
                wire_job = (
                    replace(job, x_ref=XRefToken(version))
                    if version is not None
                    else job
                )
                self._wire_jobs[seq] = (
                    wire_job, bool(job.collect_timing), version
                )
                self._pending.append(seq)
        self._wake()

    def _tokenize_locked(self, job) -> int | None:
        """Version ``job.x_ref`` by identity; returns None for inline jobs."""
        ref = getattr(job, "x_ref", None)
        if not isinstance(ref, np.ndarray) or ref.nbytes == 0:
            return None
        if self._xref_obj is not ref:
            version = self._xref_next_version
            self._xref_next_version += 1
            self._xref_obj = ref
            self._xref_store[version] = ref
            # prune superseded versions nothing outstanding references
            # (outstanding wire jobs keep theirs alive for requeue)
            live = {v for _, _, v in self._wire_jobs.values() if v is not None}
            live.add(version)
            for stale in [v for v in self._xref_store if v not in live]:
                del self._xref_store[stale]
        return self._xref_next_version - 1

    def collect(
        self, seqs: list[int], block: bool, no_worker_timeout: float = 60.0
    ) -> dict[int, ClientResult]:
        """Results for ``seqs`` that are ready (all of them when blocking).

        Blocking raises :class:`WorkerError` for a job that raised remotely,
        and :class:`RuntimeError` after ``no_worker_timeout`` seconds spent
        with work outstanding but **zero** registered workers — with at
        least one live worker it waits indefinitely (requeues will land).
        """
        deadline_dead = None
        with self._lock:
            while True:
                self._raise_if_dead()
                for seq in seqs:
                    if seq in self._errors:
                        raise WorkerError(self._errors.pop(seq))
                ready = {s for s in seqs if s in self._results}
                if not block or len(ready) == len(seqs):
                    return {s: self._results.pop(s) for s in seqs if s in ready}
                if self._live_workers():
                    deadline_dead = None
                elif deadline_dead is None:
                    deadline_dead = time.monotonic() + no_worker_timeout
                elif time.monotonic() >= deadline_dead:
                    raise RuntimeError(
                        f"no workers registered for {no_worker_timeout:.0f}s "
                        f"with {len(seqs) - len(ready)} job(s) outstanding; "
                        "start workers with `repro worker --connect "
                        f"{self.address}`"
                    )
                self._wakeup.wait(timeout=0.2)

    def wait_for_workers(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._live_workers() < count:
                self._raise_if_dead()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{self._live_workers()}/{count} workers registered "
                        f"within {timeout:.0f}s; start workers with "
                        f"`repro worker --connect {self.address}`"
                    )
                self._wakeup.wait(timeout=min(remaining, 0.2))

    def stats(self) -> dict:
        with self._lock:
            return {
                "transport": "tcp",
                "address": self.address,
                "workers": self._live_workers(),
                "workers_seen": self._workers_seen,
                "workers_lost": self._workers_lost,
                "bytes_sent": self._bytes_sent,
                "bytes_received": self._bytes_received,
                "bytes_saved": self._bytes_saved,
                "batch_frames": self._batch_frames,
                "job_batch": self.batch_limit,
                "requeued_jobs": self._requeued_jobs,
            }

    def _live_workers(self) -> int:
        return sum(1 for c in self._conns.values() if c.registered)

    def _raise_if_dead(self) -> None:
        if self._thread_error is not None:
            raise RuntimeError(
                f"aggregator I/O thread died: {self._thread_error!r}"
            ) from self._thread_error

    # -- I/O thread -----------------------------------------------------------
    def _serve(self) -> None:
        try:
            self._serve_loop()
        except BaseException as exc:  # surface on the engine thread
            with self._lock:
                self._thread_error = exc
                self._wakeup.notify_all()
        finally:
            self._teardown()

    def _serve_loop(self) -> None:
        sel = self._selector
        while True:
            with self._lock:
                if self._stopping:
                    return
            for key, _ in sel.select(timeout=0.05):
                if key.data == "listener":
                    self._accept()
                elif key.data == "wake":
                    try:
                        self._wake_r.recv(4096)
                    except (BlockingIOError, OSError):
                        pass
                else:
                    self._service_conn(key.data, key.events)
            self._check_heartbeats()
            self._assign_pending()

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock, addr)
            self._conns[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _service_conn(self, conn: _Conn, events: int) -> None:
        if events & selectors.EVENT_READ:
            try:
                chunk = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                chunk = None
            except OSError:
                self._drop(conn, "connection error")
                return
            if chunk == b"":
                self._drop(conn, "disconnected")
                return
            if chunk:
                try:
                    messages = conn.decoder.feed(chunk)
                except FrameError as exc:
                    self._drop(conn, f"bad frame: {exc}")
                    return
                for msg_type, payload, nbytes in messages:
                    self._handle_message(conn, msg_type, payload, nbytes)
                    if conn.sock.fileno() < 0:
                        return  # dropped while handling
        if events & selectors.EVENT_WRITE:
            self._flush_outbox(conn)

    def _handle_message(self, conn, msg_type, payload, nbytes: int) -> None:
        conn.last_seen = time.monotonic()
        with self._lock:
            self._bytes_received += nbytes
        if msg_type is MsgType.REGISTER:
            self._register(conn, payload)
        elif msg_type is MsgType.RESULT:
            self._take_result(conn, payload, nbytes)
        elif msg_type is MsgType.HEARTBEAT:
            pass  # last_seen refresh above is the whole point
        elif msg_type is MsgType.ERROR:
            self._drop(conn, f"worker reported: {payload}")
        else:
            self._drop(conn, f"unexpected {msg_type.name} from worker")

    def _register(self, conn: _Conn, payload) -> None:
        info = payload if isinstance(payload, dict) else {}
        proto = info.get("protocol")
        schema = info.get("job_schema")
        if proto != PROTOCOL_VERSION or schema != JOB_SCHEMA_VERSION:
            conn.closing = True  # before queueing: the flush closes on drain
            self._queue_frame(conn, encode_frame(
                MsgType.ERROR,
                f"version mismatch: aggregator speaks protocol "
                f"{PROTOCOL_VERSION} / job schema {JOB_SCHEMA_VERSION}, "
                f"worker sent {proto} / {schema}",
            ))
            return
        with self._lock:
            conn.registered = True
            conn.worker_id = self._next_worker_id
            self._next_worker_id += 1
            self._workers_seen += 1
            self._wakeup.notify_all()
        self._queue_frame(conn, encode_frame(MsgType.WELCOME, {
            "worker_id": conn.worker_id,
            "spec": self.spec_payload,
            "heartbeat_interval": self.heartbeat_interval,
        }))

    def _take_result(self, conn: _Conn, payload, nbytes: int) -> None:
        try:
            seq, result, error = payload
        except (TypeError, ValueError):
            self._drop(conn, f"malformed RESULT payload {payload!r}")
            return
        conn.inflight.discard(seq)
        with self._lock:
            meta = self._wire_jobs.pop(seq, None)
            sent = self._sent_bytes.pop(seq, 0)
            if meta is None:
                # a duplicate from a worker declared dead after the job was
                # requeued and completed elsewhere — exactly-once wins
                return
            if error is not None:
                self._errors[seq] = error
            else:
                if meta[1]:  # collect_timing: stamp wire-byte accounting
                    timing = dict(result.timing or {})
                    timing["send_bytes"] = sent
                    timing["recv_bytes"] = nbytes
                    result = replace(result, timing=timing)
                self._results[seq] = result
            self._wakeup.notify_all()

    def _assign_pending(self) -> None:
        """Ship pending jobs: least-loaded worker first, batched per frame.

        Each iteration takes up to ``batch_limit`` jobs (never more than the
        chosen worker's in-flight room) and encodes them as one
        ``JOB_BATCH`` frame, inlining only the broadcast-vector versions
        this worker has not been sent yet.  With ``batch_limit=1`` the
        scheduling order is exactly the per-job least-loaded behavior.
        """
        while True:
            with self._lock:
                if not self._pending:
                    return
                workers = [
                    c for c in self._conns.values()
                    if c.registered and not c.closing
                    and len(c.inflight) < self.inflight_cap
                ]
                if not workers:
                    return
                conn = min(workers, key=lambda c: (len(c.inflight), c.worker_id))
                room = self.inflight_cap - len(conn.inflight)
                take = min(self.batch_limit, room, len(self._pending))
                seqs = [self._pending.popleft() for _ in range(take)]
                jobs = []
                needed: set[int] = set()
                inline: dict[int, np.ndarray] = {}
                for seq in seqs:
                    wire_job, _, version = self._wire_jobs[seq]
                    if version is not None:
                        needed.add(version)
                        if version in conn.sent_versions or version in inline:
                            # this worker holds (or is receiving) the array
                            # already: the job ships a token only
                            self._bytes_saved += int(
                                self._xref_store[version].nbytes
                            )
                        else:
                            inline[version] = self._xref_store[version]
                    jobs.append((seq, wire_job))
                # mirror the worker's cache update exactly: insert inlined
                # versions in dict order, then evict oldest-inserted entries
                # this frame does not reference until back under the cap
                # (the worker runs the identical insert+evict sequence)
                for version in inline:
                    conn.sent_versions[version] = None
                for version in list(conn.sent_versions):
                    if len(conn.sent_versions) <= XREF_CACHE_VERSIONS:
                        break
                    if version not in needed:
                        del conn.sent_versions[version]
                self._batch_frames += 1
            frame = encode_frame(MsgType.JOB_BATCH, (jobs, inline))
            share = len(frame) // max(take, 1)
            with self._lock:
                for seq in seqs:
                    self._sent_bytes[seq] = share
            conn.inflight.update(seqs)
            self._queue_frame(conn, frame)

    def _queue_frame(self, conn: _Conn, frame: bytes) -> None:
        first = not conn.outbox
        conn.outbox.extend(frame)
        with self._lock:
            self._bytes_sent += len(frame)  # committed to this conn's wire
        if first:
            try:
                self._selector.modify(
                    conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
                )
            except (KeyError, ValueError):
                pass
        self._flush_outbox(conn)

    def _flush_outbox(self, conn: _Conn) -> None:
        try:
            while conn.outbox:
                sent = conn.sock.send(conn.outbox)
                del conn.outbox[:sent]
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn, "send failed")
            return
        if conn.closing:
            self._drop(conn, "handshake rejected")
            return
        try:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        except (KeyError, ValueError):
            pass

    def _check_heartbeats(self) -> None:
        now = time.monotonic()
        for conn in list(self._conns.values()):
            if conn.registered and now - conn.last_seen > self.heartbeat_timeout:
                self._drop(
                    conn,
                    f"heartbeat timeout ({self.heartbeat_timeout:.1f}s silent)",
                )

    def _drop(self, conn: _Conn, reason: str) -> None:
        """Close a connection; requeue whatever it had in flight."""
        fd = conn.sock.fileno()
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(fd, None)
        with self._lock:
            was_worker = conn.registered
            if was_worker:
                self._workers_lost += 1
            requeue = [s for s in conn.inflight if s in self._wire_jobs]
            for seq in requeue:
                self._pending.appendleft(seq)
            self._requeued_jobs += len(requeue)
            self._wakeup.notify_all()
        conn.inflight.clear()
        if was_worker:
            print(
                f"repro.net: worker {conn.worker_id} lost ({reason}); "
                f"requeued {len(requeue)} job(s)",
                file=sys.stderr,
            )

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            try:
                conn.sock.setblocking(True)
                conn.sock.settimeout(1.0)
                conn.sock.sendall(encode_frame(MsgType.SHUTDOWN))
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._selector is not None:
            self._selector.close()


class RemoteBackend(ExecutionBackend):
    """Execution over the wire: jobs fan out to registered worker processes.

    ``shares_state`` is False, so the event core ships packed client state,
    buffers and broadcast state in every job — exactly the process-pool
    path — and results are bit-identical to the serial reference.
    ``submit_many`` queues a batch with the service and returns at once;
    ``collect`` reads the results the service's I/O thread has gathered.

    Args:
        workers: registrations to wait for at ``bind`` (default 1); more
            workers may join later, fewer may remain after failures.
        address: ``host:port`` to listen on (port 0 = ephemeral); defaults
            to ``REPRO_BACKEND_ADDRESS``.
        spec: the :class:`~repro.experiments.ExperimentSpec` this run
            executes — shipped to workers in the WELCOME handshake so they
            rebuild bit-identical replicas.  The spec facade wires this;
            constructing by name (``make_backend("remote")``) leaves it
            unset and ``bind`` raises.
        job_batch: jobs per wire frame (``runtime.job_batch``); 1
            (default) keeps per-job least-loaded scheduling.
            Broadcast-vector dedup is always on.
    """

    name = "remote"
    shares_state = False

    def __init__(self, workers: int | None = None, address: str | None = None,
                 spec=None, job_batch: int | None = None) -> None:
        self.min_workers = max(1, workers or 1)
        self.job_batch = (
            positive_count(job_batch, "job_batch") if job_batch is not None else None
        )
        self._address = address or os.environ.get(
            "REPRO_BACKEND_ADDRESS", ""
        ).strip() or None
        self.spec = spec
        self._service: AggregatorService | None = None
        self._outstanding: dict[int, JobHandle] = {}
        self._last_stats: dict = {}

    def bind(self, ctx, algorithm, model_builder=None, algo_builder=None,
             loss_builder=None, sampler_builder=None) -> "RemoteBackend":
        if self._address is None:
            raise ValueError(
                "backend 'remote' needs an address: set "
                "runtime.backend_address (or REPRO_BACKEND_ADDRESS) to "
                "HOST:PORT"
            )
        if self.spec is None:
            raise ValueError(
                "backend 'remote' needs the run's ExperimentSpec to ship to "
                "workers; construct it through the spec facade "
                "(runtime.backend='remote' / REPRO_BACKEND=remote) rather "
                "than by bare name"
            )
        worker_timeout = env_seconds("REPRO_NET_WORKER_TIMEOUT")
        self.close()
        self._service = AggregatorService(
            self._address,
            spec_payload=self.spec.to_dict(),
            batch_limit=self.job_batch,
        ).start()
        print(
            f"repro.net: aggregator listening on {self._service.address}; "
            f"waiting for {self.min_workers} worker(s)",
            file=sys.stderr,
        )
        try:
            self._service.wait_for_workers(self.min_workers, timeout=worker_timeout)
        except BaseException:
            self.close()
            raise
        return self

    def submit_many(self, jobs) -> list[JobHandle]:
        """Queue a burst of jobs in one service call.

        The service groups them into ``JOB_BATCH`` frames at assignment
        time (bounded by ``job_batch`` and each worker's in-flight room),
        so a k-job burst costs one lock round-trip here and ~k/batch
        frames on the wire instead of k of each.
        """
        if self._service is None:
            raise RuntimeError("RemoteBackend.submit_many before bind()")
        handles = [self._make_handle(self._stamp(job)) for job in jobs]
        for handle in handles:
            self._outstanding[handle.seq] = handle
        self._service.submit_many([(h.seq, h.job) for h in handles])
        return handles

    def collect(self, handles=None, block=True):
        if self._service is None:
            raise RuntimeError("RemoteBackend.collect before bind()")
        if handles is None:
            wanted = list(self._outstanding.values())
        else:
            wanted = []
            for h in handles:
                if h.seq not in self._outstanding:
                    if block:
                        raise KeyError(
                            f"unknown or already-collected handle {h!r}"
                        )
                    continue
                wanted.append(h)
        ready = self._service.collect([h.seq for h in wanted], block=block)
        out = []
        for h in wanted:
            if h.seq in ready:
                del self._outstanding[h.seq]
                out.append((h, ready[h.seq]))
        return out

    def transport_stats(self) -> dict:
        if self._service is not None:
            self._last_stats = self._service.stats()
        return dict(self._last_stats)

    def close(self) -> None:
        if self._service is not None:
            self._last_stats = self._service.stats()
            self._service.stop()
            self._service = None
        self._outstanding = {}

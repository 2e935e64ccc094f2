"""The federation worker: ``repro worker --connect HOST:PORT``.

A worker is openfl's *collaborator* shape: a long-lived process that

1. connects to the aggregator (retrying while it is not up yet),
2. sends a versioned ``REGISTER`` handshake,
3. receives ``WELCOME`` carrying the run's serialized
   :class:`~repro.experiments.ExperimentSpec` and rebuilds a local replica
   — the *same* dataset / model / algorithm construction the pool workers
   get via fork, but rebuilt from the spec because closures cannot cross
   machines (:func:`repro.parallel.build_job_runtime`),
4. loops: ``JOB`` / ``JOB_BATCH`` in, one :func:`repro.parallel.execute_jobs`
   call per message (the exact pool-worker compute path, so a batch trains
   as stacked cohorts), one ``RESULT`` out per job — a batch that raises
   ships its traceback back for each of its jobs instead of killing the
   worker.  Batched jobs may carry an
   :class:`~repro.net.framing.XRefToken` in place of the broadcast vector,
   resolved from a small version cache mirrored with the aggregator,
5. heartbeats from a background thread at the aggregator-announced
   interval, so liveness is signalled even mid-compute,
6. exits on ``SHUTDOWN`` / clean aggregator close.

Determinism: jobs are pure functions of their payload and replicas are
rebuilt from the same spec, so a run's history is bit-identical whether
jobs execute serially, on a fork pool, or on remote workers — whichever
worker happens to pick each job up.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import replace

from repro.net.framing import (
    JOB_SCHEMA_VERSION,
    PROTOCOL_VERSION,
    XREF_CACHE_VERSIONS,
    FrameError,
    MsgType,
    XRefToken,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["WorkerClient", "run_worker", "default_build_runtime"]


def default_build_runtime(spec_payload: dict):
    """Rebuild the ``(ctx, algorithm)`` replica a spec's jobs execute against.

    Mirrors what the spec facade ships to pool workers: the problem from
    :func:`~repro.experiments.build_problem`, the replica builders from
    :func:`~repro.experiments.replica_builders`, assembled by
    :func:`~repro.parallel.build_job_runtime`.  Imported lazily so the
    socket layer stays importable without the experiments stack.
    """
    from repro.experiments import ExperimentSpec, build_problem, replica_builders
    from repro.parallel import build_job_runtime

    spec = ExperimentSpec.from_dict(spec_payload)
    ds, model_builder, cfg = build_problem(spec)
    algo_builder, loss_builder, sampler_builder = replica_builders(spec)
    return build_job_runtime(
        model_builder, ds, cfg,
        loss_builder=loss_builder, sampler_builder=sampler_builder,
        algo_builder=algo_builder,
    )


class WorkerClient:
    """One aggregator connection: register, execute jobs, heartbeat.

    Args:
        address: the aggregator's ``host:port``.
        build_runtime: ``spec_payload -> (ctx, algorithm)`` replica factory
            (injectable for tests; default rebuilds from the shipped spec).
        connect_timeout: seconds to keep retrying the initial TCP connect
            while the aggregator is not up yet.
    """

    def __init__(self, address: str, build_runtime=None,
                 connect_timeout: float = 30.0) -> None:
        self.host, self.port = parse_address(address)
        self.build_runtime = build_runtime or default_build_runtime
        self.connect_timeout = connect_timeout
        self.worker_id: int | None = None
        self.jobs_done = 0
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._stop_beat = threading.Event()

    # -- plumbing -------------------------------------------------------------
    def _connect(self) -> socket.socket:
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.05
        while True:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=10.0)
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _send(self, msg_type: MsgType, payload: object = None) -> None:
        # the heartbeat thread and the job loop share the socket; frames
        # must not interleave mid-write
        with self._send_lock:
            send_frame(self._sock, msg_type, payload)

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop_beat.wait(timeout=interval):
            try:
                self._send(MsgType.HEARTBEAT)
            except OSError:
                return  # the main loop will see the close and exit

    # -- the session ----------------------------------------------------------
    def run(self) -> int:
        """Serve one aggregator session; returns jobs executed."""
        self._sock = self._connect()
        beat: threading.Thread | None = None
        try:
            self._send(MsgType.REGISTER, {
                "protocol": PROTOCOL_VERSION,
                "job_schema": JOB_SCHEMA_VERSION,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            })
            msg = recv_frame(self._sock)
            if msg is None:
                raise FrameError("aggregator closed during handshake")
            msg_type, payload = msg
            if msg_type is MsgType.ERROR:
                raise FrameError(f"aggregator rejected registration: {payload}")
            if msg_type is not MsgType.WELCOME:
                raise FrameError(f"expected WELCOME, got {msg_type.name}")
            self.worker_id = payload["worker_id"]
            interval = float(payload.get("heartbeat_interval") or 1.0)
            print(
                f"repro.net: worker {self.worker_id} registered with "
                f"{self.host}:{self.port}; building replica",
                file=sys.stderr,
            )
            ctx, algorithm = self.build_runtime(payload["spec"])
            self._stop_beat.clear()
            beat = threading.Thread(
                target=self._heartbeat_loop, args=(interval,),
                name="repro-worker-heartbeat", daemon=True,
            )
            beat.start()
            self._job_loop(ctx, algorithm)
            return self.jobs_done
        finally:
            self._stop_beat.set()
            if beat is not None:
                beat.join(timeout=2.0)
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _job_loop(self, ctx, algorithm) -> None:
        from repro.parallel import execute_jobs

        # broadcast-vector cache, the exact mirror of the aggregator's
        # per-connection `sent_versions`: versions are inserted in the order
        # the inline dicts arrive and evicted oldest-inserted-first (never
        # one the current frame references) at the same cap — TCP frame
        # ordering keeps the two sides identical without a round-trip
        xref_cache: "OrderedDict[int, object]" = OrderedDict()
        while True:
            msg = recv_frame(self._sock)
            if msg is None:
                return  # aggregator gone: this session is over
            msg_type, payload = msg
            if msg_type is MsgType.SHUTDOWN:
                return
            if msg_type is MsgType.ERROR:
                raise FrameError(f"aggregator error: {payload}")
            if msg_type is MsgType.JOB:
                batch = [payload]
            elif msg_type is MsgType.JOB_BATCH:
                batch, inline = payload
                for version, arr in inline.items():
                    xref_cache[version] = arr
                needed = {
                    job.x_ref.version for _, job in batch
                    if isinstance(job.x_ref, XRefToken)
                }
                for version in list(xref_cache):
                    if len(xref_cache) <= XREF_CACHE_VERSIONS:
                        break
                    if version not in needed:
                        del xref_cache[version]
            else:
                raise FrameError(f"expected JOB, got {msg_type.name}")
            seqs, jobs = [], []
            for seq, job in batch:
                token = job.x_ref if isinstance(job.x_ref, XRefToken) else None
                if token is not None:
                    cached = xref_cache.get(token.version)
                    if cached is None:
                        self._send(MsgType.RESULT, (seq, None, (
                            f"worker {self.worker_id}: broadcast version "
                            f"{token.version} not in cache (protocol bug)"
                        )))
                        continue
                    job = replace(job, x_ref=cached)
                seqs.append(seq)
                jobs.append(job)
            if not jobs:
                continue
            try:
                results = execute_jobs(ctx, algorithm, jobs)
            except Exception:
                error = traceback.format_exc()
                for seq in seqs:
                    self._send(MsgType.RESULT, (seq, None, error))
            else:
                for seq, result in zip(seqs, results):
                    self._send(MsgType.RESULT, (seq, result, None))
                self.jobs_done += len(results)


def run_worker(address: str, connect_timeout: float = 30.0) -> int:
    """CLI entry: serve one aggregator session; returns an exit code."""
    client = WorkerClient(address, connect_timeout=connect_timeout)
    try:
        jobs = client.run()
    except KeyboardInterrupt:
        return 130
    except (OSError, FrameError) as exc:
        print(f"repro.net: worker failed: {exc}", file=sys.stderr)
        return 1
    print(f"repro.net: worker {client.worker_id} done ({jobs} jobs)",
          file=sys.stderr)
    return 0

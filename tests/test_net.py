"""Federation service (:mod:`repro.net`): framing, scheduling, bit-identity.

Layered like the subsystem itself:

* framing units — frame round-trips, partial feeds, corrupt headers,
  version handshake, address parsing;
* pickle-cleanliness — every registered method's packed client state and
  broadcast state rides a real JOB/RESULT frame round-trip intact;
* :class:`AggregatorService` units with *scripted* raw-socket workers —
  deterministic least-loaded scheduling, version rejection, worker-death
  requeue (disconnect and heartbeat silence), remote error surfacing,
  wire-byte stamping;
* :class:`RemoteBackend` end-to-end — in-process workers and real
  ``repro worker`` subprocesses, histories bit-identical to the serial
  backend, including a mid-run worker kill absorbed by requeueing.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from test_backends import assert_history_equal

from repro.algorithms import METHOD_NAMES, make_method
from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    RuntimeSpec,
    build_problem,
    run,
)
from repro.net import (
    JOB_SCHEMA_VERSION,
    PROTOCOL_VERSION,
    XREF_CACHE_VERSIONS,
    AggregatorService,
    FrameDecoder,
    FrameError,
    MsgType,
    RemoteBackend,
    WorkerClient,
    WorkerError,
    XRefToken,
    encode_frame,
    parse_address,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.parallel import ClientJob, ClientResult, build_job_runtime, make_backend
from repro.simulation import FLConfig

pytestmark = pytest.mark.net

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

_TINY = dict(
    data=DataSpec(clients=6, scale=0.3, beta=0.3, imbalance_factor=0.3),
    config=FLConfig(rounds=3, participation=0.5, local_epochs=1, batch_size=10,
                    max_batches_per_round=3, eval_every=1, seed=0),
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spec(backend: str = "serial", method: str = "scaffold",
          workers: int = 2, **runtime_kw) -> ExperimentSpec:
    """A tiny fedbuff run (stateful SCAFFOLD — the hardest contract case)."""
    if backend == "remote":
        runtime_kw.setdefault("backend_address", f"127.0.0.1:{_free_port()}")
        runtime_kw.setdefault("workers", workers)
    return ExperimentSpec(
        method=MethodSpec(name=method, kwargs={"buffer_size": 3}),
        runtime=RuntimeSpec(kind="fedbuff", backend=backend,
                            latency="lognormal", **runtime_kw),
        **_TINY,
    )


def _deep_equal(a, b, path: str = "$") -> None:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for k in a:
            _deep_equal(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _deep_equal(x, y, f"{path}[{i}]")
    elif hasattr(a, "__dict__") and not isinstance(a, (str, bytes, type)):
        # e.g. a method's momentum-state object carrying arrays
        assert type(a) is type(b), path
        _deep_equal(vars(a), vars(b), f"{path}:{type(a).__name__}")
    else:
        assert a == b, path


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_byte_by_byte(self):
        payload = {"x": np.arange(5.0), "nested": [1, "two", None]}
        frame = encode_frame(MsgType.JOB, payload)
        dec = FrameDecoder()
        out = []
        for i in range(len(frame)):  # worst-case fragmentation
            out.extend(dec.feed(frame[i:i + 1]))
        assert len(out) == 1
        msg_type, decoded, nbytes = out[0]
        assert msg_type is MsgType.JOB
        assert nbytes == len(frame)
        _deep_equal(decoded, payload)

    def test_many_frames_one_feed(self):
        blob = b"".join(encode_frame(MsgType.HEARTBEAT) for _ in range(3))
        blob += encode_frame(MsgType.RESULT, (7, "ok", None))
        out = FrameDecoder().feed(blob)
        assert [t for t, _, _ in out] == [MsgType.HEARTBEAT] * 3 + [MsgType.RESULT]
        assert out[-1][1] == (7, "ok", None)

    def test_corrupt_length_rejected(self):
        import struct
        header = struct.pack(">IB", (1 << 30) + 1, int(MsgType.JOB))
        with pytest.raises(FrameError, match="announces"):
            FrameDecoder().feed(header + b"x")

    def test_unknown_type_rejected(self):
        import struct
        header = struct.pack(">IB", 0, 200)
        with pytest.raises(FrameError, match="unknown message type"):
            FrameDecoder().feed(header)

    def test_blocking_helpers_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, MsgType.WELCOME, {"worker_id": 3})
            assert recv_frame(b) == (MsgType.WELCOME, {"worker_id": 3})
            a.close()
            assert recv_frame(b) is None  # clean EOF at a frame boundary
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame(MsgType.JOB, list(range(100)))[:7])
            a.close()
            with pytest.raises(FrameError, match="mid-frame|header and payload"):
                recv_frame(b)
        finally:
            b.close()

    def test_run_worker_reports_a_corrupt_welcome(self, capsys):
        """A payload that does not unpickle is a FrameError, so the worker
        CLI reports it and exits 1 instead of dying with a traceback."""
        listener = socket.create_server(("127.0.0.1", 0))
        body = encode_frame(MsgType.WELCOME, {"worker_id": 0, "spec": {}})[5:-3]

        def aggregator():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)  # REGISTER
                conn.sendall(len(body).to_bytes(4, "big") + bytes([MsgType.WELCOME]) + body)
                conn.recv(1)  # hold the link until the worker hangs up

        thread = threading.Thread(target=aggregator, daemon=True)
        thread.start()
        try:
            port = listener.getsockname()[1]
            assert run_worker(f"127.0.0.1:{port}", connect_timeout=5.0) == 1
        finally:
            thread.join(timeout=10)
            listener.close()
        err = capsys.readouterr().err
        assert "repro.net: worker failed: undecodable WELCOME payload" in err

    @pytest.mark.parametrize("addr,expected", [
        ("127.0.0.1:7000", ("127.0.0.1", 7000)),
        ("host.example:0", ("host.example", 0)),
    ])
    def test_parse_address(self, addr, expected):
        assert parse_address(addr) == expected

    @pytest.mark.parametrize("bad", ["7000", ":7000", "host:", "host:xx",
                                     "host:70000"])
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


# ---------------------------------------------------------------------------
# pickle-cleanliness of the job contract over real frames
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_problem():
    spec = ExperimentSpec(method=MethodSpec(name="fedavg"), **_TINY)
    return build_problem(spec)


class TestJobContractOverTheWire:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_method_state_rides_frames(self, method, tiny_problem):
        """Packed client + broadcast state of every registered method must
        survive an actual JOB/RESULT frame round-trip and still execute."""
        ds, model_builder, cfg = tiny_problem
        bundle = make_method(method)
        ctx, algo = build_job_runtime(
            model_builder, ds, cfg,
            loss_builder=bundle.loss_builder,
            sampler_builder=bundle.sampler_builder,
            algo_builder=lambda: bundle.algorithm,
        )
        job = ClientJob(
            round_idx=0, client_id=0, x_ref=ctx.x0.copy(),
            client_state=algo.pack_client_state(0),
            buffers=ctx.model.get_buffers(copy=True) or None,
            broadcast_state=algo.pack_broadcast_state(),
        )
        [(msg_type, (seq, job2), _)] = FrameDecoder().feed(
            encode_frame(MsgType.JOB, (11, job))
        )
        assert msg_type is MsgType.JOB and seq == 11
        _deep_equal(job2.x_ref, job.x_ref)
        _deep_equal(job2.client_state, job.client_state)
        _deep_equal(job2.broadcast_state, job.broadcast_state)

        from repro.parallel import execute_jobs
        (result,) = execute_jobs(ctx, algo, [job2])
        [(msg_type, (seq, result2, err), _)] = FrameDecoder().feed(
            encode_frame(MsgType.RESULT, (11, result, None))
        )
        assert err is None
        _deep_equal(result2.update.displacement, result.update.displacement)
        _deep_equal(result2.update.extras, result.update.extras)
        _deep_equal(result2.new_state, result.new_state)


# ---------------------------------------------------------------------------
# AggregatorService units (scripted raw-socket workers)
# ---------------------------------------------------------------------------
def _job(seq: int, collect_timing: bool = False) -> ClientJob:
    return ClientJob(round_idx=seq, client_id=seq % 3,
                     x_ref=np.arange(4.0) + seq,
                     collect_timing=collect_timing,
                     submitted_at=time.monotonic())


def _result(job: ClientJob) -> ClientResult:
    return ClientResult(update=float(job.x_ref.sum()),
                        timing={"queue_wait_s": 0.0, "compute_s": 0.0})


class _ScriptedWorker:
    """A raw-socket worker under test control (no replica, no threads)."""

    def __init__(self, address: str, protocol: int = PROTOCOL_VERSION,
                 schema: int = JOB_SCHEMA_VERSION) -> None:
        host, port = parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=10.0)
        send_frame(self.sock, MsgType.REGISTER, {
            "protocol": protocol, "job_schema": schema, "pid": 0, "host": "t",
        })
        self.welcome = recv_frame(self.sock)
        self._queue: list = []
        self._xref: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def recv_job(self):
        """Next (seq, job) with any XRefToken resolved, consuming JOB_BATCH
        frames with the same cache discipline as the real worker."""
        while not self._queue:
            msg_type, payload = recv_frame(self.sock)
            assert msg_type in (MsgType.JOB, MsgType.JOB_BATCH), msg_type
            if msg_type is MsgType.JOB:
                self._queue.append(payload)
                continue
            batch, inline = payload
            for version, arr in inline.items():
                self._xref[version] = arr
            needed = {j.x_ref.version for _, j in batch
                      if isinstance(j.x_ref, XRefToken)}
            for version in list(self._xref):
                if len(self._xref) <= XREF_CACHE_VERSIONS:
                    break
                if version not in needed:
                    del self._xref[version]
            for seq, job in batch:
                if isinstance(job.x_ref, XRefToken):
                    job = replace(job, x_ref=self._xref[job.x_ref.version])
                self._queue.append((seq, job))
        return self._queue.pop(0)

    def serve(self, n: int) -> None:
        for _ in range(n):
            seq, job = self.recv_job()
            send_frame(self.sock, MsgType.RESULT, (seq, _result(job), None))

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def service():
    svc = AggregatorService(
        "127.0.0.1:0", spec_payload={"why": "scripted workers ignore this"},
        heartbeat_timeout=30.0,
    ).start()
    yield svc
    svc.stop()


class TestAggregatorService:
    def test_register_schedule_collect(self, service):
        w0 = _ScriptedWorker(service.address)
        w1 = _ScriptedWorker(service.address)
        assert w0.welcome[0] is MsgType.WELCOME
        assert w0.welcome[1]["spec"] == {"why": "scripted workers ignore this"}
        # burst-submitted jobs split 2/2 under least-loaded scheduling; one
        # submit_many makes the burst (separate submits may each wake the
        # I/O thread, and w0 answering in between is least loaded again)
        service.submit_many([(seq, _job(seq)) for seq in range(4)])
        w0.serve(2)
        w1.serve(2)
        results = service.collect(list(range(4)), block=True)
        assert set(results) == {0, 1, 2, 3}
        stats = service.stats()
        assert stats["workers_seen"] == 2 and stats["workers_lost"] == 0
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0
        w0.close(), w1.close()

    def test_corrupt_payload_drops_the_worker_and_requeues(self, service):
        w = _ScriptedWorker(service.address)
        service.submit_many([(0, _job(0))])
        w.recv_job()
        body = encode_frame(MsgType.RESULT, (0, None, None))[5:-2]
        w.sock.sendall(len(body).to_bytes(4, "big") + bytes([MsgType.RESULT]) + body)
        assert recv_frame(w.sock) is None  # aggregator closed the link
        deadline = time.monotonic() + 10.0  # it counts the loss after closing
        while service.stats()["workers_lost"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = service.stats()
        assert stats["workers_lost"] == 1 and stats["requeued_jobs"] == 1
        w.close()

    def test_version_mismatch_rejected(self, service):
        w = _ScriptedWorker(service.address, protocol=PROTOCOL_VERSION + 1)
        msg_type, payload = w.welcome
        assert msg_type is MsgType.ERROR and "version mismatch" in payload
        assert recv_frame(w.sock) is None  # aggregator closed the link
        assert service.stats()["workers_seen"] == 0

    def test_job_schema_2_worker_rejected(self, service):
        """Job schema 2 pickled frozen records with a ``__dict__`` state; a
        worker still on it is refused at REGISTER, before any job ships."""
        assert JOB_SCHEMA_VERSION == 3
        w = _ScriptedWorker(service.address, schema=2)
        msg_type, payload = w.welcome
        assert msg_type is MsgType.ERROR and "version mismatch" in payload
        assert "job schema 3" in payload and f"{PROTOCOL_VERSION} / 2" in payload
        assert recv_frame(w.sock) is None  # aggregator closed the link
        assert service.stats()["workers_seen"] == 0

    def test_requeue_on_disconnect(self, service):
        w0 = _ScriptedWorker(service.address)
        service.submit_many([(0, _job(0))])
        service.submit_many([(1, _job(1))])
        w0.recv_job()  # take a job in flight...
        w0.close()     # ...and die without answering
        w1 = _ScriptedWorker(service.address)
        w1.serve(2)
        results = service.collect([0, 1], block=True)
        assert set(results) == {0, 1}
        stats = service.stats()
        assert stats["workers_lost"] == 1 and stats["requeued_jobs"] >= 1
        w1.close()

    def test_requeue_on_heartbeat_silence(self):
        svc = AggregatorService("127.0.0.1:0", heartbeat_timeout=0.5).start()
        try:
            w0 = _ScriptedWorker(svc.address)
            svc.submit_many([(0, _job(0))])
            w0.recv_job()  # holds the job, then goes silent (no heartbeat)
            deadline = time.monotonic() + 10.0
            while svc.stats()["workers_lost"] < 1:  # the timeout fires
                assert time.monotonic() < deadline
                time.sleep(0.05)
            w1 = _ScriptedWorker(svc.address)
            w1.serve(1)    # the requeued job lands on the fresh worker
            results = svc.collect([0], block=True)
            assert set(results) == {0}
            stats = svc.stats()
            assert stats["workers_lost"] == 1 and stats["requeued_jobs"] == 1
            w0.close(), w1.close()
        finally:
            svc.stop()

    def test_remote_exception_surfaces(self, service):
        w = _ScriptedWorker(service.address)
        service.submit_many([(0, _job(0))])
        seq, _ = w.recv_job()
        send_frame(w.sock, MsgType.RESULT, (seq, None, "Traceback: boom"))
        with pytest.raises(WorkerError, match="boom"):
            service.collect([0], block=True)
        w.close()

    def test_wire_bytes_stamped_when_timing(self, service):
        w = _ScriptedWorker(service.address)
        service.submit_many([(0, _job(0, collect_timing=True))])
        w.serve(1)
        result = service.collect([0], block=True)[0]
        assert result.timing["send_bytes"] > 0
        assert result.timing["recv_bytes"] > 0
        w.close()

    def test_batched_assignment_ships_x_once(self):
        """batch_limit>1: one JOB_BATCH frame carries the whole burst and
        inlines each distinct broadcast vector exactly once."""
        svc = AggregatorService(
            "127.0.0.1:0", batch_limit=4, heartbeat_timeout=30.0
        ).start()
        try:
            w = _ScriptedWorker(svc.address)
            x = np.arange(8.0)
            jobs = [
                ClientJob(round_idx=s, client_id=s % 3, x_ref=x,
                          collect_timing=True, submitted_at=time.monotonic())
                for s in range(4)
            ]
            svc.submit_many(list(enumerate(jobs)))
            msg_type, payload = recv_frame(w.sock)
            assert msg_type is MsgType.JOB_BATCH
            batch, inline = payload
            assert [s for s, _ in batch] == [0, 1, 2, 3]
            assert len(inline) == 1  # the shared x ships once
            assert all(isinstance(j.x_ref, XRefToken) for _, j in batch)
            (version,) = inline
            for seq, job in batch:
                job = replace(job, x_ref=inline[version])
                send_frame(w.sock, MsgType.RESULT, (seq, _result(job), None))
            results = svc.collect([0, 1, 2, 3], block=True)
            assert set(results) == {0, 1, 2, 3}
            stats = svc.stats()
            assert stats["batch_frames"] == 1
            assert stats["job_batch"] == 4
            assert stats["bytes_saved"] == 3 * x.nbytes
            w.close()
        finally:
            svc.stop()

    def test_xref_dedup_across_frames(self, service):
        """Even unbatched (batch_limit=1), a worker receives each broadcast
        version once; later jobs carry tokens only."""
        w = _ScriptedWorker(service.address)
        x = np.arange(16.0)
        for seq in range(3):
            service.submit_many([(seq, replace(_job(seq), x_ref=x))])
        w.serve(3)
        results = service.collect([0, 1, 2], block=True)
        assert all(results[s] is not None for s in range(3))
        # the scripted worker resolved tokens from its cache, so every
        # result saw the same vector
        assert len({results[s].update for s in range(3)}) == 1
        assert service.stats()["bytes_saved"] == 2 * x.nbytes
        w.close()

    def test_wait_for_workers_times_out(self, service):
        with pytest.raises(TimeoutError, match="repro worker --connect"):
            service.wait_for_workers(1, timeout=0.3)

    def test_collect_fails_only_when_no_workers_remain(self, service):
        service.submit_many([(0, _job(0))])
        with pytest.raises(RuntimeError, match="no workers registered"):
            service.collect([0], block=True, no_worker_timeout=0.5)


# ---------------------------------------------------------------------------
# RemoteBackend: spec validation + bit-identity to the serial backend
# ---------------------------------------------------------------------------
class TestRemoteBackendContract:
    def test_spec_rejects_address_on_local_backends(self):
        with pytest.raises(ValueError, match="backend_address"):
            _spec(backend="process", backend_address="127.0.0.1:7000")

    def test_spec_rejects_malformed_address(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            _spec(backend="remote", backend_address="no-port-here")

    def test_bind_requires_address_and_spec(self):
        backend = make_backend("remote", workers=1)
        assert isinstance(backend, RemoteBackend)
        with pytest.raises(ValueError, match="backend_address"):
            backend.bind(None, None)
        backend = RemoteBackend(workers=1, address="127.0.0.1:0")
        with pytest.raises(ValueError, match="spec facade"):
            backend.bind(None, None)

    def test_inprocess_workers_bit_identical_to_serial(self):
        spec = _spec(backend="remote")
        address = spec.runtime.backend_address
        clients = [WorkerClient(address, connect_timeout=30.0) for _ in range(2)]
        threads = [threading.Thread(target=c.run, daemon=True) for c in clients]
        for t in threads:
            t.start()
        remote = run(spec)
        serial = run(_spec(backend="serial"))
        for t in threads:
            t.join(timeout=10.0)
        assert_history_equal(remote.history, serial.history)
        np.testing.assert_array_equal(remote.final_params, serial.final_params)
        assert sum(c.jobs_done for c in clients) > 0


# ---------------------------------------------------------------------------
# openfl-style e2e: real `repro worker` subprocesses
# ---------------------------------------------------------------------------
def _spawn_worker(address: str, log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "w") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", address, "--retry", "60"],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )


def _wait_for_log(path: str, needle: str, timeout: float = 90.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(path) as f:
            if needle in f.read():
                return
        time.sleep(0.05)
    raise TimeoutError(f"{needle!r} never appeared in {path}")


def _reap(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        if p.poll() is None:
            try:
                os.kill(p.pid, signal.SIGCONT)
            except OSError:
                pass
            try:
                p.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


class TestEndToEnd:
    def test_two_worker_subprocesses_bit_identical(self, tmp_path):
        spec = _spec(backend="remote")
        address = spec.runtime.backend_address
        procs = [
            _spawn_worker(address, str(tmp_path / f"w{i}.log")) for i in range(2)
        ]
        try:
            remote = run(spec)
        finally:
            _reap(procs)
        serial = run(_spec(backend="serial"))
        assert_history_equal(remote.history, serial.history)
        np.testing.assert_array_equal(remote.final_params, serial.final_params)
        assert [p.returncode for p in procs] == [0, 0]

    def test_worker_killed_mid_run_requeues(self, tmp_path, monkeypatch):
        """Kill (SIGSTOP) one worker before the run can start: its jobs must
        requeue onto the survivor and the history stay bit-identical."""
        monkeypatch.setenv("REPRO_NET_HEARTBEAT", "0.2")
        # long enough that the frozen victim isn't pruned before the
        # survivor's interpreter starts up and registers
        monkeypatch.setenv("REPRO_NET_HEARTBEAT_TIMEOUT", "3.0")
        run_dir = tmp_path / "rec"
        spec = _spec(backend="remote", record=True, run_dir=str(run_dir))
        address = spec.runtime.backend_address
        victim_log = str(tmp_path / "victim.log")
        victim = _spawn_worker(address, victim_log)
        survivor = None
        box: dict = {}

        def _run():
            try:
                box["result"] = run(spec)
            except BaseException as exc:  # surface on the test thread
                box["error"] = exc

        t = threading.Thread(target=_run, daemon=True)
        t.start()
        try:
            # freeze the victim the moment it registers, BEFORE spawning the
            # survivor: the aggregator needs both workers to start the run,
            # so the victim is frozen from the first dispatch burst no
            # matter how fast the run itself is.  The burst spreads jobs
            # least-loaded across both workers, so the victim necessarily
            # holds some — the heartbeat timeout must requeue them.
            _wait_for_log(victim_log, "registered")
            os.kill(victim.pid, signal.SIGSTOP)
            survivor = _spawn_worker(address, str(tmp_path / "survivor.log"))
            t.join(timeout=180.0)
        finally:
            _reap([victim] + ([survivor] if survivor else []))
        assert not t.is_alive(), "remote run did not survive the worker kill"
        if "error" in box:
            raise box["error"]

        serial = run(_spec(backend="serial"))
        assert_history_equal(box["result"].history, serial.history)
        np.testing.assert_array_equal(
            box["result"].final_params, serial.final_params
        )

        from repro.observe import MetricsStore, journal_path
        transport = MetricsStore.from_journal(
            journal_path(str(run_dir))
        ).transport
        assert transport["workers_lost"] >= 1
        assert transport["requeued_jobs"] >= 1

"""Clients-per-second: control-plane + transport throughput at 100k clients.

Two legs, one committed results file:

**Event-core control plane** — real 1k/10k/100k-client populations driven
end-to-end through :class:`~repro.runtime.AsyncFederatedSimulation` (one
sample per client, a linear model, lognormal latencies) and its one
dispatch planner (incremental :class:`~repro.runtime.IdleTracker`,
``LatencyModel.sample_many`` batched draws, ``VirtualClock.push_many``
burst insertion).  Each population runs three times (once under
``--smoke``) and the row gives the median rate with the runs' min–max, since
one run swings with host speed.  A :class:`~repro.observe.HotPathProfiler`
rides every run, and the committed results include the median run's
per-phase breakdown — *where* each dispatch's wall time went, not just how
many happened per second.

**Transports** — the PR-9 leg, unchanged in shape: the same raw job
stream pushed through each backend configuration (``serial``,
``process``, ``process+shm+batch``, ``remote+batch``); client ids cycle
over the dataset's shards, so this isolates transport cost from
population-scale control-plane cost (which the first leg owns).

PASS/FAIL verdicts (CI surfaces regressions):

* control plane (full run) — median >= 2x the serial baseline that
  ``BENCH_trajectory.json`` records (3396/s) at 100k clients;
* bit-identity — batched+shm pool history == serial history, exactly;
* throughput — ``process+shm+batch`` >= the per-job ``process`` baseline.

Run: ``PYTHONPATH=src python benchmarks/bench_clients_per_sec.py``
(add ``--smoke`` for a <60s CI-sized run).
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import time

# pool fairness: the committed PR-9 run inherited "1 pool workers" from a
# single-core default.  Pin a CPU-count-aware floor (>=2 so pool rows
# measure a real pool) before _harness resolves WORKERS at import time;
# an explicit REPRO_MAX_WORKERS still wins.
os.environ.setdefault("REPRO_MAX_WORKERS", str(max(2, os.cpu_count() or 1)))

import numpy as np

from _harness import WORKERS, format_table, report
from trajectory import serial_baseline
from repro.algorithms import make_method
from repro.data.registry import DatasetInfo, FederatedDataset
from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    RuntimeSpec,
    build_problem,
    run,
)
from repro.net import RemoteBackend
from repro.nn import make_linear
from repro.observe import HotPathProfiler
from repro.parallel import (
    ClientJob,
    ProcessPoolBackend,
    SerialBackend,
    build_job_runtime,
)
from repro.runtime import AsyncFederatedSimulation, LognormalLatency
from repro.simulation import FLConfig

JOB_BATCH = 32       # jobs per pool task / wire frame on the batched rows
WINDOW = 512         # in-flight window: submit a wave, collect it, repeat
DATA_CLIENTS = 50    # data shards the simulated population cycles over

CTRL_DIM = 16        # feature dim of the control-plane problem
CTRL_RUNS = 3        # control-plane runs per population (1 under --smoke)


def control_plane_dataset(population: int) -> FederatedDataset:
    """A real ``population``-client problem: one sample per client.

    Built directly from numpy (no Dirichlet partitioner — it would need
    >= population samples) so the event core plans dispatches over an
    actual 100k-entry busy mask, which is exactly the cost this leg
    measures.  The linear model keeps per-update compute near-zero.
    """
    rng = np.random.default_rng(42)
    w = rng.standard_normal(CTRL_DIM)
    x_train = rng.standard_normal((population, CTRL_DIM))
    y_train = (x_train @ w > 0).astype(np.int64)
    x_test = rng.standard_normal((128, CTRL_DIM))
    y_test = (x_test @ w > 0).astype(np.int64)
    info = DatasetInfo(
        name=f"ctrl-plane-{population}", num_classes=2, shape=(CTRL_DIM,),
        n_max_train=1, n_test_per_class=64, separation=1.0, noise=0.0,
        default_model="linear",
    )
    return FederatedDataset(
        info=info, x_train=x_train, y_train=y_train, x_test=x_test,
        y_test=y_test, partitions=[np.array([i]) for i in range(population)],
        imbalance_factor=1.0, beta=1.0, partition_kind="balanced",
    )


def run_control_plane(
    ds: FederatedDataset, max_updates: int
) -> tuple[float, HotPathProfiler]:
    """One async engine run over the population; returns (rate, profiler).

    ``jitter=0`` keeps the lognormal model draw-free per dispatch (device
    speeds are memoized per client), so the measured cost is planning, not
    RNG construction.
    """
    sim = AsyncFederatedSimulation(
        make_method("fedasync").algorithm,
        make_linear(CTRL_DIM, 2, seed=0),
        ds,
        FLConfig(rounds=1, participation=0.1, local_epochs=1, batch_size=10,
                 max_batches_per_round=1, eval_every=8, seed=0),
        latency_model=LognormalLatency(sigma=0.5, jitter=0.0),
        concurrency=256,
        max_updates=max_updates,
    )
    profiler = HotPathProfiler()
    t0 = time.perf_counter()
    sim.run(profiler=profiler)
    return max_updates / (time.perf_counter() - t0), profiler


def _breakdown(label: str, profiler: HotPathProfiler) -> str:
    d = profiler.as_dict()
    shares = sorted(d["shares"].items(), key=lambda kv: kv[1], reverse=True)
    parts = ", ".join(f"{k} {v:.0%}" for k, v in shares)
    return f"  {label:28s} {d['clients_per_sec']:8.0f} clients/s — {parts}"


def bench_control_plane(sizes: list[int], smoke: bool) -> tuple[str, bool]:
    """Event-core throughput over real populations: per size, the median of
    the runs with their min–max, and the median run's phase breakdown."""
    rows = []
    breakdowns = []
    ok = True
    rate = 0.0
    updates = 4_000 if smoke else 20_000
    runs = 1 if smoke else CTRL_RUNS
    for n in sizes:
        ds = control_plane_dataset(n)
        measured = sorted(
            (run_control_plane(ds, updates) for _ in range(runs)),
            key=lambda rp: rp[0],
        )
        rate, profiler = measured[len(measured) // 2]
        rows.append([n, updates, runs, f"{rate:.0f}",
                     f"{measured[0][0]:.0f}–{measured[-1][0]:.0f}"])
        breakdowns.append(_breakdown(f"n={n}", profiler))

    table = format_table(
        "event-core control plane (fedasync, linear model, 1 sample/client, "
        "concurrency=256)",
        ["clients", "updates", "runs", "clients/s (median)", "min–max"],
        rows,
    )
    lines = [table, "", "profile breakdown of the median run "
             "(per-phase share of wall time):"]
    lines += breakdowns

    if not smoke and sizes and sizes[-1] >= 100_000:
        baseline = serial_baseline()
        ok = rate >= 2.0 * baseline
        lines += [
            "",
            f"control plane >= 2x PR-9 serial baseline "
            f"({baseline:.0f}/s) at {sizes[-1]} clients: "
            f"{'PASS' if ok else 'FAIL'} (median {rate:.0f}/s)",
        ]
    return "\n".join(lines), ok


def problem_spec(seed: int = 0) -> ExperimentSpec:
    """The shared tiny problem every transport executes jobs against."""
    return ExperimentSpec(
        name="clients-per-sec",
        data=DataSpec(dataset="fashion-mnist-lite", imbalance_factor=0.3,
                      beta=0.3, clients=DATA_CLIENTS, scale=0.3),
        method=MethodSpec(name="fedavg"),
        config=FLConfig(rounds=1, participation=0.1, local_epochs=1,
                        batch_size=10, max_batches_per_round=1, eval_every=1,
                        seed=seed),
        runtime=RuntimeSpec(kind="sync"),
    )


def build_runtime(spec: ExperimentSpec):
    """(ctx, algo) plus the builders worker replicas are made from."""
    from repro.experiments import replica_builders

    ds, model_builder, cfg = build_problem(spec)
    algo_builder, loss_builder, sampler_builder = replica_builders(spec)
    ctx, algo = build_job_runtime(
        model_builder, ds, cfg,
        loss_builder=loss_builder, sampler_builder=sampler_builder,
        algo_builder=algo_builder,
    )
    return ctx, algo, model_builder, algo_builder, loss_builder, sampler_builder


def drive(backend, ctx, n_jobs: int) -> float:
    """Push ``n_jobs`` through ``backend`` in windows; returns clients/sec.

    The same broadcast object rides every job (exactly what the engines
    ship: the server's live parameter vector between applies), so the
    identity fast paths — shm version reuse, wire-frame x dedup — see the
    workload they were built for.
    """
    x = ctx.x0.copy()
    t0 = time.perf_counter()
    done = 0
    while done < n_jobs:
        take = min(WINDOW, n_jobs - done)
        jobs = [
            ClientJob(round_idx=0, client_id=(done + i) % DATA_CLIENTS,
                      x_ref=x)
            for i in range(take)
        ]
        handles = backend.submit_many(jobs)
        collected = backend.collect(handles, block=True)
        assert len(collected) == take
        done += take
    return done / (time.perf_counter() - t0)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_worker(address: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", address,
         "--retry", "90"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )


def bench_remote(spec, ctx, n_jobs: int) -> tuple[float, dict]:
    """The federation service with two real worker subprocesses."""
    address = f"127.0.0.1:{_free_port()}"
    backend = RemoteBackend(workers=2, address=address, spec=spec,
                            job_batch=JOB_BATCH)
    old_inflight = os.environ.get("REPRO_NET_INFLIGHT")
    # deep in-flight per worker: throughput, not scheduling fairness
    os.environ["REPRO_NET_INFLIGHT"] = str(2 * JOB_BATCH)
    workers: list[subprocess.Popen] = []
    try:
        workers = [_spawn_worker(address) for _ in range(2)]
        backend.bind(ctx, None)
        rate = drive(backend, ctx, n_jobs)
        stats = backend.transport_stats()
    finally:
        backend.close()
        for p in workers:
            try:
                p.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if old_inflight is None:
            os.environ.pop("REPRO_NET_INFLIGHT", None)
        else:
            os.environ["REPRO_NET_INFLIGHT"] = old_inflight
    return rate, stats


def bench_sizes(spec, sizes: list[int], include_remote: bool) -> tuple[str, bool]:
    ctx, algo, model_builder, algo_builder, loss_builder, sampler_builder = (
        build_runtime(spec)
    )

    def bind_pool(**kw) -> ProcessPoolBackend:
        be = ProcessPoolBackend(workers=WORKERS, **kw)
        return be.bind(ctx, algo, model_builder=model_builder,
                       algo_builder=algo_builder, loss_builder=loss_builder,
                       sampler_builder=sampler_builder)

    rows = []
    ok = True
    notes = []
    for n in sizes:
        serial = SerialBackend().bind(ctx, algo)
        r_serial = drive(serial, ctx, n)
        serial.close()

        pool = bind_pool()
        r_pool = drive(pool, ctx, n)
        pool.close()

        fast = bind_pool(job_batch=JOB_BATCH, shared_memory=True)
        r_fast = drive(fast, ctx, n)
        fast_stats = fast.transport_stats()
        fast.close()

        if include_remote:
            r_remote, remote_stats = bench_remote(spec, ctx, n)
            notes.append(
                f"n={n}: wire sent {remote_stats['bytes_sent'] / 1e6:.1f}MB, "
                f"x dedup saved {remote_stats['bytes_saved'] / 1e6:.1f}MB "
                f"across {remote_stats['batch_frames']} frames"
            )
        else:
            r_remote = float("nan")
        notes.append(
            f"n={n}: shm published "
            f"{fast_stats['shm_bytes_published'] / 1e6:.1f}MB, saved "
            f"{fast_stats['shm_bytes_saved'] / 1e6:.1f}MB of job pickle "
            f"across {fast_stats['pool_tasks']} pool tasks"
        )
        speedup = r_fast / r_pool
        ok = ok and r_fast >= r_pool
        rows.append([n, r_serial, r_pool, r_fast, r_remote, speedup])

    table = format_table(
        f"simulated clients per wall second ({os.cpu_count()} cores, "
        f"{WORKERS} pool workers, job_batch={JOB_BATCH})",
        ["clients", "serial/s", "process/s", "process+shm+batch/s",
         "remote+batch/s", "batch_speedup"],
        [[n, f"{a:.0f}", f"{b:.0f}", f"{c:.0f}",
          "n/a" if np.isnan(d) else f"{d:.0f}", f"{s:.2f}x"]
         for n, a, b, c, d, s in rows],
    )
    return table + "\n" + "\n".join(notes), ok


def bit_identity_leg() -> tuple[str, bool]:
    """fedbuff+SCAFFOLD end-to-end: batched/shm pool == serial, exactly."""
    base = ExperimentSpec(
        name="identity",
        data=DataSpec(dataset="fashion-mnist-lite", imbalance_factor=0.3,
                      beta=0.3, clients=6, scale=0.3),
        method=MethodSpec(name="scaffold", kwargs={"buffer_size": 3}),
        config=FLConfig(rounds=3, participation=0.5, local_epochs=1,
                        batch_size=10, max_batches_per_round=3, eval_every=1,
                        seed=0),
        runtime=RuntimeSpec(kind="fedbuff", latency="lognormal"),
    )
    serial = run(base)
    fast = run(base.override_many([
        ("runtime.backend", "process"),
        ("runtime.workers", 2),
        ("runtime.job_batch", 3),
        ("runtime.shared_memory", True),
    ]))
    same = bool(
        np.array_equal(serial.history.accuracy, fast.history.accuracy,
                       equal_nan=True)
        and np.array_equal(serial.final_params, fast.final_params)
    )
    verdict = (
        "fedbuff+scaffold batched/shm pool == serial: "
        f"{'PASS' if same else 'FAIL'} "
        f"(final={fast.final_accuracy:.4f}, serial={serial.final_accuracy:.4f})"
    )
    return verdict, same


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI-sized run (<60s): 1k clients only")
    args = ap.parse_args(argv)

    spec = problem_spec()
    sizes = [1_000] if args.smoke else [1_000, 10_000, 100_000]
    ctrl_text, ctrl_ok = bench_control_plane(sizes, smoke=args.smoke)
    table, throughput_ok = bench_sizes(spec, sizes,
                                       include_remote=not args.smoke)
    identity_verdict, identity_ok = bit_identity_leg()

    notes = []
    if (os.cpu_count() or 1) < 2:
        notes.append(
            "note: single-core host — pool rows time-slice one core, so "
            "serial stays the throughput ceiling here by construction"
        )
    verdict = (
        "batched+shm pool >= per-job pool throughput: "
        f"{'PASS' if throughput_ok else 'FAIL'}"
        "\n" + identity_verdict
    )
    name = "bench_clients_per_sec" + ("_smoke" if args.smoke else "")
    report(
        name,
        ctrl_text + "\n\n" + table + "\n\n"
        + ("\n".join(notes) + "\n\n" if notes else "") + verdict,
    )
    return 0 if (ctrl_ok and throughput_ok and identity_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())

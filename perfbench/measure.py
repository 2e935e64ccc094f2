"""One measured run of one benchmark workload, in a fresh process.

``perfbench/run.py`` starts this script once per measured run, so peak RSS,
the data set, sampler and shared-memory caches never carry over from one run
to the next.  The script sets the workload up from ``--seed`` several times
(each timed), runs it once (``run_s``), checks its outputs and prints one
JSON object as the last line of standard output.  Calibration rounds
(:mod:`speed`) are timed after each set-up and, on the serial workloads,
after every history record of the run, so ``setup_s`` and ``run_s`` come in
seconds at the reference host's speed; ``wall_s`` is the run's plain wall
time, calibration left out.  With ``--trace 1`` the
library's public functions are wrapped by :class:`tracer.Tracer` for the
whole process and the per-layer numbers ride along.

By hand, from the repository root::

    python3 perfbench/measure.py --workload sync-mlp --seed 0 --size tiny
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads: the pool workload's
# parent plus its two workers must not oversubscribe a two-core host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

from repro import experiments
from repro.algorithms import make_method
from repro.data.registry import DatasetInfo, FederatedDataset
from repro.experiments import (
    DataSpec,
    ExperimentSpec,
    MethodSpec,
    ModelSpec,
    RuntimeSpec,
)
from repro.nn import make_linear
from repro.observe import HotPathProfiler, RunRecorder
from repro.runtime import AsyncFederatedSimulation, EventCore, LognormalLatency
from repro.simulation import FLConfig

from run import OUT_DIR, WORKLOADS
from speed import Speedometer
from tracer import COUNTERS, PHASES, Tracer

# work in one measured run, (full, tiny): rounds, or client updates for
# async-100k.  A full run takes 2-5 s on a 2-core host, so an invocation
# gets several runs to take the median of
WORK = {
    "sync-mlp": (100, 2),
    "sync-conv": (5, 2),
    "async-100k": (16_000, 4_000),
    "fedbuff-pool-rec": (100, 3),
}
# sync-conv stays near chance accuracy for the rounds one measured run can
# afford (0.09-0.17 even at 8 rounds, over seeds 0-7), so only the other
# workloads' final accuracy is checked against chance
CHANCE_CHECKED = ("sync-mlp", "async-100k", "fedbuff-pool-rec")
SETUPS = 9  # set-ups per measured run; setup_s is their median
# run_s in wall seconds: a pause in the parent would let the pool's workers
# catch up for free, so no calibration runs inside this workload's run
UNCALIBRATED = ("fedbuff-pool-rec",)
POPULATION = 100_000  # async-100k clients, one sample each
FEATURES = 16

# examples/specs/fedbuff_adaptive.json, copied so that editing the example
# cannot silently change what the benchmark measures
FEDBUFF_ADAPTIVE = {
    "name": "fedbuff-aimd-concurrency",
    "data": {"dataset": "fashion-mnist-lite", "imbalance_factor": 0.1,
             "beta": 0.3, "clients": 12, "scale": 0.5},
    "method": {"name": "fedbuff",
               "kwargs": {"buffer_size": 3, "staleness_exponent": 0.5}},
    "runtime": {"kind": "fedbuff", "latency": "pareto",
                "latency_kwargs": {"alpha": 1.5}, "staleness_budget": 2.0},
    "config": {"rounds": 20, "batch_size": 10, "local_epochs": 2,
               "participation": 0.25, "eval_every": 5, "seed": 0,
               "max_batches_per_round": 8},
}


@dataclass
class Prepared:
    """A workload built and ready to run."""

    engine: object
    expected_updates: int
    #: set for the recorded workload: its journal goes to spec.runtime.run_dir
    spec: ExperimentSpec | None = None


def paper_spec(workload: str, seed: int, rounds: int) -> ExperimentSpec:
    """The Table-1 FedWCM cell (IF=0.1, beta=0.1): 20 clients, 5 per round."""
    conv = workload == "sync-conv"
    arch, kwargs = experiments.resolve_model_alias("conv" if conv else "mlp")
    return ExperimentSpec(
        name=workload,
        data=DataSpec(
            dataset="cifar10-lite" if conv else "fashion-mnist-lite",
            imbalance_factor=0.1, beta=0.1, clients=20,
            scale=0.6 if conv else 1.0,
        ),
        model=ModelSpec(arch=arch, kwargs=kwargs),
        method=MethodSpec(name="fedwcm"),
        runtime=RuntimeSpec(kind="sync", backend="serial"),
        config=FLConfig(
            rounds=rounds, batch_size=10, local_epochs=5, participation=0.25,
            eval_every=1 if conv else 5, seed=seed,
        ),
    )


def pool_spec(seed: int, rounds: int, run_dir: str) -> ExperimentSpec:
    """fedbuff_adaptive on 40 clients: batched shm pool, streamed, recorded."""
    return ExperimentSpec.from_dict(FEDBUFF_ADAPTIVE).override_many([
        ("data.clients", 40),
        ("config.rounds", rounds),
        ("config.seed", seed),
        ("runtime.backend", "process"),
        ("runtime.workers", 2),
        ("runtime.job_batch", 4),
        ("runtime.shared_memory", True),
        ("runtime.streaming", True),
        ("runtime.record", True),
        ("runtime.run_dir", run_dir),
    ])


def population(seed: int) -> FederatedDataset:
    """``POPULATION`` clients holding one linearly separable sample each."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(FEATURES)
    x_train = rng.standard_normal((POPULATION, FEATURES))
    x_test = rng.standard_normal((512, FEATURES))
    info = DatasetInfo(
        name="population-100k", num_classes=2, shape=(FEATURES,),
        n_max_train=1, n_test_per_class=256, separation=1.0, noise=0.0,
        default_model="linear",
    )
    return FederatedDataset(
        info=info,
        x_train=x_train,
        y_train=(x_train @ w > 0).astype(np.int64),
        x_test=x_test,
        y_test=(x_test @ w > 0).astype(np.int64),
        partitions=list(np.arange(POPULATION).reshape(-1, 1)),
        imbalance_factor=1.0, beta=1.0, partition_kind="balanced",
    )


def setup(workload: str, seed: int, size: str, run_dir: str) -> Prepared:
    """Spec (or generated population) to a ready engine."""
    work = WORK[workload][size == "tiny"]
    if workload == "async-100k":
        engine = AsyncFederatedSimulation(
            make_method("fedasync").algorithm,
            make_linear(FEATURES, 2, seed=seed),
            population(seed),
            FLConfig(rounds=1, participation=0.01, local_epochs=1,
                     batch_size=10, max_batches_per_round=1, eval_every=4,
                     seed=seed),
            latency_model=LognormalLatency(sigma=0.5, jitter=0.0),
            concurrency=256,
            max_updates=work,
            backend="serial",
        )
        return Prepared(engine, work)
    if workload == "fedbuff-pool-rec":
        spec = pool_spec(seed, work, run_dir)
    else:
        spec = paper_spec(workload, seed, work)
    cohort = max(1, int(round(spec.config.participation * spec.data.clients)))
    return Prepared(
        experiments.build(spec),
        cohort * work,
        spec if spec.runtime.record else None,
    )


class RunClock:
    """Wall time of an engine's run, with calibration rounds between its
    slices when given a speedometer.

    A slice ends at every history record the engine appends: a round, or an
    asynchronous window.  ``EventCore.record`` is wrapped while the block
    runs; the wrapper reads the clock and calibrates only after the original
    returns, so the run is unchanged, and calibration is left out of
    ``wall_s``.
    """

    def __init__(self, speed: Speedometer | None) -> None:
        self.speed = speed
        self.wall_s = 0.0

    def _cut(self) -> None:
        now = time.perf_counter()
        self.wall_s += now - self._last
        if self.speed is not None:
            self.speed.pause(now - self._last)
            now = time.perf_counter()
        self._last = now

    def __enter__(self) -> "RunClock":
        original = self._original = vars(EventCore)["record"]

        def record(core, *args, **kwargs):
            rec = original(core, *args, **kwargs)
            self._cut()
            return rec

        EventCore.record = record
        self._last = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        EventCore.record = self._original
        self._cut()


def run(prep: Prepared, profiler):
    """``engine.run``; a recorded spec journals as ``repro.experiments.run`` does."""
    if prep.spec is None:
        return prep.engine.run(profiler=profiler), None
    run_dir = prep.spec.runtime.run_dir
    os.makedirs(run_dir, exist_ok=True)
    prep.spec.save(os.path.join(run_dir, "spec.json"))
    recorder = RunRecorder(run_dir)
    try:
        history = prep.engine.run(recorder=recorder, profiler=profiler)
    finally:
        recorder.close()
    return history, recorder


def journal_counters(run_dir: str, recorder, expected: int, rounds: int):
    """Per-layer counters of a recorded run, plus its journal's failures."""
    with open(os.path.join(run_dir, "journal.jsonl")) as f:
        records = [json.loads(line) for line in f if line.strip()]
    jobs = [r for r in records if r["type"] == "job"]
    ends = [r for r in records if r["type"] == "end"]
    transport = ends[-1].get("transport", {}) if ends else {}
    waits = np.array([j["queue_wait_s"] for j in jobs], dtype=np.float64)
    counters = {
        "parallel.jobs": transport.get("jobs", 0),
        "parallel.pool_tasks": transport.get("pool_tasks", 0),
        "parallel.shm_bytes_published": transport.get("shm_bytes_published", 0),
        "parallel.shm_bytes_saved": transport.get("shm_bytes_saved", 0),
        "parallel.job.compute_s": float(sum(j["compute_s"] for j in jobs)),
        "parallel.job.queue_wait_s.p50":
            float(np.percentile(waits, 50)) if waits.size else 0.0,
        "parallel.job.queue_wait_s.p95":
            float(np.percentile(waits, 95)) if waits.size else 0.0,
        "parallel.job.pickle_bytes": sum(j.get("pickle_bytes", 0) for j in jobs),
        "observe.journal.hook_s": recorder.hook_seconds,
        "observe.artifact_bytes": sum(
            os.path.getsize(os.path.join(d, name))
            for d, _, names in os.walk(run_dir) for name in names
        ),
    }
    failures = []
    if not ends:
        failures.append("journal has no end record")
    if len(jobs) != expected:
        failures.append(f"journal has {len(jobs)} job records, expected {expected}")
    snapshots = os.listdir(os.path.join(run_dir, "snapshots"))
    if len(snapshots) != rounds:
        failures.append(f"{len(snapshots)} snapshots for {rounds} rounds")
    return counters, failures


def digest(params: np.ndarray, accuracy: np.ndarray) -> str:
    """Hash of the final parameters and the accuracy series."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(params, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(accuracy, dtype=np.float64).tobytes())
    return h.hexdigest()


def measure(workload: str, seed: int, size: str, traced: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(OUT_DIR, "work", f"run-{os.getpid()}")
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        setup_speed = Speedometer()
        setup_times = []
        for _ in range(SETUPS):
            prep = None  # the previous engine goes before the next is built
            t0 = time.perf_counter()
            prep = setup(workload, seed, size, run_dir)
            setup_times.append(time.perf_counter() - t0)
            setup_speed.pause(setup_times[-1])
        # recorded runs profile themselves, as repro.experiments.run does
        profiler = (
            HotPathProfiler() if traced or prep.spec is not None else None
        )
        # calibration inside a traced run would land in its spans and phases,
        # and inside the pool run it would hand the workers time for free
        calibrated = not traced and workload not in UNCALIBRATED
        run_speed = Speedometer() if calibrated else None
        with RunClock(run_speed) as clock:
            history, recorder = run(prep, profiler)
        if tracer is not None:
            tracer.uninstall()

        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        params = prep.engine.final_params
        updates = sum(len(r.selected) for r in history.records)
        accuracy = history.final_accuracy
        classes = prep.engine.ctx.num_classes
        failures = []
        if updates != prep.expected_updates:
            failures.append(f"{updates} updates, expected {prep.expected_updates}")
        if not np.all(np.isfinite(params)):
            failures.append("final parameters are not finite")
        if workload in CHANCE_CHECKED and not accuracy > 1.0 / classes:
            failures.append(f"final accuracy {accuracy} is not above chance 1/{classes}")

        layers: dict[str, float] = {
            name: 0 for name, _, _ in COUNTERS if name != "trace.overhead_s"
        }
        if recorder is not None:
            counters, journal_failures = journal_counters(
                run_dir, recorder, prep.expected_updates, len(history.records)
            )
            layers.update(counters)
            failures += journal_failures
        if profiler is not None:
            for phase in PHASES:
                layers[f"runtime.phase.{phase}_s"] = profiler.seconds.get(phase, 0.0)
        if tracer is not None:
            if not tracer.restored():
                failures.append("tracer left wrapped functions behind")
            layers.update(tracer.layer_stats())
            tracer.save(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_speed.reference_s(statistics.median(setup_times)),
        "setup_wall_s": setup_times,
        "run_s": run_speed.reference_s(clock.wall_s) if calibrated else clock.wall_s,
        "wall_s": clock.wall_s,
        "calibrated": calibrated,
        "calibration_s": setup_speed.rounds + (run_speed.rounds if calibrated else []),
        "updates": updates,
        "expected_updates": prep.expected_updates,
        "final_accuracy": accuracy,
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": digest(params, history.accuracy),
        "failures": failures,
        "layers": layers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.size, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

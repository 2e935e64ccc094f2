"""The repository's benchmark: paper FedWCM runs, the 100k-client control
plane and the recorded process-pool run, end to end and layer by layer.

From the repository root::

    python3 perfbench/run.py --workload sync-mlp --seed 0 --seconds 25 --trace 0

Workloads are closed loops: a synchronous round starts only after
aggregation, and the asynchronous kinds keep a fixed in-flight window.
Latency is virtual, so nothing arrives on a wall-clock schedule.

``sync-mlp``
    Sync FedWCM in the paper's Table-1 cell (fashion-mnist-lite, IF=0.1,
    beta=0.1, 20 clients, participation 0.25, E=5, B=10) on the MLP, serial
    backend.  Local steps are tiny, so the per-step plumbing shows.
``sync-conv``
    The same run on cifar10-lite (scale 0.6) with the narrow ResNet
    (``conv``); Conv2d forward and backward dominate.
``async-100k``
    fedasync over 100k one-sample clients generated from the seed: linear
    model, lognormal latency (sigma 0.5, no jitter), 256 in flight, serial
    backend.  Compute is near zero, so the event core's control plane
    dominates.
``fedbuff-pool-rec``
    ``examples/specs/fedbuff_adaptive.json`` on 40 clients over a process
    pool (2 workers, job_batch 4, shared memory, streaming), recorded into a
    run directory: the only workload that crosses a process boundary and
    writes a journal.

Every measured run is a fresh ``perfbench/measure.py`` process, and runs
repeat until ``--seconds`` have passed.  Each end-to-end metric is the
median over the runs.  The host's speed drifts by a third within seconds, so
every run times a fixed calibration kernel between stretches of its work
(``perfbench/speed.py``) and ``setup_s`` and ``run_s`` are seconds at the
reference host's speed.  The exception is ``run_s`` on ``fedbuff-pool-rec``,
in wall seconds: pausing its parent would give the pool's workers time for
free.  ``updates_per_s`` is a run's updates over its ``run_s``.
``--trace 1`` alternates traced and untraced runs and reports the per-layer
metrics as medians over the traced runs, plus the tracing overhead: the
median traced wall time minus the median untraced one.

Every run hashes its final parameters and accuracy series.  All runs of one
invocation, traced or not, must give the same digest; each run also checks
its update count, its accuracy against chance (on the workloads that train
past it) and, when recorded, its journal.  A run that fails a check, raises
or times out counts all its client updates as failed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit status is 0 only
when every check passed.  Host, versions, commit, digest and every run's
raw numbers also go to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every measured run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
import time

from tracer import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sync-mlp", "sync-conv", "async-100k", "fedbuff-pool-rec")
# final_accuracy is checked and printed but not bounded: sync-conv trains
# near chance within one run, so over seeds it spreads wider than a bound
# may be (IQR/median 0.24 at 4 rounds, seeds 1-10)
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_UNTRACED = 3  # untraced runs in a --trace 0 invocation, however short
TIME_LIMIT_S = 170.0  # no invocation outlives 180 s, whatever a run does


def commit() -> str:
    """HEAD of the checkout's git metadata, when it has any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


def child_env() -> dict:
    """The measured runs' environment: one BLAS thread, no REPRO_* knobs."""
    # REPRO_BACKEND, REPRO_STREAMING and the like would change what a
    # spec-driven run executes; every workload sets the knobs it needs
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=tmp)
    return env


def measure_once(args, traced: bool, deadline: float) -> dict:
    """One fresh measure.py process: its result, or ``{"error": ...}``."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(traced))]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the run has a session of its own: its pool workers go down with it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"traced": traced, "error": "timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"traced": traced, "error": "no result line"}


def collect_runs(args) -> list[dict]:
    """Measured runs while the next one still ends within ``--seconds``
    (going by the last one's length), and at least enough of them."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    runs: list[dict] = []
    last = 0.0
    while True:
        n_traced = sum(r["traced"] for r in runs)
        n_plain = len(runs) - n_traced
        if args.trace:
            enough = n_traced >= 1 and n_plain >= 1
        else:
            enough = n_plain >= MIN_UNTRACED
        now = time.monotonic()
        if enough and now + last - start > args.seconds:
            break
        if runs and now + last > deadline:
            break
        traced = bool(args.trace) and n_traced <= n_plain
        runs.append(measure_once(args, traced, deadline))
        last = time.monotonic() - now
    return runs


def summarize(trace: bool, runs: list[dict]) -> tuple[dict, str | None]:
    """The result line (checks over every run, metrics over the good ones)
    and the reference digest."""
    # untraced runs set the reference; traced ones must reproduce it
    reference = next(
        (r["digest"] for r in runs
         if "error" not in r and not r["traced"] and not r["failures"]),
        None,
    )
    for r in runs:
        r["ok"] = ("error" not in r and not r["failures"]
                   and r["digest"] == reference)
    per_run = max((r["expected_updates"] for r in runs if "expected_updates" in r),
                  default=1)
    attempted = sum(r.get("expected_updates", per_run) for r in runs)
    failed = sum(r.get("expected_updates", per_run) for r in runs if not r["ok"])
    plain = [r for r in runs if r["ok"] and not r["traced"]]
    traced = [r for r in runs if r["ok"] and r["traced"]]
    median = statistics.median
    metrics: dict[str, dict] = {}
    if not trace and plain:
        values = {
            "setup_s": median(r["setup_s"] for r in plain),
            "run_s": median(r["run_s"] for r in plain),
            "updates_per_s": median(r["updates"] / r["run_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    elif trace and plain and traced:
        overhead = (median(r["wall_s"] for r in traced)
                    - median(r["wall_s"] for r in plain))
        for name, unit, _ in per_layer_metrics():
            value = (overhead if name == "trace.overhead_s"
                     else median(r["layers"][name] for r in traced))
            metrics[name] = {"value": value, "unit": unit}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, reference


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few rounds per run, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no library sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runs = collect_runs(args)
    result, reference = summarize(bool(args.trace), runs)

    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    accuracy = next((r["final_accuracy"] for r in runs if r["ok"]), float("nan"))
    print(f"{'final_accuracy':44s} {accuracy:>14.6g} fraction")
    print(f"{'failed_frac':44s} {result['failed'] / result['attempted']:>14.6g} fraction")
    for r in runs:
        if not r["ok"]:
            print("failed run:", r.get("error") or "; ".join(r["failures"])
                  or "digest differs from the untraced runs'")
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "runs": len(runs),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in runs if "numpy" in r), None),
        "commit": commit(),
    }
    print("digest", reference)
    print("env", json.dumps(env, sort_keys=True))
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"env": env, "digest": reference, "result": result,
                   "runs": runs}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

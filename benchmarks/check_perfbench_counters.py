"""Exact-counter gate over the repository benchmark's traced tiny runs.

Wall time on a shared runner is noise; call counts and transport counters
are not.  For a fixed workload, seed and size, ``perfbench/run.py --trace 1``
reports the same ``*.calls`` counts and the same job, pool-task,
shared-memory and pickle byte counters on every run.  This script runs each
workload once that way and compares those counters with the committed table
``benchmarks/results/perfbench_counters_tiny.json``; any difference fails
the gate and is named with both values.  A change that moves a counter on
purpose re-baselines the table with ``--write`` and says why.

``parallel.ProcessPoolBackend.collect.calls`` is left out: its non-blocking
polls depend on worker timing.

Run from the repository root: ``python3 benchmarks/check_perfbench_counters.py``
(``--write`` re-baselines).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "benchmarks", "results", "perfbench_counters_tiny.json")
WORKLOADS = ("sync-mlp", "sync-conv", "async-100k", "fedbuff-pool-rec")
TRANSPORT = (
    "parallel.jobs",
    "parallel.pool_tasks",
    "parallel.shm_bytes_published",
    "parallel.shm_bytes_saved",
    "parallel.job.pickle_bytes",
)
TIMING_DEPENDENT = ("parallel.ProcessPoolBackend.collect.calls",)


def counters(workload: str) -> dict[str, int]:
    """The exact counters of one traced tiny run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--size", "tiny", "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: perfbench failed\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: int(m["value"]) for name, m in sorted(metrics.items())
        if (name.endswith(".calls") or name in TRANSPORT) and name not in TIMING_DEPENDENT
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="re-baseline the committed table")
    args = ap.parse_args(argv)
    measured = {w: counters(w) for w in WORKLOADS}
    if args.write:
        with open(TABLE, "w") as f:
            json.dump(measured, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {TABLE}")
        return 0
    with open(TABLE) as f:
        table = json.load(f)
    diffs = []
    for workload, got in measured.items():
        want = table.get(workload, {})
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                diffs.append(f"{workload}: {name} committed {want.get(name)} measured "
                             f"{got.get(name)}")
    for line in diffs:
        print(line)
    print(f"{len(diffs)} counter(s) differ from {os.path.relpath(TABLE, ROOT)}"
          if diffs else f"counters match {os.path.relpath(TABLE, ROOT)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())

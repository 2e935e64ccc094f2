"""Tests of the benchmark itself, on a tiny size of all four workloads.

From the repository root::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs untraced and then traced through ``perfbench/run.py``.
Every named metric must be printed with its unit, every run must pass its
output checks, the two invocations must print the same digest (so the traced
runs reproduce the untraced ones), and layers a workload bypasses must report
zero calls.  The tracer must put every original function back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402


def invoke(workload: str, trace: int) -> tuple[dict, str]:
    """One tiny invocation: its result line and the digest it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_workload(workload):
    plain, plain_digest = invoke(workload, trace=0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert units(plain) == dict(bench.END_TO_END)

    traced, traced_digest = invoke(workload, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert units(traced) == {name: unit for name, unit, _ in per_layer_metrics()}
    assert traced_digest == plain_digest

    value = {name: m["value"] for name, m in traced["metrics"].items()}
    pooled = workload == "fedbuff-pool-rec"
    assert (value["nn.Conv2d.forward.calls"] > 0) == (workload == "sync-conv")
    assert (value["parallel.ProcessPoolBackend.submit_many.calls"] > 0) == pooled
    assert (value["observe.snapshot_core.calls"] > 0) == pooled
    assert (value["observe.artifact_bytes"] > 0) == pooled
    assert (value["parallel.execute_job.calls"] > 0) != pooled


def test_tracer_puts_every_original_back():
    from repro.algorithms import base
    from repro.experiments import facade
    from repro.nn.conv import Conv2d

    def bound():
        return (base.forward_backward, facade.build, vars(Conv2d)["forward"])

    before = bound()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(bound(), before))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(a is b for a, b in zip(bound(), before))


def test_benchmark_json_lists_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        per_layer_metrics()
    )

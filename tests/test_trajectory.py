"""The committed benchmark trajectory (``BENCH_trajectory.json``): its
schema, and the serial baseline ``bench_clients_per_sec.py`` gates against."""

from __future__ import annotations

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {"sync-mlp", "sync-conv", "async-100k", "fedbuff-pool-rec"}
ENTRY_KEYS = {"pr", "commit", "parent", "host", "back_filled", "fingerprint", "workloads"}
SHA = re.compile(r"[0-9a-f]{7,40}")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = {m["name"] for m in json.load(f)["end_to_end"]}


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "benchmarks", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trajectory():
    return _bench_module("trajectory")


def test_entries_follow_the_schema(trajectory):
    doc = trajectory.load()
    assert doc["schema"] == 1
    entries = doc["entries"]
    prs = [e["pr"] for e in entries]
    assert prs == sorted(set(prs)) and {9, 13, 15, 16} <= set(prs)
    for e in entries:
        assert ENTRY_KEYS <= e.keys(), e["pr"]
        assert e["fingerprint"] is None
        assert isinstance(e["back_filled"], bool)
        assert SHA.fullmatch(e["parent"])
        if e["commit"] is None:  # only the newest entry waits for its commit
            assert e is entries[-1]
        else:
            assert SHA.fullmatch(e["commit"])
        assert e["workloads"].keys() <= WORKLOADS
        for rows in e["workloads"].values():
            seeds = [r["seed"] for r in rows]
            assert seeds == sorted(set(seeds))
            for r in rows:
                check_row(r)
    assert all(e["back_filled"] for e in entries if e["pr"] <= 16)


def check_row(r: dict) -> None:
    """One workload-and-seed row of an entry: ``updates_per_s`` and its
    pairs won, and any other end-to-end metric of ``BENCHMARK.json`` under
    its own name, in the same quartile shape with its own ``won``."""
    assert 0 <= r["won"] <= r["pairs"]
    assert re.fullmatch(r"[0-9a-f]{12}", r["digest"])
    assert "updates_per_s" in r and r.keys() <= {"seed", "pairs", "won", "digest"} | END_TO_END
    for name in END_TO_END & r.keys():
        won = r["won"] if name == "updates_per_s" else r[name]["won"]
        assert 0 <= won <= r["pairs"], (r, name)
        for side in ("parent", "change"):
            q = r[name][side]
            assert 0 < q["q1"] <= q["median"] <= q["q3"], (r, name, side)


def test_serial_baseline(trajectory):
    assert trajectory.serial_baseline() == 3396.0


def _record(digest: str, failed: int = 0, **metrics) -> dict:
    """A ``.perfbench/W-seedS-trace0.json`` record with the given metrics."""
    return {"env": {}, "digest": digest, "runs": [],
            "result": {"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}}


def test_perf_pairs_summary():
    """``perf_pairs.py`` summarizes canned pairs without running the
    benchmark: quartiles per side, pairs won by each metric's direction
    (a tie counts for neither), failures, digest agreement and a
    trajectory row that passes the schema."""
    pairs_mod = _bench_module("perf_pairs")
    digest = "70d262fe9971" + "0" * 52
    rates = [(8000.0, 9300.0), (8100.0, 9250.0), (7900.0, 7900.0), (8050.0, 9400.0)]
    rss = [(87.4, 87.5), (87.4, 87.3), (87.4, 87.4), (87.4, 87.4)]
    pairs = [(_record(digest, updates_per_s=p, peak_rss_mb=pm),
              _record(digest, updates_per_s=c, peak_rss_mb=cm))
             for (p, c), (pm, cm) in zip(rates, rss)]
    metrics = pairs_mod.end_to_end_metrics()
    assert ("updates_per_s", "higher") in metrics and ("peak_rss_mb", "lower") in metrics
    summary = pairs_mod.summarize(pairs, metrics, seed=3)
    rate = summary["metrics"]["updates_per_s"]
    assert rate["won"] == 3 and rate["compared"] == 4  # the 7900 tie counts for neither
    assert rate["parent"] == {"median": 8025.0, "q1": 7975.0, "q3": 8062.5}
    assert summary["metrics"]["peak_rss_mb"]["won"] == 1  # lower is better
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["digests_agree"]
    row = summary["row"]
    assert row["seed"] == 3 and row["pairs"] == 4 and row["won"] == 3
    assert row["digest"] == "70d262fe9971"
    assert row["peak_rss_mb"] == {"parent": {"median": 87.4, "q1": 87.4, "q3": 87.4},
                                  "change": {"median": 87.4, "q1": 87.38, "q3": 87.43},
                                  "won": 1}
    check_row(row)
    with pytest.raises(AssertionError):
        check_row({**row, "peak_rss_mb": {**row["peak_rss_mb"], "won": 5}})
    with pytest.raises(AssertionError):
        check_row({**row, "rss": row["peak_rss_mb"]})  # not a BENCHMARK.json metric
    text = pairs_mod.format_summary(summary, "async-100k", 3)
    assert "change won 3/4" in text and "digests: agree" in text

    pairs[1] = (pairs[1][0], _record("f" * 64, failed=100, updates_per_s=9000.0))
    summary = pairs_mod.summarize(pairs, metrics, seed=3)
    assert summary["failed"] == {"parent": 0, "change": 100}
    assert not summary["digests_agree"]

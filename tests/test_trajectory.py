"""The committed benchmark trajectory (``BENCH_trajectory.json``): its
schema, and the serial baseline ``bench_clients_per_sec.py`` gates against."""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {"sync-mlp", "sync-conv", "async-100k", "fedbuff-pool-rec"}
ENTRY_KEYS = {"pr", "commit", "parent", "host", "back_filled", "fingerprint", "workloads"}
SHA = re.compile(r"[0-9a-f]{7,40}")


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "trajectory", os.path.join(ROOT, "benchmarks", "trajectory.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
                assert 0 <= r["won"] <= r["pairs"]
                assert re.fullmatch(r"[0-9a-f]{12}", r["digest"])
                for side in ("parent", "change"):
                    q = r["updates_per_s"][side]
                    assert 0 < q["q1"] <= q["median"] <= q["q3"], (e["pr"], side)
    assert all(e["back_filled"] for e in entries if e["pr"] <= 16)


def test_serial_baseline(trajectory):
    assert trajectory.serial_baseline() == 3396.0

"""Alternating parent/change pairs of the repository benchmark.

From the repository root::

    python3 benchmarks/perf_pairs.py --parent ../parent --change . \\
        --workload async-100k --seed 0 --pairs 10

``--parent`` and ``--change`` are two checkouts of the repository.  Each
pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
each of them, the parent first in even pairs and the change first in odd
ones, so a drift in host speed falls on both sides alike, and then reads
the run's record, ``.perfbench/W-seedS-trace0.json`` in that checkout.

The summary gives, for every end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles over the pairs and the pairs the change won by
the metric's ``better`` direction (ties count for neither side); then the
client updates that failed on each side, whether every run's digest agrees,
and the ``BENCH_trajectory.json`` row for the workload and seed as JSON:
``updates_per_s`` with the pairs it won, and ``peak_rss_mb`` in the same
shape with its own ``won``.
Nothing under ``perfbench/`` is changed or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics() -> list[tuple[str, str]]:
    """``(name, better)`` of every end-to-end metric the benchmark declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def run_side(checkout: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py --trace 0`` invocation in ``checkout``, at
    the benchmark's own run length: its record (``env``, ``digest``,
    ``result``, ``runs``)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    path = os.path.join(checkout, ".perfbench", f"{workload}-seed{seed}-trace0.json")
    if os.path.exists(path):  # never read an earlier invocation's record
        os.remove(path)
    subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL, check=False)
    with open(path) as f:
        return json.load(f)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated between the values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _value(record: dict, name: str) -> float | None:
    metric = record["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]],
              seed: int) -> dict:
    """The comparison over ``(parent, change)`` record pairs."""
    out: dict = {"pairs": len(pairs), "metrics": {}}
    for name, better in metrics:
        both = [(_value(p, name), _value(c, name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            continue
        sign = 1 if better == "higher" else -1
        out["metrics"][name] = {
            "parent": quartiles([p for p, _ in both]),
            "change": quartiles([c for _, c in both]),
            "won": sum(sign * (c - p) > 0 for p, c in both),
            "compared": len(both),
        }
    out["failed"] = {
        "parent": sum(p["result"]["failed"] for p, _ in pairs),
        "change": sum(c["result"]["failed"] for _, c in pairs),
    }
    digests = {r["digest"] for pair in pairs for r in pair}
    out["digests_agree"] = len(digests) == 1 and None not in digests
    rate = out["metrics"].get("updates_per_s")
    out["row"] = None if rate is None else {
        "seed": seed,
        "pairs": rate["compared"],
        "won": rate["won"],
        "updates_per_s": _sides(rate),
        "digest": (pairs[0][1]["digest"] or "")[:12],
    }
    rss = out["metrics"].get("peak_rss_mb")
    if out["row"] is not None and rss is not None:
        out["row"]["peak_rss_mb"] = {**_sides(rss), "won": rss["won"]}
    return out


def _sides(metric: dict) -> dict:
    return {side: {k: _round(v) for k, v in metric[side].items()}
            for side in ("parent", "change")}


def _round(value: float) -> float:
    """Four significant digits, the trajectory's precision."""
    return float(f"{value:.4g}")


def format_summary(summary: dict, workload: str, seed: int) -> str:
    lines = [f"{workload} seed {seed}: {summary['pairs']} pairs, "
             "median [q1, q3] per side"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        lines.append(
            f"{name:14s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
            f"  {ratio:.3f}x  change won {m['won']}/{m['compared']}"
        )
    failed = summary["failed"]
    lines.append(f"failed updates: parent {failed['parent']}, change {failed['change']}")
    lines.append("digests: " + ("agree" if summary["digests_agree"] else "DIFFER"))
    lines.append("trajectory row: " + json.dumps(summary["row"]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_side(getattr(args, side), args.workload, args.seed)
               for side in order}
        pairs.append((got["parent"], got["change"]))
        rate = [_value(got[s], "updates_per_s") for s in ("parent", "change")]
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): updates_per_s "
              f"parent {rate[0]} change {rate[1]}", flush=True)
    summary = summarize(pairs, end_to_end_metrics(), args.seed)
    print(format_summary(summary, args.workload, args.seed))
    return 0 if summary["digests_agree"] and not any(summary["failed"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())

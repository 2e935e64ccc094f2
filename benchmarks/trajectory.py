"""The committed benchmark trajectory: ``BENCH_trajectory.json`` at the
repository root.

One entry per performance change, oldest first.  An entry names the change
(``pr``), its commit (``null`` until the next entry's change records it)
and the parent its pairs ran against, the host, and per workload and seed
the ``updates_per_s`` medians with quartiles of the parent and of the
change from alternating ``perfbench/run.py --trace 0`` pairs, with the
pairs won and the run digest.  ``back_filled`` marks entries copied from
the pair tables a change recorded before the file existed;
``fingerprint`` stays ``null`` until runs carry a numeric fingerprint.  The
first entry holds only the serial 100k-client control-plane baseline that
``bench_clients_per_sec.py`` gates against.
"""

from __future__ import annotations

import json
import os

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCH_trajectory.json")


def load() -> dict:
    with open(PATH) as f:
        return json.load(f)


def serial_baseline() -> float:
    """The serial control plane's clients/s at 100k clients, the reference
    of the ≥2× gate."""
    entry = next(e for e in load()["entries"] if "serial_clients_per_s_100k" in e)
    return float(entry["serial_clients_per_s_100k"])

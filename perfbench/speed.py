"""The host's speed, timed on a fixed kernel between stretches of measured work.

The benchmark's host is a few cores of a shared machine whose speed drifts by
a third within seconds as its neighbours come and go.  CPU time drifts with
wall time, so the process is slowed, not descheduled, and a median over runs
cannot take the drift out.  A fixed calibration kernel, timed right after
each stretch of measured work, is slowed alike: over a ``sync-mlp`` run the
two moved together (correlation 0.98 over one-second windows, which cut the
windows' spread from 0.32 to 0.085 of their median on a 2-core host).

:class:`Speedometer` times calibration rounds in proportion to the work just
measured and turns wall seconds into seconds at the reference host's speed.
The kernel is the benchmark's own code on inputs fixed whatever the seed, so
no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds one calibration round takes on the reference host (2 cores of a
#: shared x86-64 machine, numpy with one BLAS thread)
REFERENCE_ROUND_S = 0.005
#: calibration seconds timed per second of measured work
SHARE = 0.5

_RNG = np.random.default_rng(20240613)
_X = _RNG.standard_normal((10, 784))
_W1 = _RNG.standard_normal((784, 128)) * 0.01
_W2 = _RNG.standard_normal((128, 10)) * 0.01
_COLS = _RNG.standard_normal((512, 144))
_FILTERS = _RNG.standard_normal((144, 32))


def calibration_round() -> float:
    """Seconds one fixed mix of interpreter work, small-array steps and
    larger matrix products takes, the mix the workloads run."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(3000):  # an event core's bookkeeping
        table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
    for _ in range(12):  # a dense layer's step on a batch of ten
        h = _X @ _W1
        r = np.maximum(h, 0.0)
        g = r @ _W2
        g -= g.mean(axis=1, keepdims=True)
        dr = (g @ _W2.T) * (h > 0)
        _X.T @ dr
        r.T @ g
    for _ in range(3):  # an im2col convolution's matrix products
        y = _COLS @ _FILTERS
        np.maximum(y, 0.0, out=y)
        y.T @ _COLS
    return time.perf_counter() - t0


class Speedometer:
    """Calibration rounds timed between stretches of measured work."""

    def __init__(self) -> None:
        self.rounds: list[float] = []

    def pause(self, worked_s: float) -> None:
        """Time rounds for ``SHARE`` of the ``worked_s`` seconds just
        measured, and one at least."""
        spent = 0.0
        while True:
            self.rounds.append(calibration_round())
            spent += self.rounds[-1]
            if spent >= SHARE * worked_s:
                return

    def reference_s(self, wall_s: float) -> float:
        """``wall_s`` seconds of the measured work at the reference speed."""
        return wall_s * REFERENCE_ROUND_S * len(self.rounds) / sum(self.rounds)

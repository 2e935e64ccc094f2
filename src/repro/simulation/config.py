"""Experiment configuration for federated simulations.

Defaults mirror the paper's section 7.1 (batch 50, local lr 0.1, global lr 1,
local epochs 5, participation 10%), with round counts left to each benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.utils.validation import check_fraction, check_positive, positive_count

__all__ = ["FLConfig", "resolve_lr_schedule"]


def resolve_lr_schedule(
    schedule: "Callable[[int], float] | dict | None", rounds: int
) -> "Callable[[int], float] | None":
    """Materialize a config's ``lr_schedule`` into a callable.

    Accepts the three forms :class:`FLConfig` allows: None (constant lr), a
    bare callable (used as-is), or the serializable named form
    ``{"name": "cosine", ...}`` resolved through
    :func:`repro.nn.schedules.make_schedule` — extra keys forward to the
    schedule constructor and ``total_rounds`` defaults to the run's round
    count, so specs survive the JSON round-trip without hand-attaching
    callables.
    """
    if schedule is None or callable(schedule):
        return schedule
    from repro.nn.schedules import make_schedule

    kwargs = dict(schedule)
    name = kwargs.pop("name")
    total = kwargs.pop("total_rounds", rounds)
    return make_schedule(name, total, **kwargs)


@dataclass
class FLConfig:
    """Hyper-parameters of one federated run.

    Attributes:
        rounds: communication rounds R.
        batch_size: local minibatch size.
        local_epochs: passes over each client's data per round.
        lr_local: client learning rate eta_l.
        lr_global: server learning rate eta_g.
        participation: fraction of clients sampled each round.
        eval_every: evaluate the global model every this many rounds.
        eval_per_class: also record per-class test accuracy.
        seed: master seed for client sampling and local shuffling.
        max_batches_per_round: optional hard cap on local batches (speed knob
            for tests; None = no cap).
        lr_schedule: optional multiplier on ``lr_local`` per round — either a
            callable ``round_idx -> multiplier`` (in-process only) or the
            serializable named form ``{"name": "cosine", ...}`` resolved from
            :mod:`repro.nn.schedules` (extra keys forward to the schedule;
            ``total_rounds`` defaults to ``rounds``); None = constant.
    """

    rounds: int = 50
    batch_size: int = 50
    local_epochs: int = 5
    lr_local: float = 0.1
    lr_global: float = 1.0
    participation: float = 0.1
    eval_every: int = 1
    eval_per_class: bool = False
    seed: int = 0
    max_batches_per_round: int | None = None
    lr_schedule: Callable[[int], float] | dict | None = None

    def __post_init__(self) -> None:
        for name in ("rounds", "batch_size", "local_epochs", "eval_every"):
            setattr(self, name, positive_count(getattr(self, name), name))
        check_positive(self.lr_local, "lr_local")
        check_positive(self.lr_global, "lr_global")
        check_fraction(self.participation, "participation")
        # SeedSequence refuses a negative seed, and the keyed streams a
        # fractional one, only deep inside the run
        self.seed = positive_count(self.seed, "seed", minimum=0)
        if self.max_batches_per_round is not None:
            self.max_batches_per_round = positive_count(
                self.max_batches_per_round, "max_batches_per_round"
            )
        if isinstance(self.lr_schedule, dict):
            from repro.nn.schedules import SCHEDULE_NAMES

            name = self.lr_schedule.get("name")
            if name not in SCHEDULE_NAMES:
                raise ValueError(
                    "named lr_schedule needs a 'name' key from "
                    f"{SCHEDULE_NAMES}, got {self.lr_schedule!r}"
                )
        elif self.lr_schedule is not None and not callable(self.lr_schedule):
            raise TypeError(
                "lr_schedule must be a callable round_idx -> multiplier, a "
                "{'name': ...} schedule spec, or None, "
                f"got {type(self.lr_schedule).__name__}"
            )

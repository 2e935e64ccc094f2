"""Heterogeneity-aware scheduling: adaptive controllers and time-aware samplers.

PR 1 exposed *time* as a first-class simulation output, but every knob that
determines time-to-accuracy — the semi-sync deadline, the async concurrency,
the cohort choice — was fixed by hand.  This module closes the loop:

* :class:`DeadlineController` — tunes the semi-sync round deadline with a
  multiplicative control law so the observed drop-rate converges to a
  target budget (FedBuff-style staleness control, applied to deadlines).
* :class:`ConcurrencyController` — additive-increase/multiplicative-decrease
  (AIMD, the TCP congestion-control rule) on the async engine's max
  in-flight clients, targeting a mean-staleness budget.
* Time-aware cohort samplers built on the :mod:`repro.simulation.sampling`
  protocol, extended with a ``bind``/``observe`` handshake so the engine can
  feed back priced latencies:

  - :class:`FastFirstSampler` — oversample fast devices (power-weighted);
  - :class:`LongIdleSampler` — deterministic longest-idle-first rotation;
  - :class:`UtilitySampler` — Oort-style utility blending a statistical
    score (data size, optionally scarcity-weighted) with a speed term that
    penalises clients expected to overshoot a preferred round duration.

Everything is deterministic under a seed: controllers are pure functions of
their observation sequence, and samplers draw only from the context's
per-round RNG streams.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.scoring import client_scores
from repro.runtime.clock import LatencyModel
from repro.simulation.communication import comm_profile
from repro.simulation.context import SimulationContext
from repro.simulation.sampling import RoundRobinSampler, ScoreBiasedSampler, UniformSampler
from repro.utils.rng import keyed_rng

__all__ = [
    "DeadlineController",
    "ConcurrencyController",
    "TimeAwareSampler",
    "FastFirstSampler",
    "LongIdleSampler",
    "UtilitySampler",
    "SAMPLERS",
    "make_sampler",
    "resolve_auto_comm",
]


def resolve_auto_comm(latency_model: LatencyModel, algorithm) -> None:
    """Resolve a ``comm_method="auto"`` sentinel to the algorithm's profile.

    Unknown algorithm names (e.g. user plugins) fall back to the generic
    one-down/one-up estimate rather than failing the run.  Dropout-retry
    wrappers propagate the resolved method to their inner per-attempt model
    at bind time.
    """
    if latency_model.comm_method != "auto":
        return
    name = getattr(algorithm, "name", type(algorithm).__name__)
    try:
        comm_profile(name)
    except KeyError:
        latency_model.comm_method = None
    else:
        latency_model.comm_method = name
    inner = getattr(latency_model, "inner", None)
    if inner is not None and inner.comm_method == "auto":
        inner.comm_method = latency_model.comm_method


class DeadlineController:
    """Tune the semi-sync deadline to hit a target drop-rate budget.

    The controller starts from a quantile of the first observed cohort's
    priced latencies and then applies a multiplicative-ratio update after
    every round::

        deadline *= exp(gain * (observed_drop_rate - target_drop_rate))

    Dropping more clients than budgeted relaxes the deadline; dropping fewer
    tightens it — the fixed point is a deadline whose drop-rate equals the
    budget, reached geometrically for any stationary latency distribution.

    Args:
        target_drop_rate: budgeted fraction of the cohort allowed to miss
            the deadline (0 = wait for everyone, ~0.3 cuts the straggler
            tail).
        initial: starting deadline in virtual seconds; None derives it from
            the first round's latencies at the ``1 - target_drop_rate``
            quantile (already near the fixed point).
        gain: control gain; larger adapts faster but oscillates more.
        min_deadline / max_deadline: clamp bounds for the tuned deadline.
    """

    def __init__(
        self,
        target_drop_rate: float = 0.3,
        initial: float | None = None,
        gain: float = 0.5,
        min_deadline: float = 1e-9,
        max_deadline: float = math.inf,
    ) -> None:
        if not 0.0 <= target_drop_rate < 1.0:
            raise ValueError(f"target_drop_rate must be in [0, 1), got {target_drop_rate}")
        if initial is not None and initial <= 0:
            raise ValueError(f"initial deadline must be > 0, got {initial}")
        if gain <= 0:
            raise ValueError(f"gain must be > 0, got {gain}")
        if not 0 < min_deadline <= max_deadline:
            raise ValueError("need 0 < min_deadline <= max_deadline")
        self.target_drop_rate = float(target_drop_rate)
        self.gain = float(gain)
        self.min_deadline = float(min_deadline)
        self.max_deadline = float(max_deadline)
        self._initial = float(initial) if initial is not None else None
        self.deadline = self._initial
        self.history: list[float] = []

    def reset(self) -> None:
        """Forget adapted state so a re-run reproduces the first run."""
        self.deadline = self._initial
        self.history.clear()

    def start(self, latencies: np.ndarray) -> float:
        """Seed the deadline from a cohort's priced latencies (first round)."""
        if self.deadline is None:
            q = float(np.quantile(np.asarray(latencies), 1.0 - self.target_drop_rate))
            self.deadline = float(np.clip(q, self.min_deadline, self.max_deadline))
        return self.deadline

    def observe(self, n_late: int, n_selected: int) -> float:
        """Feed one round's outcome; returns the next round's deadline."""
        if self.deadline is None:
            raise RuntimeError("DeadlineController.start() must run before observe()")
        if n_selected < 1 or n_late < 0 or n_late > n_selected:
            raise ValueError(f"need 0 <= n_late <= n_selected, got {n_late}/{n_selected}")
        drop_rate = n_late / n_selected
        self.history.append(drop_rate)
        self.deadline = float(
            np.clip(
                self.deadline * math.exp(self.gain * (drop_rate - self.target_drop_rate)),
                self.min_deadline,
                self.max_deadline,
            )
        )
        return self.deadline


class ConcurrencyController:
    """AIMD control of the async engine's max in-flight clients.

    Mean staleness in an async run grows with the number of concurrent
    clients (every in-flight peer that completes first bumps the model
    version).  This controller probes for the highest concurrency whose mean
    staleness stays within budget, using TCP's additive-increase /
    multiplicative-decrease rule over observation windows:

    * window mean within budget  -> ``limit += increase`` (probe upward);
    * window mean over budget    -> ``limit = floor(limit * decrease)``.

    Args:
        staleness_budget: target mean staleness per observation window.
        limit: initial max in-flight clients; None lets the engine seed it
            with its configured concurrency.
        window: observations per control decision; None lets the engine use
            its evaluation window (one synchronous round's worth of work).
        increase: additive probe step.
        decrease: multiplicative back-off factor in (0, 1).
        min_limit / max_limit: clamp bounds for the tuned limit.
    """

    def __init__(
        self,
        staleness_budget: float = 2.0,
        limit: int | None = None,
        window: int | None = None,
        increase: int = 1,
        decrease: float = 0.5,
        min_limit: int = 1,
        max_limit: int | None = None,
    ) -> None:
        if staleness_budget < 0:
            raise ValueError(f"staleness_budget must be >= 0, got {staleness_budget}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if increase < 1:
            raise ValueError(f"increase must be >= 1, got {increase}")
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        if min_limit < 1 or (max_limit is not None and max_limit < min_limit):
            raise ValueError("need 1 <= min_limit <= max_limit")
        self.staleness_budget = float(staleness_budget)
        self.limit = limit
        self.window = window
        self.increase = int(increase)
        self.decrease = float(decrease)
        self.min_limit = int(min_limit)
        self.max_limit = max_limit
        self._pending: list[float] = []
        self._seeded_limit: int | None = None
        self.history: list[int] = []

    def seed(self, limit: int, window: int, max_limit: int) -> None:
        """Fill engine-derived defaults for unset knobs (called once).

        The default probe ceiling is ``max(max_limit, limit)`` — an engine
        concurrency above the client count (deliberate oversubscription) is
        honoured, never silently clipped; an explicit ``max_limit`` from the
        constructor always wins.
        """
        if self.window is None:
            self.window = int(window)
        if self.max_limit is None:
            self.max_limit = max(int(max_limit), int(limit), self.min_limit)
        if self.limit is None:
            self.limit = int(limit)
        self.limit = int(np.clip(self.limit, self.min_limit, self.max_limit))
        self._seeded_limit = self.limit

    def reset(self) -> None:
        """Forget adapted state so a re-run reproduces the first run."""
        if self._seeded_limit is not None:
            self.limit = self._seeded_limit
        self._pending.clear()
        self.history.clear()

    def observe(self, staleness: float) -> int:
        """Feed one applied update's staleness; returns the current limit."""
        if self.limit is None or self.window is None:
            raise RuntimeError("ConcurrencyController.seed() must run before observe()")
        self._pending.append(float(staleness))
        if len(self._pending) >= self.window:
            mean = float(np.mean(self._pending))
            self._pending.clear()
            if mean > self.staleness_budget:
                self.limit = int(self.limit * self.decrease)
            else:
                self.limit = self.limit + self.increase
            hi = self.max_limit if self.max_limit is not None else self.limit
            self.limit = int(np.clip(self.limit, self.min_limit, hi))
            self.history.append(self.limit)
        return self.limit


class TimeAwareSampler:
    """Base for cohort samplers that price clients by expected latency.

    The engine calls :meth:`bind` once (handing over the context and its
    bound latency model), then :meth:`observe` with every priced completion;
    subclasses read :meth:`expected_seconds` — an exponential moving average
    of observations, falling back to the latency model's deterministic base
    cost for clients never observed — when drawing a cohort.

    Two sampling interfaces share that state:

    * *per-round* — ``sampler(ctx, round_idx)`` draws a whole cohort (the
      semi-synchronous engine);
    * *per-dispatch* — :meth:`pick_next` chooses one replacement client
      among the currently idle set (the asynchronous engine), weighted by
      :meth:`dispatch_weights` from a dedicated per-dispatch RNG stream so
      runs stay pure functions of the seed.
    """

    def __init__(self, ema: float = 0.3) -> None:
        if not 0.0 < ema <= 1.0:
            raise ValueError(f"ema must be in (0, 1], got {ema}")
        self.ema = float(ema)
        self._prior: np.ndarray | None = None
        self._observed: np.ndarray | None = None
        self._seen: np.ndarray | None = None
        self._seed = 0
        self._dispatch_count = 0
        self._last_dispatch: np.ndarray | None = None
        # monotone estimate version: bumped by every observe()/observe_loss()
        # so per-dispatch weight caches know when to rebuild (incremental
        # weights instead of an O(N) recompute per dispatch)
        self._estimate_version = 0

    def bind(self, ctx: SimulationContext, latency_model: LatencyModel) -> "TimeAwareSampler":
        k = ctx.num_clients
        # prior = the priced first dispatch: deterministic under the seed and
        # carries persistent device speed, unlike the data-size-only base cost
        # (sample_many batches the draws; bit-equal to the per-client loop)
        self._prior = latency_model.sample_many(
            np.arange(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
        )
        self._observed = self._prior.copy()
        self._seen = np.zeros(k, dtype=bool)
        self._seed = ctx.config.seed
        self._dispatch_count = 0
        self._last_dispatch = np.full(k, -np.inf)
        self._bump_estimates()
        return self

    def reset(self) -> None:
        """Forget observations so a re-run reproduces the first run."""
        if self._prior is not None:
            self._observed = self._prior.copy()
            self._seen[:] = False
            self._dispatch_count = 0
            self._last_dispatch[:] = -np.inf
            self._bump_estimates()

    def _bump_estimates(self) -> None:
        self._estimate_version += 1

    # -- per-dispatch interface (async engine) -------------------------------
    def dispatch_weights(self, idle: np.ndarray, now: float) -> np.ndarray:
        """Unnormalized pick weights over the ``idle`` client ids."""
        return np.ones(len(idle))

    def pick_next(self, idle: np.ndarray, now: float) -> int:
        """Choose the next client to dispatch among the idle set.

        Weighted draw over :meth:`dispatch_weights` from a stream keyed by
        ``(seed, tag, dispatch_count)`` — independent of execution details,
        like every other stream in the library.
        """
        if self._observed is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before pick_next()")
        idle = np.asarray(idle, dtype=np.int64)
        w = np.maximum(self.dispatch_weights(idle, now), 1e-12)
        rng = keyed_rng(self._seed, 0xD1, self._dispatch_count)
        self._dispatch_count += 1
        cid = int(idle[rng.choice(idle.size, p=w / w.sum())])
        self._last_dispatch[cid] = now
        return cid

    def observe(self, client_id: int, seconds: float) -> None:
        """Blend one priced completion into the client's latency estimate."""
        if self._observed is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before observe()")
        if self._seen[client_id]:
            self._observed[client_id] += self.ema * (seconds - self._observed[client_id])
        else:
            self._observed[client_id] = float(seconds)
            self._seen[client_id] = True
        self._bump_estimates()

    def expected_seconds(self) -> np.ndarray:
        if self._observed is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before sampling")
        return self._observed

    @staticmethod
    def cohort_size(ctx: SimulationContext) -> int:
        k = ctx.num_clients
        return min(k, max(1, int(round(ctx.config.participation * k))))

    def __call__(self, ctx: SimulationContext, round_idx: int) -> np.ndarray:
        raise NotImplementedError


class FastFirstSampler(TimeAwareSampler):
    """Oversample fast devices: P(k) proportional to ``1 / latency^power``.

    ``power=0`` degrades to uniform; large powers approach a deterministic
    fastest-m cohort.  Speeds up semi-sync wall-clock at the cost of seeing
    slow clients' data less often (quantify with the fairness analyses).
    """

    def __init__(self, power: float = 1.0, ema: float = 0.3) -> None:
        super().__init__(ema=ema)
        if power < 0:
            raise ValueError(f"power must be >= 0, got {power}")
        self.power = float(power)
        self._w_cache: np.ndarray | None = None
        self._w_cache_version = -1

    def _full_weights(self) -> np.ndarray:
        """Population weight array, rebuilt only when an estimate changed.

        Incremental in the sense that per-dispatch cost drops from O(N)
        to O(idle-index): the O(N) power transform runs once per
        ``observe``, not once per dispatch.  Bit-identity with the old
        per-dispatch recompute holds because ``power(maximum(lat, eps),
        -p)`` is elementwise — computing it over the population and then
        indexing equals indexing first and then computing.
        """
        version = self._estimate_version
        cache = self._w_cache
        if cache is None or self._w_cache_version != version:
            lat = self.expected_seconds()
            cache = np.power(np.maximum(lat, 1e-12), -self.power)
            self._w_cache = cache
            self._w_cache_version = version
        return cache

    def __call__(self, ctx: SimulationContext, round_idx: int) -> np.ndarray:
        w = self._full_weights()
        p = w / w.sum()
        m = self.cohort_size(ctx)
        rng = ctx.round_rng(round_idx)
        return np.sort(rng.choice(ctx.num_clients, size=m, replace=False, p=p))

    def dispatch_weights(self, idle: np.ndarray, now: float) -> np.ndarray:
        return self._full_weights()[idle]


class LongIdleSampler(TimeAwareSampler):
    """Deterministic longest-idle-first rotation.

    Picks the m clients that have waited longest since their last selection
    (never-selected clients first), breaking ties by client id.  Guarantees
    every client participates once per ceil(K/m) rounds — full coverage with
    bounded per-client idle time, useful for fairness baselines and for
    keeping stale per-client state (SCAFFOLD controls) fresh.
    """

    def bind(self, ctx: SimulationContext, latency_model: LatencyModel) -> "LongIdleSampler":
        super().bind(ctx, latency_model)
        self._last = np.full(ctx.num_clients, -np.inf)
        return self

    def reset(self) -> None:
        super().reset()
        if self._prior is not None:
            self._last[:] = -np.inf

    def __call__(self, ctx: SimulationContext, round_idx: int) -> np.ndarray:
        if self._prior is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before sampling")
        m = self.cohort_size(ctx)
        idle = round_idx - self._last
        # stable argsort on (-idle, id): longest idle first, ids break ties
        order = np.argsort(-idle, kind="stable")
        chosen = np.sort(order[:m])
        self._last[chosen] = round_idx
        return chosen

    def pick_next(self, idle: np.ndarray, now: float) -> int:
        """Deterministic: the idle client unselected longest (ties by id)."""
        if self._prior is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before pick_next()")
        idle = np.asarray(idle, dtype=np.int64)
        waited = now - self._last_dispatch[idle]
        cid = int(idle[int(np.argmax(waited))])  # argmax takes first on ties
        self._last_dispatch[cid] = now
        return cid


class UtilitySampler(TimeAwareSampler):
    """Oort-style utility sampling: statistical value times a speed penalty.

    Each client's utility is::

        util_k = stat_k * loss_k * min(1, (T / latency_k)) ** alpha

    where ``stat_k = sqrt(n_k)`` (optionally blended with the scarcity score
    of :func:`repro.core.scoring.client_scores` via ``score_blend``),
    ``loss_k`` is the client's last reported mean training loss (true Oort
    statistical utility — high-loss clients carry more informative updates)
    and ``T`` is the preferred round duration — the ``round_pref`` quantile
    of current expected latencies.  Clients faster than ``T`` keep their full
    statistical utility; slower ones are discounted polynomially, exactly
    Oort's global-system-utility shape.  Cohorts are drawn
    utility-proportionally without replacement from the round's RNG stream.

    The engine feeds losses through :meth:`observe_loss` (participants report
    after every local pass); clients never yet observed take the *maximum*
    observed loss as an optimistic prior, so unexplored clients stay
    attractive — Oort's exploration rule.  Before the first loss report the
    loss term is 1 for everyone, so the first cohort matches the loss-free
    sampler exactly.

    Args:
        alpha: speed-penalty exponent (0 disables the time term).
        round_pref: quantile of expected latencies used as the preferred
            round duration T.
        score_blend: weight in [0, 1] mixing the (positively shifted)
            scarcity score into the statistical term.
        loss_feedback: scale the statistical term by reported training
            losses (True, the Oort rule); False keeps the data-size-only
            proxy of earlier revisions.
        ema: observation smoothing, see :class:`TimeAwareSampler` (shared by
            the latency and loss moving averages).
    """

    def __init__(
        self,
        alpha: float = 2.0,
        round_pref: float = 0.5,
        score_blend: float = 0.0,
        loss_feedback: bool = True,
        ema: float = 0.3,
    ) -> None:
        super().__init__(ema=ema)
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 < round_pref < 1.0:
            raise ValueError(f"round_pref must be in (0, 1), got {round_pref}")
        if not 0.0 <= score_blend <= 1.0:
            raise ValueError(f"score_blend must be in [0, 1], got {score_blend}")
        self.alpha = float(alpha)
        self.round_pref = float(round_pref)
        self.score_blend = float(score_blend)
        self.loss_feedback = bool(loss_feedback)
        self._stat: np.ndarray | None = None
        self._loss: np.ndarray | None = None
        self._loss_seen: np.ndarray | None = None
        self._util_cache: np.ndarray | None = None
        self._util_cache_version = -1

    def bind(self, ctx: SimulationContext, latency_model: LatencyModel) -> "UtilitySampler":
        super().bind(ctx, latency_model)
        stat = np.sqrt(np.maximum(ctx.client_sizes().astype(np.float64), 1.0))
        stat /= stat.max()
        if self.score_blend > 0.0:
            s = client_scores(ctx.dataset.client_counts.astype(np.float64))
            s = s - s.min()
            if s.max() > 0:
                s /= s.max()
            stat = (1.0 - self.score_blend) * stat + self.score_blend * s
        self._stat = np.maximum(stat, 1e-6)
        self._loss = np.zeros(ctx.num_clients)
        self._loss_seen = np.zeros(ctx.num_clients, dtype=bool)
        return self

    def reset(self) -> None:
        super().reset()
        if self._loss is not None:
            self._loss[:] = 0.0
            self._loss_seen[:] = False

    def observe_loss(self, client_id: int, loss: float) -> None:
        """Blend one participant's mean training loss into its estimate."""
        if self._loss is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before observe_loss()")
        if self._loss_seen[client_id]:
            self._loss[client_id] += self.ema * (loss - self._loss[client_id])
        else:
            self._loss[client_id] = float(loss)
            self._loss_seen[client_id] = True
        self._bump_estimates()

    def statistical_utilities(self) -> np.ndarray:
        """Size/scarcity term, loss-scaled once any client reported a loss."""
        stat = self._stat
        if self.loss_feedback and self._loss_seen is not None and self._loss_seen.any():
            # optimistic prior: unexplored clients assume the largest
            # observed loss, so exploration never starves (Oort sec. 4.2)
            prior = float(self._loss[self._loss_seen].max())
            loss = np.where(self._loss_seen, self._loss, prior)
            top = float(loss.max())
            if top > 0:
                stat = stat * np.maximum(loss / top, 1e-6)
        return stat

    def utilities(self) -> np.ndarray:
        """Population utilities, cached between estimate changes.

        The full product — quantile, speed penalty, statistical term — is
        O(N); recomputing it per *dispatch* was the async hot loop's cost.
        It now reruns only when :meth:`observe` / :meth:`observe_loss`
        moved an estimate (the inputs are pure functions of those arrays),
        which keeps the values bit-identical to an uncached recompute.
        """
        version = self._estimate_version
        cache = self._util_cache
        if cache is None or self._util_cache_version != version:
            lat = self.expected_seconds()
            t_pref = float(np.quantile(lat, self.round_pref))
            speed = np.minimum(1.0, t_pref / np.maximum(lat, 1e-12)) ** self.alpha
            cache = self.statistical_utilities() * np.maximum(speed, 1e-9)
            self._util_cache = cache
            self._util_cache_version = version
        return cache

    def __call__(self, ctx: SimulationContext, round_idx: int) -> np.ndarray:
        if self._stat is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before sampling")
        util = self.utilities()
        p = util / util.sum()
        m = self.cohort_size(ctx)
        rng = ctx.round_rng(round_idx)
        return np.sort(rng.choice(ctx.num_clients, size=m, replace=False, p=p))

    def dispatch_weights(self, idle: np.ndarray, now: float) -> np.ndarray:
        if self._stat is None:
            raise RuntimeError("sampler.bind(ctx, latency_model) must run before pick_next()")
        return self.utilities()[idle]


SAMPLERS: dict[str, type] = {
    "uniform": UniformSampler,
    "score": ScoreBiasedSampler,
    "round-robin": RoundRobinSampler,
    "fast": FastFirstSampler,
    "long-idle": LongIdleSampler,
    "utility": UtilitySampler,
}


def make_sampler(name: str, **kwargs):
    """Instantiate a cohort sampler by registry name (case-insensitive)."""
    key = name.lower()
    if key not in SAMPLERS:
        raise KeyError(f"unknown sampler {name!r}; available: {sorted(SAMPLERS)}")
    return SAMPLERS[key](**kwargs)

"""Deterministic virtual time for event-driven federated simulation.

Two pieces:

* :class:`VirtualClock` — a heapq-based future-event queue.  Events are
  ordered by ``(time, seq)`` where ``seq`` is a monotone schedule counter,
  so simultaneous events always pop in schedule order and a run is a pure
  function of its seed (no wall-clock, no hash randomisation).
* :class:`LatencyModel` and friends — price each client update in simulated
  seconds from *first principles*: local compute is ``time_per_batch`` times
  the client's gradient-step count (derived from its dataset size and the
  :class:`~repro.simulation.config.FLConfig` batch/epoch settings), and
  communication is the broadcast + upload of one parameter vector over a
  ``bandwidth`` link — or, with ``comm_method`` set, the algorithm's exact
  :class:`~repro.simulation.communication.CommunicationModel` payload (so
  e.g. SCAFFOLD's two-way control variates double the priced round trip).
  Subclasses multiply that base cost by a stochastic device factor:

  - :class:`ConstantLatency` — every device identical (sanity baseline).
  - :class:`LognormalLatency` — persistent per-device speed drawn from a
    lognormal (the classic device-heterogeneity model) plus per-dispatch
    jitter.
  - :class:`ParetoLatency` — heavy-tailed per-dispatch factors: most
    updates are cheap, a few are catastrophic stragglers.
  - :class:`DropoutRetryLatency` — wraps another model; each dispatch may
    fail and be retried, paying the full attempt cost every time.

All randomness is keyed by ``(seed, tag, dispatch_idx, client_id)`` streams,
so latencies are independent of worker count and execution order — the same
convention as :meth:`repro.simulation.SimulationContext.client_rng`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.context import SimulationContext
from repro.utils.rng import KeyedNormals, keyed_rng

__all__ = [
    "Event",
    "VirtualClock",
    "LatencyModel",
    "ConstantLatency",
    "LognormalLatency",
    "ParetoLatency",
    "DropoutRetryLatency",
    "LATENCY_MODELS",
    "make_latency_model",
]


@dataclass(slots=True)
class Event:
    """A scheduled completion: ``client_id`` finishes at virtual ``time``.

    Slotted and immutable by contract, as
    :class:`~repro.runtime.events.Dispatch` is.
    """

    time: float
    seq: int
    client_id: int
    data: dict = field(default_factory=dict, compare=False)


class VirtualClock:
    """Seeded discrete-event queue with a monotone ``now``.

    ``schedule`` inserts an event ``delay`` seconds into the future;
    ``pop`` removes the earliest event and advances ``now`` to its time.
    Ties break on insertion order, making event order fully deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, client_id: int = -1, **data) -> Event:
        """Schedule an event at ``now + delay``; returns the event."""
        if not math.isfinite(delay) or delay < 0:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        ev = Event(time=self.now + float(delay), seq=self._seq, client_id=int(client_id), data=data)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        self._seq += 1
        return ev

    def push_many(self, entries) -> list[Event]:
        """Batched schedule: one planning pass for a whole dispatch burst.

        Args:
            entries: sequence of ``(delay, client_id, data)`` triples, with
                ``data`` the event's payload dict (what ``schedule`` takes
                as ``**data``).

        Pop order is bit-identical to sequential :meth:`schedule` calls:
        entries receive consecutive ``seq`` numbers in list order and heap
        order is fully determined by ``(time, seq)``, so how the tuples
        *entered* the heap is unobservable.  That freedom pays for the
        speed: large bursts (the async policy's begin() prime, a round's
        cohort) are appended and re-heapified in O(n + k) instead
        of k O(log n) pushes, while small refill bursts keep the cheaper
        per-item push.
        """
        items: list[tuple[float, int, Event]] = []
        events: list[Event] = []
        now, seq = self.now, self._seq
        for delay, client_id, data in entries:
            if not math.isfinite(delay) or delay < 0:
                raise ValueError(f"delay must be finite and >= 0, got {delay}")
            ev = Event(
                time=now + float(delay), seq=seq, client_id=int(client_id), data=data
            )
            items.append((ev.time, ev.seq, ev))
            events.append(ev)
            seq += 1
        self._seq = seq
        heap = self._heap
        if len(items) >= 8 and len(items) >= len(heap):
            heap.extend(items)
            heapq.heapify(heap)
        else:
            for item in items:
                heapq.heappush(heap, item)
        return events

    def peek(self) -> Event | None:
        """Earliest pending event without popping it (None when empty)."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now``."""
        if not self._heap:
            raise IndexError("pop from an empty VirtualClock")
        _, _, ev = heapq.heappop(self._heap)
        self.now = max(self.now, ev.time)
        return ev

    def advance(self, dt: float) -> float:
        """Advance ``now`` by ``dt`` seconds (semi-sync round accounting)."""
        if not math.isfinite(dt) or dt < 0:
            raise ValueError(f"dt must be finite and >= 0, got {dt}")
        self.now += float(dt)
        return self.now

    def clear(self) -> int:
        """Drop all pending events without advancing ``now``.

        Used by the round policy at the end of a run to abandon in-flight
        trickle completions the stopped server can no longer merge; returns
        the number of events dropped.
        """
        n = len(self._heap)
        self._heap.clear()
        return n


class LatencyModel:
    """Price a client update in simulated seconds.

    Args:
        scale: global multiplier on the base cost.
        time_per_batch: seconds per local gradient step.
        bandwidth: link bandwidth in bytes/second (shared down + up).
        bytes_per_param: 8 for float64 (library default).
        seed: latency RNG seed; defaults to the bound config's seed.
        comm_method: algorithm name whose
            :func:`~repro.simulation.communication.comm_profile` payload
            multipliers price the communication leg (e.g. ``"scaffold"``
            ships two vectors each way, so its round trip costs twice the
            generic estimate).  None keeps the generic one-down/one-up
            estimate; engines resolve the sentinel ``"auto"`` to the running
            algorithm's name before binding.

    ``bind(ctx)`` must be called once before :meth:`latency`; it derives each
    client's base cost from its dataset size and the config's batch/epoch
    settings (honouring ``max_batches_per_round``) plus one round trip of the
    flattened parameter vector.
    """

    name = "constant"

    def __init__(
        self,
        scale: float = 1.0,
        time_per_batch: float = 0.01,
        bandwidth: float = 1e7,
        bytes_per_param: int = 8,
        seed: int | None = None,
        comm_method: str | None = None,
    ) -> None:
        if scale <= 0 or time_per_batch <= 0 or bandwidth <= 0 or bytes_per_param < 1:
            raise ValueError("scale/time_per_batch/bandwidth/bytes_per_param must be positive")
        self.scale = float(scale)
        self.time_per_batch = float(time_per_batch)
        self.bandwidth = float(bandwidth)
        self.bytes_per_param = int(bytes_per_param)
        self.seed = seed
        self.comm_method = comm_method
        self._explicit_seed = seed is not None
        self._compute: np.ndarray | None = None
        self._comm: float = 0.0
        self._base: np.ndarray | None = None

    def payload_bytes(self, dim: int) -> int:
        """Bytes one update moves down + up for a ``dim``-parameter model."""
        if self.comm_method is None:
            return int(2.0 * dim * self.bytes_per_param)
        from repro.simulation.communication import CommunicationModel

        cm = CommunicationModel(
            num_params=dim, clients_per_round=1, bytes_per_param=self.bytes_per_param
        )
        return cm.client_payload_bytes(self.comm_method)

    def bind(self, ctx: SimulationContext) -> "LatencyModel":
        """Derive per-client base costs from the bound problem; returns self."""
        cfg = ctx.config
        sizes = ctx.client_sizes()
        per_epoch = np.maximum(1, np.ceil(sizes / cfg.batch_size)).astype(np.int64)
        batches = per_epoch * cfg.local_epochs
        if cfg.max_batches_per_round is not None:
            batches = np.minimum(batches, cfg.max_batches_per_round)
        self._compute = self.scale * self.time_per_batch * batches
        self._comm = self.scale * self.payload_bytes(ctx.dim) / self.bandwidth
        self._base = self._compute + self._comm
        if not self._explicit_seed:
            # follow the bound problem's seed, including across re-binds
            self.seed = cfg.seed
        return self

    def base_seconds(self, client_id: int) -> float:
        if self._base is None:
            raise RuntimeError("LatencyModel.bind(ctx) must be called before pricing")
        return float(self._base[client_id])

    def compute_seconds(self, client_id: int) -> float:
        """Local-training share of the base cost (no communication)."""
        if self._compute is None:
            raise RuntimeError("LatencyModel.bind(ctx) must be called before pricing")
        return float(self._compute[client_id])

    def comm_seconds(self) -> float:
        """Communication share of the base cost (identical for all clients)."""
        if self._base is None:
            raise RuntimeError("LatencyModel.bind(ctx) must be called before pricing")
        return self._comm

    def latency(self, client_id: int, dispatch_idx: int) -> float:
        """Simulated seconds for dispatch ``dispatch_idx`` of ``client_id``."""
        return self.base_seconds(client_id) * self.factor(client_id, dispatch_idx)

    def sample_many(self, client_ids, dispatch_idxs) -> np.ndarray:
        """Batched :meth:`latency` over parallel id/index arrays.

        The base implementation is a scalar loop over :meth:`latency`, so
        third-party subclasses stay correct without opting in; the built-in
        models override it with vectorized paths that reproduce
        the per-call draws *bit for bit* — every stream is still keyed by
        ``(seed, tag, dispatch_idx, client_id)``, so batching changes
        neither the values nor any other stream
        (``tests/test_fastpath.py`` pins this for every registered model).
        """
        return np.array(
            [
                self.latency(int(c), int(i))
                for c, i in zip(client_ids, dispatch_idxs)
            ],
            dtype=np.float64,
        )

    def factor(self, client_id: int, dispatch_idx: int) -> float:
        """Stochastic device multiplier; 1.0 in the constant base model."""
        return 1.0

    def _rng(self, tag: int, *key: int) -> np.random.Generator:
        return keyed_rng(self.seed or 0, tag, *key)


class ConstantLatency(LatencyModel):
    """Homogeneous devices: latency is exactly the priced base cost."""

    name = "constant"

    def sample_many(self, client_ids, dispatch_idxs) -> np.ndarray:
        # fully vectorized: factor is identically 1.0, and base * 1.0 is
        # the base bit for bit, so indexing the bound base array suffices
        if self._base is None:
            raise RuntimeError("LatencyModel.bind(ctx) must be called before pricing")
        ids = np.asarray(client_ids, dtype=np.int64)
        return self._base[ids].astype(np.float64, copy=True)


class LognormalLatency(LatencyModel):
    """Persistent lognormal device speeds plus per-dispatch jitter.

    Args:
        sigma: log-std of the per-*client* speed factor (drawn once per
            client; the device-heterogeneity knob).
        jitter: log-std of the per-*dispatch* factor (network noise).

    A client's speed draws from the stream ``(seed, 0x5E, client_id)``
    through one :class:`~repro.utils.rng.KeyedNormals`, built on the first
    draw; it and the per-client speed memo are dropped by ``bind`` and left
    out of pickles.
    """

    name = "lognormal"

    def __init__(self, sigma: float = 0.75, jitter: float = 0.25, **kwargs) -> None:
        super().__init__(**kwargs)
        if sigma < 0 or jitter < 0:
            raise ValueError("sigma and jitter must be >= 0")
        self.sigma = float(sigma)
        self.jitter = float(jitter)
        self._normals: KeyedNormals | None = None
        self._speed_cache: dict[int, float] = {}

    def __getstate__(self) -> dict:
        return self.__dict__ | {"_normals": None, "_speed_cache": {}}

    def bind(self, ctx: SimulationContext) -> "LognormalLatency":
        super().bind(ctx)
        # rebinding may change the seed the per-client speed streams key on
        self._normals, self._speed_cache = None, {}
        return self

    def _speed(self, client_id: int) -> float:
        """Memoized persistent device speed (one draw per client per bind:
        a population smaller than the run's dispatches draws each client
        many times); ``sigma == 0`` returns the 1.0 ``exp(0 * z)`` would."""
        s = self._speed_cache.get(client_id)
        if s is None:
            if self.sigma == 0.0:
                s = 1.0
            else:
                if self._normals is None:
                    self._normals = KeyedNormals(self.seed or 0, 0x5E)
                s = math.exp(self.sigma * self._normals(client_id))
            self._speed_cache[client_id] = s
        return s

    def factor(self, client_id: int, dispatch_idx: int) -> float:
        speed = self._speed(client_id)
        if self.jitter == 0.0:
            # exp(0 * z) == 1.0 exactly; skipping the draw is value- and
            # stream-safe (every stream has its own keyed generator)
            return speed
        noise = math.exp(self.jitter * self._rng(0x11, dispatch_idx, client_id).standard_normal())
        return speed * noise

    def sample_many(self, client_ids, dispatch_idxs) -> np.ndarray:
        if self._base is None:
            raise RuntimeError("LatencyModel.bind(ctx) must be called before pricing")
        ids = np.asarray(client_ids, dtype=np.int64)
        base = self._base[ids].astype(np.float64, copy=False)
        speed = np.array([self._speed(int(c)) for c in ids], dtype=np.float64)
        if self.jitter == 0.0:
            return base * speed
        noise = np.array(
            [
                math.exp(
                    self.jitter
                    * self._rng(0x11, int(i), int(c)).standard_normal()
                )
                for c, i in zip(ids, dispatch_idxs)
            ],
            dtype=np.float64,
        )
        # scalar latency() computes base * (speed * noise); keep the same
        # association so the products round identically
        return base * (speed * noise)


class ParetoLatency(LatencyModel):
    """Heavy-tailed per-dispatch factors (Pareto with x_m = 1).

    Args:
        alpha: tail index; smaller = heavier stragglers.  ``alpha <= 1``
            gives an infinite-mean tail — allowed, but brutal.
    """

    name = "pareto"

    def __init__(self, alpha: float = 1.5, **kwargs) -> None:
        super().__init__(**kwargs)
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)

    def factor(self, client_id: int, dispatch_idx: int) -> float:
        return 1.0 + float(self._rng(0x9A, dispatch_idx, client_id).pareto(self.alpha))


class DropoutRetryLatency(LatencyModel):
    """Dropout/retry wrapper: failed attempts pay full cost, then retry.

    Args:
        inner: the per-attempt latency model (name or instance; default
            lognormal).
        p_drop: probability that an attempt fails and is retried.
        max_retries: retry budget; the final attempt always succeeds, so
            every dispatch eventually completes (no lost updates).

    When comm pricing is enabled (``comm_method``), :meth:`bind` propagates
    it to the inner per-attempt model, so every retransmission pays the
    algorithm's full priced payload again — not just the compute leg.
    """

    name = "dropout"

    def __init__(
        self,
        inner: "LatencyModel | str | None" = None,
        p_drop: float = 0.15,
        max_retries: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= p_drop < 1.0:
            raise ValueError(f"p_drop must be in [0, 1), got {p_drop}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if inner is None:
            inner = LognormalLatency(**kwargs)
        elif isinstance(inner, str):
            inner = make_latency_model(inner, **kwargs)
        self.inner = inner
        self.p_drop = float(p_drop)
        self.max_retries = int(max_retries)

    def bind(self, ctx: SimulationContext) -> "DropoutRetryLatency":
        super().bind(ctx)
        if self.comm_method is not None and self.inner.comm_method is None:
            # retries must re-pay the priced payload, not a generic estimate
            self.inner.comm_method = self.comm_method
        self.inner.bind(ctx)
        return self

    def latency(self, client_id: int, dispatch_idx: int) -> float:
        attempts = self.max_retries + 1
        total = 0.0
        for t in range(attempts):
            # distinct inner dispatch index per attempt keeps streams unique
            total += self.inner.latency(client_id, dispatch_idx * attempts + t)
            if t == self.max_retries:
                break
            if self._rng(0xDD, dispatch_idx, client_id, t).random() >= self.p_drop:
                break
        return total


LATENCY_MODELS: dict[str, type[LatencyModel]] = {
    "constant": ConstantLatency,
    "lognormal": LognormalLatency,
    "pareto": ParetoLatency,
    "dropout": DropoutRetryLatency,
}


def make_latency_model(name: str, **kwargs) -> LatencyModel:
    """Instantiate a latency model by registry name (case-insensitive)."""
    key = name.lower()
    if key not in LATENCY_MODELS:
        raise KeyError(f"unknown latency model {name!r}; available: {sorted(LATENCY_MODELS)}")
    return LATENCY_MODELS[key](**kwargs)

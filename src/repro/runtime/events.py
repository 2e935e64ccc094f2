"""One event loop for every engine kind.

Before this module the repo carried three training loops — lock-step rounds
(:class:`repro.simulation.FederatedSimulation`), deadline rounds
(:class:`repro.runtime.SemiSyncFederatedSimulation`) and the asynchronous
event loop (:class:`repro.runtime.AsyncFederatedSimulation`) — each
re-implementing dispatch, completion handling, sampler binding and history
recording.  They are now all *policies* over one :class:`EventCore`:

* :class:`DeadlinePolicy` — rounds: the whole cohort is dispatched at once
  and a ``DeadlineTick`` closes the round.  Without a latency model these
  are synchronous rounds: completions land at delay 0, virtual time stays
  0, and the history is plain :class:`~repro.simulation.RoundRecord`\\ s.
  With one they are semi-synchronous rounds on the virtual clock: cohort
  completions are priced, a deadline may close the round early, and late
  clients follow one of two late policies — ``"downweight"`` (the
  historical same-round approximation: late displacements are scaled by
  ``late_weight`` — or dropped at 0 — and merged *before they arrive*,
  which is exactly why it cannot be expressed as honest events and bypasses
  the queue) or ``"trickle"`` (the honest event path: the late completion
  stays in the queue and merges into the round that is open when it
  actually arrives).
* :class:`AsyncPolicy` — continuous dispatch: a bounded number of clients
  in flight, each completion immediately applied through the algorithm's
  ``server_apply`` and replaced, with FedAsync/FedBuff semantics living in
  the algorithm.  Supports per-dispatch time-aware samplers
  (:meth:`~repro.runtime.scheduling.TimeAwareSampler.pick_next`) and —
  through the :class:`ClientStateStore` — stateful per-client methods
  (SCAFFOLD/FedDyn control variates snapshotted at dispatch, committed at
  completion).

Client *compute* is delegated to a pluggable
:class:`~repro.parallel.backend.ExecutionBackend`: every policy describes
work as :class:`~repro.parallel.backend.ClientJob` values (broadcast
params + packed client state + buffers + broadcast state) and the backend
— serial, process pool, or remote workers over TCP
(:mod:`repro.net`) — executes them with identical semantics, so stateful
methods and BatchNorm buffer tracking work on every backend and the
histories are bit-identical across them (``tests/test_backends.py``,
``tests/test_net.py``).  Jobs reach the backend through ``submit_many``
and return through :meth:`EventCore.collect_jobs`: the round policy runs
whole cohorts at once, and the async policy hands each dispatch burst over
as it is issued when streaming (overlapping worker compute with event
processing), else queues jobs until a completion first needs one.

Events are typed (:class:`Dispatch`, :class:`Completion`,
:class:`DeadlineTick`) and ride the deterministic
:class:`~repro.runtime.clock.VirtualClock`; ties pop in schedule order, so
every run remains a pure function of its seed.  For the pre-existing knob
space, both policies reproduce the retired loops' histories bit-for-bit
(``tests/test_engine_equivalence.py`` pins this against frozen copies of
the old code).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.parallel.backend import ClientJob, ClientResult
from repro.runtime.clock import VirtualClock
from repro.runtime.fastpath import IdleTracker, mask_positions
from repro.utils.rng import keyed_integer
from repro.simulation.engine import (
    History,
    RoundRecord,
    TimedRoundRecord,
    evaluate_into_record,
)

__all__ = [
    "Dispatch",
    "Completion",
    "DeadlineTick",
    "ClientStateStore",
    "EventCore",
    "DeadlinePolicy",
    "AsyncPolicy",
    "LATE_POLICIES",
    "BUFFER_EMA_MODES",
]

logger = logging.getLogger("repro.runtime")

LATE_POLICIES = ("downweight", "trickle")

BUFFER_EMA_MODES = ("fixed", "staleness")


@dataclass(slots=True)
class Dispatch:
    """One unit of client work issued by a policy.

    Attributes:
        seq: global dispatch counter (unique per run).
        client_id: which client trains.
        round_idx: RNG round key handed to ``client_update`` (the round for
            the round policy, the dispatch sequence for async).
        issued_at: virtual time the dispatch was issued.
        version: server model version at dispatch (async staleness anchor).
        cohort_pos: position inside the round's cohort (-1 for async).
        late: True when the dispatch is already known to miss its deadline.
        x_ref: the broadcast parameter vector trained from.
        state: per-client state snapshot (stateful methods under async).
        state_version: the store's per-client version at snapshot time; the
            commit compares against it so oversubscribed stateful dispatch
            (two dispatches of one client in flight) is observable.

    The records of an update (this one, :class:`Completion`,
    :class:`~repro.runtime.clock.Event`, ``ClientJob`` and ``ClientResult``)
    are slotted, not frozen: building one then sets no field through
    ``object.__setattr__``.  They are immutable by contract, a changed record
    being a ``dataclasses.replace`` copy; the test suite refuses any write
    to a field that already holds a value.
    """

    seq: int
    client_id: int
    round_idx: int
    issued_at: float
    version: int = 0
    cohort_pos: int = -1
    late: bool = False
    x_ref: np.ndarray | None = field(default=None, repr=False, compare=False)
    state: dict | None = field(default=None, repr=False, compare=False)
    state_version: int = 0


@dataclass(slots=True)
class Completion:
    """A dispatch finishing at its priced virtual time.

    The round policy precomputes ``update`` when the dispatch is issued (its
    compute order is the cohort order, not the arrival order — that is what
    keeps buffer averaging and aggregation sums bit-identical to the
    synchronous loops); the async policy resolves updates through the
    backend at completion time — submitted eagerly under streaming
    dispatch, or as a lazy batch.  Immutable by contract, as
    :class:`Dispatch` is.
    """

    dispatch: Dispatch
    latency: float
    update: object | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DeadlineTick:
    """Round boundary marker: ``phase="open"`` starts, ``"close"`` settles."""

    round_idx: int
    phase: str = "close"


class ClientStateStore:
    """Canonical per-client algorithm state for the event-driven policies.

    Synchronous rounds leave state inside the algorithm's own arrays (their
    compute order is the commit order, so nothing extra is needed).  The
    async policy instead snapshots a client's state when a dispatch is
    issued and commits the trained state when the completion is applied —
    making state visibility a function of virtual time, not of Python
    execution order, and keeping oversubscribed clients (two dispatches in
    flight) training from the state they physically had.
    """

    def __init__(self, algorithm, num_clients: int, active: bool = True) -> None:
        self.active = active and bool(getattr(algorithm, "stateful_per_client", False))
        self._algo = algorithm
        self._num = int(num_clients)
        self._state: dict[int, dict] = {}
        self._versions: dict[int, int] = {}
        #: commits that landed on top of a state newer than their snapshot —
        #: the observable footprint of oversubscribed stateful dispatch
        #: (last-writer-wins is still the resolution, but no longer silent)
        self.stale_commits = 0

    def capture_initial(self) -> None:
        """Reset the store to the post-``setup`` baseline (called once).

        Materialization is *lazy*: nothing is packed here.  A client's state
        is first packed — from the algorithm's own post-``setup`` arrays —
        when its first dispatch snapshots it, and cached from then on, so a
        100k-client simulation holds packed state for the clients that
        actually ran, O(active) not O(total).  Laziness is identity-safe
        because a client's first snapshot always happens before anything
        can mutate its slot in the algorithm (only ``commit`` writes, and a
        commit is always preceded by the dispatch that snapshotted).
        """
        self.stale_commits = 0
        self._versions = {}
        self._state = {}

    def snapshot(self, client_id: int) -> dict | None:
        """State a dispatch issued now should train from (packed on first
        use, cached after — see :meth:`capture_initial`)."""
        if not self.active:
            return None
        state = self._state.get(client_id)
        if state is None:
            state = self._state[client_id] = self._algo.pack_client_state(client_id)
        return state

    def version(self, client_id: int) -> int:
        """Monotone per-client commit counter (0 until the first commit)."""
        return self._versions.get(client_id, 0)

    def commit(
        self, client_id: int, state: dict | None, expected_version: int | None = None
    ) -> None:
        """Make a completed dispatch's trained state the canonical one.

        Args:
            expected_version: the version the dispatch snapshotted; when the
                current version has moved past it (a concurrent self-dispatch
                committed in between), ``stale_commits`` is incremented.
        """
        if self.active and state is not None:
            if (
                expected_version is not None
                and self._versions.get(client_id, 0) != expected_version
            ):
                self.stale_commits += 1
                logger.warning(
                    "stale state commit for client %d: snapshot version %d, "
                    "store moved to %d (oversubscribed stateful dispatch; "
                    "last writer wins)",
                    client_id, expected_version, self._versions.get(client_id, 0),
                )
            self._state[client_id] = state
            self._versions[client_id] = self._versions.get(client_id, 0) + 1


class EventCore:
    """Shared machinery of every engine kind: one clock, one loop.

    The core owns the virtual clock, the global model vector, the history,
    the client-state store and cohort selection, and runs client work on
    the execution backend it is given (bound and closed by the engine); a
    *policy* object decides when to dispatch whom and how completions
    merge.  ``run`` processes the event queue until the policy stops
    scheduling.
    """

    def __init__(
        self,
        ctx,
        algorithm,
        policy,
        backend,
        metric_hooks: Sequence = (),
        client_sampler=None,
    ) -> None:
        self.ctx = ctx
        self.algorithm = algorithm
        self.policy = policy
        self.backend = backend
        self.metric_hooks = list(metric_hooks)
        self.client_sampler = client_sampler
        self.verbose = False
        self.x: np.ndarray | None = None
        self.clock = VirtualClock()
        self.history: History | None = None
        self.state_store: ClientStateStore | None = None
        self.recorder = None
        self.profiler = None
        self.stopped = False
        self._seq = 0

    # -- primitives policies build on ---------------------------------------
    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def post(self, delay: float, payload, client_id: int = -1):
        """Schedule a typed event ``delay`` virtual seconds from now."""
        if self.recorder is not None and isinstance(payload, Completion):
            self.recorder.on_dispatch(self, payload.dispatch, delay)
        return self.clock.schedule(delay, client_id=client_id, event=payload)

    def select_cohort(self, round_idx: int) -> np.ndarray:
        """The round's cohort: the context's default stream or a sampler."""
        if self.client_sampler is None:
            return self.ctx.sample_clients(round_idx)
        return np.asarray(self.client_sampler(self.ctx, round_idx))

    def make_jobs(self, pairs, buffers=None) -> list[ClientJob]:
        """Build :class:`ClientJob`\\ s for ``(round_idx, client_id)`` pairs.

        Per-job inputs come from the core's canonical state: the current
        broadcast vector, the client's packed state (when the store is
        active), ``buffers`` verbatim, and — only when the backend does not
        execute against the live algorithm — one shared broadcast-state
        snapshot.  When a recorder is attached every job is stamped to
        collect timing, its queue wait anchored at this build.
        """
        bstate = None
        if not self.backend.shares_state:
            bstate = self.algorithm.pack_broadcast_state() or None
        store = self.state_store
        timed = self.recorder is not None
        built_at = time.monotonic() if timed else None
        return [
            ClientJob(
                round_idx=int(r),
                client_id=int(k),
                x_ref=self.x,
                client_state=store.snapshot(int(k)),
                buffers=buffers,
                broadcast_state=bstate,
                collect_timing=timed,
                submitted_at=built_at,
            )
            for r, k in pairs
        ]

    def collect_jobs(self, handles=None, block: bool = True) -> list:
        """Collect completed ``(handle, result)`` pairs from the backend.

        Each collected job's timing dict becomes a ``job`` journal record
        the moment it lands.
        """
        pairs = self.backend.collect(handles, block=block)
        rec = self.recorder
        if rec is not None:
            for handle, res in pairs:
                rec.on_job(self, handle.job, res)
        return pairs

    def run_backend_jobs(self, jobs: list[ClientJob]) -> list:
        """Run a job batch: one ``submit_many``, collected in job order.

        The round policy (whole-cohort compute) and the async policy's lazy
        hand-over go through here, so a batch costs one transport
        round-trip on batching backends.  Backends offering
        ``run_jobs_inline`` (the serial reference) skip the handle
        round-trip entirely when no recorder needs per-job journal records
        — the handles would be dropped on the floor one line later anyway.
        """
        if self.recorder is None:
            inline = getattr(self.backend, "run_jobs_inline", None)
            if inline is not None:
                return inline(jobs)
        handles = self.backend.submit_many(jobs)
        return [res for _, res in self.collect_jobs(handles, block=True)]

    def run_cohort(self, round_idx: int, clients) -> list:
        """Execute one round's cohort through the backend, in cohort order.

        Returns the :class:`~repro.parallel.backend.ClientResult` list.
        Client state commits at *compute* time in cohort order — exactly the
        mutation order of serial in-process execution, which keeps the round
        policy bit-identical across backends.  Model buffers follow the
        FedAvg-with-BN treatment: every job starts from the model's current
        buffers and the server commits their post-training mean (same
        accumulation order and arithmetic as the serial path).  A profiler
        sees ``job_build`` and ``collect``.
        """
        prof = self.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        model = self.ctx.model
        buffers = model.get_buffers(copy=True) if model.buffers else None
        jobs = self.make_jobs(
            [(round_idx, k) for k in clients], buffers=buffers
        )
        if prof is not None:
            t1 = time.perf_counter()
            prof.add("job_build", t1 - t0)
            t0 = t1
        results = self.run_backend_jobs(jobs)
        for k, res in zip(clients, results):
            self.state_store.commit(int(k), res.new_state)
        if buffers is not None:
            acc = {name: np.zeros_like(v) for name, v in buffers.items()}
            n = 0
            for res in results:
                n += 1
                for name, v in res.buffers.items():
                    acc[name] += v
            inv = 1.0 / max(n, 1)
            model.set_buffers({name: v * inv for name, v in acc.items()})
        if prof is not None:
            prof.add("collect", time.perf_counter() - t0)
        return results

    def aggregate(self, round_idx: int, selected, updates) -> None:
        """The round's server step into ``self.x``, timed as ``apply`` when
        profiled."""
        prof = self.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        self.x = self.algorithm.aggregate(self.ctx, round_idx, selected, updates, self.x)
        if prof is not None:
            prof.add("apply", time.perf_counter() - t0)

    def record(self, rec: RoundRecord, evaluate: bool, round_idx: int) -> RoundRecord:
        """Optionally evaluate into ``rec``, stamp extras, append to history;
        a profiler sees the ``eval`` phase."""
        prof = self.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        if evaluate:
            evaluate_into_record(self.ctx, rec, round_idx, self.x, self.metric_hooks)
        rec.extras.update(self.algorithm.round_extras())
        self.history.records.append(rec)
        if prof is not None:
            prof.add("eval", time.perf_counter() - t0)
        return rec

    # -- the loop ------------------------------------------------------------
    def run(
        self,
        verbose: bool = False,
        recorder=None,
        resume: dict | None = None,
        stop_after_rounds: int | None = None,
        profiler=None,
    ) -> History:
        """Process events until the policy stops scheduling.

        Args:
            recorder: optional :class:`~repro.observe.RunRecorder`; every
                typed event becomes a journal record and round boundaries
                snapshot resumable state.
            resume: a snapshot dict (:func:`repro.observe.snapshot_core`) to
                continue from instead of starting fresh; the policy's
                ``begin`` is skipped — its packed mid-run state rides in.
            stop_after_rounds: checkpoint-and-stop once the history holds
                this many records (a round boundary); ``core.stopped`` tells
                a stopped run apart from a completed one.
            profiler: optional :class:`~repro.observe.HotPathProfiler`; hot
                sites feed it per-phase wall counters (pure observation —
                profiled runs stay bit-identical) and recorded runs journal
                its summary as a ``profile`` record.
        """
        ctx, algo = self.ctx, self.algorithm
        self.verbose = verbose
        self.recorder = recorder
        self.profiler = profiler
        self.stopped = False
        t_wall = time.perf_counter()
        algo.setup(ctx)
        self.x = ctx.x0.copy()
        self.history = History(algorithm=getattr(algo, "name", type(algo).__name__))
        self.clock = VirtualClock()
        self._seq = 0
        # the round policy keeps state inside the live algorithm when the
        # backend shares it; any remote backend needs the store to ship
        # per-client state through the job contract
        self.state_store = ClientStateStore(
            algo,
            ctx.num_clients,
            active=self.policy.uses_state_store or not self.backend.shares_state,
        )
        self.state_store.capture_initial()

        if resume is not None:
            # everything begin() would initialize is overwritten wholesale
            # by the snapshot (pending events included), so it is skipped
            from repro.observe.snapshot import restore_core

            restore_core(self, resume)
        else:
            self.policy.begin(self)
        if recorder is not None:
            recorder.begin(self, resumed=resume is not None)
        n_records = len(self.history.records)
        while len(self.clock):
            ev = self.clock.pop()
            payload = ev.data["event"]
            if isinstance(payload, Completion):
                if recorder is not None:
                    # before the handler: staleness reads the pre-apply version
                    recorder.on_completion(self, payload, ev.time)
                if profiler is not None:
                    profiler.completions += 1
                self.policy.on_completion(self, payload, ev.time)
            elif isinstance(payload, DeadlineTick):
                if recorder is not None:
                    recorder.on_tick(self, payload)
                self.policy.on_deadline(self, payload)
            else:  # pragma: no cover - policies only post the two kinds above
                raise TypeError(f"unknown event payload {payload!r}")
            if len(self.history.records) > n_records:
                # a round boundary: the next round's opening event is already
                # in the heap, so a snapshot taken here resumes seamlessly
                n_records = len(self.history.records)
                if recorder is not None:
                    recorder.on_round(self)
                if (
                    stop_after_rounds is not None
                    and n_records >= stop_after_rounds
                    and len(self.clock)
                ):
                    self.stopped = True
                    if recorder is not None:
                        recorder.on_stop(self)
                    self.clock.clear()
                    break
        if profiler is not None:
            # close before recorder.finish so the journaled profile record
            # carries the final wall total and the recorder's own overhead
            profiler.finish(
                time.perf_counter() - t_wall,
                journal_seconds=recorder.hook_seconds if recorder is not None else 0.0,
            )
        if recorder is not None:
            recorder.finish(self)
        return self.history


class DeadlinePolicy:
    """Round policy: synchronous rounds, with or without virtual time.

    A round is two ticks: ``open`` samples the cohort, computes its updates
    in cohort order and schedules their completions plus the ``close`` tick;
    completions popped in between stash; ``close`` merges the stash (current
    round sorted back to cohort order, trickled arrivals appended in arrival
    order), aggregates, records and opens the next round.

    Without a latency model (``kind="sync"``, the classic FedAvg loop) every
    delay is zero: completions pop in cohort order before the close tick,
    virtual time stays 0 and the history is plain :class:`RoundRecord`\\ s.
    With one (``kind="semisync"``) the cohort is priced on the virtual clock,
    a deadline may close the round early and late clients follow
    ``late_policy``; histories are :class:`TimedRoundRecord`\\ s.

    Args:
        latency_model: bound model pricing each sampled client's response,
            or None for untimed rounds.
        deadline: fixed round deadline in virtual seconds, or None to wait
            for the slowest client (pure synchronous timing).
        deadline_controller: optional adaptive controller; wins over
            ``deadline`` (which then only seeds it).
        late_weight: ``"downweight"`` mode's scale on late displacements
            (0 drops them without computing).
        late_policy: ``"downweight"`` merges late clients into their own
            round (the historical approximation); ``"trickle"`` keeps their
            completions in the event queue and merges each into the round
            open at its actual arrival (leftovers at the end of the run are
            abandoned and counted).
    """

    uses_state_store = False

    def __init__(
        self,
        latency_model=None,
        deadline: float | None = None,
        deadline_controller=None,
        late_weight: float = 0.0,
        late_policy: str = "downweight",
    ) -> None:
        if late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, got {late_policy!r}"
            )
        if late_policy == "trickle" and late_weight != 0.0:
            raise ValueError(
                "late_weight only applies to late_policy='downweight' "
                "(trickled updates merge at full weight when they arrive)"
            )
        if latency_model is None and (deadline is not None or deadline_controller is not None):
            raise ValueError("a deadline needs a latency model to price the cohort")
        self.latency_model = latency_model
        self.deadline = deadline
        self.deadline_controller = deadline_controller
        self.late_weight = late_weight
        self.late_policy = late_policy

    def begin(self, core: EventCore) -> None:
        self._stash: list[Completion] = []
        self._late_stash: list[tuple[int, object]] = []
        self._pending_late = 0
        # forget adapted scheduling state so re-runs reproduce run one
        if core.client_sampler is not None and hasattr(core.client_sampler, "reset"):
            core.client_sampler.reset()
        if self.deadline_controller is not None:
            self.deadline_controller.reset()
        core.post(0.0, DeadlineTick(0, "open"))

    def on_completion(self, core: EventCore, comp: Completion, now: float) -> None:
        self._stash.append(comp)
        if comp.dispatch.late:
            self._pending_late -= 1

    def on_deadline(self, core: EventCore, tick: DeadlineTick) -> None:
        if tick.phase == "open":
            self.open_round(core, tick.round_idx)
        else:
            self.close_round(core, tick.round_idx)

    def round_latencies(self, num_clients: int, round_idx: int, selected) -> np.ndarray:
        """Priced cohort response times (unique stream per (round, k)).

        The single home of the latency-stream keying; the engine facade's
        public ``round_latencies`` delegates here so benchmarks calibrating
        deadlines from it can never drift from what the rounds price.
        Draws batch through :meth:`~repro.runtime.clock.LatencyModel
        .sample_many` (bit-equal to the per-client loop it replaced).
        Untimed rounds price every client at zero.
        """
        ids = np.asarray(selected, dtype=np.int64)
        if self.latency_model is None:
            return np.zeros(len(ids))
        return self.latency_model.sample_many(ids, round_idx * num_clients + ids)

    def open_round(self, core: EventCore, r: int) -> None:
        sampler = core.client_sampler
        self._t0 = time.perf_counter()
        selected = core.select_cohort(r)
        latencies = self.round_latencies(core.ctx.num_clients, r, selected)
        if self.deadline_controller is not None:
            deadline = self.deadline_controller.start(latencies)
        else:
            deadline = self.deadline
        if deadline is None:
            on_time = np.ones(len(selected), dtype=bool)
            round_time = float(latencies.max())
        else:
            on_time = latencies <= deadline
            if not on_time.any():
                # empty round: keep the fastest client and wait for it, so
                # the clock reflects the forced overrun
                keep = int(np.argmin(latencies))
                on_time[keep] = True
                round_time = float(latencies[keep])
                logger.warning(
                    "round %d: no client met the %.2fs deadline; forcing the "
                    "fastest (client %d, %.2fs) to avoid an empty round",
                    r, deadline, int(selected[keep]), round_time,
                )
            elif on_time.all():
                round_time = float(latencies.max())
            else:
                # the server closes at the deadline, dropping the tail
                round_time = deadline
        if self.deadline_controller is not None:
            self.deadline_controller.observe(int((~on_time).sum()), len(selected))
        if sampler is not None and hasattr(sampler, "observe"):
            # feed priced completions back (stragglers included: the server
            # eventually learns their speed, independent of the deadline)
            for i, k in enumerate(selected):
                sampler.observe(int(k), float(latencies[i]))

        trickle = self.late_policy == "trickle"
        dropping = not trickle and self.late_weight == 0.0
        include = on_time if dropping else np.ones(len(selected), dtype=bool)

        # the shared busy-mask helper replaces the per-round index-list
        # comprehension (one flatnonzero over the include mask)
        positions = mask_positions(include)
        results = core.run_cohort(r, np.asarray(selected)[positions])
        rec = core.recorder
        entries = []
        for i, res in zip(positions, results):
            k, u, lat = int(selected[i]), res.update, float(latencies[i])
            d = Dispatch(
                seq=core.next_seq(), client_id=k, round_idx=r,
                issued_at=core.clock.now, cohort_pos=i, late=not on_time[i],
                x_ref=core.x,
            )
            if on_time[i] or trickle:
                # trickle is the honest event path: a late update arrives
                # when it arrives, into whichever round is open then
                if d.late:
                    self._pending_late += 1
                if rec is not None:
                    rec.on_dispatch(core, d, lat)
                entries.append((lat, k, {"event": Completion(d, lat, update=u)}))
            else:
                # the same-round approximation merges an update *before* its
                # arrival time — inexpressible as an event, hence no queue
                u.displacement = u.displacement * self.late_weight
                self._late_stash.append((i, u))
        # the round's completions enter the clock as one batch, each
        # journaled before it is queued; (time, seq) keys, hence pop order,
        # are those of sequential core.post calls
        core.clock.push_many(entries)
        core.post(round_time, DeadlineTick(r, "close"))
        self._round_meta = (selected, on_time, deadline)

    def close_round(self, core: EventCore, r: int) -> None:
        cfg = core.ctx.config
        sampler = core.client_sampler
        selected, on_time, deadline = self._round_meta
        trickle = self.late_policy == "trickle"

        current = [c for c in self._stash if c.dispatch.round_idx == r and not c.dispatch.late]
        trickled = [c for c in self._stash if c.dispatch.late]
        self._stash = []
        # current-round completions sort back to cohort order (aggregation
        # and loss feedback stay bit-identical to the synchronous loops);
        # downweighted late updates interleave at their cohort positions
        merged = sorted(
            [(c.dispatch.cohort_pos, c.update) for c in current] + self._late_stash
        )
        self._late_stash = []
        updates = [u for _, u in merged] + [c.update for c in trickled]
        included_ids = [int(u.client_id) for u in updates]

        if sampler is not None and hasattr(sampler, "observe_loss"):
            # Oort statistical utility: participants report their local
            # training loss back (dropped clients never trained)
            for u in updates:
                if "train_loss" in u.extras:
                    sampler.observe_loss(int(u.client_id), float(u.extras["train_loss"]))

        included = np.asarray(included_ids, dtype=np.int64)
        core.aggregate(r, included, updates)
        wall_time = time.perf_counter() - self._t0
        if self.latency_model is None:
            rec = RoundRecord(round=r, selected=included, wall_time=wall_time)
        else:
            n_late = int((~on_time).sum())
            rec = TimedRoundRecord(
                round=r,
                selected=included,
                wall_time=wall_time,
                virtual_time=core.clock.now,
                staleness=float(n_late),
                concurrency=float(len(selected)),
                updates_applied=r + 1,
            )
            rec.extras["n_late"] = n_late
            rec.extras["n_dropped"] = 0 if trickle else int(len(selected) - len(included))
            if deadline is not None:
                rec.extras["deadline"] = float(deadline)
            if trickle:
                rec.extras["n_trickled_in"] = len(trickled)
                rec.extras["n_pending"] = self._pending_late
                if r == cfg.rounds - 1 and self._pending_late:
                    # the server stops here; in-flight late updates are lost
                    rec.extras["n_abandoned"] = self._pending_late
                    logger.warning(
                        "final round %d closed with %d trickled update(s) still "
                        "in flight; they are abandoned",
                        r, self._pending_late,
                    )
        do_eval = (r % cfg.eval_every == 0) or (r == cfg.rounds - 1)
        core.record(rec, do_eval, r)
        if core.verbose and not np.isnan(rec.test_accuracy):
            status = f"acc={rec.test_accuracy:.4f}"
            if self.latency_model is not None:
                status = f"t={core.clock.now:9.2f}s  {status}  late={n_late}"
            print(f"[{core.history.algorithm}] round {r:4d}  {status}")
        if r + 1 < cfg.rounds:
            core.post(0.0, DeadlineTick(r + 1, "open"))
        else:
            # drop still-flying trickle completions without letting them
            # advance the clock past the final round's close
            core.clock.clear()


class AsyncPolicy:
    """Continuous staleness-aware dispatch (FedAsync / FedBuff).

    The direct translation of the retired ``AsyncFederatedSimulation`` loop
    onto the core: a bounded population of in-flight dispatches, each
    completion applied through ``server_apply`` and immediately replaced.
    Additions over the old loop, all default-off so existing runs stay
    bit-identical:

    * ``sampler`` — a :class:`~repro.runtime.scheduling.TimeAwareSampler`
      consulted per dispatch (``pick_next(idle, now)``) instead of the
      uniform idle draw, fed priced latencies and training losses as
      completions land;
    * stateful per-client methods — when the algorithm declares
      ``stateful_per_client``, dispatches snapshot the client's state from
      the core's :class:`ClientStateStore` and completions commit it (the
      job contract ships the state, so this works on every backend);
    * BatchNorm-style buffers — instead of freezing at their initial
      values, the server keeps an exponential moving average over arriving
      clients' post-training buffers.  ``buffer_ema="fixed"`` blends at the
      constant rate ``1/window``; ``"staleness"`` discounts stale arrivals
      at ``1/(window * (1 + tau))``, mirroring the parameter rule's
      polynomial staleness treatment.

    Compute scheduling: every dispatch builds its :class:`ClientJob` from
    *dispatch-time* server state (broadcast vector, packed client state, a
    copy of the buffer EMA, packed broadcast state).  A job waits in
    ``_queue`` until the backend has it, in ``_handles`` until it is
    collected and in ``_results`` until it is applied.  With ``streaming``
    on (the default) and a backend that does not share live state, each
    dispatch burst ends by handing the queue over (:meth:`_hand_over`) —
    workers compute while the event loop keeps processing — and
    ``on_completion`` collects the job when its virtual arrival pops.  With
    streaming off (or on the serial backend) the queue waits until a
    completion needs one of its jobs, then runs as one batch.
    Because the job inputs are identical either way and results always
    apply in virtual-time completion order, both hand-over moments produce
    bit-identical histories (``tests/test_backends.py`` pins this).

    Dispatch planning: the prime and every refill burst go through
    :meth:`_dispatch_many`.  The idle set is an
    :class:`~repro.runtime.fastpath.IdleTracker` holding the busy clients'
    in-flight counts, so a pick costs O(log B) for B clients in flight.
    """

    uses_state_store = True

    def __init__(
        self,
        latency_model,
        window: int,
        concurrency: int,
        max_updates: int,
        concurrency_controller=None,
        sampler=None,
        buffer_ema: str = "fixed",
        streaming: bool = True,
    ) -> None:
        if buffer_ema not in BUFFER_EMA_MODES:
            raise ValueError(
                f"buffer_ema must be one of {BUFFER_EMA_MODES}, got {buffer_ema!r}"
            )
        self.latency_model = latency_model
        self.window = int(window)
        self.concurrency = int(concurrency)
        self.max_updates = int(max_updates)
        self.concurrency_controller = concurrency_controller
        self.sampler = sampler
        self.buffer_ema = buffer_ema
        self.streaming = bool(streaming)

    # -- lifecycle -----------------------------------------------------------
    def begin(self, core: EventCore) -> None:
        if self.concurrency_controller is not None:
            # restart from the seeded limit so a re-run reproduces the first
            self.concurrency_controller.reset()
            self.concurrency = self.concurrency_controller.limit
        if self.sampler is not None and hasattr(self.sampler, "reset"):
            self.sampler.reset()
        ctx = core.ctx
        self._in_flight: dict[int, Dispatch] = {}
        self._queue: list[tuple[int, ClientJob]] = []
        self._handles: dict[int, object] = {}
        self._results: dict[int, ClientResult] = {}
        self._state = {"dispatched": 0, "version": 0, "applied": 0}
        self._completed = 0
        self._round_idx = 0
        self._win_tau: list[float] = []
        self._win_conc: list[int] = []
        self._win_clients: list[int] = []
        # live server-side buffer estimate: an EMA over arrivals, shipped to
        # every job through the contract (so it works on every backend)
        buf0 = ctx.model.get_buffers(copy=True) if ctx.model.buffers else None
        self._buffers = buf0
        self._tracker = IdleTracker(ctx.num_clients)
        self._t0 = time.perf_counter()
        self._dispatch_many(core, min(self.concurrency, self.max_updates))

    def on_deadline(self, core: EventCore, tick) -> None:  # pragma: no cover
        raise TypeError("the async policy schedules no deadline ticks")

    # -- dispatch ------------------------------------------------------------
    def _dispatch_many(self, core: EventCore, n: int) -> None:
        """Plan and issue an ``n``-dispatch burst (a no-op for ``n <= 0``).

        The one dispatch planner.  Picks stay sequential — each draw must
        see the busy marks of the ones before it — but the idle set lives in
        an :class:`~repro.runtime.fastpath.IdleTracker`, so a uniform draw
        is a binary search over the busy ids instead of an O(population)
        idle-list rebuild.  Without a sampler, a pick is the first
        ``integers(bound)`` draw of the stream keyed by its dispatch index,
        and :func:`~repro.utils.rng.keyed_integer` reads it off words
        computed a block of dispatch indices at a time instead of building
        one generator per dispatch.  The latency draws (device speeds from
        hashed stream states, see ``LognormalLatency``) batch through
        ``sample_many`` and the completion events enter the clock through
        one ``push_many``.  Within a burst ``clock.now`` is frozen and state
        snapshots are read-only, so regrouping picks/draws/hooks/pushes
        across the burst's dispatches is unobservable in both the history
        and the journal.  ``tests/test_fastpath.py`` pins the histories
        bit-identical to a per-dispatch scalar loop kept as a test oracle.
        """
        if n <= 0:
            return
        ctx, cfg = core.ctx, core.ctx.config
        st, tracker = self._state, self._tracker
        prof = core.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        seq0 = st["dispatched"]
        cids: list[int] = []
        for i in range(n):
            if self.sampler is None:
                # choose among idle clients with a stream keyed by dispatch
                # index, so the schedule is independent of execution details
                if tracker.n_idle > 0:
                    # rank draw -> j-th smallest idle id, i.e. the draw
                    # indexes the ascending idle-id list
                    cid = tracker.kth_idle(
                        keyed_integer(tracker.n_idle, cfg.seed, 0xA7, seq0 + i)
                    )
                else:  # concurrency exceeds the client pool
                    cid = keyed_integer(ctx.num_clients, cfg.seed, 0xA7, seq0 + i)
            else:
                ids = tracker.idle_ids()
                if ids.size == 0:
                    ids = np.arange(ctx.num_clients, dtype=np.int64)
                cid = int(self.sampler.pick_next(ids, core.clock.now))
            cids.append(cid)
            tracker.mark_busy(cid)
        st["dispatched"] = seq0 + n
        if prof is not None:
            t1 = time.perf_counter()
            prof.add("pick", t1 - t0)
            t0 = t1
        store, rec = core.state_store, core.recorder
        # the store's activity is run-constant; hoisting the check lets the
        # inactive (stateless) case skip two method calls per dispatch —
        # snapshot() returns None and version() returns 0 when inactive
        store_active = store.active
        if n == 1:
            # steady-state refills are single dispatches: the scalar draw is
            # what sample_many reduces to (pinned), the single schedule() is
            # what push_many reduces to, and no entry list is built
            cid = cids[0]
            lat = float(self.latency_model.latency(cid, seq0))
            if prof is not None:
                t1 = time.perf_counter()
                prof.add("latency", t1 - t0)
                t0 = t1
            d = Dispatch(
                seq=seq0, client_id=cid, round_idx=seq0,
                issued_at=core.clock.now,
                version=st["version"], x_ref=core.x,
                state=store.snapshot(cid) if store_active else None,
                state_version=store.version(cid) if store_active else 0,
            )
            self._in_flight[seq0] = d
            if rec is not None:
                rec.on_dispatch(core, d, lat)
            core.clock.schedule(lat, client_id=cid, event=Completion(d, lat))
            dispatches = (d,)
        else:
            lats = self.latency_model.sample_many(
                np.asarray(cids, dtype=np.int64),
                np.arange(seq0, seq0 + n, dtype=np.int64),
            )
            if prof is not None:
                t1 = time.perf_counter()
                prof.add("latency", t1 - t0)
                t0 = t1
            now = core.clock.now
            dispatches = []
            entries: list[tuple[float, int, dict]] = []
            for i in range(n):
                cid, seq, lat = cids[i], seq0 + i, float(lats[i])
                d = Dispatch(
                    seq=seq, client_id=cid, round_idx=seq, issued_at=now,
                    version=st["version"], x_ref=core.x,
                    state=store.snapshot(cid) if store_active else None,
                    state_version=store.version(cid) if store_active else 0,
                )
                dispatches.append(d)
                self._in_flight[seq] = d
                if rec is not None:
                    rec.on_dispatch(core, d, lat)
                entries.append((lat, cid, {"event": Completion(d, lat)}))
            core.clock.push_many(entries)
        if prof is not None:
            t1 = time.perf_counter()
            prof.add("heap", t1 - t0)
            prof.dispatches += n
            t0 = t1
        queue = self._queue
        for d in dispatches:
            queue.append((d.seq, self._make_job(core, d)))
        if prof is not None:
            t1 = time.perf_counter()
            prof.add("job_build", t1 - t0)
            t0 = t1
        if self._streaming_active(core):
            self._hand_over(core)
            if prof is not None:
                prof.add("submit", time.perf_counter() - t0)

    def _make_job(self, core: EventCore, d: Dispatch) -> ClientJob:
        """Build the dispatch's job from *dispatch-time* server state.

        Every input is stamped when the dispatch is issued: the broadcast
        vector and client state come off the dispatch, the buffer EMA is
        copied (it mutates in place as later completions land) and the
        broadcast state packed (a deep copy).  Streaming and lazy-batch
        execution therefore see identical inputs, which is what keeps their
        histories bit-identical.  A recorded run's queue wait anchors here,
        at dispatch, not at whenever the queue reaches the backend.
        """
        buffers = (
            {k: v.copy() for k, v in self._buffers.items()}
            if self._buffers is not None
            else None
        )
        timed = core.recorder is not None
        return ClientJob(
            round_idx=d.round_idx,
            client_id=d.client_id,
            x_ref=d.x_ref,
            client_state=d.state,
            buffers=buffers,
            broadcast_state=core.algorithm.pack_broadcast_state() or None,
            collect_timing=timed,
            submitted_at=time.monotonic() if timed else None,
        )

    def _streaming_active(self, core: EventCore) -> bool:
        # live-state backends keep the lazy-batch path: in-process compute
        # has nothing to overlap with, and batching amortizes bookkeeping
        return self.streaming and not core.backend.shares_state

    def _hand_over(self, core: EventCore) -> None:
        """Give every queued job to the backend.

        Streaming, the queue goes out as one ``submit_many`` and its handles
        wait in ``_handles``.  Otherwise it runs now as one batch and its
        results wait in ``_results``; the jobs carry dispatch-time broadcast
        state, so on a backend that runs them against the *live* algorithm
        the current server state is saved first and restored after.
        """
        queue, self._queue = self._queue, []
        seqs = [seq for seq, _ in queue]
        jobs = [job for _, job in queue]
        if self._streaming_active(core):
            self._handles.update(zip(seqs, core.backend.submit_many(jobs)))
            return
        restore = None
        if core.backend.shares_state and any(
            j.broadcast_state is not None for j in jobs
        ):
            restore = core.algorithm.pack_broadcast_state()
        self._results.update(zip(seqs, core.run_backend_jobs(jobs)))
        if restore is not None:
            core.algorithm.unpack_broadcast_state(restore)

    def _obtain(self, core: EventCore, seq: int):
        """The result for dispatch ``seq``, wherever its job is now."""
        res = self._results.pop(seq, None)
        if res is not None:
            return res
        if seq not in self._handles:
            self._hand_over(core)  # the job is still queued
        if seq in self._handles:
            # sweep everything already finished, then wait on the one needed
            by_handle = {h: s for s, h in self._handles.items()}
            for handle, res in core.collect_jobs(list(by_handle), block=False):
                self._results[by_handle[handle]] = res
                del self._handles[by_handle[handle]]
            if seq in self._handles:
                ((_, res),) = core.collect_jobs([self._handles.pop(seq)], block=True)
                return res
        return self._results.pop(seq)

    # -- completions ---------------------------------------------------------
    def on_completion(self, core: EventCore, comp: Completion, now: float) -> None:
        ctx, algo = core.ctx, core.algorithm
        st = self._state
        seq = comp.dispatch.seq
        prof = core.profiler
        t0 = time.perf_counter() if prof is not None else 0.0
        res = self._obtain(core, seq)
        if prof is not None:
            prof.add("collect", time.perf_counter() - t0)
        update, new_state, client_bufs = res.update, res.new_state, res.buffers
        d = self._in_flight.pop(seq)
        cid = d.client_id
        if new_state is not None:  # commit() is a no-op for None state
            core.state_store.commit(cid, new_state, expected_version=d.state_version)
        self._tracker.mark_idle(cid)

        tau = st["version"] - d.version
        if prof is not None:
            t0 = time.perf_counter()
        x_new = algo.server_apply(ctx, core.x, update, tau, d.x_ref)
        if prof is not None:
            prof.add("apply", time.perf_counter() - t0)
        if x_new is not None:
            core.x = x_new
            st["version"] += 1
            st["applied"] += 1
        self._completed += 1
        self._win_tau.append(float(tau))
        self._win_conc.append(len(self._in_flight) + 1)
        self._win_clients.append(cid)
        if self._buffers is not None and client_bufs is not None:
            # EMA over arriving clients' buffer statistics; the staleness
            # mode discounts stale arrivals like the parameter rule does
            if self.buffer_ema == "staleness":
                beta = 1.0 / (self.window * (1.0 + max(float(tau), 0.0)))
            else:
                beta = 1.0 / self.window
            for k, v in client_bufs.items():
                self._buffers[k] += beta * (v - self._buffers[k])
        if self.sampler is not None:
            self.sampler.observe(cid, float(comp.latency))
            if hasattr(self.sampler, "observe_loss") and "train_loss" in update.extras:
                self.sampler.observe_loss(cid, float(update.extras["train_loss"]))

        if self.concurrency_controller is not None:
            limit = self.concurrency_controller.observe(float(tau))
        else:
            limit = self.concurrency
        # refill up to the (possibly AIMD-adjusted) in-flight limit; when the
        # limit drops, replacements pause until the population drains.  Each
        # dispatch shrinks both headrooms by one, so the burst size is just
        # the smaller of the two — equivalent to the old per-dispatch loop.
        self._dispatch_many(
            core,
            min(self.max_updates - st["dispatched"], limit - len(self._in_flight)),
        )

        if self._completed % self.window == 0 or self._completed == self.max_updates:
            self.close_window(core)

    def close_window(self, core: EventCore) -> None:
        ctx, cfg, algo = core.ctx, core.ctx.config, core.algorithm
        st = self._state
        if self._completed == self.max_updates:
            x_final = algo.finalize(ctx, core.x)
            if x_final is not None:
                core.x = x_final
                st["version"] += 1
                st["applied"] += 1
        round_idx = self._round_idx
        rec = TimedRoundRecord(
            round=round_idx,
            selected=np.asarray(self._win_clients, dtype=np.int64),
            wall_time=time.perf_counter() - self._t0,
            virtual_time=core.clock.now,
            staleness=float(np.mean(self._win_tau)),
            concurrency=float(np.mean(self._win_conc)),
            updates_applied=st["applied"],
        )
        self._t0 = time.perf_counter()
        do_eval = (round_idx % cfg.eval_every == 0) or (
            self._completed == self.max_updates
        )
        if do_eval and self._buffers is not None:
            ctx.model.set_buffers(self._buffers)
        rec.extras["concurrency_limit"] = (
            self.concurrency_controller.limit
            if self.concurrency_controller is not None
            else self.concurrency
        )
        if core.state_store.active:
            # cumulative count of commits that raced a concurrent
            # self-dispatch (oversubscribed stateful dispatch, see
            # ClientStateStore.commit); keyed off the store so stateless
            # histories keep their exact pre-existing extras schema
            rec.extras["state_stale_commits"] = core.state_store.stale_commits
        core.record(rec, do_eval, round_idx)
        if core.verbose and not np.isnan(rec.test_accuracy):
            print(
                f"[{core.history.algorithm}] window {round_idx:4d}  "
                f"t={core.clock.now:9.2f}s  acc={rec.test_accuracy:.4f}  "
                f"stale={rec.staleness:.2f}"
            )
        self._round_idx += 1
        self._win_tau, self._win_conc, self._win_clients = [], [], []

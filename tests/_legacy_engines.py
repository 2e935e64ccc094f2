"""Frozen copies of the pre-event-core training loops.

These are the literal ``run()`` bodies of ``FederatedSimulation``,
``SemiSyncFederatedSimulation`` and (serial) ``AsyncFederatedSimulation`` as
they existed before the engines were re-founded on
:mod:`repro.runtime.events`.  They exist ONLY as the reference side of
``tests/test_engine_equivalence.py`` — the production engines must keep
producing bit-identical histories for the pre-refactor knob space.

Do not "fix" or modernise this file: its value is that it does not change.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.module import Module
from repro.runtime.clock import ConstantLatency, VirtualClock
from repro.runtime.scheduling import resolve_auto_comm
from repro.simulation.context import SimulationContext
from repro.simulation.engine import (
    History,
    RoundRecord,
    TimedRoundRecord,
    evaluate_into_record,
)

__all__ = ["legacy_sync_run", "legacy_semisync_run", "legacy_async_run"]


class BufferAverager:
    """Per-round FedAvg-with-BN treatment of model buffers.

    BatchNorm-style running statistics: each client starts from the server's
    buffers; the server averages the post-training buffers afterwards.  A
    no-op for buffer-free models.  Shared by the synchronous and semi-sync
    engines so the treatment can't drift between them.
    """

    def __init__(self, model: Module) -> None:
        self.model = model
        self.active = bool(model.buffers)
        self.n = 0
        if self.active:
            self.buf0 = model.get_buffers(copy=True)
            self.acc = {k: np.zeros_like(v) for k, v in self.buf0.items()}

    def before_client(self) -> None:
        if self.active:
            self.model.set_buffers(self.buf0)

    def after_client(self) -> None:
        self.n += 1
        if self.active:
            for name, v in self.model.buffers.items():
                self.acc[name] += v

    def commit(self) -> None:
        if self.active:
            inv = 1.0 / max(self.n, 1)
            self.model.set_buffers({k: v * inv for k, v in self.acc.items()})


def legacy_sync_run(
    algorithm, model, dataset, config,
    loss_builder=None, sampler_builder=None, metric_hooks=(), client_sampler=None,
) -> History:
    """The old FederatedSimulation.run, verbatim."""
    ctx = SimulationContext(
        model, dataset, config, loss_builder=loss_builder, sampler_builder=sampler_builder
    )
    cfg = ctx.config
    algo = algorithm
    algo.setup(ctx)

    x = ctx.x0.copy()
    history = History(algorithm=getattr(algo, "name", type(algo).__name__))

    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        if client_sampler is None:
            selected = ctx.sample_clients(r)
        else:
            selected = np.asarray(client_sampler(ctx, r))
        updates = []
        bufavg = BufferAverager(ctx.model)
        for k in selected:
            bufavg.before_client()
            u = algo.client_update(ctx, r, int(k), x)
            updates.append(u)
            bufavg.after_client()
        bufavg.commit()
        x = algo.aggregate(ctx, r, selected, updates, x)

        rec = RoundRecord(round=r, selected=selected, wall_time=time.perf_counter() - t0)
        if (r % cfg.eval_every == 0) or (r == cfg.rounds - 1):
            evaluate_into_record(ctx, rec, r, x, metric_hooks)
        rec.extras.update(algo.round_extras())
        history.records.append(rec)
    return history


def legacy_semisync_run(
    algorithm, model, dataset, config,
    latency_model=None, deadline=None, late_weight=0.0,
    loss_builder=None, sampler_builder=None, metric_hooks=(), client_sampler=None,
    deadline_controller=None,
) -> History:
    """The old SemiSyncFederatedSimulation.run, verbatim."""
    ctx = SimulationContext(
        model, dataset, config, loss_builder=loss_builder, sampler_builder=sampler_builder
    )
    latency_model = latency_model or ConstantLatency()
    resolve_auto_comm(latency_model, algorithm)
    latency_model = latency_model.bind(ctx)
    if client_sampler is not None and hasattr(client_sampler, "bind"):
        client_sampler.bind(ctx, latency_model)

    cfg = ctx.config
    algo = algorithm
    algo.setup(ctx)
    if deadline_controller is not None:
        deadline_controller.reset()
    if client_sampler is not None and hasattr(client_sampler, "reset"):
        client_sampler.reset()

    x = ctx.x0.copy()
    history = History(algorithm=getattr(algo, "name", type(algo).__name__))
    clock = VirtualClock()

    def round_latencies(round_idx, selected):
        k_total = ctx.num_clients
        return np.array(
            [latency_model.latency(int(k), round_idx * k_total + int(k)) for k in selected]
        )

    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        if client_sampler is None:
            selected = ctx.sample_clients(r)
        else:
            selected = np.asarray(client_sampler(ctx, r))

        latencies = round_latencies(r, selected)
        if deadline_controller is not None:
            round_deadline = deadline_controller.start(latencies)
        else:
            round_deadline = deadline
        if round_deadline is None:
            on_time = np.ones(len(selected), dtype=bool)
            round_time = float(latencies.max())
        else:
            on_time = latencies <= round_deadline
            if not on_time.any():
                keep = int(np.argmin(latencies))
                on_time[keep] = True
                round_time = float(latencies[keep])
            elif on_time.all():
                round_time = float(latencies.max())
            else:
                round_time = round_deadline
        if deadline_controller is not None:
            deadline_controller.observe(int((~on_time).sum()), len(selected))
        if client_sampler is not None and hasattr(client_sampler, "observe"):
            for i, k in enumerate(selected):
                client_sampler.observe(int(k), float(latencies[i]))
        include = on_time if late_weight == 0.0 else np.ones(len(selected), dtype=bool)

        updates = []
        included_ids = []
        bufavg = BufferAverager(ctx.model)
        for i, k in enumerate(selected):
            if not include[i]:
                continue
            bufavg.before_client()
            u = algo.client_update(ctx, r, int(k), x)
            if not on_time[i]:
                u.displacement = u.displacement * late_weight
            updates.append(u)
            included_ids.append(int(k))
            bufavg.after_client()
        bufavg.commit()

        if client_sampler is not None and hasattr(client_sampler, "observe_loss"):
            for u in updates:
                if "train_loss" in u.extras:
                    client_sampler.observe_loss(
                        int(u.client_id), float(u.extras["train_loss"])
                    )

        x = algo.aggregate(ctx, r, np.asarray(included_ids, dtype=np.int64), updates, x)
        clock.advance(round_time)

        n_late = int((~on_time).sum())
        rec = TimedRoundRecord(
            round=r,
            selected=np.asarray(included_ids, dtype=np.int64),
            wall_time=time.perf_counter() - t0,
            virtual_time=clock.now,
            staleness=float(n_late),
            concurrency=float(len(selected)),
            updates_applied=r + 1,
        )
        rec.extras["n_late"] = n_late
        rec.extras["n_dropped"] = int(len(selected) - len(included_ids))
        if round_deadline is not None:
            rec.extras["deadline"] = float(round_deadline)
        if (r % cfg.eval_every == 0) or (r == cfg.rounds - 1):
            evaluate_into_record(ctx, rec, r, x, metric_hooks)
        rec.extras.update(algo.round_extras())
        history.records.append(rec)
    return history


def legacy_async_run(
    algorithm, model, dataset, config,
    latency_model=None, concurrency=None, concurrency_controller=None,
    max_updates=None, loss_builder=None, sampler_builder=None, metric_hooks=(),
) -> History:
    """The old (serial) AsyncFederatedSimulation.run, verbatim."""
    from dataclasses import replace

    window = max(1, int(round(config.participation * dataset.num_clients)))
    if config.lr_schedule is not None:
        base_schedule = config.lr_schedule
        config = replace(config, lr_schedule=lambda seq: base_schedule(seq // window))
    ctx = SimulationContext(
        model, dataset, config, loss_builder=loss_builder, sampler_builder=sampler_builder
    )
    latency_model = latency_model or ConstantLatency()
    resolve_auto_comm(latency_model, algorithm)
    latency_model = latency_model.bind(ctx)
    concurrency = concurrency if concurrency is not None else window
    if concurrency_controller is not None:
        concurrency_controller.seed(concurrency, window, dataset.num_clients)
        concurrency = concurrency_controller.limit
    max_updates = max_updates if max_updates is not None else config.rounds * window

    cfg = ctx.config
    algo = algorithm
    algo.setup(ctx)
    if concurrency_controller is not None:
        concurrency_controller.reset()
        concurrency = concurrency_controller.limit

    x = ctx.x0.copy()
    history = History(algorithm=getattr(algo, "name", type(algo).__name__))
    clock = VirtualClock()
    buf0 = ctx.model.get_buffers(copy=True) if ctx.model.buffers else None

    in_flight = {}
    pending = []
    results = {}
    busy = {}
    state = {"dispatched": 0, "version": 0, "applied": 0}

    def dispatch():
        rng = np.random.default_rng((cfg.seed, 0xA7, state["dispatched"]))
        avail = np.array(
            [k for k in range(ctx.num_clients) if not busy.get(k)], dtype=np.int64
        )
        if avail.size == 0:
            avail = np.arange(ctx.num_clients, dtype=np.int64)
        cid = int(avail[rng.integers(avail.size)])
        seq = state["dispatched"]
        state["dispatched"] += 1
        clock.schedule(latency_model.latency(cid, seq), client_id=cid, seq=seq)
        in_flight[seq] = (cid, state["version"], x)
        pending.append((seq, cid, x))
        busy[cid] = busy.get(cid, 0) + 1

    def flush():
        while pending:
            x_ref = pending[0][2]
            n = 1
            while n < len(pending) and pending[n][2] is x_ref:
                n += 1
            group = pending[:n]
            del pending[:n]
            outs = []
            for s, c, _ in group:
                if buf0 is not None:
                    ctx.model.set_buffers(buf0)
                outs.append(algo.client_update(ctx, s, c, x_ref))
            for (s, _, _), upd in zip(group, outs):
                results[s] = upd

    completed = 0
    round_idx = 0
    win_tau, win_conc, win_clients = [], [], []
    t0 = time.perf_counter()

    for _ in range(min(concurrency, max_updates)):
        dispatch()

    while len(clock):
        ev = clock.pop()
        seq = ev.data["seq"]
        if seq not in results:
            flush()
        update = results.pop(seq)
        cid, v_dispatch, x_dispatch = in_flight.pop(seq)
        if busy.get(cid, 0) <= 1:
            busy.pop(cid, None)
        else:
            busy[cid] -= 1

        tau = state["version"] - v_dispatch
        x_new = algo.server_apply(ctx, x, update, tau, x_dispatch)
        if x_new is not None:
            x = x_new
            state["version"] += 1
            state["applied"] += 1
        completed += 1
        win_tau.append(float(tau))
        win_conc.append(len(in_flight) + 1)
        win_clients.append(cid)

        if concurrency_controller is not None:
            limit = concurrency_controller.observe(float(tau))
        else:
            limit = concurrency
        while state["dispatched"] < max_updates and len(in_flight) < limit:
            dispatch()

        if completed % window == 0 or completed == max_updates:
            if completed == max_updates:
                x_final = algo.finalize(ctx, x)
                if x_final is not None:
                    x = x_final
                    state["version"] += 1
                    state["applied"] += 1
            rec = TimedRoundRecord(
                round=round_idx,
                selected=np.asarray(win_clients, dtype=np.int64),
                wall_time=time.perf_counter() - t0,
                virtual_time=clock.now,
                staleness=float(np.mean(win_tau)),
                concurrency=float(np.mean(win_conc)),
                updates_applied=state["applied"],
            )
            t0 = time.perf_counter()
            if (round_idx % cfg.eval_every == 0) or (completed == max_updates):
                if buf0 is not None:
                    ctx.model.set_buffers(buf0)
                evaluate_into_record(ctx, rec, round_idx, x, metric_hooks)
            rec.extras["concurrency_limit"] = (
                concurrency_controller.limit
                if concurrency_controller is not None
                else concurrency
            )
            rec.extras.update(algo.round_extras())
            history.records.append(rec)
            round_idx += 1
            win_tau, win_conc, win_clients = [], [], []
    return history

"""Algorithm protocol and the shared local-SGD machinery.

Every federated method implements three entry points:

* ``setup(ctx)`` — one-time state initialisation (momentum buffers, control
  variates, scores, ...).
* ``client_updates(ctx, jobs) -> list[ClientUpdate]`` — run local training
  for a cohort of ``(round_idx, client_id, x_global)`` jobs and return each
  client's *displacement* ``x_global - x_local`` (a pseudo-gradient scaled by
  ``lr_local * n_batches``) plus bookkeeping, in job order.
  ``client_update(ctx, round_idx, client_id, x_global)`` is the one-client
  entry point.
* ``aggregate(ctx, round_idx, selected, updates, x_global) -> x_new`` — the
  server step.  The base class's is FedAvg's, ``x_global - lr_global * (w @
  disp)``, with ``w`` from the ``aggregation_weights(ctx, selected,
  updates)`` hook (sample counts by default); a method whose server step is
  FedAvg's with other weights overrides only the hook.

``LocalSGDMixin._local_sgd`` implements the inner loop once, for a whole
cohort: the clients' parameters form one ``(C, dim)`` block, the model
points at it, and every client takes its local step ``t`` together, so one
forward/backward serves the cohort.  Algorithms customise the step through a
``direction_fn(g, x, rows) -> step direction`` hook over the stepping rows'
blocks (FedProx's proximal term, SCAFFOLD's control variates, FedCM's
momentum injection are all one-liners under this interface).  A client's
arithmetic is the one-client loop's, op for op, whatever cohort it runs in.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.train import forward_backward
from repro.simulation.context import SimulationContext

__all__ = ["ClientUpdate", "FederatedAlgorithm", "LocalSGDMixin", "size_weights"]

DirectionFn = Callable[[np.ndarray, np.ndarray, object], np.ndarray]
#: one client's training job: ``(round_idx, client_id, x_global)``
Job = tuple[int, int, np.ndarray]


@dataclass
class ClientUpdate:
    """Result of one client's local training.

    Attributes:
        client_id: which client produced this update.
        displacement: ``x_global - x_local`` (flat vector).
        n_samples: client dataset size.
        n_batches: local gradient steps actually executed.
        extras: algorithm-specific payload (e.g. SCAFFOLD's control delta).
    """

    client_id: int
    displacement: np.ndarray
    n_samples: int
    n_batches: int
    extras: dict = field(default_factory=dict)


def size_weights(updates: list[ClientUpdate]) -> np.ndarray:
    """FedAvg weights: proportional to client sample counts."""
    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    total = sizes.sum()
    if total <= 0:
        return np.full(len(updates), 1.0 / max(len(updates), 1))
    return sizes / total


class FederatedAlgorithm:
    """Base class; concrete methods override the three protocol methods.

    Methods that keep *persistent per-client* state (SCAFFOLD's control
    variates, FedDyn's dual variables) additionally implement the client-state
    contract — ``stateful_per_client = True`` plus :meth:`pack_client_state` /
    :meth:`unpack_client_state` — so the event-driven runtimes
    (:mod:`repro.runtime.events`) can snapshot a client's state at dispatch
    time and commit the trained state at completion time, independent of the
    algorithm's internal storage layout.  Synchronous engines never touch the
    contract (state stays in the algorithm's own arrays, exactly as before).
    """

    name = "base"

    #: True when client_update reads/writes state keyed by ``client_id`` that
    #: must persist across that client's participations.  The execution
    #: backends (:mod:`repro.parallel.backend`) ship it to workers through
    #: the pack/unpack contract, so stateful methods run on every backend.
    stateful_per_client = False

    #: Names of *server-side* attributes ``client_update`` reads (SCAFFOLD's
    #: control variate ``c``, FedLESAM's previous model).  Non-serial
    #: execution backends snapshot these via :meth:`pack_broadcast_state`
    #: and restore them on worker replicas before each job; methods that
    #: keep such state without declaring it here (or overriding the
    #: pack/unpack pair, as FedCM does for its momentum) cannot run off the
    #: serial backend correctly.
    broadcast_attrs: tuple = ()

    #: False when ``client_update`` touches mutable state *outside* the
    #: pack/unpack and ``broadcast_attrs`` contracts (undeclared caches
    #: keyed by client or round).  Worker replicas would evolve their own
    #: divergent copies, so non-serial backends refuse such methods
    #: instead of silently producing scheduling-dependent results.
    parallel_safe = True

    #: True when ``client_update`` consumes server state that only
    #: ``aggregate`` refreshes (momentum broadcasts like FedCM's Delta,
    #: FedSMOO's shared ascent estimate, FedLESAM's previous global model).
    #: Such methods cannot run under the asynchronous server rules — their
    #: loop never calls ``aggregate``, so the broadcast state would silently
    #: stay frozen at its initial value; :class:`AsyncAdapter` refuses them.
    requires_aggregate_broadcast = False

    def setup(self, ctx: SimulationContext) -> None:  # pragma: no cover - trivial
        pass

    def pack_client_state(self, client_id: int) -> dict:
        """Copy of ``client_id``'s persistent local state (empty if stateless)."""
        return {}

    def unpack_client_state(self, client_id: int, state: dict) -> None:
        """Restore a client's persistent state from :meth:`pack_client_state`."""

    def pack_broadcast_state(self) -> dict:
        """Deep copy of the declared ``broadcast_attrs`` (empty if none)."""
        return {k: copy.deepcopy(getattr(self, k)) for k in self.broadcast_attrs}

    def unpack_broadcast_state(self, state: dict) -> None:
        """Restore server-side broadcast state from :meth:`pack_broadcast_state`."""
        for k, v in state.items():
            setattr(self, k, v)

    def server_absorb(self, ctx: SimulationContext, update: "ClientUpdate",
                      weight: float) -> None:
        """Fold one asynchronously-arrived update into server-side state.

        Called by :class:`repro.algorithms.async_fl.AsyncAdapter` once per
        arrival with ``weight = 1/K`` — the per-arrival analogue of the
        synchronous participation-weighted mean (m clients at weight m/K each
        contribute their share).  Default: no server-side method state.
        """

    def client_update(
        self, ctx: SimulationContext, round_idx: int, client_id: int, x_global: np.ndarray
    ) -> ClientUpdate:
        raise NotImplementedError

    def client_updates(self, ctx: SimulationContext, jobs: Sequence[Job]) -> list[ClientUpdate]:
        """Train a cohort of ``(round_idx, client_id, x_global)`` jobs (distinct
        clients); updates come back in job order.  The default runs
        ``client_update`` one client at a time, for methods with their own
        local loops."""
        return [self.client_update(ctx, r, k, x) for r, k, x in jobs]

    def aggregation_weights(self, ctx, selected, updates) -> np.ndarray:
        """The server step's client weights, one per update, summing to 1:
        FedAvg's sample-count weights unless a method overrides them."""
        return size_weights(updates)

    def aggregate(
        self,
        ctx: SimulationContext,
        round_idx: int,
        selected: np.ndarray,
        updates: list[ClientUpdate],
        x_global: np.ndarray,
    ) -> np.ndarray:
        """FedAvg's server step: the weighted mean displacement, scaled by
        ``lr_global``."""
        w = self.aggregation_weights(ctx, selected, updates)
        disp = np.stack([u.displacement for u in updates])
        return x_global - ctx.config.lr_global * (w @ disp)

    def round_extras(self) -> dict:
        """Per-round scalars to log into the history (e.g. current alpha)."""
        return {}


class LocalSGDMixin:
    """Shared local-training loop over a cohort's ``(C, dim)`` parameter block.

    :meth:`client_updates` is the entry point every executor calls;
    :meth:`client_update` is its one-client call.  A method customises
    ``client_updates`` (plain local SGD by default), never ``client_update``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "client_update" in vars(cls):
            raise TypeError(
                f"{cls.__name__} overrides client_update; a LocalSGDMixin method "
                "customises client_updates, the cohort entry point executors call"
            )

    def client_update(self, ctx, round_idx, client_id, x_global) -> ClientUpdate:
        """One client: the ``C = 1`` call of :meth:`client_updates`."""
        return self.client_updates(ctx, [(round_idx, client_id, x_global)])[0]

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        """Plain local SGD (FedAvg's local rule) for every job."""
        x_local, n_batches, losses = self._local_sgd(ctx, jobs)
        return self._client_results(ctx, jobs, x_local, n_batches, losses)

    @staticmethod
    def _client_results(ctx, jobs, x_local, n_batches, losses, extras=None) -> list[ClientUpdate]:
        """One :class:`ClientUpdate` per job: displacement ``x_global -
        x_local``, sample and step counts, the method's ``extras`` and the
        client's mean training loss.

        Each displacement is an array of its own: rows of one block would
        keep the whole cohort's block alive while any one update waits to be
        applied.  The sample counts read the partitions ``_local_sgd``
        already checked.
        """
        parts = ctx.dataset.partitions
        out = []
        for i, (_, k, x_global) in enumerate(jobs):
            ex = dict(extras[i]) if extras is not None else {}
            if losses[i] is not None:
                ex["train_loss"] = losses[i]
            out.append(ClientUpdate(k, x_global - x_local[i], len(parts[k]), n_batches[i], ex))
        return out

    def _local_sgd(
        self,
        ctx: SimulationContext,
        jobs: Sequence[Job],
        direction_fn: DirectionFn | None = None,
        lr: Sequence[float] | None = None,
        epochs: int | None = None,
        grad_eval=None,
    ) -> tuple[np.ndarray, list[int], list[float | None]]:
        """Run a cohort's local SGD in lockstep.

        Returns ``(x_local, n_batches, train_losses)``: the ``(C, dim)`` block
        of local parameters (row ``i`` is job ``i``'s client), each client's
        step count and its mean training loss (None when it evaluated none).

        Each client's batches are drawn up front from its own
        ``ctx.client_rng`` and sampler, epoch by epoch, cut at
        ``max_batches_per_round``; one stream serves all of a client's
        epochs, and it is built only when the sampler reads it (a
        ``fixed_order`` sampler, such as a one-sample client's, gets
        ``None``).  A batch's indices map through the client's rows
        (``dataset.client_rows``), so every step gathers straight from the
        dataset's arrays and no client's data is copied whole.  Step ``t``
        runs every client that still has a batch ``t`` through one
        forward/backward; when their batch sizes differ, each size gets a
        pass of its own in which only the clients with that size step.

        Args:
            jobs: ``(round_idx, client_id, x_global)`` triples, distinct clients.
            direction_fn: maps ``(g, x, rows)`` to the applied direction, a
                fresh array: ``g`` and ``x`` are the stepping group's ``(c,
                dim)`` gradient and parameter blocks, and ``rows`` (a slice or
                an index array) picks the group's clients out of per-client
                ``(C, ...)`` operand stacks.  Identity when None.
            lr: per-client learning rates (default ``ctx.lr_at(round_idx)``).
            epochs: override the number of local epochs.
            grad_eval: optional callable ``(xb, yb, loss, x, rows) -> g``
                replacing the plain gradient evaluation (the SAM family,
                which needs extra forward/backward passes at perturbed
                points through :meth:`_plain_gradient`).
        """
        cfg = ctx.config
        model = ctx.model
        epochs = cfg.local_epochs if epochs is None else epochs
        cap = cfg.max_batches_per_round
        n_jobs = len(jobs)
        ids = [k for _, k, _ in jobs]
        lrs = [ctx.lr_at(r) for r, _, _ in jobs] if lr is None else lr
        lr_col = np.array(lrs, dtype=np.float64).reshape(n_jobs, 1)
        losses = [ctx.loss_for(k) for k in ids]
        # clients holding one loss object share one call on their rows
        shared = losses[0] if all(f is losses[0] for f in losses) else None

        # every client's batch schedule in dataset rows, drawn up front: its
        # sampler is the only reader of its stream, so lockstep order cannot
        # move a draw.  A client's rows are looked up once, and its sampler
        # is ctx.sampler_for's, built over those rows' labels
        xs, ys = ctx.dataset.x_train, ctx.dataset.y_train
        client_rows, build, size = ctx.dataset.client_rows, ctx.sampler_builder, cfg.batch_size
        schedules = []
        for r, k, _ in jobs:
            rows = client_rows(k)
            sampler = build(ys[rows], size)
            rng = None if sampler.fixed_order else ctx.client_rng(r, k)
            batches = []
            for _ in range(epochs):
                for bidx in sampler.epoch(rng):
                    batches.append(rows[bidx])
                    if cap is not None and len(batches) >= cap:
                        break
                else:
                    continue
                break
            schedules.append(batches)
        n_batches = [len(b) for b in schedules]
        steps = max(n_batches, default=0)

        # every batch's dataset rows in step-major order, so a lockstep
        # step's batches are one contiguous slice; plan[t] lists (client,
        # batch size) of step t
        plan, order = [], []
        for t in range(steps):
            row = [(i, len(batches[t])) for i, batches in enumerate(schedules) if t < len(batches)]
            plan.append(row)
            order += [schedules[i][t] for i, _ in row]
        flat = np.concatenate(order) if order else None

        # a cohort of one trains in the model's own arena, as the one-client
        # loops and evaluation do; a larger cohort in a fresh block
        if n_jobs == 1:
            x, grads = ctx.arena
            x[0] = jobs[0][2]
        else:
            x = np.array([xg for _, _, xg in jobs])  # np.stack's, at a third of its cost
            grads = np.zeros_like(x)
        loss_sum = np.zeros(n_jobs)
        loss_count = np.zeros(n_jobs, dtype=np.int64)
        trace = self._plain_losses = [] if grad_eval is not None else None
        subset, xr, gr = None, x, grads
        live, cursor = [], 0
        for row in plan:
            if len(row) != len(live):
                # the live set only shrinks: once a client finishes, the
                # survivors train in a gathered copy, written back when it
                # shrinks again
                if subset is not None:
                    x[subset] = xr
                live = [i for i, _ in row]
                if len(live) < n_jobs:
                    subset = np.array(live)
                    xr, gr = x[subset], np.zeros((len(live), x.shape[1]))
                every = slice(None) if subset is None else subset
                model.point_at(xr, gr)
                loss = shared if shared is not None else [losses[i] for i in live]
            sizes = [n for _, n in row]
            uniform = sizes.count(sizes[0]) == len(sizes)
            for n in sizes[:1] if uniform else sorted(set(sizes)):
                if uniform:
                    # one batch size: the step's batches are one slice
                    members, rows = None, every
                    index = flat[cursor:cursor + len(row) * n]
                else:
                    # one pass per size over every live row; the rows whose
                    # batch has another size run a stand-in and do not step
                    members = np.array([p for p, m in enumerate(sizes) if m == n])
                    rows = members if isinstance(every, slice) else every[members]
                    starts = np.cumsum([cursor] + sizes[:-1])
                    filler = np.zeros(n, np.int64)  # a stand-in batch: any valid rows
                    index = np.concatenate(
                        [flat[s:s + n] if m == n else filler for s, m in zip(starts, sizes)]
                    )
                xb = xs[index]
                yb = ys[index].reshape(-1, n)
                if grad_eval is None:
                    value = forward_backward(model, xb, yb, loss)
                    g = model.flat_grads
                else:
                    mark = len(trace)
                    g = grad_eval(xb, yb, loss, xr, every)
                    model.point_at(xr, gr)  # it evaluates at other points
                    value = trace[mark] if len(trace) > mark else None
                xm = xr
                if members is not None:
                    g, xm = g[members], xr[members]
                    value = None if value is None else value[members]
                if value is not None:
                    loss_sum[rows] += value
                    loss_count[rows] += 1
                if direction_fn is None:
                    d = lr_col[rows] * g
                else:
                    d = direction_fn(g, xm, rows)
                    d *= lr_col[rows]  # a fresh array: scaled in place
                if members is None:
                    xr -= d
                else:
                    xr[members] -= d
            cursor += sum(sizes)
        if subset is not None:
            x[subset] = xr
        if n_jobs > 1:
            # back on the model's own arena, without the folded batch's
            # activations: C clients' caches would outlive the cohort
            model.point_at(*ctx.arena)
            model.drop_caches()
        else:
            # a cohort of one never left the arena and leaves one client's
            # caches, as a one-client pass does; the next load_params
            # overwrites the arena, so the result is a copy
            x = x.copy()
        self._plain_losses = []
        # each client's mean training loss of its local pass, for loss-aware
        # samplers (Oort statistical utility); the grad_eval trace above keeps
        # SAM-family methods reporting instead of falling back to the prior
        # (Python floats divide as the float64 scalars did, bit for bit,
        # without a NumPy cast buffer per cohort)
        train_losses = [
            total / count if count else None
            for total, count in zip(loss_sum.tolist(), loss_count.tolist())
        ]
        return x, n_batches, train_losses

    def _plain_gradient(self, ctx: SimulationContext, x: np.ndarray, xb, yb, loss) -> np.ndarray:
        """Gradient block (a copy) of ``loss`` at the ``(c, dim)`` parameters
        ``x`` on the rows' folded batch ``(xb, yb)``."""
        model = ctx.model
        if x is not model.flat_params:
            model.point_at(x, np.zeros_like(x))
        value = forward_backward(model, xb, yb, loss)
        trace = getattr(self, "_plain_losses", None)
        if trace is not None:
            trace.append(value)
        return model.flat_grads.copy()

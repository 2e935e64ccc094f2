"""Shared state handed to algorithms during a simulation.

The context owns the single model instance, the flattened parameter layout,
the dataset and deterministic per-(round, client) RNG streams; it keeps
nothing per client, since a client is its rows of the dataset.  One
model serves every client: a cohort's local training points it at the
cohort's ``(C, dim)`` parameter block and runs the clients through it
together (:class:`repro.algorithms.base.LocalSGDMixin`), while
:meth:`SimulationContext.load_params` puts it back on its own one-client
arena for evaluation and the one-client training loops.  Execution backends
(:mod:`repro.parallel`) give every worker its own context.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.registry import FederatedDataset
from repro.data.sampler import UniformBatchSampler
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.simulation.config import FLConfig, resolve_lr_schedule
from repro.utils.pytree import ParamSpec
from repro.utils.rng import keyed_rng

__all__ = ["SimulationContext"]

LossBuilder = Callable[["SimulationContext", int], object]
#: ``(labels, batch_size) -> sampler`` following :mod:`repro.data.sampler`'s
#: protocol: ``epoch(rng)``, ``batches_per_epoch()`` and ``fixed_order``,
#: True when ``epoch`` never reads ``rng`` (so local training builds none)
SamplerBuilder = Callable[[np.ndarray, int], object]


# stateless, so every client shares it and a cohort's rows take one call
_SHARED_CE = CrossEntropyLoss()


def _default_loss_builder(ctx: "SimulationContext", client_id: int) -> object:
    return _SHARED_CE


def _default_sampler_builder(labels: np.ndarray, batch_size: int) -> object:
    return UniformBatchSampler(labels, batch_size)


class SimulationContext:
    """Everything an algorithm needs to run client updates and aggregation."""

    def __init__(
        self,
        model: Module,
        dataset: FederatedDataset,
        config: FLConfig,
        loss_builder: LossBuilder | None = None,
        sampler_builder: SamplerBuilder | None = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config
        self.loss_builder = loss_builder or _default_loss_builder
        self.sampler_builder = sampler_builder or _default_sampler_builder
        # named {"name": ...} schedules materialize once here, so lr_at stays
        # a cheap per-round call and specs can carry schedules through JSON
        self._lr_schedule = resolve_lr_schedule(config.lr_schedule, config.rounds)

        self.spec: ParamSpec = ParamSpec.from_tree(model.get_params(copy=False))
        self.x0: np.ndarray = model.flat_params[0].copy()  # initial parameters
        self.dim: int = self.spec.size
        #: the model's own one-client ``(flat_params, flat_grads)`` arena,
        #: which load_params points it back at
        self.arena = (model.flat_params, model.flat_grads)

    # -- data access ---------------------------------------------------------
    @property
    def num_clients(self) -> int:
        return self.dataset.num_clients

    @property
    def num_classes(self) -> int:
        return self.dataset.num_classes

    def client_xy(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Client ``k``'s (features, labels), copied afresh on every call."""
        return self.dataset.client_data(k)

    def client_sizes(self) -> np.ndarray:
        return np.fromiter(map(len, self.dataset.partitions), np.int64, self.num_clients)

    def loss_for(self, k: int) -> object:
        """Client ``k``'s training loss, built on every call."""
        return self.loss_builder(self, k)

    def sampler_for(self, k: int) -> object:
        """Client ``k``'s batch sampler over its labels, built on every call."""
        labels = self.dataset.y_train[self.dataset.client_rows(k)]
        return self.sampler_builder(labels, self.config.batch_size)

    # -- model parameter plumbing ---------------------------------------------
    def load_params(self, flat: np.ndarray) -> None:
        """Point the model at its own one-client arena and copy a ``(dim,)``
        vector into it."""
        if flat.shape != (self.dim,):  # copyto would broadcast (1,) or a scalar
            raise ValueError(f"load_params got shape {flat.shape}, expected ({self.dim},)")
        self.model.point_at(*self.arena)
        np.copyto(self.arena[0][0], flat)

    def flat_gradient(self) -> np.ndarray:
        """The one-client model's gradient vector itself, live until the next
        backward pass overwrites it: copy it to keep it past that."""
        return self.model.flat_grads[0]

    def lr_at(self, round_idx: int) -> float:
        """Local learning rate for a round (base lr x optional schedule)."""
        lr = self.config.lr_local
        if self._lr_schedule is not None:
            lr *= float(self._lr_schedule(round_idx))
        return lr

    # -- determinism ------------------------------------------------------------
    def round_rng(self, round_idx: int) -> np.random.Generator:
        """Server-side stream for round ``round_idx`` (client sampling etc.)."""
        return keyed_rng(self.config.seed, 0xA5, round_idx)

    def client_rng(self, round_idx: int, client_id: int) -> np.random.Generator:
        """Client-local stream, independent of execution order."""
        return keyed_rng(self.config.seed, 0xC1, round_idx, client_id)

    # -- client sampling --------------------------------------------------------
    def sample_clients(self, round_idx: int) -> np.ndarray:
        """Sample the round's cohort: ``max(1, round(participation * K))``
        distinct clients, ``round`` taking halves to even (0.75 of 6 clients
        is 4.5, which samples 4)."""
        k = self.num_clients
        m = max(1, int(round(self.config.participation * k)))
        rng = self.round_rng(round_idx)
        return np.sort(rng.choice(k, size=min(m, k), replace=False))

    def nominal_batches(self) -> int:
        """B̂: local batches per round under a perfectly even data split."""
        n_avg = max(1, len(self.dataset.y_train) // max(1, self.num_clients))
        per_epoch = max(1, int(np.ceil(n_avg / self.config.batch_size)))
        return per_epoch * self.config.local_epochs

"""Method registry: build any algorithm (plus its loss/sampler builders) by
the name used in the paper's tables and figures.

Returns ``MethodBundle(algorithm, loss_builder, sampler_builder)``; pass the
builders to :class:`repro.simulation.FederatedSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.algorithms.async_fl import FedAsync, FedBuff
from repro.algorithms.balancefl import BalanceFL
from repro.algorithms.creff import CReFF
from repro.algorithms.fedavg import FedAvg, FedAvgM, FedProx
from repro.algorithms.fedcm import FedCM
from repro.algorithms.feddyn import FedDyn
from repro.algorithms.fedgrab import FedGraB
from repro.algorithms.fedsam import FedSAM, MoFedSAM
from repro.algorithms.sam_family import FedSpeed, FedSMOO, FedLESAM
from repro.algorithms.fedwcm import FedWCM, FedWCMX
from repro.algorithms.fedwcm_he import FedWCMEncrypted
from repro.algorithms.server_opt import FedAdam, FedNova, FedYogi
from repro.algorithms.scaffold import Scaffold
from repro.algorithms.variants import (
    fedcm_with_balance_loss,
    fedcm_with_balanced_sampler,
    fedcm_with_focal,
)

__all__ = [
    "MethodBundle",
    "make_method",
    "method_requires_aggregate",
    "METHOD_NAMES",
]


@dataclass
class MethodBundle:
    """An algorithm together with its per-client loss/sampler factories."""

    algorithm: object
    loss_builder: Callable | None = None
    sampler_builder: Callable | None = None

    @property
    def name(self) -> str:
        return self.algorithm.name


_SIMPLE = {
    "fedavg": FedAvg,
    "fedasync": FedAsync,
    "fedbuff": FedBuff,
    "fedprox": FedProx,
    "fedavgm": FedAvgM,
    "scaffold": Scaffold,
    "feddyn": FedDyn,
    "fedcm": FedCM,
    "fedsam": FedSAM,
    "mofedsam": MoFedSAM,
    "fedspeed": FedSpeed,
    "fedsmoo": FedSMOO,
    "fedlesam": FedLESAM,
    "fedwcm": FedWCM,
    "fedwcm-x": FedWCMX,
    "fedwcm-he": FedWCMEncrypted,
    "fedadam": FedAdam,
    "fedyogi": FedYogi,
    "fednova": FedNova,
    "balancefl": BalanceFL,
    "fedgrab": FedGraB,
    "creff": CReFF,
}

_VARIANTS = {
    "fedcm+focal": fedcm_with_focal,
    "fedcm+balance_loss": fedcm_with_balance_loss,
    "fedcm+balance_sampler": fedcm_with_balanced_sampler,
}

METHOD_NAMES = sorted(list(_SIMPLE) + list(_VARIANTS))


def make_method(name: str, **kwargs) -> MethodBundle:
    """Instantiate a method bundle by table name.

    Args:
        name: one of :data:`METHOD_NAMES` (case-insensitive).
        kwargs: forwarded to the algorithm constructor (or variant factory).
    """
    key = name.lower()
    if key in _SIMPLE:
        return MethodBundle(algorithm=_SIMPLE[key](**kwargs))
    if key in _VARIANTS:
        algo, loss_b, sampler_b = _VARIANTS[key](**kwargs)
        return MethodBundle(algorithm=algo, loss_builder=loss_b, sampler_builder=sampler_b)
    raise KeyError(f"unknown method {name!r}; available: {METHOD_NAMES}")


def method_is_parallel_safe(name: str) -> bool:
    """True when the named method's client rule is safe on non-serial backends.

    Methods whose ``client_update`` mutates state outside the pack/unpack
    and ``broadcast_attrs`` contracts declare ``parallel_safe = False``;
    worker replicas would silently diverge, so spec validation and the
    backends refuse them off the serial backend.  Every registry method
    currently declares its state (FedGraB's per-client balancers ride the
    client-state contract), so this gate only fires for out-of-registry
    algorithms.  Variant factories are FedCM-based and safe.
    """
    return bool(getattr(_SIMPLE.get(name.lower()), "parallel_safe", True))


def method_requires_aggregate(name: str) -> bool:
    """True when the named method's client rule reads aggregate-refreshed state.

    Such methods (FedCM's momentum broadcast, FedSMOO's shared ascent
    estimate, FedLESAM's previous global model, ...) cannot run under the
    asynchronous server rules — ``aggregate`` is never called there, so the
    broadcast state would silently stay frozen.  The ``fedcm+*`` variant
    factories build FedCM instances and inherit its answer.
    """
    key = name.lower()
    if key in _VARIANTS:  # all current variants are FedCM-based
        return FedCM.requires_aggregate_broadcast
    return bool(getattr(_SIMPLE.get(key), "requires_aggregate_broadcast", False))

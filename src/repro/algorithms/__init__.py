"""Federated algorithms: the paper's contribution plus every baseline it
evaluates against (Tables 1/2/7, Figures 3/7/18/19)."""

from repro.algorithms.base import ClientUpdate, FederatedAlgorithm, LocalSGDMixin, size_weights
from repro.algorithms.async_fl import AsyncAdapter, FedAsync, FedBuff
from repro.algorithms.fedavg import FedAvg, FedProx, FedAvgM
from repro.algorithms.scaffold import Scaffold
from repro.algorithms.feddyn import FedDyn
from repro.algorithms.fedcm import FedCM
from repro.algorithms.fedsam import FedSAM, MoFedSAM
from repro.algorithms.sam_family import FedSpeed, FedSMOO, FedLESAM
from repro.algorithms.fedwcm import FedWCM, FedWCMX
from repro.algorithms.fedwcm_he import FedWCMEncrypted
from repro.algorithms.server_opt import FedAdam, FedNova, FedYogi
from repro.algorithms.balancefl import BalanceFL
from repro.algorithms.fedgrab import FedGraB, GradientBalancer
from repro.algorithms.creff import CReFF
from repro.algorithms.variants import (
    fedcm_with_focal,
    fedcm_with_balance_loss,
    fedcm_with_balanced_sampler,
)
from repro.algorithms.registry import (
    MethodBundle,
    make_method,
    method_is_parallel_safe,
    method_requires_aggregate,
    METHOD_NAMES,
)

__all__ = [
    "ClientUpdate",
    "FederatedAlgorithm",
    "LocalSGDMixin",
    "size_weights",
    "AsyncAdapter",
    "FedAsync",
    "FedBuff",
    "FedAvg",
    "FedProx",
    "FedAvgM",
    "Scaffold",
    "FedDyn",
    "FedCM",
    "FedSAM",
    "MoFedSAM",
    "FedSpeed",
    "FedSMOO",
    "FedLESAM",
    "FedWCM",
    "FedWCMX",
    "FedWCMEncrypted",
    "FedAdam",
    "FedYogi",
    "FedNova",
    "BalanceFL",
    "FedGraB",
    "GradientBalancer",
    "CReFF",
    "fedcm_with_focal",
    "fedcm_with_balance_loss",
    "fedcm_with_balanced_sampler",
    "MethodBundle",
    "make_method",
    "METHOD_NAMES",
    "method_is_parallel_safe",
    "method_requires_aggregate",
]

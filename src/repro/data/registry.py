"""Dataset registry mapping the paper's five datasets to -lite synthetic twins.

Each entry fixes the class count and input geometry analogous to the original
(class counts are exact; spatial sizes and per-class volumes are scaled down
so a 500-round federated run is feasible on a CPU — see DESIGN.md).

``load_federated_dataset`` is the one-stop entry point used by benchmarks and
examples: it builds the long-tailed training set, a *balanced* test set (the
paper evaluates balanced test accuracy), and the client partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.longtail import longtail_counts
from repro.data.partition import (
    client_class_counts,
    partition_balanced_dirichlet,
    partition_by_class_dirichlet,
)
from repro.data.synthetic import ClassConditionalGenerator, SyntheticSpec
from repro.utils.rng import as_generator

__all__ = ["DatasetInfo", "FederatedDataset", "DATASET_REGISTRY", "load_federated_dataset"]


@dataclass(frozen=True)
class DatasetInfo:
    """Registry entry: geometry + default difficulty of a -lite dataset."""

    name: str
    num_classes: int
    shape: tuple[int, ...]
    n_max_train: int  # head-class training samples at IF=1
    n_test_per_class: int
    separation: float
    noise: float
    modes: int = 2
    default_model: str = "mlp"
    paper_counterpart: str = ""


DATASET_REGISTRY: dict[str, DatasetInfo] = {
    "fashion-mnist-lite": DatasetInfo(
        name="fashion-mnist-lite",
        num_classes=10,
        shape=(32,),
        n_max_train=300,
        n_test_per_class=50,
        separation=0.7,
        noise=1.0,
        modes=3,
        default_model="mlp",
        paper_counterpart="Fashion-MNIST (MLP)",
    ),
    "svhn-lite": DatasetInfo(
        name="svhn-lite",
        num_classes=10,
        shape=(3, 8, 8),
        n_max_train=300,
        n_test_per_class=50,
        separation=0.5,
        noise=1.0,
        modes=4,
        default_model="resnet-lite-18",
        paper_counterpart="SVHN (ResNet-18)",
    ),
    "cifar10-lite": DatasetInfo(
        name="cifar10-lite",
        num_classes=10,
        shape=(3, 8, 8),
        n_max_train=300,
        n_test_per_class=50,
        separation=0.4,
        noise=1.0,
        modes=4,
        default_model="resnet-lite-18",
        paper_counterpart="CIFAR-10 (ResNet-18)",
    ),
    "cifar100-lite": DatasetInfo(
        name="cifar100-lite",
        num_classes=20,  # scaled from 100 to keep per-class volume meaningful
        shape=(3, 8, 8),
        n_max_train=150,
        n_test_per_class=25,
        separation=0.45,
        noise=1.0,
        modes=4,
        default_model="resnet-lite-34",
        paper_counterpart="CIFAR-100 (ResNet-34), classes scaled 100->20",
    ),
    "imagenet-lite": DatasetInfo(
        name="imagenet-lite",
        num_classes=30,  # scaled from 1000
        shape=(3, 12, 12),
        n_max_train=120,
        n_test_per_class=20,
        separation=0.4,
        noise=1.1,
        modes=4,
        default_model="resnet-lite-34",
        paper_counterpart="ImageNet (ResNet-34), classes scaled 1000->30",
    ),
}


@dataclass
class FederatedDataset:
    """A fully materialised federated learning problem instance."""

    info: DatasetInfo
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    partitions: list[np.ndarray]
    imbalance_factor: float
    beta: float
    partition_kind: str

    @property
    def num_clients(self) -> int:
        return len(self.partitions)

    @property
    def num_classes(self) -> int:
        return self.info.num_classes

    @property
    def global_class_counts(self) -> np.ndarray:
        return np.bincount(self.y_train, minlength=self.num_classes)

    @property
    def client_counts(self) -> np.ndarray:
        """Per-client class-count matrix, shape (K, C)."""
        return client_class_counts(self.partitions, self.y_train, self.num_classes)

    def client_rows(self, k: int) -> np.ndarray:
        """Client ``k``'s row numbers into ``x_train`` / ``y_train``."""
        if not 0 <= k < len(self.partitions):  # -1 would be the last client
            raise IndexError(f"client id {k} out of range for {self.num_clients} clients")
        return self.partitions[k]

    def client_data(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx = self.client_rows(k)
        return self.x_train[idx], self.y_train[idx]

    def flat_view(self) -> "FederatedDataset":
        """Return a copy whose inputs are flattened to (n, d) for MLP models."""
        if self.x_train.ndim == 2:
            return self
        out = FederatedDataset(
            info=self.info,
            x_train=self.x_train.reshape(self.x_train.shape[0], -1),
            y_train=self.y_train,
            x_test=self.x_test.reshape(self.x_test.shape[0], -1),
            y_test=self.y_test,
            partitions=self.partitions,
            imbalance_factor=self.imbalance_factor,
            beta=self.beta,
            partition_kind=self.partition_kind,
        )
        return out


def load_federated_dataset(
    name: str,
    imbalance_factor: float = 0.1,
    beta: float = 0.1,
    num_clients: int = 20,
    seed: int = 0,
    partition: str = "balanced",
    scale: float = 1.0,
) -> FederatedDataset:
    """Build a long-tailed, partitioned federated dataset.

    Args:
        name: registry key (see :data:`DATASET_REGISTRY`).
        imbalance_factor: IF in (0, 1]; 1 = balanced.
        beta: Dirichlet concentration for the client partition.
        num_clients: number of clients.
        seed: master seed — prototypes, sampling and partition all derive
            from it.
        partition: ``"balanced"`` (paper default, equal quantities) or
            ``"fedgrab"`` (per-class Dirichlet, quantity-skewed).
        scale: multiply per-class sample volumes (e.g. 0.5 for faster tests).

    Returns:
        A :class:`FederatedDataset`.
    """
    try:
        info = DATASET_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}") from None
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    rng = as_generator(seed)
    proto_rng, train_rng, test_rng, part_rng = rng.spawn(4)

    spec = SyntheticSpec(
        num_classes=info.num_classes,
        shape=info.shape,
        separation=info.separation,
        noise=info.noise,
        modes=info.modes,
    )
    gen = ClassConditionalGenerator(spec, seed=proto_rng)

    n_max = max(int(round(info.n_max_train * scale)), 2)
    train_counts = longtail_counts(n_max, info.num_classes, imbalance_factor)
    x_train, y_train = gen.sample(train_counts, train_rng)

    n_test = max(int(round(info.n_test_per_class * scale)), 2)
    test_counts = np.full(info.num_classes, n_test)
    x_test, y_test = gen.sample(test_counts, test_rng)

    if partition == "balanced":
        parts = partition_balanced_dirichlet(
            y_train, num_clients, beta, part_rng, num_classes=info.num_classes
        )
    elif partition == "fedgrab":
        parts = partition_by_class_dirichlet(
            y_train, num_clients, beta, part_rng, num_classes=info.num_classes
        )
    else:
        raise ValueError(f"partition must be 'balanced' or 'fedgrab', got {partition!r}")

    return FederatedDataset(
        info=info,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        partitions=parts,
        imbalance_factor=imbalance_factor,
        beta=beta,
        partition_kind=partition,
    )

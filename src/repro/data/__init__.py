"""Data substrate: synthetic datasets, long-tail profiles, client partitions.

Replaces the paper's torchvision datasets (:mod:`repro.data.registry` gives
the substitution argument).
"""

from repro.data.longtail import longtail_counts, imbalance_factor_of, apply_longtail
from repro.data.synthetic import SyntheticSpec, ClassConditionalGenerator, make_classification_data
from repro.data.partition import (
    partition_balanced_dirichlet,
    partition_by_class_dirichlet,
    client_class_counts,
    quantity_skew_of,
)
from repro.data.sampler import BalancedBatchSampler, UniformBatchSampler
from repro.data.augment import GaussianJitter, Mixup, FeatureDropout, AugmentedSampler
from repro.data.registry import (
    DatasetInfo,
    FederatedDataset,
    DATASET_REGISTRY,
    load_federated_dataset,
)

__all__ = [
    "longtail_counts",
    "imbalance_factor_of",
    "apply_longtail",
    "SyntheticSpec",
    "ClassConditionalGenerator",
    "make_classification_data",
    "partition_balanced_dirichlet",
    "partition_by_class_dirichlet",
    "client_class_counts",
    "quantity_skew_of",
    "BalancedBatchSampler",
    "UniformBatchSampler",
    "GaussianJitter",
    "Mixup",
    "FeatureDropout",
    "AugmentedSampler",
    "DatasetInfo",
    "FederatedDataset",
    "DATASET_REGISTRY",
    "load_federated_dataset",
]

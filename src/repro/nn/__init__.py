"""Pure-NumPy neural-network engine with manual backprop.

Substitutes for the paper's PyTorch substrate (see DESIGN.md).  Public
surface: modules/layers, the model zoo, losses and training helpers.  The
local update rules live with the federated algorithms, which step the
model's ``(C, dim)`` parameter blocks directly.
"""

from repro.nn.module import Module
from repro.nn.layers import Dense, ReLU, Flatten, Dropout
from repro.nn.conv import Conv2d, MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.norm import GroupNorm, BatchNorm2d, LayerNorm
from repro.nn.container import Sequential, BasicBlock
from repro.nn.models import (
    make_mlp,
    make_resnet_lite,
    make_linear,
    build_model,
    MODEL_REGISTRY,
)
from repro.nn.losses import (
    CrossEntropyLoss,
    FocalLoss,
    PriorCELoss,
    LDAMLoss,
    ClassBalancedLoss,
)
from repro.nn.train import forward_backward, evaluate, iterate_minibatches
from repro.nn.schedules import (
    ConstantSchedule,
    StepSchedule,
    CosineSchedule,
    WarmupSchedule,
    make_schedule,
)
from repro.nn import functional

__all__ = [
    "Module",
    "Dense",
    "ReLU",
    "Flatten",
    "Dropout",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "GroupNorm",
    "BatchNorm2d",
    "LayerNorm",
    "Sequential",
    "BasicBlock",
    "make_mlp",
    "make_resnet_lite",
    "make_linear",
    "build_model",
    "MODEL_REGISTRY",
    "CrossEntropyLoss",
    "FocalLoss",
    "PriorCELoss",
    "LDAMLoss",
    "ClassBalancedLoss",
    "forward_backward",
    "evaluate",
    "iterate_minibatches",
    "functional",
    "ConstantSchedule",
    "StepSchedule",
    "CosineSchedule",
    "WarmupSchedule",
    "make_schedule",
]

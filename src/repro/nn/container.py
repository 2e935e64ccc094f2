"""Composite modules: Sequential chains and residual blocks."""

from __future__ import annotations

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.layers import ReLU
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d, GroupNorm

__all__ = ["Sequential", "BasicBlock"]


class Sequential(Module):
    """Chain of modules applied in order.

    Child parameters are namespaced ``"<index>.<name>"``; the entries are
    views into the chain's flat-parameter arena, the very arrays the
    children use in forward/backward.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.children_ = list(modules)
        self._bind()

    def _named_children(self) -> list[tuple[str, Module]]:
        return [(str(i), m) for i, m in enumerate(self.children_)]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for m in self.children_:
            x = m.forward(x, train=train)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for m in reversed(self.children_):
            dout = m.backward(dout)
        return dout

    def backward_params(self, dout: np.ndarray) -> None:
        for m in reversed(self.children_[1:]):
            dout = m.backward(dout)
        self.children_[0].backward_params(dout)

    def __len__(self) -> int:
        return len(self.children_)

    def __getitem__(self, i: int) -> Module:
        return self.children_[i]


class BasicBlock(Module):
    """ResNet basic residual block: conv-norm-relu-conv-norm + skip.

    Uses GroupNorm by default (see :mod:`repro.nn.norm`).  When the input and
    output shapes differ (stride > 1 or channel change), a 1x1 convolution
    projects the skip path, as in He et al. (2016).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
        groups: int = 4,
        norm: str = "group",
    ) -> None:
        super().__init__()
        if norm not in ("group", "batch"):
            raise ValueError(f"norm must be 'group' or 'batch', got {norm!r}")
        g = min(groups, out_channels)
        while out_channels % g:
            g -= 1

        def make_norm():
            return GroupNorm(g, out_channels) if norm == "group" else BatchNorm2d(out_channels)

        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, padding=1, bias=False)
        self.norm1 = make_norm()
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, stride=1, padding=1, bias=False)
        self.norm2 = make_norm()
        self.relu2 = ReLU()
        self.project: Conv2d | None = None
        if stride != 1 or in_channels != out_channels:
            self.project = Conv2d(
                in_channels, out_channels, 1, rng, stride=stride, padding=0, bias=False
            )
        self._bind()

    def _named_children(self) -> list[tuple[str, Module]]:
        out = [
            ("conv1", self.conv1),
            ("norm1", self.norm1),
            ("relu1", self.relu1),
            ("conv2", self.conv2),
            ("norm2", self.norm2),
            ("relu2", self.relu2),
        ]
        if self.project is not None:
            out.append(("project", self.project))
        return out

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        skip = x if self.project is None else self.project.forward(x, train=train)
        h = self.conv1.forward(x, train=train)
        h = self.norm1.forward(h, train=train)
        h = self.relu1.forward(h, train=train)
        h = self.conv2.forward(h, train=train)
        h = self.norm2.forward(h, train=train)
        return self.relu2.forward(h + skip, train=train)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d = self.relu2.backward(dout)
        dskip = d
        d = self.norm2.backward(d)
        d = self.conv2.backward(d)
        d = self.relu1.backward(d)
        d = self.norm1.backward(d)
        dx = self.conv1.backward(d)
        if self.project is not None:
            dx = dx + self.project.backward(dskip)
        else:
            dx = dx + dskip
        return dx

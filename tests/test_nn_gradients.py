"""Numerical gradient checks for every layer and loss in the NN engine.

These are the foundation tests: if backprop is wrong, every federated result
in the library is meaningless.  Central differences against the analytic
gradients, for both parameters and inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BasicBlock,
    BatchNorm2d,
    ClassBalancedLoss,
    Conv2d,
    CrossEntropyLoss,
    Dense,
    FocalLoss,
    GlobalAvgPool2d,
    GroupNorm,
    LayerNorm,
    LDAMLoss,
    MaxPool2d,
    AvgPool2d,
    PriorCELoss,
    ReLU,
    Sequential,
)

RNG = np.random.default_rng(1234)
EPS = 1e-6


def _numeric_param_grad(module, x, param_name, loss_of_output):
    """Central-difference gradient of a scalar loss w.r.t. one parameter."""
    p = module.params[param_name]
    num = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = p[idx]
        p[idx] = old + EPS
        lp = loss_of_output(module.forward(x, train=False))
        p[idx] = old - EPS
        lm = loss_of_output(module.forward(x, train=False))
        p[idx] = old
        num[idx] = (lp - lm) / (2 * EPS)
        it.iternext()
    return num


def _numeric_input_grad(module, x, loss_of_output):
    num = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + EPS
        lp = loss_of_output(module.forward(x, train=False))
        x[idx] = old - EPS
        lm = loss_of_output(module.forward(x, train=False))
        x[idx] = old
        num[idx] = (lp - lm) / (2 * EPS)
        it.iternext()
    return num


def _check_module(module, x, atol=1e-5):
    """Run forward/backward with a random linear loss and compare gradients."""
    out = module.forward(x, train=True)
    w = RNG.normal(size=out.shape)

    def loss_of_output(o):
        return float((o * w).sum())

    dx = module.backward(w)

    ndx = _numeric_input_grad(module, x.copy(), loss_of_output)
    np.testing.assert_allclose(dx, ndx, atol=atol, rtol=1e-4)

    for name in module.params:
        # re-run forward in train mode so caches match the analytic pass
        module.forward(x, train=True)
        module.backward(w)
        analytic = module.grads[name].copy()
        numeric = _numeric_param_grad(module, x, name, loss_of_output)
        np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4, err_msg=name)


class TestLayerGradients:
    def test_dense(self):
        m = Dense(5, 3, np.random.default_rng(0))
        _check_module(m, RNG.normal(size=(4, 5)))

    def test_dense_no_bias(self):
        m = Dense(4, 2, np.random.default_rng(0), bias=False)
        _check_module(m, RNG.normal(size=(3, 4)))

    def test_relu(self):
        # keep inputs away from the kink at 0
        x = RNG.normal(size=(4, 6))
        x[np.abs(x) < 0.1] = 0.5
        _check_module(ReLU(), x)

    def test_conv2d(self):
        m = Conv2d(2, 3, 3, np.random.default_rng(0), stride=1, padding=1)
        _check_module(m, RNG.normal(size=(2, 2, 5, 5)))

    def test_conv2d_stride2_nopad(self):
        m = Conv2d(2, 2, 2, np.random.default_rng(0), stride=2, padding=0)
        _check_module(m, RNG.normal(size=(2, 2, 4, 4)))

    def test_conv2d_downsampling_block_geometry(self):
        # BasicBlock's first conv when a stage halves the resolution
        m = Conv2d(2, 3, 3, np.random.default_rng(0), stride=2, padding=1)
        _check_module(m, RNG.normal(size=(2, 2, 4, 4)))

    def test_maxpool(self):
        x = RNG.normal(size=(2, 2, 4, 4)) * 3  # well-separated values: no ties
        _check_module(MaxPool2d(2), x)

    def test_avgpool(self):
        _check_module(AvgPool2d(2), RNG.normal(size=(2, 3, 4, 4)))

    def test_global_avgpool(self):
        _check_module(GlobalAvgPool2d(), RNG.normal(size=(3, 2, 4, 4)))

    def test_groupnorm(self):
        m = GroupNorm(2, 4)
        _check_module(m, RNG.normal(size=(3, 4, 3, 3)), atol=1e-4)

    def test_layernorm(self):
        _check_module(LayerNorm(6), RNG.normal(size=(4, 6)), atol=1e-4)

    def test_batchnorm_param_grads(self):
        # BatchNorm input grads use batch statistics; eval-mode numeric check
        # only applies to gamma/beta (which act identically in both modes
        # once running stats match batch stats).
        m = BatchNorm2d(3, momentum=1.0)
        x = RNG.normal(size=(4, 3, 2, 2))
        out = m.forward(x, train=True)  # momentum=1.0: running stats = batch stats
        w = RNG.normal(size=out.shape)
        m.backward(w)

        def loss_of_output(o):
            return float((o * w).sum())

        for name in ("gamma", "beta"):
            numeric = _numeric_param_grad(m, x, name, loss_of_output)
            np.testing.assert_allclose(m.grads[name], numeric, atol=1e-4, err_msg=name)

    def test_basic_block(self):
        m = BasicBlock(2, 4, np.random.default_rng(0), stride=2)
        x = RNG.normal(size=(2, 2, 4, 4))
        # Check input gradient only on the smooth part: perturb and compare loss
        out = m.forward(x, train=True)
        w = RNG.normal(size=out.shape)
        dx = m.backward(w)
        # directional derivative check (avoids ReLU kinks dominating)
        d = RNG.normal(size=x.shape) * 1e-5
        l0 = float((m.forward(x - d, train=False) * w).sum())
        l1 = float((m.forward(x + d, train=False) * w).sum())
        approx = (l1 - l0) / 2
        exact = float((dx * d).sum())
        assert abs(approx - exact) < 1e-6 + 1e-3 * abs(exact)

    def test_sequential_chain(self):
        rng = np.random.default_rng(0)
        m = Sequential(Dense(6, 5, rng), ReLU(), Dense(5, 3, rng))
        x = RNG.normal(size=(4, 6))
        out = m.forward(x, train=True)
        w = RNG.normal(size=out.shape)
        dx = m.backward(w)
        d = RNG.normal(size=x.shape) * 1e-5
        l0 = float((m.forward(x - d, train=False) * w).sum())
        l1 = float((m.forward(x + d, train=False) * w).sum())
        assert abs((l1 - l0) / 2 - float((dx * d).sum())) < 1e-6


class TestLossGradients:
    @pytest.mark.parametrize(
        "loss",
        [
            CrossEntropyLoss(),
            FocalLoss(gamma=2.0),
            FocalLoss(gamma=0.0),
            PriorCELoss(np.array([0.5, 0.3, 0.2])),
            # gentle scale: at the default scale=10 numeric central differences
            # cannot resolve gradient entries spanning 9 orders of magnitude
            LDAMLoss(np.array([50.0, 10.0, 2.0]), scale=2.0),
            ClassBalancedLoss(np.array([50.0, 10.0, 2.0])),
        ],
        ids=["ce", "focal2", "focal0", "prior_ce", "ldam", "class_balanced"],
    )
    def test_numeric(self, loss):
        logits = RNG.normal(size=(6, 3))
        labels = RNG.integers(0, 3, size=6)
        _, dlogits = loss(logits, labels)
        num = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                old = logits[i, j]
                logits[i, j] = old + EPS
                lp, _ = loss(logits, labels)
                logits[i, j] = old - EPS
                lm, _ = loss(logits, labels)
                logits[i, j] = old
                num[i, j] = (lp - lm) / (2 * EPS)
        np.testing.assert_allclose(dlogits, num, atol=1e-5)

    def test_focal_gamma0_equals_ce(self):
        logits = RNG.normal(size=(5, 4))
        labels = RNG.integers(0, 4, size=5)
        lce, gce = CrossEntropyLoss()(logits, labels)
        lf, gf = FocalLoss(gamma=0.0)(logits, labels)
        assert abs(lce - lf) < 1e-9
        np.testing.assert_allclose(gce, gf, atol=1e-9)

    def test_prior_ce_uniform_equals_ce(self):
        logits = RNG.normal(size=(5, 4))
        labels = RNG.integers(0, 4, size=5)
        lce, gce = CrossEntropyLoss()(logits, labels)
        lp, gp = PriorCELoss(np.full(4, 0.25))(logits, labels)
        assert abs(lce - lp) < 1e-9
        np.testing.assert_allclose(gce, gp, atol=1e-9)

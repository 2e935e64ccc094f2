"""Behavioural tests for the NN engine beyond gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm,
    LayerNorm,
    MaxPool2d,
    MODEL_REGISTRY,
    ReLU,
    Sequential,
    build_model,
    evaluate,
    forward_backward,
    iterate_minibatches,
    make_linear,
    make_mlp,
    make_resnet_lite,
)
from repro.nn.functional import accuracy, log_softmax, one_hot, per_class_accuracy, softmax
from repro.utils import flatten_params, unflatten_params

RNG = np.random.default_rng(0)

# every module that caches for backward: (factory, input shape)
CACHING_MODULES = {
    "Dense": (lambda: Dense(3, 2, np.random.default_rng(0)), (4, 3)),
    "ReLU": (ReLU, (4, 3)),
    "Flatten": (Flatten, (4, 2, 3, 3)),
    "Conv2d": (lambda: Conv2d(2, 3, 3, np.random.default_rng(0), padding=1), (4, 2, 5, 5)),
    "MaxPool2d": (lambda: MaxPool2d(2), (4, 2, 4, 4)),
    "AvgPool2d": (lambda: AvgPool2d(2), (4, 2, 4, 4)),
    "GlobalAvgPool2d": (GlobalAvgPool2d, (4, 2, 4, 4)),
    "GroupNorm": (lambda: GroupNorm(2, 4), (4, 4, 3, 3)),
    "BatchNorm2d": (lambda: BatchNorm2d(2), (4, 2, 3, 3)),
    "LayerNorm": (lambda: LayerNorm(5), (4, 5)),
    "BasicBlock": (lambda: BasicBlock(2, 4, np.random.default_rng(0), stride=2), (4, 2, 4, 4)),
}


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        p = softmax(RNG.normal(size=(5, 7)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_softmax_stability(self):
        p = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p[0, :2], 0.5, atol=1e-9)

    def test_log_softmax_matches_log_of_softmax(self):
        z = RNG.normal(size=(4, 5))
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)

    def test_one_hot(self):
        oh = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_validates(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError):
            one_hot(np.array([[0]]), 3)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0

    def test_per_class_accuracy_nan_for_absent(self):
        logits = np.array([[2.0, 1.0, 0.0]])
        acc = per_class_accuracy(logits, np.array([0]), 3)
        assert acc[0] == 1.0
        assert np.isnan(acc[1]) and np.isnan(acc[2])


class TestModuleStateManagement:
    def test_set_params_copies_values(self):
        m = Dense(3, 2, np.random.default_rng(0))
        new = {k: np.zeros_like(v) for k, v in m.get_params().items()}
        m.set_params(new)
        assert np.all(m.params["W"] == 0)
        new["W"][0, 0] = 5.0  # mutating the source must not affect the module
        assert m.params["W"][0, 0, 0] == 0.0

    def test_set_params_key_mismatch(self):
        m = Dense(3, 2, np.random.default_rng(0))
        with pytest.raises(KeyError):
            m.set_params({"W": m.params["W"]})

    def test_set_params_shape_mismatch(self):
        m = Dense(3, 2, np.random.default_rng(0))
        bad = {"W": np.zeros((2, 2)), "b": np.zeros(2)}
        with pytest.raises(ValueError):
            m.set_params(bad)

    def test_sequential_param_aliasing(self):
        # writing through the parent's namespaced params must reach children
        m = Sequential(Dense(3, 2, np.random.default_rng(0)))
        flat, spec = flatten_params(m.get_params())
        flat2 = np.zeros_like(flat)
        m.set_params(unflatten_params(flat2, spec))
        assert np.all(m.children_[0].params["W"] == 0)

    def test_backward_before_forward_raises(self):
        m = Dense(3, 2, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            m.backward(np.zeros((1, 2)))

    def test_conv_kernel_larger_than_padded_input_raises(self):
        m = Conv2d(1, 1, 5, np.random.default_rng(0), padding=1)
        with pytest.raises(ValueError, match="exceeds"):
            m.forward(np.zeros((2, 1, 2, 6)))

    @pytest.mark.parametrize("name", sorted(CACHING_MODULES))
    def test_eval_forward_clears_backward_cache(self, name):
        # an eval forward must not leave the previous train batch behind
        # for backward to differentiate
        make, shape = CACHING_MODULES[name]
        m = make()
        x = RNG.normal(size=shape)
        out = m.forward(x, train=True)
        m.forward(x, train=False)
        with pytest.raises(RuntimeError):
            m.backward(np.ones_like(out))


class TestNorms:
    def test_groupnorm_output_normalised(self):
        gn = GroupNorm(2, 4)
        x = RNG.normal(size=(8, 4, 3, 3)) * 10 + 5
        out = gn.forward(x, train=True)
        grp = out.reshape(8, 2, -1)
        np.testing.assert_allclose(grp.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(grp.std(axis=2), 1.0, atol=1e-4)

    def test_groupnorm_divisibility(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 4)

    def test_batchnorm_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = RNG.normal(size=(16, 2, 2, 2)) + 3.0
        bn.forward(x, train=True)
        assert np.all(bn.buffers["running_mean"] > 1.0)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2d(2, momentum=1.0)
        x = RNG.normal(size=(16, 2, 2, 2))
        bn.forward(x, train=True)
        out_eval = bn.forward(x, train=False)
        out_train = bn.forward(x, train=True)
        # with momentum=1 running stats equal batch stats (up to biased var)
        np.testing.assert_allclose(out_eval, out_train, atol=1e-6)


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.5, np.random.default_rng(0))
        x = RNG.normal(size=(4, 6))
        np.testing.assert_array_equal(d.forward(x, train=False), x)

    def test_train_scales_survivors(self):
        d = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((1000, 10))
        out = d.forward(x, train=True)
        vals = np.unique(np.round(out, 6))
        assert set(vals) <= {0.0, 2.0}
        assert abs(out.mean() - 1.0) < 0.1  # inverted dropout preserves scale

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))


class TestModels:
    def test_registry_contents(self):
        assert {"mlp", "linear", "resnet-lite-18", "resnet-lite-34"} <= set(MODEL_REGISTRY)

    def test_mlp_shapes(self):
        m = make_mlp(12, 4, hidden=(8,), seed=0)
        out = m.forward(RNG.normal(size=(3, 12)), train=False)
        assert out.shape == (3, 4)

    def test_linear_model(self):
        m = make_linear(6, 3, seed=0)
        assert m.num_params == 6 * 3 + 3

    @pytest.mark.parametrize("depth", ["micro", "18", "34"])
    def test_resnet_depths(self, depth):
        m = make_resnet_lite(3, 8, 10, depth=depth, width=4, seed=0)
        out = m.forward(RNG.normal(size=(2, 3, 8, 8)), train=False)
        assert out.shape == (2, 10)

    def test_resnet_batchnorm_variant(self):
        m = make_resnet_lite(3, 8, 5, depth="micro", width=4, seed=0, norm="batch")
        assert any("running_mean" in k for k in m.buffers)

    def test_resnet_groupnorm_has_no_buffers(self):
        m = make_resnet_lite(3, 8, 5, depth="micro", width=4, seed=0, norm="group")
        assert not m.buffers

    def test_deeper_resnet_has_more_params(self):
        p18 = make_resnet_lite(3, 8, 10, depth="18", width=4, seed=0).num_params
        p34 = make_resnet_lite(3, 8, 10, depth="34", width=4, seed=0).num_params
        assert p34 > p18

    def test_build_model_unknown(self):
        with pytest.raises(KeyError):
            build_model("transformer-xl")

    def test_same_seed_same_init(self):
        a = make_mlp(8, 3, seed=5)
        b = make_mlp(8, 3, seed=5)
        flat_a, _ = flatten_params(a.params)
        flat_b, _ = flatten_params(b.params)
        np.testing.assert_array_equal(flat_a, flat_b)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            make_resnet_lite(3, 7, 10)
        with pytest.raises(ValueError):
            make_resnet_lite(3, 8, 10, depth="50")


class TestTrainHelpers:
    def test_training_reduces_loss(self):
        m = make_mlp(16, 4, hidden=(16,), seed=0)
        rng = np.random.default_rng(0)
        from repro.data import make_classification_data

        x, y = make_classification_data(4, 16, 40, seed=1, separation=2.0, noise=0.5)
        loss_fn = CrossEntropyLoss()
        first = forward_backward(m, x, y, loss_fn)
        for b in iterate_minibatches(rng, len(y), 20, epochs=10):
            forward_backward(m, x[b], y[b], loss_fn)
            m.flat_params -= 0.1 * m.flat_grads
        last = forward_backward(m, x, y, loss_fn)
        assert last < first * 0.5

    def test_evaluate_empty(self):
        m = make_mlp(4, 2, seed=0)
        res = evaluate(m, np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert res["n"] == 0

    def test_iterate_minibatches_covers_all(self):
        batches = list(iterate_minibatches(np.random.default_rng(0), 10, 3, epochs=2))
        idx = np.concatenate(batches)
        assert len(idx) == 20
        assert sorted(idx[:10].tolist()) == list(range(10))

    def test_iterate_minibatches_invalid(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.random.default_rng(0), 10, 0))

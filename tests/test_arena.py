"""The flat-parameter arena: every module's params/grads are ``(C, *shape)``
views into one contiguous ``(C, dim)`` block pair owned by the outermost
model, in ``ParamSpec`` order along each client row."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_federated_dataset
from repro.nn import (
    Conv2d,
    CrossEntropyLoss,
    Dense,
    GroupNorm,
    LayerNorm,
    ReLU,
    Sequential,
    forward_backward,
    make_linear,
    make_mlp,
    make_resnet_lite,
)
from repro.simulation import FLConfig
from repro.simulation.context import SimulationContext
from repro.utils import ParamSpec, flatten_params

_IMG = (3, 3, 8, 8)

# name -> (factory, input shape)
CASES = {
    "linear": (lambda: make_linear(6, 3, seed=0), (4, 6)),
    "mlp": (lambda: make_mlp(6, 3, hidden=(5, 4), seed=0), (4, 6)),
    "resnet-micro-group": (
        lambda: make_resnet_lite(3, 8, 4, depth="micro", width=4, seed=0), _IMG
    ),
    "resnet-micro-batch": (
        lambda: make_resnet_lite(3, 8, 4, depth="micro", width=4, seed=0, norm="batch"), _IMG
    ),
    "resnet-18-group": (lambda: make_resnet_lite(3, 8, 4, depth="18", width=4, seed=0), _IMG),
    "resnet-18-batch": (
        lambda: make_resnet_lite(3, 8, 4, depth="18", width=4, seed=0, norm="batch"), _IMG
    ),
    "dense": (lambda: Dense(6, 3, np.random.default_rng(0)), (4, 6)),
    "conv2d": (
        lambda: Conv2d(3, 4, 3, np.random.default_rng(0), stride=2, padding=1), _IMG
    ),
    "groupnorm": (lambda: GroupNorm(2, 4), (3, 4, 5, 5)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    factory, shape = CASES[request.param]
    return factory(), shape


def _walk(module, prefix=""):
    """(name prefix, module) for the module and every namespaced descendant."""
    yield prefix, module
    for name, child in module._named_children():
        yield from _walk(child, f"{prefix}{name}.")


def _leaves(model):
    return [m for _, m in _walk(model) if not m._named_children()]


def _addr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _pass(model, shape):
    """Forward + backward on fixed data: (output, dx, leaf grads in spec order)."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=shape)
    out = model.forward(x, train=True)
    dx = model.backward(rng.normal(size=out.shape))
    grads = [g.copy() for m in _leaves(model) for g in m.grads.values()]
    return out, dx, grads


class TestLayout:
    def test_flat_params_match_flattened_tree(self, case):
        model, _ = case
        for vec in (model.flat_params, model.flat_grads):
            assert vec.shape == (1, model.num_params) and vec.dtype == np.float64
            assert vec.flags.c_contiguous and vec.base is None
        np.testing.assert_array_equal(model.flat_params[0], flatten_params(model.get_params())[0])
        assert model.flat_grads.size == model.flat_params.size
        assert not np.shares_memory(model.flat_params, model.flat_grads)

    def test_entries_are_views_at_spec_offsets(self, case):
        model, _ = case
        spec = ParamSpec.from_tree(model.params)
        for root, tree in ((model.flat_params, model.params), (model.flat_grads, model.grads)):
            for name, shape, off in zip(spec.names, spec.shapes, spec.offsets):
                a = tree[name]
                assert a.shape == shape and a.flags.c_contiguous
                assert a.base is root
                assert _addr(a) == _addr(root) + off * root.itemsize

    def test_nested_vectors_are_slices_of_the_root(self, case):
        model, _ = case
        spec = ParamSpec.from_tree(model.params)
        offsets = dict(zip(spec.names, spec.offsets))
        for prefix, m in list(_walk(model))[1:]:
            assert m.flat_params.base is model.flat_params
            assert m.flat_grads.base is model.flat_grads
            if m.params:
                first = prefix + next(iter(m.params))
                off = offsets[first] * model.flat_params.itemsize
                assert _addr(m.flat_params) == _addr(model.flat_params) + off
                assert _addr(m.flat_grads) == _addr(model.flat_grads) + off
            # a child's entries are the very arrays the parent namespaces
            for k, v in m.params.items():
                assert model.params[prefix + k] is v
                assert model.grads[prefix + k] is m.grads[k]

    def test_buffers_stay_outside_the_arena(self, case):
        model, _ = case
        for prefix, m in _walk(model):
            for k, buf in m.buffers.items():
                assert not np.shares_memory(buf, model.flat_params)
                assert not np.shares_memory(buf, model.flat_grads)
                assert model.buffers[prefix + k] is buf

    def test_root_zero_grad_clears_every_leaf(self, case):
        model, shape = case
        _pass(model, shape)
        assert np.any(model.flat_grads != 0)
        model.flat_grads.fill(0.0)
        for leaf in _leaves(model):
            for g in leaf.grads.values():
                assert not np.any(g)

    def test_point_at_gives_every_entry_the_client_axis(self, case):
        model, _ = case
        tree = model.get_params()
        block = np.stack([model.flat_params[0] + i for i in range(3)])
        grads = np.zeros_like(block)
        model.point_at(block, grads)
        assert model.flat_params is block and model.num_clients == 3
        spec = ParamSpec.from_tree(tree)
        for name, shape, off in zip(spec.names, spec.shapes, spec.offsets):
            for root, a in ((block, model.params[name]), (grads, model.grads[name])):
                assert a.shape == (3,) + shape and np.shares_memory(a, root)
                assert _addr(a) == _addr(root) + off * root.itemsize
            for i in range(3):
                np.testing.assert_array_equal(model.params[name][i], tree[name] + i)

    def test_stacked_pass_is_each_clients_pass(self, case):
        """Three clients' batches through one pass of a three-row arena give
        each client the bits of its own one-row pass."""
        model, shape = case
        if model.buffers:  # batch statistics are per client: one row only
            model.point_at(np.zeros((2, model.num_params)), np.zeros((2, model.num_params)))
            with pytest.raises(ValueError, match="one client"):
                model.forward(np.ones((2 * shape[0],) + shape[1:]))
            return
        rng = np.random.default_rng(2)
        block = model.flat_params[0] + rng.normal(scale=0.1, size=(3, model.num_params))
        x = rng.normal(size=(3 * shape[0],) + shape[1:])
        one = []
        for i in range(3):
            model.point_at(block[i:i + 1].copy(), np.zeros((1, model.num_params)))
            out = model.forward(x[i * shape[0]:(i + 1) * shape[0]], train=True)
            dx = model.backward(np.ones_like(out))
            one.append((out, dx, model.flat_grads[0].copy()))
        model.point_at(block, np.zeros_like(block))
        out = model.forward(x, train=True)
        dx = model.backward(np.ones_like(out))
        n = shape[0]
        for i, (o, d, g) in enumerate(one):
            np.testing.assert_array_equal(out[i * n:(i + 1) * n], o)
            np.testing.assert_array_equal(dx[i * n:(i + 1) * n], d)
            np.testing.assert_array_equal(model.flat_grads[i], g)

    def test_views_give_the_same_bits_as_standalone_arrays(self, case):
        """BLAS and numpy reductions see offset views exactly like fresh arrays."""
        model, shape = case
        bound = _pass(model, shape)
        for leaf in _leaves(model):
            for k in leaf.params:
                leaf.params[k] = leaf.params[k].copy()
                leaf.grads[k] = np.zeros_like(leaf.grads[k])
                assert leaf.params[k].base is None and leaf.grads[k].base is None
        fresh = _pass(model, shape)
        np.testing.assert_array_equal(bound[0], fresh[0])
        np.testing.assert_array_equal(bound[1], fresh[1])
        assert len(bound[2]) == len(fresh[2])
        for a, b in zip(bound[2], fresh[2]):
            np.testing.assert_array_equal(a, b)


def _dense_layernorm():
    rng = np.random.default_rng(0)
    return Sequential(Dense(6, 5, rng), LayerNorm(5), ReLU(), Dense(5, 3, rng))


# name -> (factory, input shape, classes); models with buffers train one row
WRITE_CASES = {
    "linear": (lambda: make_linear(6, 3, seed=0), (4, 6), 3),
    "mlp": (lambda: make_mlp(6, 3, hidden=(5, 4), seed=0), (4, 6), 3),
    "resnet-micro-group": (
        lambda: make_resnet_lite(3, 8, 4, depth="micro", width=4, seed=0), _IMG, 4
    ),
    "resnet-18-group": (lambda: make_resnet_lite(3, 8, 4, depth="18", width=4, seed=0), _IMG, 4),
    "resnet-micro-batch": (
        lambda: make_resnet_lite(3, 8, 4, depth="micro", width=4, seed=0, norm="batch"), _IMG, 4
    ),
    "dense-layernorm": (_dense_layernorm, (4, 6), 3),
}
WRITE_GRID = [
    (name, rows)
    for name in WRITE_CASES
    for rows in ((1,) if name.endswith("batch") else (1, 3))
]


class TestWriteContract:
    """A pass writes every gradient entry and adds to none: started from a
    block of NaN it leaves the bits it leaves when started from zeros."""

    @staticmethod
    def _grads_after(name, rows, entry, fill):
        factory, shape, classes = WRITE_CASES[name]
        model = factory()
        rng = np.random.default_rng(3)
        block = model.flat_params[0] + rng.normal(scale=0.1, size=(rows, model.num_params))
        grads = np.full_like(block, fill)
        model.point_at(block, grads)
        x = rng.normal(size=(rows * shape[0],) + shape[1:])
        if entry == "forward_backward":
            y = rng.integers(0, classes, size=(rows, shape[0]))
            forward_backward(model, x, y, CrossEntropyLoss())
        else:
            out = model.forward(x, train=True)
            getattr(model, entry)(rng.normal(size=out.shape))
        assert model.flat_grads is grads
        return grads

    @pytest.mark.parametrize("entry", ["backward", "backward_params", "forward_backward"])
    @pytest.mark.parametrize("name,rows", WRITE_GRID)
    def test_pass_overwrites_a_nan_block(self, name, rows, entry):
        written = self._grads_after(name, rows, entry, np.nan)
        assert np.isfinite(written).all()
        np.testing.assert_array_equal(written, self._grads_after(name, rows, entry, 0.0))

    @pytest.mark.parametrize("name,rows", WRITE_GRID)
    def test_backward_params_writes_backwards_gradient(self, name, rows):
        """Skipping the data's input gradient changes no parameter gradient."""
        np.testing.assert_array_equal(
            self._grads_after(name, rows, "backward_params", 0.0),
            self._grads_after(name, rows, "backward", 0.0),
        )

    @pytest.mark.parametrize("name", ["dense", "conv2d", "resnet-micro-group"])
    def test_backward_params_needs_a_train_forward(self, name):
        model, shape = CASES[name][0](), CASES[name][1]
        out = model.forward(np.ones(shape), train=False)
        with pytest.raises(RuntimeError, match="before forward"):
            model.backward_params(np.ones_like(out))


@pytest.fixture(scope="module")
def ds():
    return load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.2, beta=0.3, num_clients=4, seed=0, scale=0.2
    )


class TestContext:
    def _ctx(self, ds):
        return SimulationContext(make_mlp(32, 10, seed=0), ds, FLConfig(seed=1))

    def test_load_params_copies_into_the_arena_not_x0(self, ds):
        ctx = self._ctx(ds)
        arena, x0 = ctx.model.flat_params, ctx.x0.copy()
        ctx.load_params(x0 + 1.0)
        assert ctx.model.flat_params is arena
        np.testing.assert_array_equal(arena[0], x0 + 1.0)
        np.testing.assert_array_equal(ctx.x0, x0)

    def test_load_params_points_the_model_back_at_its_arena(self, ds):
        ctx = self._ctx(ds)
        arena = ctx.model.flat_params
        block = np.zeros((3, ctx.dim))
        ctx.model.point_at(block, np.zeros_like(block))  # as a cohort leaves it
        ctx.load_params(ctx.x0)
        assert ctx.model.flat_params is arena and ctx.model.num_clients == 1
        assert not np.any(block)

    def test_flat_gradient_is_the_live_gradient_vector(self, ds):
        ctx = self._ctx(ds)
        g = ctx.flat_gradient()
        assert g.shape == (ctx.dim,) and g.base is ctx.model.flat_grads

    @pytest.mark.parametrize(
        "shape_of",
        [lambda d: (d + 5,), lambda d: (d, 1), lambda d: (1,), lambda d: ()],
        ids=["long", "column", "one", "scalar"],
    )
    def test_load_params_rejects_wrong_shape(self, ds, shape_of):
        ctx = self._ctx(ds)
        shape = shape_of(ctx.dim)
        before = ctx.model.flat_params.copy()
        with pytest.raises(ValueError) as err:
            ctx.load_params(np.ones(shape))
        assert str(shape) in str(err.value) and f"({ctx.dim},)" in str(err.value)
        np.testing.assert_array_equal(ctx.model.flat_params, before)

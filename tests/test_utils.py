"""Unit + property tests for repro.utils (rng, pytree, validation)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    as_generator,
    check_fraction,
    check_in_range,
    check_positive,
    check_probability_vector,
    flatten_params,
    num_params,
    spawn,
    split,
    tree_add,
    tree_scale,
    unflatten_params,
)
from repro.runtime import LognormalLatency
from repro.simulation import FLConfig
from repro.utils import rng as rng_mod
from repro.utils.rng import NORMAL_BLOCK, WORD_BLOCK, KeyedNormals, keyed_integer, keyed_rng


class TestRng:
    def test_as_generator_from_int(self):
        g1 = as_generator(42)
        g2 = as_generator(42)
        assert g1.random() == g2.random()

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_independence(self):
        children = spawn(np.random.default_rng(0), 5)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 5

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(np.random.default_rng(0), -1)

    def test_split(self):
        a, b = split(np.random.default_rng(0))
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        d1 = [g.random() for g in spawn(np.random.default_rng(7), 3)]
        d2 = [g.random() for g in spawn(np.random.default_rng(7), 3)]
        assert d1 == d2

    @pytest.mark.parametrize("key", [
        (0, 0xC1, 3, 99_999),
        (7,),
        (2**32 - 1, 0),
        (2**32 + 5, 1),
        (np.int64(2**32 + 5), 1),  # must not wrap to (5, 1)'s stream
        (np.uint64(2**63), np.int32(2)),
        (np.int64(3), np.uint8(4), True),
        (-1, 1),
        (np.int64(-1), 1),  # must raise, not wrap to 2**32 - 1
        (1.0, 2),
    ])
    def test_keyed_rng_is_default_rng(self, key):
        """NumPy or Python ints, in the uint32 range or not: exactly
        ``default_rng(key)``'s stream, or the error it raises."""
        try:
            want = np.random.default_rng(key).integers(2**62, size=8)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                keyed_rng(*key)
        else:
            np.testing.assert_array_equal(keyed_rng(*key).integers(2**62, size=8), want)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), tag=st.integers(0, 2**32 - 1),
           block=st.integers(0, 2**32 // WORD_BLOCK - 1))
    def test_keyed_words_are_first_outputs(self, seed, tag, block):
        """The vectorized block is each stream's first 64-bit output."""
        start = block * WORD_BLOCK
        assert rng_mod._word_block(seed, tag, block) == tuple(
            keyed_rng(seed, tag, i).bit_generator.random_raw()
            for i in range(start, start + WORD_BLOCK))

    @pytest.mark.parametrize(
        "n", [1, 2, 99_744, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32 + 7])
    def test_keyed_integer_is_integers(self, monkeypatch, n):
        """``integers(n)``'s first draw, whether read off the word or, on
        NumPy's rejection and for ``n >= 2**32``, from the generator."""
        built = []

        def counting(*key):
            built.append(key)
            return keyed_rng(*key)

        monkeypatch.setattr(rng_mod, "keyed_rng", counting)

        @settings(max_examples=5)
        @given(seed=st.integers(0, 2**32 - 1), tag=st.integers(0, 2**32 - 1),
               start=st.integers(0, 2**32 - 64))
        def check(seed, tag, start):
            for i in range(start, start + 64):
                assert keyed_integer(n, seed, tag, i) == int(
                    keyed_rng(seed, tag, i).integers(n)), (seed, tag, i)

        check()
        if n in (2**31 + 1, 3 * 2**30, 2**32 + 7):
            # NumPy rejects ~1/2 and ~1/4 of the first two's words
            assert built
        elif n <= 2:
            assert not built

    @pytest.mark.parametrize("key", [
        (-1, 0xA7, 5), (0, -1, 5), (0, 0xA7, -1), (np.int64(-1), 0xA7, 5),
        (2**32, 0xA7, 5), (0, 2**32 + 3, 5), (0, 0xA7, 2**32),
        (np.uint64(2**40), np.int32(0xA7), np.int64(9)),
    ])
    def test_keys_outside_uint32_are_keyed_rng(self, key):
        """Any other key gives what ``keyed_rng`` gives, error included."""
        try:
            want = int(keyed_rng(*key).integers(1000))
        except ValueError:
            with pytest.raises(ValueError):
                keyed_integer(1000, *key)
        else:
            assert keyed_integer(1000, *key) == want

    @pytest.mark.parametrize("args", [
        (10, 1.5, 0xA7, 0), (10, 0, 0xA7, 2.0), (2.5, 0, 0xA7, 0)])
    def test_keyed_integer_refuses_non_integers(self, args):
        # the kernel's uint32 lanes would truncate 1.5 into seed 1's stream
        with pytest.raises(TypeError):
            keyed_integer(*args)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), tag=st.integers(0, 2**32 - 1),
           ids=st.lists(st.integers(0, 2**32 - 1), max_size=6))
    def test_keyed_normals_are_standard_normal(self, seed, tag, ids):
        """Each draw is its stream's first ``standard_normal()``, at block
        edges too, with two drawers' draws interleaved."""
        edges = [0, NORMAL_BLOCK - 1, NORMAL_BLOCK, 2**32 - 1]
        mine, theirs = KeyedNormals(seed, tag), KeyedNormals(tag, seed)
        for i in ids + edges + ids:
            assert mine(i) == keyed_rng(seed, tag, i).standard_normal(), i
            assert theirs(i) == keyed_rng(tag, seed, i).standard_normal(), i

    def test_keyed_normals_follow_ziggurat_rejections(self):
        """A draw NumPy's ziggurat rejects reads on into the stream, on the
        drawer's generator as on the built one."""
        normals, rejected = KeyedNormals(0, 0x5E), 0
        for i in range(2 * NORMAL_BLOCK - 300, 2 * NORMAL_BLOCK + 300):
            gen = keyed_rng(0, 0x5E, i)
            assert normals(i) == gen.standard_normal(), i
            one = keyed_rng(0, 0x5E, i).bit_generator
            one.random_raw()
            rejected += gen.bit_generator.state != one.state
        assert rejected

    @pytest.mark.parametrize("key", [
        (-1, 0x5E, 5), (0, -1, 5), (0, 0x5E, -1), (np.int64(-1), 0x5E, 5),
        (2**32, 0x5E, 5), (0, 2**32 + 3, 5), (0, 0x5E, 2**32),
        (np.uint64(2**40), np.int32(0x5E), np.int64(9)), (1.0, 0x5E, 5),
    ])
    def test_keyed_normals_outside_uint32_are_keyed_rng(self, key):
        """Any other key gives what ``keyed_rng`` gives, error included."""
        seed, tag, i = key
        try:
            want = keyed_rng(*key).standard_normal()
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                KeyedNormals(seed, tag)(i)
        else:
            assert KeyedNormals(seed, tag)(i) == want

    def test_rebound_lognormal_draws_that_seeds_speeds(self):
        model = LognormalLatency(sigma=0.5, jitter=0.0)
        ids = [0, 3, NORMAL_BLOCK - 1, NORMAL_BLOCK, 4999]
        for seed in (0, 7, 0):
            model.bind(SimpleNamespace(config=FLConfig(seed=seed), dim=8,
                                       client_sizes=lambda: np.full(5000, 20)))
            assert [model.factor(c, 0) for c in ids] == [
                math.exp(0.5 * keyed_rng(seed, 0x5E, c).standard_normal())
                for c in ids]


class TestPytree:
    def _tree(self, rng):
        return {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(5,)),
            "c": rng.normal(size=(2, 2, 2)),
        }

    def test_roundtrip(self):
        tree = self._tree(np.random.default_rng(0))
        flat, spec = flatten_params(tree)
        back = unflatten_params(flat, spec)
        for k in tree:
            np.testing.assert_array_equal(tree[k], back[k])

    def test_spec_size(self):
        tree = self._tree(np.random.default_rng(0))
        _, spec = flatten_params(tree)
        assert spec.size == 12 + 5 + 8 == num_params(tree)

    def test_unflatten_views_share_memory(self):
        tree = self._tree(np.random.default_rng(0))
        flat, spec = flatten_params(tree)
        back = unflatten_params(flat, spec)
        flat[0] = 123.0
        assert back["a"].reshape(-1)[0] == 123.0

    def test_flatten_into_preallocated(self):
        tree = self._tree(np.random.default_rng(0))
        _, spec = flatten_params(tree)
        out = np.empty(spec.size)
        flat, _ = flatten_params(tree, spec=spec, out=out)
        assert flat is out

    def test_flatten_wrong_out_shape_raises(self):
        tree = self._tree(np.random.default_rng(0))
        _, spec = flatten_params(tree)
        with pytest.raises(ValueError):
            flatten_params(tree, spec=spec, out=np.empty(spec.size + 1))

    def test_unflatten_wrong_size_raises(self):
        tree = self._tree(np.random.default_rng(0))
        _, spec = flatten_params(tree)
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(spec.size - 1), spec)

    def test_tree_add_and_scale(self):
        t = {"a": np.array([1.0, 2.0])}
        s = tree_add(t, tree_scale(t, 2.0))
        np.testing.assert_array_equal(s["a"], [3.0, 6.0])

    def test_tree_add_key_mismatch(self):
        with pytest.raises(KeyError):
            tree_add({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_spec_slices(self):
        tree = self._tree(np.random.default_rng(0))
        flat, spec = flatten_params(tree)
        slices = spec.slices()
        np.testing.assert_array_equal(flat[slices["b"]], tree["b"])

    @settings(max_examples=25, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
        )
    )
    def test_roundtrip_property(self, shapes):
        rng = np.random.default_rng(0)
        tree = {f"p{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
        flat, spec = flatten_params(tree)
        back = unflatten_params(flat.copy(), spec)
        for k in tree:
            np.testing.assert_array_equal(tree[k], back[k])


class TestValidation:
    def test_probability_vector_ok(self):
        p = check_probability_vector(np.array([0.2, 0.8]))
        assert np.isclose(p.sum(), 1.0)

    @pytest.mark.parametrize(
        "bad",
        [np.array([0.5, 0.6]), np.array([-0.1, 1.1]), np.zeros(0), np.ones((2, 2)) / 4],
        ids=["not-sum-1", "negative", "empty", "2d"],
    )
    def test_probability_vector_bad(self, bad):
        with pytest.raises(ValueError):
            check_probability_vector(bad)

    def test_check_positive(self):
        assert check_positive(1.5) == 1.5
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(bad)

    def test_check_in_range(self):
        assert check_in_range(0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            check_in_range(1.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range(0.0, 0, 1, inclusive=False)

    def test_check_fraction(self):
        assert check_fraction(1.0) == 1.0
        for bad in (0.0, 1.2, -0.5):
            with pytest.raises(ValueError):
                check_fraction(bad)

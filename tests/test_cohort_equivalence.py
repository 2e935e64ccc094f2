"""Cohort local SGD == the per-client loop it replaced, bit for bit.

A fixture matrix in the shape of an implementation-variant conftest:
method x model x cohort size x data layout.  Every cell trains one cohort
through ``client_updates`` (one lockstep computation) and the same jobs one
client at a time through the oracle in ``tests/_per_client_sgd.py``, from
identical method state, and demands ``array_equal`` on displacements, step
counts, training losses, update extras and packed client state.  Job lists
that ``execute_jobs`` must cut into several cohorts get the same pin, and a
spy shows a cohort builds no stream for a one-sample client.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from _per_client_sgd import client_update as per_client_update
from repro.algorithms import make_method
from repro.algorithms.async_fl import AsyncAdapter, FedBuff
from repro.algorithms.scaffold import Scaffold
from repro.data.registry import DatasetInfo, FederatedDataset
from repro.nn import make_linear, make_mlp, make_resnet_lite
from repro.parallel import BroadcastStore, ClientJob, execute_jobs, resolve_job_refs
from repro.parallel import backend as backend_mod
from repro.simulation import FLConfig
from repro.simulation.context import SimulationContext

CLASSES = 4
# client sizes: "even" cuts every epoch into whole batches of 5; "ragged"
# adds a one-sample client, remainder batches and a client with twice the
# batches of the others; "scattered" deals ragged's sizes out of shuffled
# rows, so each client's rows are unordered and interleaved with the
# others', as a Dirichlet partition's are
LAYOUTS = {
    "even": [10, 10, 10, 10, 10, 10],
    "ragged": [1, 13, 7, 26, 9, 4],
    "scattered": [1, 13, 7, 26, 9, 4],
}
MODELS = {
    "linear": ((12,), lambda: make_linear(12, CLASSES, seed=0)),
    "mlp": ((12,), lambda: make_mlp(12, CLASSES, hidden=(8, 6), seed=0)),
    "resnet-micro-group": (
        (3, 8, 8), lambda: make_resnet_lite(3, 8, CLASSES, depth="micro", width=2, seed=0)
    ),
    "resnet-micro-batch": (
        (3, 8, 8),
        lambda: make_resnet_lite(3, 8, CLASSES, depth="micro", width=2, seed=0, norm="batch"),
    ),
}
METHODS = [
    "fedavg", "fedprox", "fedcm", "fedcm+focal", "fedcm+balance_loss", "fedcm+balance_sampler",
    "fedwcm", "fedwcm-x",
    "scaffold", "feddyn", "fedsam", "mofedsam", "fedspeed", "fedsmoo", "fedlesam", "fedasync",
    "fedbuff+scaffold",
]


def _dataset(layout: str, shape: tuple) -> FederatedDataset:
    sizes = LAYOUTS[layout]
    rng = np.random.default_rng(7)
    n = sum(sizes)
    bounds = np.cumsum([0] + sizes)
    rows = np.random.default_rng(13).permutation(n) if layout == "scattered" else np.arange(n)
    info = DatasetInfo(
        name=f"cohort-{layout}", num_classes=CLASSES, shape=shape, n_max_train=max(sizes),
        n_test_per_class=2, separation=1.0, noise=1.0,
    )
    return FederatedDataset(
        info=info,
        x_train=rng.normal(size=(n,) + shape),
        y_train=rng.integers(0, CLASSES, size=n),
        x_test=rng.normal(size=(8,) + shape),
        y_test=rng.integers(0, CLASSES, size=8),
        partitions=[rows[bounds[i]:bounds[i + 1]] for i in range(len(sizes))],
        imbalance_factor=1.0, beta=1.0, partition_kind="explicit",
    )


def _method(name: str):
    if name == "fedbuff+scaffold":
        return AsyncAdapter(Scaffold(), FedBuff(buffer_size=2)), None, None
    bundle = make_method(name)
    return bundle.algorithm, bundle.loss_builder, bundle.sampler_builder


def _stir(algo, ctx, rng) -> None:
    """Move every piece of method state off its zero initial value, so the
    momentum, control-variate and dual terms all enter the local steps."""
    algo = getattr(algo, "base", algo)
    dim = ctx.dim
    for attr in ("_delta", "_c", "_mu"):
        if getattr(algo, attr, None) is not None:
            setattr(algo, attr, rng.normal(scale=0.05, size=dim))
    for attr in ("_ci", "_hi"):
        if getattr(algo, attr, None) is not None:
            getattr(algo, attr)[:] = rng.normal(scale=0.05, size=(ctx.num_clients, dim))
    if getattr(algo, "momentum", None) is not None:
        algo.momentum.delta = rng.normal(scale=0.05, size=dim)
        algo.momentum.set_alpha(0.3)
    if getattr(algo, "_x_prev", None) is not None:
        algo._x_prev = ctx.x0 + rng.normal(scale=0.05, size=dim)


def _problem(method: str, model: str, layout: str):
    """Two identical ``(ctx, algorithm)`` pairs, method state stirred."""
    shape, build = MODELS[model]
    ds = _dataset(layout, shape)
    cfg = FLConfig(rounds=3, batch_size=5, local_epochs=2, lr_local=0.05, seed=3)
    pairs = []
    for _ in range(2):
        algo, loss_b, sampler_b = _method(method)
        ctx = SimulationContext(build(), ds, cfg, loss_builder=loss_b, sampler_builder=sampler_b)
        algo.setup(ctx)
        _stir(algo, ctx, np.random.default_rng(11))
        pairs.append((ctx, algo))
    return pairs


def _jobs(ctx, clients, rng):
    """Jobs with per-client round keys and broadcast vectors, as async
    dispatches carry them."""
    return [
        (int(r), int(k), ctx.x0 + rng.normal(scale=0.01, size=ctx.dim))
        for r, k in zip(rng.integers(0, 3, size=len(clients)), clients)
    ]


def _assert_same_update(got, want):
    assert got.client_id == want.client_id
    assert got.n_samples == want.n_samples and got.n_batches == want.n_batches
    np.testing.assert_array_equal(got.displacement, want.displacement)
    assert got.extras.keys() == want.extras.keys()
    for key, value in want.extras.items():
        np.testing.assert_array_equal(got.extras[key], value, err_msg=key)


def _assert_same_state(algo_a, algo_b, clients):
    for k in clients:
        a, b = algo_a.pack_client_state(k), algo_b.pack_client_state(k)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key], err_msg=f"client {k} {key}")


@pytest.fixture(params=METHODS)
def method(request):
    return request.param


@pytest.fixture(params=sorted(LAYOUTS))
def layout(request):
    return request.param


@pytest.mark.parametrize("cohort", [1, 2, 5])
@pytest.mark.parametrize("model", ["linear", "mlp", "resnet-micro-group"])
def test_cohort_matches_per_client(method, model, cohort, layout):
    (ctx, algo), (ref_ctx, ref_algo) = _problem(method, model, layout)
    clients = [3, 0, 5, 1, 2][:cohort]
    jobs = _jobs(ctx, clients, np.random.default_rng(cohort))
    got = algo.client_updates(ctx, jobs)
    want = [per_client_update(ref_algo, ref_ctx, r, k, x) for r, k, x in jobs]
    for g, w in zip(got, want):
        _assert_same_update(g, w)
    _assert_same_state(algo, ref_algo, clients)


def test_batchnorm_runs_one_client_per_cohort(method, layout):
    """A model with buffers trains one job at a time through the same loop;
    a job list splits at every job."""
    (ctx, algo), (ref_ctx, ref_algo) = _problem(method, "resnet-micro-batch", layout)
    clients = [3, 0, 5]
    rng = np.random.default_rng(4)
    triples = _jobs(ctx, clients, rng)
    buffers = ctx.model.get_buffers(copy=True)
    jobs = [ClientJob(r, k, x, buffers=buffers) for r, k, x in triples]
    got = execute_jobs(ctx, algo, jobs)
    for (r, k, x), res in zip(triples, got):
        ref_ctx.model.set_buffers(buffers)
        want = per_client_update(ref_algo, ref_ctx, r, k, x)
        _assert_same_update(res.update, want)
        for name, value in ref_ctx.model.get_buffers().items():
            np.testing.assert_array_equal(res.buffers[name], value, err_msg=name)
    _assert_same_state(algo, ref_algo, clients)


def _count_cohorts(monkeypatch) -> list[int]:
    sizes: list[int] = []
    real = backend_mod.execute_job

    def spy(ctx, algorithm, *jobs):
        sizes.append(len(jobs))
        return real(ctx, algorithm, *jobs)

    monkeypatch.setattr(backend_mod, "execute_job", spy)
    return sizes


@pytest.mark.parametrize("method, built", [
    ("fedavg", [3, 5, 1, 2]),  # client 0 holds one sample: no stream
    ("fedcm+balance_sampler", [3, 0, 5, 1, 2]),  # resampling one sample draws
])
def test_streams_built_only_where_the_sampler_draws(monkeypatch, method, built):
    """A cohort builds a client's stream only when its sampler reads it; the
    ``array_equal`` pins above show the batches are unchanged."""
    assert LAYOUTS["ragged"][0] == 1
    (ctx, algo), _ = _problem(method, "linear", "ragged")
    calls: list[int] = []
    real = SimulationContext.client_rng

    def spy(self, round_idx, client_id):
        calls.append(client_id)
        return real(self, round_idx, client_id)

    monkeypatch.setattr(SimulationContext, "client_rng", spy)
    algo.client_updates(ctx, _jobs(ctx, [3, 0, 5, 1, 2], np.random.default_rng(5)))
    assert calls == built


def test_job_list_with_a_repeated_client(monkeypatch):
    """The second job of a client runs from the state the first committed,
    exactly as one job at a time; the list cuts before the repeat."""
    (ctx, algo), (ref_ctx, ref_algo) = _problem("scaffold", "mlp", "ragged")
    rng = np.random.default_rng(5)
    triples = _jobs(ctx, [1, 3, 1, 4], rng)
    jobs = [ClientJob(r, k, x) for r, k, x in triples]
    sizes = _count_cohorts(monkeypatch)
    got = execute_jobs(ctx, algo, jobs)
    assert sizes == [2, 2]
    for (r, k, x), res in zip(triples, got):
        _assert_same_update(res.update, per_client_update(ref_algo, ref_ctx, r, k, x))
    _assert_same_state(algo, ref_algo, [1, 3, 4])


def test_job_list_with_mixed_broadcast_states(monkeypatch):
    """Jobs carrying different broadcast snapshots (async dispatches over a
    moving server) cut into cohorts that each unpack their own."""
    (ctx, algo), (ref_ctx, ref_algo) = _problem("fedcm", "mlp", "ragged")
    rng = np.random.default_rng(6)
    first = algo.pack_broadcast_state()
    second = {"delta": rng.normal(scale=0.05, size=ctx.dim), "alpha": np.float64(0.1)}
    triples = _jobs(ctx, [0, 2, 3, 5], rng)
    states = [first, first, second, first]
    jobs = [ClientJob(r, k, x, broadcast_state=b) for (r, k, x), b in zip(triples, states)]
    sizes = _count_cohorts(monkeypatch)
    got = execute_jobs(ctx, algo, jobs)
    assert sizes == [2, 1, 1]
    for (r, k, x), b, res in zip(triples, states, got):
        ref_algo.unpack_broadcast_state(copy.deepcopy(b))
        _assert_same_update(res.update, per_client_update(ref_algo, ref_ctx, r, k, x))


def test_shared_memory_jobs_of_one_state_stack(monkeypatch):
    """A pool worker resolves each job's shared-memory refs into a dict of
    its own; jobs of one broadcast state still stack, and a job of another
    state cuts the list."""
    (ctx, algo), (ref_ctx, ref_algo) = _problem("fedcm", "mlp", "ragged")
    rng = np.random.default_rng(9)
    first = algo.pack_broadcast_state()
    second = {"delta": rng.normal(scale=0.05, size=ctx.dim), "alpha": np.float64(0.1)}
    triples = _jobs(ctx, [0, 2, 3, 5], rng)
    states = [first, first, first, second]
    sizes = _count_cohorts(monkeypatch)
    with BroadcastStore() as store:
        packed = [
            store.pack_job(ClientJob(r, k, x, broadcast_state=b))[0]
            for (r, k, x), b in zip(triples, states)
        ]
        # one pool task: the chunk pickled as one payload, each job resolved
        jobs = [resolve_job_refs(job) for job in pickle.loads(pickle.dumps(packed))]
        assert jobs[0].broadcast_state is not jobs[1].broadcast_state
        got = execute_jobs(ctx, algo, jobs)
    assert sizes == [3, 1]
    for (r, k, x), b, res in zip(triples, states, got):
        ref_algo.unpack_broadcast_state(copy.deepcopy(b))
        _assert_same_update(res.update, per_client_update(ref_algo, ref_ctx, r, k, x))


def test_job_state_rides_the_contract():
    """Packed client state in, trained state out: a stateful method's job
    list equals the oracle run from the same packed state."""
    (ctx, algo), (ref_ctx, ref_algo) = _problem("feddyn", "linear", "ragged")
    rng = np.random.default_rng(8)
    triples = _jobs(ctx, [4, 2, 0], rng)
    jobs = [ClientJob(r, k, x, client_state=algo.pack_client_state(k)) for r, k, x in triples]
    got = execute_jobs(ctx, algo, jobs)
    for (r, k, x), res in zip(triples, got):
        _assert_same_update(res.update, per_client_update(ref_algo, ref_ctx, r, k, x))
        np.testing.assert_array_equal(res.new_state["hi"], ref_algo.pack_client_state(k)["hi"])
        assert res.train_loss == res.update.extras["train_loss"]


def test_client_update_overrides_are_refused():
    """Executors call client_updates, so a LocalSGDMixin method overriding
    only client_update would be bypassed; such a class is refused."""
    from repro.algorithms import FedAvg

    with pytest.raises(TypeError, match="client_updates"):
        type("Custom", (FedAvg,), {"client_update": lambda self, *a: None})


def test_sam_perturbs_only_rows_with_a_gradient():
    """The ``norm > 1e-12`` branch is taken per row: a row whose ascent
    direction vanishes keeps its gradient, and the perturbed evaluation
    sees only the other rows' parameters and batches."""
    from repro.algorithms.fedsam import perturbed_gradient

    calls = []

    class Probe:
        def _plain_gradient(self, ctx, x, xb, yb, loss):
            calls.append((x.copy(), xb.copy(), yb.copy(), loss))
            return np.full_like(x, 7.0)

    x = np.arange(12.0).reshape(3, 4)
    g = np.array([[3.0, 4.0, 0.0, 0.0], [0.0] * 4, [0.0, 0.0, 6.0, 8.0]])
    xb = np.arange(12.0).reshape(6, 2)  # three rows of two samples
    yb = np.array([[0, 1], [2, 3], [4, 5]])
    losses = ["a", "b", "c"]
    out = perturbed_gradient(Probe(), None, xb, yb, losses, x, g.copy(), g, 0.5)
    np.testing.assert_array_equal(out[1], g[1])
    np.testing.assert_array_equal(out[[0, 2]], 7.0)
    ((x_adv, xb_hot, yb_hot, loss_hot),) = calls
    np.testing.assert_array_equal(x_adv[0], x[0] + 0.5 * g[0] / 5.0)
    np.testing.assert_array_equal(x_adv[1], x[2] + 0.5 * g[2] / 10.0)
    np.testing.assert_array_equal(xb_hot, xb[[0, 1, 4, 5]])
    np.testing.assert_array_equal(yb_hot, yb[[0, 2]])
    assert loss_hot == ["a", "c"]

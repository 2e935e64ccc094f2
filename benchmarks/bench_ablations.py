"""Ablations of FedWCM's design decisions.

Not a paper table — these benches justify the reproduction's engineering
choices and isolate each FedWCM mechanism:

* adaptive alpha vs fixed alpha (the Eq. 5 mechanism),
* temperature-softmax weighting vs uniform weights (the Eq. 4 mechanism),
* signed vs literal-|.| scarcity scores (the Eq. 3 ambiguity),
* GroupNorm vs BatchNorm backbones (the library's normalisation default).
"""

from __future__ import annotations

from _harness import RunSpec, format_table, report, sweep

BASE = dict(
    dataset="fashion-mnist-lite",
    imbalance_factor=0.1,
    beta=0.1,
    rounds=24,
    eval_every=8,
)


def bench_ablation_adaptive_alpha(benchmark):
    specs = [
        RunSpec(method="fedwcm", **BASE),
        RunSpec(method="fedwcm", method_kwargs=(("adaptive", False),), **BASE),
        RunSpec(method="fedcm", **BASE),
    ]
    results = benchmark.pedantic(lambda: sweep(specs), rounds=1, iterations=1)
    names = ("fedwcm (adaptive)", "fedwcm (fixed alpha=0.1)", "fedcm")
    rows = [[n, r["tail"], r["best"]] for n, r in zip(names, results)]
    text = format_table(
        "Ablation — adaptive vs fixed momentum coefficient (IF=0.1, beta=0.1)",
        ["variant", "tail_acc", "best_acc"],
        rows,
    )
    alphas = results[0]["alpha_series"]
    if alphas:
        text += f"\n\nadaptive alpha range: [{min(alphas):.3f}, {max(alphas):.3f}]"
    report("ablation_adaptive_alpha", text)

    by = dict(zip(names, (r["tail"] for r in results)))
    assert by["fedwcm (adaptive)"] >= by["fedcm"] - 0.03
    # under the long tail, the adaptive alpha must actually move off 0.1
    assert alphas and max(alphas) > 0.2


def bench_ablation_temperature(benchmark):
    # t_scale sweep: smaller scale = sharper weights
    specs = [
        RunSpec(method="fedwcm", method_kwargs=(("t_scale", t),), **BASE)
        for t in (0.25, 1.0, 4.0)
    ] + [RunSpec(method="fedcm", **BASE)]
    results = benchmark.pedantic(lambda: sweep(specs), rounds=1, iterations=1)
    rows = [
        ["t_scale=0.25", results[0]["tail"]],
        ["t_scale=1.0 (default)", results[1]["tail"]],
        ["t_scale=4.0", results[2]["tail"]],
        ["fedcm (uniform weights)", results[3]["tail"]],
    ]
    text = format_table(
        "Ablation — temperature scale of the Eq. 4 softmax weights",
        ["variant", "tail_acc"],
        rows,
    )
    report("ablation_temperature", text)
    # weighting should not be catastrophically sensitive to t_scale
    accs = [r["tail"] for r in results[:3]]
    assert max(accs) - min(accs) < 0.25


def bench_ablation_score_mode(benchmark):
    specs = [
        RunSpec(method="fedwcm", method_kwargs=(("score_mode", mode),), **BASE)
        for mode in ("signed", "abs")
    ]
    results = benchmark.pedantic(lambda: sweep(specs), rounds=1, iterations=1)
    rows = [
        ["signed (paper semantics)", results[0]["tail"]],
        ["abs (literal Eq. 3)", results[1]["tail"]],
    ]
    text = format_table(
        "Ablation — scarcity-score mode (see repro.core.scoring docstring)",
        ["variant", "tail_acc"],
        rows,
    )
    report("ablation_score_mode", text)
    # the signed scores (which match the paper's stated semantics) must not
    # be worse than the literal formula
    assert results[0]["tail"] >= results[1]["tail"] - 0.05


def bench_ablation_norm(benchmark):
    """GroupNorm vs BatchNorm conv backbones under the long tail."""
    import numpy as np

    from repro.algorithms import make_method
    from repro.data import load_federated_dataset
    from repro.nn import make_resnet_lite
    from repro.simulation import FLConfig, FederatedSimulation

    def run(norm: str) -> float:
        ds = load_federated_dataset(
            "cifar10-lite", imbalance_factor=0.1, beta=0.1, num_clients=20, seed=0
        )
        model = make_resnet_lite(3, 8, 10, depth="micro", width=4, seed=0, norm=norm)
        bundle = make_method("fedwcm")
        cfg = FLConfig(rounds=10, batch_size=25, participation=0.25, local_epochs=3,
                       eval_every=5, seed=0)
        sim = FederatedSimulation(bundle.algorithm, model, ds, cfg)
        return sim.run().tail_accuracy(2)

    results = benchmark.pedantic(
        lambda: {n: run(n) for n in ("group", "batch")}, rounds=1, iterations=1
    )
    rows = [[n, a] for n, a in results.items()]
    text = format_table(
        "Ablation — normalisation layer in the conv backbone (FedWCM)",
        ["norm", "tail_acc"],
        rows,
    )
    report("ablation_norm", text)
    assert all(np.isfinite(a) for a in results.values())

"""Extending the framework with a custom federated algorithm.

The algorithm protocol is three methods (setup / client_updates / aggregate).
The base class's ``aggregate`` is FedAvg's step over an
``aggregation_weights`` hook, and FedCM's adds the momentum rule over
``pseudo_gradients`` and ``next_alpha``, so a new server rule is usually one
hook.  The ``LocalSGDMixin`` gives you the inner loop, run for a whole cohort
at once, with a pluggable per-step ``direction_fn``.  This example implements
**FedWCM-Prox** — FedWCM's weighted momentum plus a FedProx-style proximal
anchor — by overriding only the local rule, and races it against its two
parents.

    python examples/custom_algorithm_plugin.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import FedWCM, make_method
from repro.algorithms.base import ClientUpdate
from repro.data import load_federated_dataset
from repro.nn import make_mlp
from repro.simulation import FLConfig, FederatedSimulation


class FedWCMProx(FedWCM):
    """FedWCM local rule with an added proximal term mu*(x - x_global).

    Everything else — scarcity scoring, temperature-softmax aggregation,
    adaptive alpha — is inherited from :class:`repro.algorithms.FedWCM`.
    """

    name = "fedwcm-prox"

    def __init__(self, mu: float = 0.01, **kwargs) -> None:
        super().__init__(**kwargs)
        if mu < 0:
            raise ValueError("mu must be >= 0")
        self.mu = mu

    def client_updates(self, ctx, jobs) -> list[ClientUpdate]:
        mom = self.momentum
        a, delta, mu = mom.alpha, mom.delta, self.mu
        # per-client operands stack along the cohort; rows picks the clients
        # stepping together
        x_global = np.stack([x for _, _, x in jobs])

        def direction(g: np.ndarray, x: np.ndarray, rows) -> np.ndarray:
            return a * g + (1.0 - a) * delta + mu * (x - x_global[rows])

        x_local, n_batches, losses = self._local_sgd(ctx, jobs, direction_fn=direction)
        return self._client_results(ctx, jobs, x_local, n_batches, losses)


def main() -> None:
    ds = load_federated_dataset(
        "fashion-mnist-lite", imbalance_factor=0.1, beta=0.1, num_clients=20, seed=0
    )
    cfg = FLConfig(rounds=24, batch_size=10, participation=0.25, local_epochs=5,
                   eval_every=8, seed=0)

    contenders = {
        "fedprox": make_method("fedprox").algorithm,
        "fedwcm": make_method("fedwcm").algorithm,
        "fedwcm-prox (custom)": FedWCMProx(mu=0.01),
    }
    for name, algo in contenders.items():
        model = make_mlp(32, 10, seed=0)
        h = FederatedSimulation(algo, model, ds, cfg).run()
        print(f"{name:22s} final={h.final_accuracy:.4f} best={h.best_accuracy:.4f}")


if __name__ == "__main__":
    main()

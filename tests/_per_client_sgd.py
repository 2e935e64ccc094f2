"""The per-client local-SGD loop, kept as a test oracle.

``LocalSGDMixin._local_sgd`` trains a whole cohort in lockstep: the
clients' parameters are one ``(C, dim)`` block the model points at, and
clients whose batch ``t`` has the same size step through one
forward/backward.  This module is the loop it replaced, run one client at a
time: load the client's parameters into the one-client model, one
``forward_backward`` per batch, ``x -= lr * direction(g, x)``.  Beside it,
:func:`client_update` restates each method's old one-client rule on top of
that loop, so ``tests/test_cohort_equivalence.py`` can pin every method's
cohort path against it bit for bit.

Like the old code, the oracle mutates the algorithm's per-client state
(SCAFFOLD's ``c_i``, FedDyn's and FedSMOO's ``h_i``) as it goes.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    FedAvg,
    FedCM,
    FedDyn,
    FedProx,
    FedSAM,
    FedWCMX,
    MoFedSAM,
    Scaffold,
)
from repro.algorithms.async_fl import AsyncAdapter, _AsyncLocalSGD
from repro.algorithms.base import ClientUpdate
from repro.algorithms.sam_family import FedLESAM, FedSMOO, FedSpeed
from repro.algorithms.server_opt import FedNova, _ServerAdaptive
from repro.nn.train import forward_backward

__all__ = ["local_sgd", "client_update"]


def local_sgd(ctx, round_idx, client_id, x_global, direction_fn=None, lr=None,
              epochs=None, grad_eval=None, trace=None):
    """One client's local SGD: ``(x_local, n_batches, mean train loss)``."""
    cfg = ctx.config
    lr = ctx.lr_at(round_idx) if lr is None else lr
    epochs = cfg.local_epochs if epochs is None else epochs
    xs, ys = ctx.client_xy(client_id)
    sampler = ctx.sampler_for(client_id)
    loss = ctx.loss_for(client_id)
    rng = ctx.client_rng(round_idx, client_id)

    x = x_global.copy()
    nb = 0
    loss_sum = 0.0
    loss_batches = 0
    cap = cfg.max_batches_per_round
    done = False
    trace = [] if trace is None else trace
    for _ in range(epochs):
        if done:
            break
        for bidx in sampler.epoch(rng):
            if grad_eval is None:
                ctx.load_params(x)
                loss_sum += forward_backward(ctx.model, xs[bidx], ys[bidx], loss)
                loss_batches += 1
                g = ctx.flat_gradient()
            else:
                mark = len(trace)
                g = grad_eval(xs[bidx], ys[bidx], loss, x)
                if len(trace) > mark:
                    loss_sum += trace[mark]
                    loss_batches += 1
            d = g if direction_fn is None else direction_fn(g, x)
            x -= lr * d
            nb += 1
            if cap is not None and nb >= cap:
                done = True
                break
    return x, nb, (loss_sum / loss_batches if loss_batches else None)


def plain_gradient(ctx, x, xb, yb, loss, trace) -> np.ndarray:
    """Gradient of ``loss`` at ``x`` on one batch (a copy); traces the loss."""
    ctx.load_params(x)
    trace.append(float(forward_backward(ctx.model, xb, yb, loss)))
    return ctx.flat_gradient().copy()


def _result(ctx, client_id, x_global, x_local, nb, loss, extras=None) -> ClientUpdate:
    extras = dict(extras or {})
    if loss is not None:
        extras["train_loss"] = float(loss)
    return ClientUpdate(
        client_id=client_id,
        displacement=x_global - x_local,
        n_samples=len(ctx.client_xy(client_id)[1]),
        n_batches=nb,
        extras=extras,
    )


def _momentum(a, delta):
    return lambda g, x: a * g + (1.0 - a) * delta


def _sam(ctx, rho, trace, ascent=None):
    """FedSAM's gradient; ``ascent(g)`` picks the ascent direction."""

    def grad_eval(xb, yb, loss, x):
        g = plain_gradient(ctx, x, xb, yb, loss, trace)
        d = g if ascent is None else ascent(g)
        norm = np.linalg.norm(d)
        if norm > 1e-12:
            g = plain_gradient(ctx, x + rho * d / norm, xb, yb, loss, trace)
        return g

    return grad_eval


def client_update(algo, ctx, r, k, x_global) -> ClientUpdate:
    """``algo``'s one-client update as the per-client code computed it."""
    if isinstance(algo, AsyncAdapter):
        return client_update(algo.base, ctx, r, k, x_global)
    trace: list[float] = []
    direction, lr, grad_eval, extras = None, None, None, None
    if isinstance(algo, FedWCMX):
        mom = algo.momentum
        direction = _momentum(mom.alpha, mom.delta)
        n_k = len(ctx.client_xy(k)[1])
        b_k = max(1, int(np.ceil(n_k / ctx.config.batch_size))) * ctx.config.local_epochs
        lr = ctx.lr_at(r) * (ctx.nominal_batches() / max(b_k, 1))
        extras = {"lr_k": lr}
    elif isinstance(algo, MoFedSAM):
        direction = _momentum(algo.momentum.alpha, algo.momentum.delta)
        grad_eval = _sam(ctx, algo.rho, trace)
    elif isinstance(algo, FedSAM):
        grad_eval = _sam(ctx, algo.rho, trace)
    elif isinstance(algo, FedCM):  # FedWCM's local rule is FedCM's
        direction = _momentum(algo.momentum.alpha, algo.momentum.delta)
    elif isinstance(algo, FedProx):
        mu = algo.mu
        direction = lambda g, x: g + mu * (x - x_global)  # noqa: E731
    elif isinstance(algo, Scaffold):
        c, ci = algo._c, algo._ci[k].copy()
        correction = c - ci
        x_local, nb, loss = local_sgd(
            ctx, r, k, x_global, direction_fn=lambda g, x: g + correction
        )
        disp = x_global - x_local
        ci_new = ci - c + disp / (max(nb, 1) * ctx.lr_at(r))
        algo._ci[k] = ci_new
        return _result(ctx, k, x_global, x_local, nb, loss, {"delta_ci": ci_new - ci})
    elif isinstance(algo, (FedDyn, FedSMOO)):
        a, hi = algo.alpha, algo._hi[k].copy()
        if isinstance(algo, FedDyn):
            direction = lambda g, x: g - hi + a * (x - x_global)  # noqa: E731
        else:
            mu = algo._mu
            mu_norm = np.linalg.norm(mu)
            ascent = None if mu_norm <= 1e-12 else (lambda g: 0.5 * g + 0.5 * mu)
            sam = _sam(ctx, algo.rho, trace, ascent)
            grad_eval = lambda xb, yb, loss, x: (  # noqa: E731
                sam(xb, yb, loss, x) - hi + a * (x - x_global)
            )
        x_local, nb, loss = local_sgd(
            ctx, r, k, x_global, direction_fn=direction, grad_eval=grad_eval, trace=trace
        )
        algo._hi[k] = hi - a * (x_local - x_global)
        return _result(ctx, k, x_global, x_local, nb, loss)
    elif isinstance(algo, FedSpeed):
        sam, lam = _sam(ctx, algo.rho, trace), algo.lam
        grad_eval = lambda xb, yb, loss, x: (  # noqa: E731
            sam(xb, yb, loss, x) + lam * (x - x_global)
        )
    elif isinstance(algo, FedLESAM):
        est = algo._x_prev - x_global
        est_norm = np.linalg.norm(est)
        perturb = np.zeros_like(x_global) if est_norm <= 1e-12 else algo.rho * est / est_norm
        grad_eval = lambda xb, yb, loss, x: plain_gradient(  # noqa: E731
            ctx, x + perturb, xb, yb, loss, trace
        )
    elif not isinstance(algo, (FedAvg, _AsyncLocalSGD, _ServerAdaptive, FedNova)):
        raise TypeError(f"no per-client oracle for {type(algo).__name__}")
    x_local, nb, loss = local_sgd(
        ctx, r, k, x_global, direction_fn=direction, lr=lr, grad_eval=grad_eval, trace=trace
    )
    return _result(ctx, k, x_global, x_local, nb, loss, extras)

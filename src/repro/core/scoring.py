"""Global information gathering and client scoring (paper section 5.1).

Equation (3) scores each client by how much *globally scarce* data it holds:

    s_k = sum_c w_c * n_{k,c} / sum_c n_{k,c}

where ``w_c`` measures the scarcity of class ``c`` given the global
distribution ``p`` and the target distribution ``p_hat`` (uniform by default).

Two scarcity modes are provided:

* ``"signed"`` (default): ``w_c = p_hat_c - p_c``.  Positive for classes that
  are under-represented globally, negative for head classes; a client rich in
  tail classes gets a *higher* score, exactly matching the paper's stated
  semantics ("a higher score indicates that the client has more globally
  scarce data").
* ``"abs"``: ``w_c = |p_hat_c - p_c|`` — the literal Eq. (3).  Note that under
  a long-tailed global distribution the head class also has a large absolute
  deviation, so the literal formula ranks head-heavy clients *above*
  middle-class clients, contradicting the prose; we keep it for completeness
  and ablation (see the signed-vs-literal ablation in
  ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability_vector

__all__ = ["global_distribution", "scarcity_weights", "client_scores"]


def global_distribution(client_counts: np.ndarray) -> np.ndarray:
    """Aggregate per-client class counts (K, C) into the global distribution."""
    counts = np.asarray(client_counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"client_counts must be (K, C), got shape {counts.shape}")
    total = counts.sum()
    if total <= 0:
        raise ValueError("client_counts must contain positive mass")
    return counts.sum(axis=0) / total


def scarcity_weights(
    global_dist: np.ndarray,
    target_dist: np.ndarray | None = None,
    mode: str = "signed",
) -> np.ndarray:
    """Per-class scarcity weights ``w_c`` (see module docstring)."""
    p = check_probability_vector(global_dist, "global_dist")
    if target_dist is None:
        p_hat = np.full(p.shape, 1.0 / p.size)
    else:
        p_hat = check_probability_vector(np.asarray(target_dist), "target_dist")
        if p_hat.shape != p.shape:
            raise ValueError(
                f"target_dist shape {p_hat.shape} != global_dist shape {p.shape}"
            )
    if mode == "signed":
        return p_hat - p
    if mode == "abs":
        return np.abs(p_hat - p)
    raise ValueError(f"mode must be 'signed' or 'abs', got {mode!r}")


def client_scores(
    client_counts: np.ndarray,
    target_dist: np.ndarray | None = None,
    mode: str = "signed",
    global_dist: np.ndarray | None = None,
) -> np.ndarray:
    """Equation (3): per-client scarcity scores.

    Args:
        client_counts: (K, C) per-client class counts.
        target_dist: target global distribution p_hat (uniform by default).
        mode: scarcity mode, see :func:`scarcity_weights`.
        global_dist: the global distribution p, when it was gathered
            elsewhere (e.g. decrypted from an encrypted aggregate); by
            default :func:`global_distribution` of ``client_counts``.

    Returns:
        Score vector of length K.  Clients with no data score 0.
    """
    counts = np.asarray(client_counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"client_counts must be (K, C), got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("client_counts must be nonnegative")
    p = global_distribution(counts) if global_dist is None else global_dist
    w = scarcity_weights(p, target_dist, mode=mode)
    totals = counts.sum(axis=1)
    safe = np.maximum(totals, 1.0)
    scores = (counts @ w) / safe
    scores[totals == 0] = 0.0
    return scores

"""FedWCM with homomorphically-encrypted information gathering.

Closes the privacy loop of section 5.5: instead of reading the client
class-count matrix directly, the global-distribution gathering runs the
BatchCrypt-style protocol of :mod:`repro.he.protocol` — each client's count
vector is encrypted, the server aggregates ciphertexts, and only the
*global* distribution is ever decrypted.  Per-client scarcity scores are
then computed from the broadcast global distribution (each client only needs
its own counts plus the public global distribution, Eq. 3), so the server
never observes a local distribution in the clear.

The class is FedWCM with one override,
:meth:`~repro.algorithms.fedwcm.FedWCM.gather_global_distribution`.  The
protocol is exact, so the decrypted distribution, and with it the scores,
every alpha and every parameter, is *bit-identical* to plain FedWCM's, which
the test suite asserts — privacy comes at zero utility cost, matching the
paper's appendix C conclusion.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.fedwcm import FedWCM
from repro.he.bfv import BFVParams
from repro.he.protocol import AggregationReport, aggregate_class_distribution
from repro.simulation.context import SimulationContext

__all__ = ["FedWCMEncrypted"]


class FedWCMEncrypted(FedWCM):
    """FedWCM whose global statistics are gathered under encryption.

    Args:
        scheme: ``"bfv"`` (paper's choice) or ``"paillier"``.
        he_seed: key-generation seed.
        bfv_params: optional ring parameters (smaller = faster tests).
        kwargs: forwarded to :class:`FedWCM`.
    """

    name = "fedwcm-he"

    def __init__(
        self,
        scheme: str = "bfv",
        he_seed: int = 0,
        bfv_params: BFVParams | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.scheme = scheme
        self.he_seed = he_seed
        self.bfv_params = bfv_params or BFVParams(n=1024, t=1 << 20, q_bits=50)
        self.report: AggregationReport | None = None

    def gather_global_distribution(self, ctx: SimulationContext) -> np.ndarray:
        """Encrypt every client's counts, aggregate the ciphertexts and
        decrypt only the global sum."""
        self.report = aggregate_class_distribution(
            ctx.dataset.client_counts, scheme=self.scheme, seed=self.he_seed,
            bfv_params=self.bfv_params,
        )
        total = self.report.global_counts.astype(np.float64)
        return total / total.sum()

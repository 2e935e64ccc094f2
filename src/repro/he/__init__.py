"""Homomorphic-encryption substrate (paper section 5.5 and appendix C).

From-scratch Paillier and toy-BFV additive HE plus the BatchCrypt-style
class-distribution aggregation protocol (:mod:`repro.he.protocol`).
Replaces the paper's TenSEAL dependency.
"""

from repro.he.primes import is_probable_prime, random_prime, find_ntt_prime
from repro.he.paillier import PaillierPublicKey, PaillierPrivateKey, paillier_keygen
from repro.he.bfv import BFVParams, BFVPublicKey, BFVSecretKey, BFVCiphertext, bfv_keygen
from repro.he.protocol import AggregationReport, aggregate_class_distribution, plaintext_bytes

__all__ = [
    "is_probable_prime",
    "random_prime",
    "find_ntt_prime",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "paillier_keygen",
    "BFVParams",
    "BFVPublicKey",
    "BFVSecretKey",
    "BFVCiphertext",
    "bfv_keygen",
    "AggregationReport",
    "aggregate_class_distribution",
    "plaintext_bytes",
]

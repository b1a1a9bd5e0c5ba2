"""Brute-force ground truth by enumerating every output string.

Deliberately slow and obviously correct: marginals come from the forward
recursion, collision probabilities from summing p(z_1..z_n)^alpha over
the full lexicographic enumeration of Z^n with compensated accumulation.
The main pipeline is validated against this module, never the reverse.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionOverflow
from .model import HiddenMarkovModel, _hmm_order

MAX_SEQUENCES = 10**7


def all_sequence_probabilities(hmm: HiddenMarkovModel, n: int) -> np.ndarray:
    """Marginals of every length-n output string, lexicographic order."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    p = hmm.chain.transition
    e = hmm.emission
    nx, nz = e.shape
    # n steps over nz^n strings; nz^n is formed only for n below the cap's
    # bit length, from where 2^n alone passes the cap
    if n > MAX_SEQUENCES or (
        nz > 1 and (n >= MAX_SEQUENCES.bit_length() or nz**n > MAX_SEQUENCES)
    ):
        raise DimensionOverflow(
            f"enumeration of {nz}^{n} output strings in {n} steps exceeds cap {MAX_SEQUENCES}"
        )
    # weights[k, x] = p(prefix_k, X_t = x); prefixes in lexicographic order,
    # extended symbol-major so the order is preserved at each step.
    weights = (hmm.chain.initial[np.newaxis, :] * e.T).reshape(nz, nx)
    for _ in range(n - 1):
        propagated = weights @ p
        weights = (propagated[:, np.newaxis, :] * e.T[np.newaxis, :, :]).reshape(-1, nx)
    return weights.sum(axis=1)


def brute_force_collision(hmm: HiddenMarkovModel, alpha: int, n: int) -> float:
    """CP_alpha(Z_1..Z_n) = sum over all strings of p(z)^alpha."""
    alpha = _hmm_order(alpha)
    probs = all_sequence_probabilities(hmm, n)
    return math.fsum((probs**alpha).tolist())


def brute_force_entropy(hmm: HiddenMarkovModel, alpha: int, n: int) -> float:
    """Renyi entropy in bits from the brute-force collision probability."""
    return renyi_bits(brute_force_collision(hmm, alpha, n), alpha)


def renyi_bits(cp: float, alpha: int) -> float:
    """Renyi entropy in bits of a collision probability: log2(cp) / (1 - alpha)."""
    if cp == 0.0:
        return math.inf
    return (1.0 / (1.0 - alpha)) * math.log2(cp)

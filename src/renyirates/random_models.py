"""RNG-threaded generators for random chains, HMMs, and sparse matrices.

Shared between the test suite and the experiment scripts; every function
takes an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .model import HiddenMarkovModel, MarkovChain, validate_chain, validate_hmm


def _sparse_stochastic(rng: np.random.Generator, n: int, m: int, sparsity: float) -> np.ndarray:
    """Row-stochastic (n, m) matrix with roughly `sparsity` zero fraction per row."""
    a = rng.dirichlet(np.ones(m), size=n)
    if sparsity > 0:
        mask = rng.random((n, m)) < sparsity
        # keep one entry per row alive
        keep = rng.integers(0, m, size=n)
        mask[np.arange(n), keep] = False
        a[mask] = 0.0
        a /= a.sum(axis=1, keepdims=True)
    return a


def random_chain(rng: np.random.Generator, n_states: int, sparsity: float = 0.0) -> MarkovChain:
    p = _sparse_stochastic(rng, n_states, n_states, sparsity)
    pi = rng.dirichlet(np.ones(n_states)) + 1e-3
    pi /= pi.sum()
    return validate_chain(p, pi)


def random_hmm(
    rng: np.random.Generator,
    n_states: int,
    n_symbols: int,
    sparsity: float = 0.0,
) -> HiddenMarkovModel:
    chain = random_chain(rng, n_states, sparsity=sparsity)
    e = _sparse_stochastic(rng, n_states, n_symbols, sparsity)
    return validate_hmm(chain, e)


def random_nonneg_matrix(
    rng: np.random.Generator, dim: int, zero_prob: float = 0.5
) -> np.ndarray:
    a = rng.random((dim, dim))
    a[rng.random((dim, dim)) < zero_prob] = 0.0
    return a


def random_nonneg_vector(
    rng: np.random.Generator, dim: int, zero_prob: float = 0.3
) -> np.ndarray:
    u = rng.random(dim)
    u[rng.random(dim) < zero_prob] = 0.0
    return u

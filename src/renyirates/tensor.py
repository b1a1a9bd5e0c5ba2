"""Kronecker tensor powers and their restriction to the collision set.

For an HMM with joint-chain matrix M, the order-alpha pipeline restricts
M^(tensor alpha) to tuples whose alpha observation components agree.  The
restricted matrix A is built directly in collision coordinates, indexed by
(hidden tuple, shared symbol); the unrestricted |X x Z|^alpha tensor is
never materialized.

Canonical collision-index order: symbol-major, then lexicographic in the
hidden tuple.  Indices whose tuple cannot emit the shared symbol (zero
initial weight and an all-zero column) are dropped at construction.

Row (xs, z) of A does not depend on z, so A = L B with L copying a hidden
tuple to each symbol it can emit, and the symbol-summed tuple matrix
K = B L = P^(tensor alpha) diag(w), w(xs) = sum_z prod_j E[xs_j, z], gives
the same collision probabilities, (pi^(tensor alpha) o w)^T K^(n-1) 1, and
the same non-zero spectrum, component by component (Horn & Johnson,
Matrix Analysis, Thm 1.3.22).  K is indexed by the hidden tuples with
w > 0 and is up to nz times smaller than A; finite lengths run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionOverflow, InvalidOrder
from .model import HiddenMarkovModel, _hmm_order
from .nonneg import NonnegMatrix

DEFAULT_MAX_DIM = 10**6


@dataclass(frozen=True)
class CollisionIndex:
    """One restricted-tensor coordinate: alpha hidden states, one symbol."""

    hidden_tuple: tuple[str, ...]
    symbol: str

    def label(self) -> str:
        return ",".join(self.hidden_tuple) + "|" + self.symbol


@dataclass(frozen=True)
class CollisionSystem:
    """Restricted tensored matrix A, initial weights nu, and index map.

    hidden_tuples[i] is the lexicographic index in X^alpha of node i's
    hidden tuple; nodes that share it have equal rows.
    """

    order: int
    indices: tuple[CollisionIndex, ...]
    matrix: NonnegMatrix
    initial: np.ndarray
    hidden_tuples: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.dim

    def labels(self) -> tuple[str, ...]:
        return tuple(ix.label() for ix in self.indices)


def kronecker_power(a: NonnegMatrix, alpha: int, max_dim: int = DEFAULT_MAX_DIM) -> NonnegMatrix:
    """alpha-fold Kronecker tensor power; tuple indices ordered lexicographically."""
    if int(alpha) != alpha or alpha < 1:
        raise InvalidOrder(f"Kronecker power needs an integer order >= 1, got {alpha}")
    alpha = int(alpha)
    if a.dim**alpha > max_dim:
        raise DimensionOverflow(
            f"Kronecker power dimension {a.dim}^{alpha} exceeds cap {max_dim}"
        )
    return reduce(lambda x, y: x.kron(y), [a] * alpha)


def hadamard_power(a: NonnegMatrix, alpha: float) -> NonnegMatrix:
    """Entrywise power; structural zeros are preserved."""
    if not alpha > 0:
        raise InvalidOrder(f"Hadamard power needs a positive order, got {alpha}")
    c = a.csr.copy()
    c.data = c.data**alpha
    return NonnegMatrix.from_sparse(c)


def _kron_vector(v: np.ndarray, alpha: int) -> np.ndarray:
    return reduce(np.kron, [v] * alpha)


def _tuple_transitions(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int
) -> tuple[int, np.ndarray, np.ndarray, NonnegMatrix, np.ndarray]:
    """P^(tensor alpha) and the hidden tuples that can share a symbol.

    Returns the checked order, the kept tuples (lexicographic indices in
    X^alpha), their emission products prod_j E[xs_j, z] (one row per
    symbol z), the unrestricted transitions P^(tensor alpha) and the kept
    tuples' initial weights pi^(tensor alpha).  A tuple is kept when some
    symbol's product is positive, i.e. w(xs) > 0; each caller restricts
    the transitions once, to the rows it needs.
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    if nx**alpha * nz > max_dim:
        raise DimensionOverflow(
            f"collision system dimension {nx}^{alpha}*{nz} exceeds cap {max_dim}"
        )
    emit = np.stack([_kron_vector(e[:, z], alpha) for z in range(nz)])
    tuples = np.flatnonzero(emit.any(axis=0))
    kron_p = kronecker_power(NonnegMatrix.from_dense(hmm.chain.transition), alpha, max_dim)
    pi_kron = _kron_vector(hmm.chain.initial, alpha)
    return alpha, tuples, emit[:, tuples], kron_p, pi_kron[tuples]


def collision_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> CollisionSystem:
    """Restricted tensored matrix of the joint chain, built in collision coordinates.

    Entries: A[(xs,z),(xs',z')] = prod_j P[xs_j, xs'_j] * E[xs'_j, z'].
    Initial: nu[(xs,z)] = prod_j pi[xs_j] * E[xs_j, z].
    """
    alpha, tuples, emit, kron_p, pi = _tuple_transitions(hmm, alpha, max_dim)
    # node (xs, z) exists when the emission product of xs at z is positive;
    # np.nonzero walks emit row by row, which is the symbol-major index order
    symbols, rows = np.nonzero(emit)
    weights = emit[symbols, rows]
    states, observations = hmm.chain.states, hmm.observations
    digits = np.unravel_index(tuples, (hmm.n_states,) * alpha)
    hidden = [tuple(states[i] for i in tup) for tup in zip(*(d.tolist() for d in digits))]
    indices = tuple(
        CollisionIndex(hidden_tuple=hidden[r], symbol=observations[z])
        for z, r in zip(symbols.tolist(), rows.tolist())
    )
    hidden_tuples = tuples[rows]
    matrix = kron_p.submatrix(hidden_tuples).scale_columns(weights)
    nu = pi[rows] * weights
    for vector in (nu, hidden_tuples):
        vector.setflags(write=False)
    return CollisionSystem(
        order=alpha,
        indices=indices,
        matrix=matrix,
        initial=nu,
        hidden_tuples=hidden_tuples,
    )


def symbol_summed_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> tuple[int, NonnegMatrix, np.ndarray, int]:
    """K = P^(tensor alpha) diag(w) and its weights pi^(tensor alpha) o w.

    Returns (order, K, weights, dimension of A): u^T K^(n-1) 1 equals
    nu^T A^(n-1) 1 of `collision_system`, which refuses the same inputs.
    A's dimension is the count of positive emission products,
    sum_z |S_z|^alpha with S_z the states that can emit z.
    """
    alpha, tuples, emit, kron_p, pi = _tuple_transitions(hmm, alpha, max_dim)
    w = emit.sum(axis=0)
    return alpha, kron_p.submatrix(tuples).scale_columns(w), pi * w, int(np.count_nonzero(emit))

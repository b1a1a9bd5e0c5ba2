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
w > 0 and is up to nz times smaller than A; Perron radii are taken from
its blocks (see `spectral`).

K, its weights and the all-ones vector are invariant under permuting the
alpha tuple coordinates, so K lumps exactly onto multisets of hidden
states (ordinary lumpability: Kemeny & Snell, Finite Markov Chains,
1960; P. Buchholz, J. Appl. Probab. 31, 1994).  The lumped matrix has at
most C(nx + alpha - 1, alpha) rows, about alpha! times fewer than K, and
`lumped_system` builds it straight from the multisets; finite lengths
run on it.  At 8 states, 3 symbols and alpha = 4 it has 330 rows where K
has 4096 and 16.8M stored entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np
from scipy import sparse

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


def _check_dimension(nx: int, nz: int, alpha: int, max_dim: int) -> None:
    """Refuse an order-alpha system whose tensor index set X^alpha x Z exceeds max_dim."""
    if nx**alpha * nz > max_dim:
        raise DimensionOverflow(
            f"collision system dimension {nx}^{alpha}*{nz} exceeds cap {max_dim}"
        )


def collision_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> CollisionSystem:
    """Restricted tensored matrix of the joint chain, built in collision coordinates.

    Entries: A[(xs,z),(xs',z')] = prod_j P[xs_j, xs'_j] * E[xs'_j, z'].
    Initial: nu[(xs,z)] = prod_j pi[xs_j] * E[xs_j, z].
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    # emission products prod_j E[xs_j, z], one row per symbol, of the
    # tuples that can emit some symbol
    emit = np.stack([_kron_vector(e[:, z], alpha) for z in range(nz)])
    tuples = np.flatnonzero(emit.any(axis=0))
    emit = emit[:, tuples]
    # node (xs, z) exists when the emission product of xs at z is positive;
    # np.nonzero walks emit row by row, which is the symbol-major index order
    symbols, rows = np.nonzero(emit)
    weights = emit[symbols, rows]
    states, observations = hmm.chain.states, hmm.observations
    digits = np.unravel_index(tuples, (nx,) * alpha)
    hidden = [tuple(states[i] for i in tup) for tup in zip(*(d.tolist() for d in digits))]
    indices = tuple(
        CollisionIndex(hidden_tuple=hidden[r], symbol=observations[z])
        for z, r in zip(symbols.tolist(), rows.tolist())
    )
    hidden_tuples = tuples[rows]
    kron_p = kronecker_power(NonnegMatrix.from_dense(hmm.chain.transition), alpha, max_dim)
    matrix = kron_p.submatrix(hidden_tuples).scale_columns(weights)
    nu = _kron_vector(hmm.chain.initial, alpha)[hidden_tuples] * weights
    for vector in (nu, hidden_tuples):
        vector.setflags(write=False)
    return CollisionSystem(
        order=alpha,
        indices=indices,
        matrix=matrix,
        initial=nu,
        hidden_tuples=hidden_tuples,
    )


def lumped_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> tuple[int, NonnegMatrix, np.ndarray, int]:
    """K lumped onto multisets of hidden states, and its weights.

    Returns (order, K~, u~, dimension of A): u~^T K~^(n-1) 1 equals
    nu^T A^(n-1) 1 of `collision_system`, which refuses the same inputs.
    K~ is indexed by the multisets M (sorted tuples, in lexicographic
    order) with w(M) > 0:

        K~[M, M'] = w(M') sum_{t' in orbit(M')} prod_j P[m_j, t'_j]
        u~(M)     = |orbit(M)| prod_j pi[m_j] w(M)

    Each representative's successor tuples come from P's CSR rows and are
    sorted into their multisets, whose duplicates are summed.  The entries
    before summing number sum_M prod_j deg(m_j), never more than the
    stored entries of P^(tensor alpha) in K's rows; neither
    P^(tensor alpha) nor any nx^alpha x nx^alpha array is formed.  A's
    dimension is sum_z |S_z|^alpha, S_z the states that can emit z.
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    reps = np.array(
        list(combinations_with_replacement(range(nx), alpha)), dtype=np.intp
    ).reshape(-1, alpha)
    # the colexicographic rank of a sorted tuple m is sum_j C(m_j + j, j + 1)
    binom = np.array(
        [[math.comb(m + j, j + 1) for j in range(alpha)] for m in range(nx)], dtype=np.intp
    )
    index = np.full(math.comb(nx + alpha - 1, alpha), -1, dtype=np.intp)
    w = e[reps].prod(axis=1).sum(axis=1)
    kept = np.flatnonzero(w > 0)
    reps, w = reps[kept], w[kept]
    index[_rank(reps, binom)] = np.arange(kept.size)

    # |orbit(M)| = alpha! / prod_j r_j, r_j the 1-based place of m_j in its
    # run of equal states; each partial quotient is the multinomial count of
    # a prefix, so every division is exact
    orbit = np.ones(kept.size, dtype=np.intp)
    run = np.ones(kept.size, dtype=np.intp)
    for j in range(1, alpha):
        run = np.where(reps[:, j] == reps[:, j - 1], run + 1, 1)
        orbit = orbit * (j + 1) // run
    u = orbit * hmm.chain.initial[reps].prod(axis=1) * w

    p = sparse.csr_array(hmm.chain.transition)
    p.eliminate_zeros()
    degree = np.diff(p.indptr)
    rows = np.arange(kept.size)
    successors = np.empty((kept.size, 0), dtype=np.intp)
    values = np.ones(kept.size)
    for j in range(alpha):
        start = p.indptr[reps[rows, j]]
        count = degree[reps[rows, j]]
        first = np.cumsum(count) - count
        pos = np.repeat(start - first, count) + np.arange(count.sum())
        rows = np.repeat(rows, count)
        successors = np.column_stack([np.repeat(successors, count, axis=0), p.indices[pos]])
        values = np.repeat(values, count) * p.data[pos]
    successors.sort(axis=1)
    cols = index[_rank(successors, binom)]
    live = cols >= 0  # a multiset with w = 0 has a zero column
    cols = cols[live]
    k = sparse.csr_array(
        (values[live] * w[cols], (rows[live], cols)), shape=(kept.size, kept.size)
    )
    k.sum_duplicates()
    dimension = sum(int(s) ** alpha for s in np.count_nonzero(e, axis=0))
    return alpha, NonnegMatrix.from_sparse(k), u, dimension


def _rank(tuples: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colexicographic rank of each sorted row among the multisets of its size."""
    return sum(binom[tuples[:, j], j] for j in range(tuples.shape[1]))

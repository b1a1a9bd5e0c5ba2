"""Kronecker tensor powers and their restriction to the collision set.

For an HMM with joint-chain matrix M, the order-alpha pipeline restricts
M^(tensor alpha) to tuples whose alpha observation components agree.  The
restricted matrix is built directly in collision coordinates, indexed by
(hidden tuple, shared symbol); the unrestricted |X x Z|^alpha tensor is
never materialized.

Canonical collision-index order: symbol-major, then lexicographic in the
hidden tuple.  Indices whose tuple cannot emit the shared symbol (zero
initial weight and an all-zero column) are dropped at construction.
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
    """Restricted tensored matrix A, initial weights nu, and index map."""

    order: int
    indices: tuple[CollisionIndex, ...]
    matrix: NonnegMatrix
    initial: np.ndarray

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


def collision_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> CollisionSystem:
    """Restricted tensored matrix of the joint chain, built in collision coordinates.

    Entries: A[(xs,z),(xs',z')] = prod_j P[xs_j, xs'_j] * E[xs'_j, z'].
    Initial: nu[(xs,z)] = prod_j pi[xs_j] * E[xs_j, z].
    """
    alpha = _hmm_order(alpha)
    p = hmm.chain.transition
    e = hmm.emission
    nx, nz = e.shape
    if nx**alpha * nz > max_dim:
        raise DimensionOverflow(
            f"collision system dimension {nx}^{alpha}*{nz} exceeds cap {max_dim}"
        )

    kron_p = kronecker_power(NonnegMatrix.from_dense(p), alpha, max_dim=max_dim)
    pi_kron = _kron_vector(hmm.chain.initial, alpha)

    # Per symbol z, the emission weight of a hidden tuple is the product of
    # E[x_j, z]; tuples with zero weight can never occupy symbol z.
    tuple_rows: list[np.ndarray] = []
    emit_weights: list[np.ndarray] = []
    indices: list[CollisionIndex] = []
    for z in range(nz):
        ez = _kron_vector(e[:, z], alpha)
        rows = np.flatnonzero(ez > 0)
        tuple_rows.append(rows)
        emit_weights.append(ez[rows])
        for flat in rows:
            hidden = np.unravel_index(int(flat), (nx,) * alpha)
            indices.append(
                CollisionIndex(
                    hidden_tuple=tuple(hmm.chain.states[i] for i in hidden),
                    symbol=hmm.observations[z],
                )
            )

    rows_sel = np.concatenate(tuple_rows) if indices else np.zeros(0, dtype=int)
    weights = np.concatenate(emit_weights) if indices else np.zeros(0)
    base = kron_p.submatrix(rows_sel)
    matrix = base.scale_columns(weights)
    nu = pi_kron[rows_sel] * weights
    nu.setflags(write=False)
    return CollisionSystem(
        order=alpha, indices=tuple(indices), matrix=matrix, initial=nu
    )

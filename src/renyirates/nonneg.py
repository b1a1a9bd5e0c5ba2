"""Sparse non-negative square matrices.

This is the carrier type for the pipeline's sparse matrices: collision
matrices, their lumped and per-component forms, and a chain's Hadamard
power where its rate splits it into components.  Entries are stored in
CSR form with structural zeros dropped, so the sparsity pattern *is* the
associated graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, NegativeEntry, NonFiniteEntry


@dataclass(frozen=True)
class NonnegMatrix:
    """Square non-negative matrix; immutable after construction."""

    csr: sparse.csr_array

    def __post_init__(self):
        m, n = self.csr.shape
        if m != n:
            raise DimensionMismatch(f"matrix is {m}x{n}, expected square")
        _check_entries(self.csr.data, "non-negative matrix")

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "NonnegMatrix":
        """The CSR arrays scipy gives a dense array, zeros (-0.0 too) dropped.

        Built from the row-major positions of the non-zero entries: column
        = position mod d, row bounds by binary search, int32 indices where
        they fit.
        """
        a = _square(a)
        d = a.shape[0]
        if d == 0:  # the row bounds below would need a step of 0
            return cls(sparse.csr_array((0, 0)))
        flat = np.flatnonzero(a != 0)  # as np.flatnonzero(a), several times faster
        index = np.int32 if max(d, flat.size) <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(flat, np.arange(0, d * d + 1, d)).astype(index)
        indices = (flat % d).astype(index)
        return cls(sparse.csr_array((a.take(flat), indices, indptr), shape=(d, d)))

    @classmethod
    def from_sparse(cls, a) -> "NonnegMatrix":
        c = sparse.csr_array(a)
        c.eliminate_zeros()
        c.sort_indices()
        return cls(c)

    @property
    def dim(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    @cached_property
    def _transposed(self) -> sparse.csr_array:
        # built on the first vecmat; a stepwise power sum reuses it every step
        return self.csr.T.tocsr()

    def vecmat(self, u: np.ndarray) -> np.ndarray:
        """Row vector times matrix: u^T A."""
        return self._transposed @ np.asarray(u, dtype=float)


def _square(a) -> np.ndarray:
    """a as a float array, refused unless it is square."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix has shape {a.shape}, expected square")
    return a


def _check_entries(values: np.ndarray, what: str) -> None:
    """Refuse a NaN, an infinity or a negative value among `values`."""
    if not values.size:
        return
    lo, hi = values.min(), values.max()  # NaN propagates into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteEntry(f"NaN or infinite entry in {what}")
    if lo < 0:
        raise NegativeEntry(f"negative entry in {what}")

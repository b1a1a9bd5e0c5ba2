"""Sparse non-negative square matrices.

This is the carrier type for every matrix in the pipeline: transition
matrices, collision matrices and Hadamard powers.  Entries are stored in
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
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected 2-d array, got shape {a.shape}")
        c = sparse.csr_array(a)
        c.eliminate_zeros()
        return cls(c)

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


def _check_entries(values: np.ndarray, what: str) -> None:
    """Refuse a NaN, an infinity or a negative value among `values`."""
    if not values.size:
        return
    lo, hi = values.min(), values.max()  # NaN propagates into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteEntry(f"NaN or infinite entry in {what}")
    if lo < 0:
        raise NegativeEntry(f"negative entry in {what}")

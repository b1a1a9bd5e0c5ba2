"""Sparse non-negative square matrices.

This is the carrier type for the pipeline's sparse matrices: collision
matrices, their lumped and per-component forms, and a chain's Hadamard
power where its rate splits it into components.  Entries are stored in
one CSR form, with sorted columns, no repeated entry and no stored zero,
so the sparsity pattern *is* the associated graph.  The constructor
alone makes that form: every stage reads it as given.
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
    """Square non-negative matrix; immutable after construction.

    Takes any scipy sparse square matrix.  A float64 `csr_array` with
    sorted columns, no repeated entry and no stored zero is stored as
    given.  Other input is taken as a `csr_array`, one of another real
    dtype (integer, boolean, float32) as a float64 copy, and one with
    unsorted columns, a repeated entry or a stored zero (-0.0 too) is
    stored as a copy with repeated entries summed, then zeros dropped; the
    caller's arrays are never written.
    """

    csr: sparse.csr_array

    def __post_init__(self):
        shape = self.csr.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatch(f"matrix has shape {shape}, expected square")
        c = self.csr if isinstance(self.csr, sparse.csr_array) else sparse.csr_array(self.csr)
        if c.dtype != np.float64 and c.dtype.kind in "biuf":
            c = c.astype(np.float64)
        _check_entries(c.data, "non-negative matrix")
        # scipy's canonical format allows stored zeros, so they are looked for too
        if not (c.has_canonical_format and c.data.all()):
            c = c.copy()
            c.sum_duplicates()
            c.eliminate_zeros()
        object.__setattr__(self, "csr", c)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "NonnegMatrix":
        """The CSR arrays scipy gives a dense array, zeros (-0.0 too) dropped (`_csr_arrays`)."""
        a = _square(a)
        d = a.shape[0]
        if d == 0:  # the row bounds of _csr_arrays would need a step of 0
            return cls(sparse.csr_array((0, 0)))
        return cls(sparse.csr_array(_csr_arrays(a), shape=(d, d)))

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


def _csr_arrays(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) of scipy's CSR form of a 2-d float array with columns, zeros dropped.

    Built from the row-major positions of the non-zero entries (-0.0 is
    dropped too): column = position mod the width, row bounds by binary
    search, int32 indices where they fit.  No scipy constructor runs.
    """
    rows, width = a.shape
    flat = np.flatnonzero(a != 0)  # as np.flatnonzero(a), several times faster
    index = np.int32 if max(rows, width, flat.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(flat, np.arange(0, rows * width + 1, width)).astype(index)
    return a.take(flat), (flat % width).astype(index), indptr


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

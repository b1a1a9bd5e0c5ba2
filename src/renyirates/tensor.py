"""The collision matrix of an HMM, built from P's sparse rows, and Hadamard powers.

For an HMM with joint-chain matrix M, the order-alpha pipeline restricts
M^(tensor alpha) to tuples whose alpha observation components agree.  The
restricted matrix A is indexed by (hidden tuple, shared symbol) and is
built straight from the product structure: neither M^(tensor alpha) nor
P^(tensor alpha) is formed.  Each hidden tuple's successors come from P's
CSR rows, restricted coordinate by coordinate to the states that can emit
the successor's symbol, so every product enumerated is a stored entry of
A.  Values multiply left to right, ((p_1 p_2) p_3)..., the order of a
left-folded Kronecker power, so A is the restriction of that power float
for float.

Canonical collision-index order: symbol-major, then lexicographic in the
hidden tuple.  Indices whose tuple cannot emit the shared symbol (zero
initial weight and an all-zero column) are dropped at construction.

Row (xs, z) of A does not depend on z, so A = L B with B holding one
row per hidden tuple and L copying a hidden tuple to each of its nodes.
The symbol-summed tuple matrix K = B L = P^(tensor alpha) diag(w),
w(xs) = sum_z prod_j E[xs_j, z], gives the same collision
probabilities, (pi^(tensor alpha) o w)^T K^(n-1) 1, and the same
non-zero spectrum, component by component (Horn & Johnson, Matrix
Analysis, Thm 1.3.22): the nodes of one hidden tuple have equal rows,
so in a multi-node component of A they all lie in that component, and
summing their columns turns its block into K's block on its tuples.  K
is indexed by the hidden tuples with w > 0 and is up to nz times
smaller than A; `collision_system` forms it from B while it builds A,
and `growth_rate` takes each multi-node component's radius from its
block.

K, its weights and the all-ones vector are invariant under permuting the
alpha tuple coordinates, so K lumps exactly onto multisets of hidden
states (ordinary lumpability: Kemeny & Snell, Finite Markov Chains,
1960; P. Buchholz, J. Appl. Probab. 31, 1994).  The lumped matrix has at
most C(nx + alpha - 1, alpha) rows, about alpha! times fewer than K, and
`lumped_system` builds it straight from the multisets, enumerating
successors the same way; finite lengths run on it.  At 8 states, 3
symbols and alpha = 4 it has 330 rows where K has 4096 and 16.8M stored
entries.
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

# collision_system refuses a build predicted to hold more than this many
# bytes: 12 for each stored entry of A (a float64 value and an int32
# column) and at most 8 * alpha + 48 more for enumerating it (one
# symbol's successors with their alpha int32 digits, rows, values and
# ranks, then B's COO and CSR entries).  Measured build peaks stay under
# 64 bytes an entry of A at alpha <= 5.  lumped_system refuses past the
# same budget at 4 * alpha + 64 bytes for each successor entry it
# enumerates (alpha int32 digits, their ranks, rows, values and the COO
# and CSR copies); its measured build peaks, 67-94 bytes an entry at
# alpha = 2-8, stay under that.
_BUILD_BYTES = 2**30


@dataclass(frozen=True)
class CollisionSystem:
    """Restricted tensored matrix A, initial weights nu, and the tuple matrix K.

    Node i of A is hidden tuple node_tuple[i] emitting node_symbols[i];
    node_tuple[i] is also node i's row of K, whose rows are the hidden
    tuples in lexicographic order, named by tuple_names.
    """

    order: int
    matrix: NonnegMatrix
    initial: np.ndarray
    tuple_matrix: NonnegMatrix
    node_tuple: np.ndarray
    tuple_names: tuple[str, ...]
    node_symbols: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.dim

    def labels(self) -> tuple[str, ...]:
        """Node labels "x1,...,xa|z": the hidden tuple, then the symbol."""
        names = self.tuple_names
        return tuple(
            names[t] + "|" + z for t, z in zip(self.node_tuple.tolist(), self.node_symbols)
        )


def hadamard_power(a: NonnegMatrix, alpha: float) -> NonnegMatrix:
    """Entrywise power; structural zeros are preserved."""
    if not alpha > 0:
        raise InvalidOrder(f"Hadamard power needs a positive order, got {alpha}")
    c = a.csr.copy()
    c.data = c.data**alpha
    return NonnegMatrix.from_sparse(c)


def _check_dimension(nx: int, nz: int, alpha: int, max_dim: int) -> None:
    """Refuse an order-alpha system whose tensor index set X^alpha x Z exceeds max_dim."""
    if nx**alpha * nz > max_dim:
        raise DimensionOverflow(
            f"collision system dimension {nx}^{alpha}*{nz} exceeds cap {max_dim}"
        )


def _check_build_bytes(what: str, entries: int, bytes_per_entry: int) -> None:
    """Refuse a build predicted to hold more than _BUILD_BYTES."""
    predicted = entries * bytes_per_entry
    if predicted > _BUILD_BYTES:
        raise DimensionOverflow(
            f"{what} {entries} entries, about {predicted / 2**30:.1f} GiB to build, "
            f"over the {_BUILD_BYTES / 2**30:.0f} GiB budget"
        )


def _stored_entries(p: sparse.csr_array, emits: np.ndarray, alpha: int) -> int:
    """Entries of A, in closed form, before any product underflows.

    With S_z = {x : E[x, z] > 0} (emits[:, z]) and
    c_z'(x) = |{x' in S_z' : P[x, x'] > 0}|, A stores
    sum_{z, z'} (sum_{x in S_z} c_z'(x))^alpha entries; B, whose rows are
    some of A's, at most as many.
    """
    structure = sparse.csr_array(
        (np.ones(p.nnz, dtype=np.int64), p.indices, p.indptr), shape=p.shape
    )
    s = emits.astype(np.int64)
    counts = s.T @ (structure @ s)
    return sum(int(m) ** alpha for m in counts.ravel().tolist())


def _successors(
    p: sparse.csr_array, tuples: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Successor tuples of each row of `tuples` under the tensor power of p.

    p is a CSR array with sorted column indices and `tuples` has one tuple
    of p's row indices per row.  Returns (rows, successors, values):
    entry k is the successor tuple successors[k] of tuples[rows[k]], one
    column index of p per coordinate, with value
    prod_j p[tuples[rows[k], j], successors[k, j]] multiplied left to right.
    Rows ascend and a row's successors are in lexicographic order.  The
    entries number sum_t prod_j deg(t_j), deg(x) the stored entries of
    p's row x.
    """
    degree = np.diff(p.indptr)
    rows = np.arange(len(tuples))
    successors = np.empty((len(tuples), 0), dtype=p.indices.dtype)
    values = np.ones(len(tuples))
    for j in range(tuples.shape[1]):
        state = tuples[rows, j]
        count = degree[state]
        first = np.cumsum(count) - count
        pos = np.repeat(p.indptr[state] - first, count) + np.arange(count.sum())
        rows = np.repeat(rows, count)
        successors = np.column_stack([np.repeat(successors, count, axis=0), p.indices[pos]])
        values = np.repeat(values, count) * p.data[pos]
    return rows, successors, values


def _symbol_columns(
    p: sparse.csr_array, digits: np.ndarray, node: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of B in one symbol z's columns: (rows, columns, values).

    p holds P's columns of S_z, so successors come in digits local to S_z;
    node maps a successor's rank in S_z^alpha to its node (or -1) and w
    gives its emission product, 0 where it is no node.  Rows ascend and a
    row's columns too.  Indices are int32: the byte budget of
    `collision_system` keeps them far below 2^31.
    """
    rows, successors, values = _successors(p, digits)
    rank = successors[:, 0].astype(np.intp)
    for j in range(1, successors.shape[1]):
        rank = rank * p.shape[1] + successors[:, j]
    del successors
    values *= w[rank]
    kept = np.flatnonzero(values > 0)  # no node, or a product that underflows
    return rows[kept].astype(np.int32), node[rank[kept]].astype(np.int32), values[kept]


def collision_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> CollisionSystem:
    """Restricted tensored matrix of the joint chain, built in collision coordinates.

    Entries: A[(xs,z),(xs',z')] = prod_j P[xs_j, xs'_j] * E[xs'_j, z'].
    Initial: nu[(xs,z)] = prod_j pi[xs_j] * E[xs_j, z].

    Products run left to right over the tuple coordinates, so A and nu
    are float for float the restriction of the left-folded Kronecker
    powers of P and pi.  Refused with DimensionOverflow when
    nx^alpha * nz > max_dim, or at once when the build is predicted to
    hold more than 1 GiB: 8 * alpha + 60 bytes for each entry of A,
    counted in closed form (see `_stored_entries`).  The build holds A, B
    (the rows of A's distinct hidden tuples), K and one symbol's successor
    enumeration; no nx^alpha x nx^alpha array is formed.
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    p = sparse.csr_array(hmm.chain.transition)
    p.eliminate_zeros()
    emits = e > 0
    entries = _stored_entries(p, emits, alpha)
    _check_build_bytes("collision system would store", entries, 8 * alpha + 60)

    # Symbol z's candidate tuples are S_z^alpha in lexicographic order; a
    # candidate is a node when its emission product is positive (it can
    # underflow).  node maps a candidate's rank to its node or -1.
    candidates, hidden, node_symbols, nu = [], [], [], []
    dim = 0
    for z in range(nz):
        s = np.flatnonzero(emits[:, z])
        grid = s[np.indices((s.size,) * alpha).reshape(alpha, -1)]
        w = reduce(np.multiply, e[grid, z])
        kept = np.flatnonzero(w > 0)
        node = np.full(w.size, -1, dtype=np.intp)
        node[kept] = dim + np.arange(kept.size)
        dim += kept.size
        candidates.append((s, node, w))
        hidden.append(np.ravel_multi_index(grid[:, kept], (nx,) * alpha))
        node_symbols += [hmm.observations[z]] * kept.size
        nu.append(reduce(np.multiply, hmm.chain.initial[grid[:, kept]]) * w[kept])
    tuples, node_tuple = np.unique(np.concatenate(hidden), return_inverse=True)
    nu = np.concatenate(nu)
    digits = np.stack(np.unravel_index(tuples, (nx,) * alpha), axis=1)

    # B[t, (t', z')], one symbol's columns at a time; symbols in order keep
    # every row sorted.  Each row of B is written once and gathered for
    # every node of its tuple into A.  K = B L sums each row's columns
    # over the nodes of a tuple in ascending node order.
    blocks = [_symbol_columns(p[:, s], digits, node, w) for s, node, w in candidates if s.size]
    rows, cols, values = map(np.concatenate, zip(*blocks))
    del blocks
    b = sparse.csr_array((values, (rows, cols)), shape=(tuples.size, dim))
    del rows, cols, values
    collapse = sparse.csr_array(
        (np.ones(dim), node_tuple, np.arange(dim + 1)), shape=(dim, tuples.size)
    )
    k = NonnegMatrix.from_sparse(b @ collapse)
    matrix = NonnegMatrix.from_sparse(b[node_tuple])
    del b

    states = hmm.chain.states
    for vector in (nu, node_tuple):
        vector.setflags(write=False)
    return CollisionSystem(
        order=alpha,
        matrix=matrix,
        initial=nu,
        tuple_matrix=k,
        node_tuple=node_tuple,
        tuple_names=tuple(",".join(states[i] for i in tup) for tup in digits.tolist()),
        node_symbols=tuple(node_symbols),
    )


def lumped_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> tuple[int, NonnegMatrix, np.ndarray, int]:
    """K lumped onto multisets of hidden states, and its weights.

    Returns (order, K~, u~, dimension of A): u~^T K~^(n-1) 1 equals
    nu^T A^(n-1) 1 of `collision_system`.
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
    Refused with DimensionOverflow when nx^alpha * nz > max_dim, as
    `collision_system` is, or at once when the build is predicted to hold
    more than 1 GiB: 4 * alpha + 64 bytes for each entry, counted over
    all multisets (see `_lumped_entries`).
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    p = sparse.csr_array(hmm.chain.transition)
    p.eliminate_zeros()
    entries = _lumped_entries(np.diff(p.indptr).tolist(), alpha)
    _check_build_bytes("lumped system would enumerate", entries, 4 * alpha + 64)
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

    rows, successors, values = _successors(p, reps)
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


def _lumped_entries(degree: list[int], alpha: int) -> int:
    """Successor entries `lumped_system` may enumerate: sum_M prod_j deg(m_j).

    The sum over all multisets M of alpha states is h_alpha(deg), the
    complete homogeneous symmetric polynomial of P's row degrees, from
    h_k(d_1..d_i) = h_k(d_1..d_(i-1)) + d_i h_(k-1)(d_1..d_i).  Multisets
    with w = 0 are counted too, though the build skips them.
    """
    h = [1] + [0] * alpha
    for d in degree:
        for k in range(1, alpha + 1):
            h[k] += d * h[k - 1]
    return h[alpha]


def _rank(tuples: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colexicographic rank of each sorted row among the multisets of its size."""
    return sum(binom[tuples[:, j], j] for j in range(tuples.shape[1]))

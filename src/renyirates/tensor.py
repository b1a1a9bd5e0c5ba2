"""The collision matrix of an HMM, built from P's sparse rows.

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

Permuting the coordinates can map one component of K onto another, so
K~'s components are not A's (a 3-cycle observed through one symbol has
3 at alpha = 2, K~ only 2).  But K's are: node (t, z) of A has the
successors of t in K.  `irreducible` sweeps K's pattern over X^alpha to
decide whether A is one component; when it is, its rate is rho(K~), and
no node needs a row of K~.  K~'s build is never larger than A's
(`_lumped_count`), so that path, which never builds A, is always taken;
`collision_nodes` lists A's nodes, labels and nu without A's entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np
from scipy import sparse

from .components import _LEVEL_COST, _sweep
from .errors import DimensionOverflow
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

# `irreducible` trusts patterns while every product of alpha entries of P
# and alpha of E is at least 2^-1000, far from underflow (2^-1022 is the
# smallest normal double).  Its levels count as those of
# `components._sweep` (about 20 us each), one more for every 2^16
# multiply-adds, and the collision build it saves as 32 at least.
_SAFE_PRODUCT_LOG2 = -1000.0
_PRODUCT_COST = 2**16
_BUILD_LEVELS = 32


@dataclass(frozen=True)
class CollisionNodes:
    """The nodes of A and their initial weights nu, without A's entries.

    Node i is the hidden tuple of rank hidden[i] in X^alpha (lexicographic
    order) emitting node_symbols[i]; nodes are in A's order.  candidates
    holds, for each symbol z, the states S_z that can emit it, the node of
    each candidate tuple of S_z^alpha by its rank (or -1) and the
    candidate's emission product: what the collision build reads.
    """

    order: int
    hidden: np.ndarray
    node_symbols: tuple[str, ...]
    initial: np.ndarray
    states: tuple[str, ...]
    candidates: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def dimension(self) -> int:
        return self.hidden.size

    def labels(self) -> tuple[str, ...]:
        """Node labels "x1,...,xa|z": the hidden tuple, then the symbol."""
        tuples, node_tuple = np.unique(self.hidden, return_inverse=True)
        digits = np.stack(np.unravel_index(tuples, (len(self.states),) * self.order), axis=1)
        names = [",".join(self.states[i] for i in tup) for tup in digits.tolist()]
        return tuple(names[t] + "|" + z for t, z in zip(node_tuple.tolist(), self.node_symbols))


@dataclass(frozen=True)
class CollisionSystem:
    """Restricted tensored matrix A on its nodes, and the tuple matrix K.

    Node i of A is node i of `nodes`; node_tuple[i] is its row of K, whose
    rows are the hidden tuples of A's nodes in lexicographic order.
    """

    matrix: NonnegMatrix
    tuple_matrix: NonnegMatrix
    node_tuple: np.ndarray
    nodes: CollisionNodes

    @property
    def order(self) -> int:
        return self.nodes.order

    @property
    def initial(self) -> np.ndarray:
        return self.nodes.initial

    @property
    def dimension(self) -> int:
        return self.matrix.dim

    def labels(self) -> tuple[str, ...]:
        return self.nodes.labels()


@dataclass(frozen=True)
class LumpedSystem:
    """K lumped onto multisets of hidden states, its weights and A's dimension."""

    order: int
    matrix: NonnegMatrix
    initial: np.ndarray
    dimension: int


def _check_dimension(nx: int, nz: int, alpha: int, max_dim: int) -> None:
    """Refuse an order-alpha system whose tensor index set X^alpha x Z exceeds max_dim.

    Orders above 64 are refused first, before nx^alpha is formed: the
    builds hold X^alpha as arrays with alpha axes, and numpy allows 64.
    """
    if alpha > 64:
        raise DimensionOverflow(
            f"order {alpha} exceeds 64, the most array axes the collision builds can index"
        )
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


def _stored_entries(p, emits: np.ndarray, alpha: int) -> int:
    """Entries of A, in closed form, before any product underflows.

    p is P as a dense or CSR array.  With S_z = {x : E[x, z] > 0}
    (emits[:, z]) and c_z'(x) = |{x' in S_z' : P[x, x'] > 0}|, A stores
    sum_{z, z'} (sum_{x in S_z} c_z'(x))^alpha entries; B, whose rows are
    some of A's, at most as many.
    """
    s = emits.astype(np.int64)
    counts = s.T @ ((p > 0).astype(np.int64) @ s)
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
    values = np.ones(len(tuples))
    digits, counts = [], []  # per coordinate: its entries' columns, its parents' child counts
    for j in range(tuples.shape[1]):
        state = tuples[rows, j]
        count = degree[state]
        first = np.cumsum(count) - count
        pos = np.repeat(p.indptr[state] - first, count) + np.arange(count.sum())
        rows = np.repeat(rows, count)
        values = np.repeat(values, count) * p.data[pos]
        digits.append(p.indices[pos])
        counts.append(count)
    # an entry's children are contiguous, so each digit is repeated once
    # per final entry below it; spans counts those, last coordinate first
    successors = np.empty((rows.size, len(digits)), dtype=p.indices.dtype)
    spans = None  # one final entry per entry of the last coordinate
    for j in range(len(digits) - 1, -1, -1):
        successors[:, j] = digits[j] if spans is None else np.repeat(digits[j], spans)
        if spans is None:
            spans = counts[j]
        elif j:
            below = np.concatenate(([0], np.cumsum(spans)))
            ends = np.cumsum(counts[j])
            spans = below[ends] - below[ends - counts[j]]
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
    entries = _stored_entries(hmm.chain.transition, e > 0, alpha)
    _check_build_bytes("collision system would store", entries, 8 * alpha + 60)
    nodes = collision_nodes(hmm, alpha)
    dim = nodes.dimension
    tuples, node_tuple = np.unique(nodes.hidden, return_inverse=True)
    digits = np.stack(np.unravel_index(tuples, (nx,) * alpha), axis=1)

    # B[t, (t', z')], one symbol's columns at a time; symbols in order keep
    # every row sorted.  Each row of B is written once and gathered for
    # every node of its tuple into A.  K = B L sums each row's columns
    # over the nodes of a tuple in ascending node order.
    blocks = [
        _symbol_columns(p[:, s], digits, node, w) for s, node, w in nodes.candidates if s.size
    ]
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

    node_tuple.setflags(write=False)
    return CollisionSystem(matrix=matrix, tuple_matrix=k, node_tuple=node_tuple, nodes=nodes)


def _emission_products(e: np.ndarray, alpha: int):
    """For each symbol z: S_z, the states that can emit it, and the emission
    product prod_j E[x_j, z] of each candidate tuple of S_z^alpha.

    Outer products list the candidates in lexicographic order and multiply
    each one's factors left to right; a product can underflow to 0.
    """
    for z in range(e.shape[1]):
        s = np.flatnonzero(e[:, z] > 0)
        yield s, reduce(np.multiply.outer, [e[s, z]] * alpha).ravel()


def collision_nodes(hmm: HiddenMarkovModel, alpha: int) -> CollisionNodes:
    """A's nodes, symbol by symbol, and nu: the candidate loop of the collision build.

    A candidate of `_emission_products` is a node when its emission product
    is positive.  Its initial weight is prod_j pi[x_j], multiplied left to
    right, times that product.  The lumped rate lists A's nodes with it
    and never builds A.
    """
    alpha = _hmm_order(alpha)
    nx = hmm.n_states
    candidates, hidden, node_symbols, nu = [], [], [], []
    dim = 0
    for z, (s, w) in enumerate(_emission_products(hmm.emission, alpha)):
        kept = np.flatnonzero(w > 0)
        node = np.full(w.size, -1, dtype=np.intp)
        node[kept] = dim + np.arange(kept.size)
        dim += kept.size
        candidates.append((s, node, w))
        hidden.append(reduce(lambda rank, x: np.add.outer(rank * nx, x), [s] * alpha).ravel()[kept])
        node_symbols += [hmm.observations[z]] * kept.size
        nu.append(reduce(np.multiply.outer, [hmm.chain.initial[s]] * alpha).ravel()[kept] * w[kept])
    nu = np.concatenate(nu)
    nu.setflags(write=False)
    return CollisionNodes(
        order=alpha,
        hidden=np.concatenate(hidden),
        node_symbols=tuple(node_symbols),
        initial=nu,
        states=hmm.chain.states,
        candidates=tuple(candidates),
    )


def irreducible(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> bool | None:
    """Whether the collision matrix A is irreducible, decided without building it.

    Node (t, z) of A has the nodes of t's successors in K as its own, so
    when K has more than one row, A is irreducible exactly when K is.  K's
    reachability is swept matrix-free on a dense array over X^alpha, the
    tensor-descriptor product of B. Fernandes, B. Plateau and W. J.
    Stewart (J. ACM 45, 1998) on the pattern: one level is a mode product
    with P's pattern along every axis (P's transposed pattern sweeping
    backward), masked by w > 0.  Both sweeps start from the first tuple
    with w > 0; A is irreducible when both reach every such tuple, and
    reducible when one stops short.

    None (undecided) when some product of alpha entries of P and alpha of
    E could drop below 2^-1000, since the pattern stands for A only if no
    product underflows; when K has at most one row; and once the sweeps
    have spent about what the collision build and Tarjan's pass on A
    would cost: the budget of `components._strongly_connected` on A's
    nodes and entries, plus 32 levels for the build's fixed cost (about
    0.7 ms).  A level costs one unit, about 20 us, plus one for every
    2^16 multiply-adds of its products.  Refused with DimensionOverflow
    as `collision_system` is when nx^alpha * nz > max_dim; a sweep over
    more than 1 GiB gives up.
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    pattern = hmm.chain.transition > 0
    emits = e > 0
    smallest = math.log2(hmm.chain.transition[pattern].min()) + math.log2(e[emits].min())
    if alpha * smallest < _SAFE_PRODUCT_LOG2 or 32 * nx**alpha > _BUILD_BYTES:
        return None
    n = sum(int(s) ** alpha for s in np.count_nonzero(emits, axis=0))
    levels = _BUILD_LEVELS + (n + _stored_entries(pattern, emits, alpha)) // _LEVEL_COST
    cost = 1 + alpha * nx ** (alpha + 1) // _PRODUCT_COST
    nodes = reduce(np.logical_or, [reduce(np.logical_and.outer, [s] * alpha) for s in emits.T])
    nodes = nodes.ravel()
    if np.count_nonzero(nodes) < 2:
        return None

    def image(step_pattern: np.ndarray):
        def step(frontier: np.ndarray) -> np.ndarray:
            x = np.zeros(nodes.size)
            x[frontier] = 1.0
            x = x.reshape(nx, -1)
            for _ in range(alpha):  # contract the first axis, append the image last
                x = (x.T @ step_pattern).reshape(nx, -1)
            return x.ravel() > 0

        return step

    start, absent = int(np.argmax(nodes)), ~nodes
    pattern = pattern.astype(float)
    levels = _sweep(image(pattern), nodes.size, levels, cost, start, absent)
    if levels >= 0:
        levels = _sweep(image(pattern.T), nodes.size, levels, cost, start, absent)
    return None if levels == -2 else levels >= 0


def lumped_system(
    hmm: HiddenMarkovModel, alpha: int, max_dim: int = DEFAULT_MAX_DIM
) -> LumpedSystem:
    """K lumped onto multisets of hidden states, its weights, and A's dimension.

    u~^T K~^(n-1) 1 equals nu^T A^(n-1) 1 of `collision_system`.  K~ is
    indexed by the multisets M (sorted tuples, in lexicographic order)
    with w(M) > 0:

        K~[M, M'] = w(M') sum_{t' in orbit(M')} prod_j P[m_j, t'_j]
        u~(M)     = |orbit(M)| prod_j pi[m_j] w(M)

    K~ has K's Perron root.  dimension counts the nodes of that A from
    the collision build's own emission products, without listing them
    (`collision_nodes` does).

    A multiset M' with w(M') > 0 lies in a maximal emission support
    (`_maximal_supports`), so each pass takes P's CSR rows restricted to
    one support's columns, sorts the successor tuples into multisets and
    keeps those whose first maximal support it is; duplicates are summed.
    With one support, as under dense emissions, the one pass runs on P.
    No nx^alpha x nx^alpha array is formed.  Refused with
    DimensionOverflow when nx^alpha * nz > max_dim, as `collision_system`
    is, or at once when the build is predicted to hold more than 1 GiB:
    4 * alpha + 64 bytes for each entry, counted by `_lumped_count`.
    """
    alpha = _hmm_order(alpha)
    e = hmm.emission
    nx, nz = e.shape
    _check_dimension(nx, nz, alpha, max_dim)
    p = sparse.csr_array(hmm.chain.transition)
    p.eliminate_zeros()
    supports = _maximal_supports(e > 0)
    entries = _lumped_count(hmm.chain.transition, supports, alpha)
    _check_build_bytes("lumped system would enumerate", entries, 4 * alpha + 64)
    reps = np.array(
        list(combinations_with_replacement(range(nx), alpha)), dtype=np.intp
    ).reshape(-1, alpha)
    binom = _binomials(nx, alpha)
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

    single = len(supports) == 1  # then S holds every state: no slice, no owner
    owner = None if single else np.argmax(supports[:, reps].all(axis=2), axis=0)
    blocks = []
    for i, s in enumerate(supports):
        states = np.flatnonzero(s)
        rows, successors, values = _successors(p if single else p[:, states], reps)
        successors.sort(axis=1)  # S ascends, so its digits sort as its states
        cols = index[_rank(successors if single else states[successors], binom)]
        del successors
        live = cols >= 0 if single else (cols >= 0) & (owner[cols] == i)  # w = 0 or not owned
        cols = cols[live]
        blocks.append((rows[live], cols, values[live] * w[cols]))
    rows, cols, values = blocks[0] if single else map(np.concatenate, zip(*blocks))
    k = sparse.csr_array((values, (rows, cols)), shape=(kept.size, kept.size))
    k.sum_duplicates()
    dimension = sum(int(np.count_nonzero(w)) for _, w in _emission_products(e, alpha))
    return LumpedSystem(alpha, NonnegMatrix.from_sparse(k), u, dimension)


def _maximal_supports(emits: np.ndarray) -> np.ndarray:
    """Masks of the distinct S_z = {x : E[x, z] > 0} (emits[:, z]) no other contains, by first z."""
    s = emits.T
    count = s.astype(np.int64)
    inside = count @ count.T == count.sum(axis=1)[:, None]  # inside[z, z']: S_z within S_z'
    covered = inside & (~inside.T | np.tri(len(s), k=-1, dtype=bool))  # or repeats an earlier one
    return s[~covered.any(axis=1)]


def _lumped_count(p, supports: np.ndarray, alpha: int) -> int:
    """Successor entries `lumped_system` may enumerate, in closed form.

    The pass over a maximal support S (a row of `supports`) enumerates
    prod_j c_S(m_j) successors of a multiset M, c_S(x) = |{x' in S :
    P[x, x'] > 0}|, and M lies in some maximal T, so the count is
    sum_{S, T} h_alpha({c_S(x) : x in T}) (`_lumped_entries`).  As
    h_alpha(c) <= (sum c)^alpha and the pairs (S, T) are some of the
    symbol pairs, it never exceeds `_stored_entries`: K~ can be built
    wherever A can.  With one support it is h_alpha of P's row degrees.
    """
    counts = (p > 0).astype(np.int64) @ supports.T.astype(np.int64)  # column i: c_S of row i
    return sum(_lumped_entries(c[t].tolist(), alpha) for c in counts.T for t in supports)


def _lumped_entries(degree: list[int], alpha: int) -> int:
    """Successor entries of all multisets M of alpha of the given states: sum_M prod_j deg(m_j).

    degree lists each state's successor count: its row degree in P, or
    in P's columns of one emission support.  The sum is
    h_alpha(deg), the complete homogeneous symmetric polynomial, from
    h_k(d_1..d_i) = h_k(d_1..d_(i-1)) + d_i h_(k-1)(d_1..d_i).
    """
    h = [1] + [0] * alpha
    for d in degree:
        for k in range(1, alpha + 1):
            h[k] += d * h[k - 1]
    return h[alpha]


def _binomials(nx: int, alpha: int) -> np.ndarray:
    """C(m + j, j + 1) for state m and place j: the colexicographic rank of a
    sorted tuple m is sum_j C(m_j + j, j + 1)."""
    return np.array(
        [[math.comb(m + j, j + 1) for j in range(alpha)] for m in range(nx)], dtype=np.intp
    )


def _rank(tuples: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Colexicographic rank of each sorted row among the multisets of its size."""
    return sum(binom[tuples[:, j], j] for j in range(tuples.shape[1]))

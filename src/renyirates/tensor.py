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
row per hidden tuple and L copying a hidden tuple to each of its nodes;
`collision_system` enumerates B once and gathers A from it.  The
symbol-summed tuple matrix K = B L = P^(tensor alpha) diag(w),
w(xs) = sum_z prod_j E[xs_j, z], gives the same collision
probabilities, (pi^(tensor alpha) o w)^T K^(n-1) 1, and the same
non-zero spectrum (Horn & Johnson, Matrix Analysis, Thm 1.3.22).  K is
never built: it is what the lumped matrix lumps.

K, its weights and the all-ones vector are invariant under permuting the
alpha tuple coordinates, so K lumps exactly onto multisets of hidden
states (ordinary lumpability: Kemeny & Snell, Finite Markov Chains,
1960; P. Buchholz, J. Appl. Probab. 31, 1994).  The lumped matrix K~ has
at most C(nx + alpha - 1, alpha) rows, about alpha! times fewer than K
and nz alpha! times fewer than A, and `lumped_system` builds it straight
from the multisets, enumerating successors the same way; finite lengths
run on it.  At 8 states, 3 symbols and alpha = 4 it has 330 rows where
K has 4096 and 16.8M stored entries.  Where every row of P is full on an
emission support S, as in a dense HMM, every multiset has the same
successors, the grid S^alpha: its columns are ranked once and tiled
over the rows, and its values formed by broadcast products of P's rows,
so that support's rows need no enumeration of their own.

Permuting the coordinates can map one component of K onto another, so
K~'s components are not A's (a 3-cycle observed through one symbol has
3 at alpha = 2, K~ only 2).  But K's are: node (t, z) of A has the
successors of t in K.  `irreducible` sweeps K's pattern over X^alpha to
decide whether A is one component (a fully observed chain's A, too, on
P's own pattern); when it is, its rate is rho(K~), and no node needs a
row of K~.  K~ enumerates no more successor entries than
A stores (`_lumped_count`), so that path, which never builds A, is
always taken; only K~'s listing of every multiset of X can be refused
where A would fit.  `collision_nodes` lists A's nodes and nu without
A's entries.  Their labels are named symbol by symbol from the states
that can emit it, by string concatenation, with no ranking of the
nodes' hidden tuples: A's build alone ranks them
(`CollisionNodes._tuples`).
Otherwise A is built and each component's radius taken from its own
block.

Every public build checks only itself, and refuses at once, with
DimensionOverflow, what it is predicted to hold past one byte budget,
1 GiB (`_BUILD_BYTES`): a closed-form count of what it lists times the
bytes each item takes.  X^alpha itself is not bounded: 8 states observed
in 4 pairs at alpha = 6 index 4 * 8^6 tuples, but A has 256 nodes and K~
28 rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import DimensionOverflow
from .model import HiddenMarkovModel, MarkovChain, _chain_order, _hmm_order
from .nonneg import NonnegMatrix, _csr_arrays

# The byte budget of every build.  collision_system: 12 for each stored
# entry of A (a float64 value and an int32 column) and at most
# 8 * alpha + 48 more for enumerating it (one symbol's successors with
# their alpha int32 digits, rows, values and ranks, then B's COO and CSR
# entries).  Measured build peaks stay under 64 bytes an entry of A at
# alpha <= 5.  lumped_system: 4 * alpha + 64 bytes for each successor
# entry it enumerates (alpha int32 digits, sorted in place, their ranks,
# rows, values and K~'s CSR arrays); its measured build peaks, 45-70
# bytes an entry on dense-emission models with 30 % of P's entries zero
# at alpha = 2-7, stay under that.  A support built as one grid holds no
# digits per entry, only its rows, values and columns: 28 bytes an
# entry, measured on dense models of 3-60 states at alpha = 2-8.  The
# node and multiset listings are charged by `_check_nodes` and
# `_check_lumped`.
_BUILD_BYTES = 2**30

# `irreducible` trusts patterns while every product of alpha entries of P
# and alpha of E is at least 2^-1000, far from underflow (2^-1022 is the
# smallest normal double).  A level of its sweeps (`_sweep`) costs one
# unit, about 20 us on a 2-core x86 box, one more for every 2^16
# multiply-adds.  Tarjan's pass on A costs about a unit for every 128
# nodes or stored entries, and an HMM's collision build, which the sweeps
# save, 32 units at least.
_SAFE_PRODUCT_LOG2 = -1000.0
_PRODUCT_COST = 2**16
_LEVEL_COST = 128
_BUILD_LEVELS = 32


@dataclass(frozen=True)
class CollisionNodes:
    """The nodes of A and their initial weights nu, without A's entries.

    Node i is the hidden tuple of rank hidden[i] in X^alpha (lexicographic
    order); nodes are in A's order.  candidates holds, for each symbol z,
    in order: z, the states S_z that can emit it, the node of each
    candidate tuple of S_z^alpha by its rank (or -1) and the candidate's
    emission product: what the collision build and the labels read.
    """

    order: int
    hidden: np.ndarray
    initial: np.ndarray
    states: tuple[str, ...]
    candidates: tuple[tuple[str, np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def dimension(self) -> int:
        return self.hidden.size

    @cached_property
    def _tuples(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """A's distinct hidden tuples in rank order, one array of states per
        place, and each node's tuple among them: what A's build reads."""
        tuples, node_tuple = np.unique(self.hidden, return_inverse=True)
        return np.unravel_index(tuples, (len(self.states),) * self.order), node_tuple

    def labels(self) -> tuple[str, ...]:
        """Node labels "x1,...,xa|z": the hidden tuple, then the symbol.

        Each symbol's candidates are named in lexicographic order by
        list comprehensions of string concatenation, one level a
        coordinate: the tuples of S_z^(alpha-1), then each of them with
        each last state and z.  Only the candidates that are nodes are
        kept.
        """
        # every candidate is a node unless an emission product underflowed
        every = sum(node.size for _, _, node, _ in self.candidates) == self.dimension
        labels = []
        for z, s, node, _ in self.candidates:
            names = [self.states[x] for x in s.tolist()]
            heads = names
            for _ in range(self.order - 2):
                heads = [h + "," + x for h in heads for x in names]
            tails = ["," + x + "|" + z for x in names]
            named = [h + t for h in heads for t in tails]
            labels += named if every else [named[k] for k in np.flatnonzero(node >= 0).tolist()]
        return tuple(labels)


@dataclass(frozen=True)
class CollisionSystem:
    """Restricted tensored matrix A on its nodes: node i of A is node i of `nodes`."""

    matrix: NonnegMatrix
    nodes: CollisionNodes

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


def _order(alpha) -> int:
    """The order of a collision build: an integer from 2 to 64.

    Orders above 64 are refused before nx^alpha is formed: the builds hold
    X^alpha as arrays with alpha axes, and numpy allows 64.
    """
    alpha = _hmm_order(alpha)
    if alpha > 64:
        raise DimensionOverflow(
            f"order {alpha} exceeds 64, the most array axes the collision builds can index"
        )
    return alpha


def _check_build_bytes(what: str, count: int, bytes_each: int) -> None:
    """Refuse a build predicted to hold more than _BUILD_BYTES: count items of bytes_each.

    what says what is counted, with {} where the count goes.
    """
    predicted = count * bytes_each
    if predicted > _BUILD_BYTES:
        raise DimensionOverflow(
            f"{what.format(count)}, about {predicted / 2**30:.1f} GiB to build, "
            f"over the {_BUILD_BYTES / 2**30:.0f} GiB budget"
        )


def _underflow_free(alpha: int, *factors: np.ndarray) -> bool:
    """Whether a product of alpha positive entries of each array, all
    multiplied, stays at least 2^-1000 (`_SAFE_PRODUCT_LOG2`)."""
    return alpha * sum(math.log2(f[f > 0].min()) for f in factors) >= _SAFE_PRODUCT_LOG2


def _candidates(emits: np.ndarray, alpha: int) -> int:
    """sum_z |S_z|^alpha, S_z = {x : E[x, z] > 0} (emits[:, z]): the tuples
    `_emission_products` forms, and a bound on A's nodes."""
    return sum(s**alpha for s in emits.sum(axis=0).tolist())


def _check_nodes(hmm: HiddenMarkovModel, alpha: int) -> None:
    """Refuse A's node listing, with the labels every rate reads, when over budget.

    Each candidate tuple of `_candidates` is charged 224 + 16 alpha bytes
    and its label's length at 2 bytes a character, or 4 when a state or
    observation name holds a code point above U+FFFF, which CPython then
    stores at 4 bytes a character, for `collision_nodes` and
    `CollisionNodes.labels` together.  Measured peaks (tracemalloc, one
    symbol emitted by every state, 4096 to 1M nodes) stay at 31-46 % of
    that charge at alpha = 2-20: the listing 48-61 bytes a node, and with
    the labels 112-194 bytes a node with one-character names and 133-407
    with eight-character ones; with 30-character names of U+1F600..
    characters, 504, 634 and 1113 bytes a node at alpha = 2, 3 and 6,
    against charges of 624, 764 and 1184.  Hidden tuples are ranked in
    X^alpha as intp, so an X^alpha past intp is refused too.
    """
    nx = hmm.n_states
    if nx**alpha > np.iinfo(np.intp).max:
        raise DimensionOverflow(
            f"{nx}^{alpha} hidden tuples overflow the node listing's int64 ranks"
        )
    label = alpha * (max(map(len, hmm.chain.states)) + 1) + max(map(len, hmm.observations))
    width = 4 if max("".join(hmm.chain.states + hmm.observations), default="") > "\uffff" else 2
    count = _candidates(hmm.emission > 0, alpha)
    _check_build_bytes("collision nodes would list {} tuples", count, 224 + 16 * alpha + width * label)


def _check_lumped(hmm: HiddenMarkovModel, alpha: int) -> np.ndarray:
    """Refuse `lumped_system` when what it lists is predicted over budget or
    its orbit counts overflow; else return the maximal emission supports.

    Every multiset of alpha states, C(nx + alpha - 1, alpha) of them, is listed
    as a Python tuple, then with its emissions, alpha * nz floats
    (measured: 932-1236 bytes a multiset at 12-30 states, alpha = 4-8, one
    symbol a state); the successor entries of `_lumped_count`; and, when
    an emission product can underflow (`_underflow_free`), the recount of
    A's nodes, 24 bytes a candidate of `_candidates`.  An int64 running
    product counts |orbit(M)| and reaches alpha times the largest orbit:
    the multinomial of alpha split most evenly over the largest support.
    """
    nx, nz = hmm.emission.shape
    multisets = math.comb(nx + alpha - 1, alpha)
    listing = 8 * (alpha + 1) * nz + 16 * alpha + 64
    _check_build_bytes("lumped system would list {} multisets", multisets, listing)
    supports = _maximal_supports(hmm.emission > 0)
    s = int(supports.sum(axis=1).max())
    q, r = divmod(alpha, s)
    largest = math.factorial(alpha) // (math.factorial(q + 1) ** r * math.factorial(q) ** (s - r))
    if alpha * largest > np.iinfo(np.intp).max:
        raise DimensionOverflow(
            f"orbits of up to {largest} tuples overflow the lumped system's int64 counts"
        )
    entries = _lumped_count(hmm.chain.transition, supports, alpha)
    _check_build_bytes("lumped system would enumerate {} entries", entries, 4 * alpha + 64)
    if not _underflow_free(alpha, hmm.emission):
        count = _candidates(hmm.emission > 0, alpha)
        _check_build_bytes("lumped system would count {} tuples", count, 24)
    return supports


class _Rows(NamedTuple):
    """A matrix's CSR arrays, columns ascending in each row: what the builds read of P."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _transition_rows(hmm: HiddenMarkovModel) -> _Rows:
    """P's stored entries, zeros dropped: scipy's CSR arrays of P, with no scipy constructor."""
    p = hmm.chain.transition
    return _Rows(*_csr_arrays(p), p.shape)


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


def _successors(p: _Rows, places) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Successor tuples of a list of tuples under the tensor power of p.

    p holds CSR arrays (a `_Rows` or a scipy CSR array) with sorted column
    indices.  `places` holds one array per place: the tuples' row indices
    of p there.  Returns (rows, successors, values), successors one array
    per place too, of p.indices' dtype: entry k is a successor of tuple
    rows[k] with column successors[j][k] of p at place j, and value
    prod_j p[places[j][rows[k]], successors[j][k]] multiplied left to
    right.  Rows ascend and a row's successors are in lexicographic order.
    Each place's states are carried forward as the enumeration goes: an
    entry's children are contiguous, so the earlier places are repeated
    once per child.  The entries number sum_t prod_j deg(t_j), deg(x) the
    stored entries of p's row x.
    """
    degree = np.diff(p.indptr)
    rows = np.arange(len(places[0]))
    values = np.ones(rows.size)
    successors = []
    for place in places:
        state = place[rows]
        count = degree[state]
        first = np.cumsum(count) - count
        pos = np.repeat(p.indptr[state] - first, count) + np.arange(count.sum())
        rows = np.repeat(rows, count)
        values = np.repeat(values, count) * p.data[pos]
        successors = [np.repeat(d, count) for d in successors] + [p.indices[pos]]
    return rows, successors, values


def _columns(p: _Rows, states: np.ndarray) -> _Rows:
    """p's columns `states` (ascending), numbered from 0: the arrays of scipy's p[:, states].

    Built from p's CSR arrays: p.indices masked to `states` and renumbered,
    and each row's kept entries counted, so the rows keep p's order.
    """
    local = np.full(p.shape[1], -1, dtype=p.indices.dtype)
    local[states] = np.arange(states.size)
    cols = local[p.indices]
    kept = cols >= 0
    indptr = np.concatenate(([0], np.cumsum(kept)))[p.indptr].astype(p.indptr.dtype)
    return _Rows(p.data[kept], cols[kept], indptr, (p.shape[0], states.size))


def _symbol_columns(
    p: _Rows, places, node: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of B in one symbol z's columns: (rows, columns, values).

    places holds the tuples of B's rows, one array of states per place.  p
    holds P's columns of S_z, so successors come in states local to S_z,
    and their rank in S_z^alpha is folded place by place; node maps it to
    the successor's node (or -1) and w gives its emission product, 0 where
    it is no node.  Rows ascend and a row's columns too.  Indices are
    int32: the byte budget of `collision_system` keeps them far below 2^31.
    """
    rows, successors, values = _successors(p, places)
    rank = successors[0].astype(np.intp)
    for d in successors[1:]:
        rank = rank * p.shape[1] + d
    del successors
    values *= w[rank]
    kept = np.flatnonzero(values > 0)  # no node, or a product that underflows
    return rows[kept].astype(np.int32), node[rank[kept]].astype(np.int32), values[kept]


def collision_system(
    hmm: HiddenMarkovModel, alpha: int, nodes: CollisionNodes | None = None
) -> CollisionSystem:
    """Restricted tensored matrix of the joint chain, built in collision coordinates.

    Entries: A[(xs,z),(xs',z')] = prod_j P[xs_j, xs'_j] * E[xs'_j, z'].
    Initial: nu[(xs,z)] = prod_j pi[xs_j] * E[xs_j, z].

    Products run left to right over the tuple coordinates, so A and nu
    are float for float the restriction of the left-folded Kronecker
    powers of P and pi.  Refused with DimensionOverflow at once when the
    build is predicted to hold more than 1 GiB: 8 * alpha + 60 bytes for
    each entry of A, counted in closed form (see `_stored_entries`), or
    its nodes as `collision_nodes` charges them.  Nodes passed as `nodes`,
    as `collision_nodes(hmm, alpha)` checked and listed them, are neither
    checked nor listed again.  The build holds A, B (the rows of A's distinct hidden tuples) and one
    symbol's successor enumeration; no nx^alpha x nx^alpha array is
    formed.
    """
    alpha = _order(alpha)
    p = _transition_rows(hmm)
    entries = _stored_entries(hmm.chain.transition, hmm.emission > 0, alpha)
    _check_build_bytes("collision system would store {} entries", entries, 8 * alpha + 60)
    if nodes is None:
        nodes = collision_nodes(hmm, alpha)
    places, node_tuple = nodes._tuples

    # B[t, (t', z')], one symbol's columns at a time; symbols in order keep
    # every row sorted.  Each row of B is written once and gathered for
    # every node of its tuple into A.
    blocks = [
        _symbol_columns(_columns(p, s), places, node, w)
        for _, s, node, w in nodes.candidates
        if s.size
    ]
    rows, cols, values = map(np.concatenate, zip(*blocks))
    del blocks
    b = sparse.csr_array((values, (rows, cols)), shape=(len(places[0]), nodes.dimension))
    del rows, cols, values
    return CollisionSystem(matrix=NonnegMatrix(b[node_tuple]), nodes=nodes)


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
    and never builds A.  Refused with DimensionOverflow at once when the
    listing and its labels are predicted to hold more than 1 GiB
    (`_check_nodes`).
    """
    alpha = _order(alpha)
    _check_nodes(hmm, alpha)
    nx = hmm.n_states
    candidates, hidden, nu = [], [], []
    dim = 0
    for z, (s, w) in zip(hmm.observations, _emission_products(hmm.emission, alpha)):
        kept = np.flatnonzero(w > 0)
        node = np.full(w.size, -1, dtype=np.intp)
        node[kept] = dim + np.arange(kept.size)
        dim += kept.size
        candidates.append((z, s, node, w))
        hidden.append(reduce(lambda rank, x: np.add.outer(rank * nx, x), [s] * alpha).ravel()[kept])
        nu.append(reduce(np.multiply.outer, [hmm.chain.initial[s]] * alpha).ravel()[kept] * w[kept])
    nu = np.concatenate(nu)
    nu.setflags(write=False)
    return CollisionNodes(
        order=alpha,
        hidden=np.concatenate(hidden),
        initial=nu,
        states=hmm.chain.states,
        candidates=tuple(candidates),
    )


def irreducible(model: MarkovChain | HiddenMarkovModel, alpha: float) -> bool | None:
    """Whether the collision matrix A is irreducible, decided without building it.

    A fully observed chain's A is P^(o alpha), which has P's pattern at
    every order `entropy._hadamard_system` takes (it refuses one that
    underflows a positive entry): every state is a node, and K is P.  An
    HMM's node (t, z) of A has the nodes of t's successors in K as its
    own, so when K has more than one row, A is irreducible exactly when
    K is.  K's reachability is swept matrix-free on a dense array over
    X^alpha, the tensor-descriptor product of B. Fernandes, B. Plateau
    and W. J. Stewart (J. ACM 45, 1998) on the pattern: one level is a
    mode product with P's pattern along every axis (P's transposed
    pattern sweeping backward), masked by w > 0.  A chain's level is one
    product with P itself, with no pattern copy: each term is an entry of
    P times 1, so the product is positive exactly on the successors.
    Both sweeps start from the first tuple with w > 0; A is irreducible
    when both reach every such tuple, and reducible when one stops short.

    None (undecided) when K has at most one row, and once the sweeps have
    spent about what Tarjan's pass on A would cost: (n + nnz) // 128
    levels for A's n nodes and nnz entries, plus, for an HMM, 32 levels
    for the collision build's fixed cost (about 0.7 ms).  A level costs
    one unit, about 20 us, plus one for every 2^16 multiply-adds of its
    products.  For an HMM, None too when some product of alpha entries of
    P and alpha of E could drop below 2^-1000, since the pattern stands
    for A only if no product underflows; and, before any array is formed,
    when the sweep's arrays, 32 bytes a tuple of X^alpha, would hold more
    than 1 GiB; the mask of tuples with w > 0 is built one symbol at a
    time, within that.
    """
    if isinstance(model, MarkovChain):
        _chain_order(alpha)
        p = model.transition
        levels = (len(p) + int(np.count_nonzero(p))) // _LEVEL_COST
        return _one_component(p, 1, np.ones(len(p), dtype=bool), levels)
    alpha = _order(alpha)
    e = model.emission
    nx = model.n_states
    if not _underflow_free(alpha, model.chain.transition, e) or 32 * nx**alpha > _BUILD_BYTES:
        return None
    pattern = model.chain.transition > 0
    emits = e > 0
    nodes = np.zeros((nx,) * alpha, dtype=bool)
    for s in emits.T:
        nodes |= reduce(np.logical_and.outer, [s] * alpha)
    levels = (_candidates(emits, alpha) + _stored_entries(pattern, emits, alpha)) // _LEVEL_COST
    return _one_component(pattern.astype(float), alpha, nodes.ravel(), _BUILD_LEVELS + levels)


def _one_component(p: np.ndarray, alpha: int, nodes: np.ndarray, levels: int) -> bool | None:
    """Whether p^(tensor alpha), restricted to the tuples marked in `nodes`, is one component.

    The two sweeps of `irreducible` share `levels`, at 1 + alpha nx^(alpha+1)
    // 2^16 units a level; None when fewer than two tuples are marked or
    the budget runs out.
    """
    if np.count_nonzero(nodes) < 2:
        return None
    nx = len(p)
    cost = 1 + alpha * nx ** (alpha + 1) // _PRODUCT_COST

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
    levels = _sweep(image(p), nodes.size, levels, cost, start, absent)
    if levels >= 0:
        levels = _sweep(image(p.T), nodes.size, levels, cost, start, absent)
    return None if levels == -2 else levels >= 0


def _sweep(step, n: int, levels: int, cost: int, start: int, absent: np.ndarray) -> int:
    """Budget left once a breadth-first sweep from `start` reaches all n nodes.

    step(frontier) marks the neighbours of the nodes first reached at the
    level before; each level takes `cost` from `levels`.  Indices marked
    in the boolean array `absent` are no nodes: they count as reached and
    are never a frontier.  Returns -1 when the sweep stops short of a node
    and -2 when the budget runs out first.
    """
    seen = absent.copy()
    seen[start] = True
    frontier = np.array([start], dtype=np.intp)
    reached = np.count_nonzero(seen)
    while reached < n:
        if frontier.size == 0:
            return -1
        if levels < cost:
            return -2
        levels -= cost
        fresh = step(frontier) & ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
        reached += frontier.size
    return levels


def lumped_system(hmm: HiddenMarkovModel, alpha: int) -> LumpedSystem:
    """K lumped onto multisets of hidden states, its weights, and A's dimension.

    u~^T K~^(n-1) 1 equals nu^T A^(n-1) 1 of `collision_system`.  K~ is
    indexed by the multisets M (sorted tuples, in lexicographic order)
    with w(M) > 0:

        K~[M, M'] = w(M') sum_{t' in orbit(M')} prod_j P[m_j, t'_j]
        u~(M)     = |orbit(M)| prod_j pi[m_j] w(M)

    K~ has K's Perron root.  dimension counts the nodes of that A
    without listing them (`collision_nodes` does): sum_z |S_z|^alpha
    when no product of alpha emissions can drop below 2^-1000
    (`_underflow_free`), else a recount of the collision build's own
    emission products, some of which underflow to 0.

    A multiset M' with w(M') > 0 lies in a maximal emission support
    (`_maximal_supports`), so each pass takes P's CSR rows restricted to
    one support's columns, sorts the successor tuples into multisets
    (`_sorted_columns`) and keeps those whose first maximal support it
    is.  With one support, as under dense emissions, the one pass runs
    on P.  When every row is full on the support S, every multiset's
    successors are the grid S^alpha (`_grid`) in lexicographic order, so
    the grid alone is sorted and ranked, its kept columns are tiled over
    the rows, and the values come from one broadcast product of P's rows
    per coordinate (`_grid_products`); a support with any sparse row
    enumerates each multiset's successors (`_successors`).  Both give
    the same entries, underflowed products included, in the same order.
    K~ is assembled as CSR straight from its rows, each row's entries in
    enumeration order, and scipy's `sum_duplicates` sorts each row and
    adds its repeated columns in the order a COO build would, so K~'s
    floats depend on that order; indices are int32.
    No nx^alpha x nx^alpha array is formed.  Refused with
    DimensionOverflow at once (`_check_lumped`) when the build is
    predicted to hold more than 1 GiB, its multisets, its successor
    entries, 4 * alpha + 64 bytes each, counted by `_lumped_count`, or
    the recount of A's nodes where it runs, or |orbit(M)| could overflow.
    """
    alpha = _order(alpha)
    supports = _check_lumped(hmm, alpha)
    e = hmm.emission
    nx = hmm.n_states
    p = _transition_rows(hmm)
    reps = np.array(
        list(combinations_with_replacement(range(nx), alpha)), dtype=np.intp
    ).reshape(-1, alpha)
    binom = _binomials(nx, alpha)
    index = np.full(math.comb(nx + alpha - 1, alpha), -1, dtype=np.int32)
    w = e[reps].prod(axis=1).sum(axis=1)
    kept = np.flatnonzero(w > 0)
    reps, w = reps[kept], w[kept]
    index[_rank(reps.T, binom)] = np.arange(kept.size)

    # |orbit(M)| = alpha! / prod_j r_j, r_j the 1-based place of m_j in its
    # run of equal states; each partial quotient is the multinomial count of
    # a prefix, so every division is exact; `_check_lumped` keeps each
    # product, at most alpha |orbit(M)|, within int64
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
        ps = p if single else _columns(p, states)
        # every row full on S: each multiset's successors are the grid S^alpha
        grid = bool((np.diff(ps.indptr) == states.size).all())
        if grid:
            successors = _grid(states.size, alpha)
        else:
            rows, successors, values = _successors(ps, reps.T)
        if not single:  # S's local states as the model's
            successors = [states[d] for d in successors]
        cols = index[_rank(_sorted_columns(successors), binom)]
        del successors  # the places are freed before the rows and values are gathered
        live = cols >= 0 if single else (cols >= 0) & (owner[cols] == i)  # w = 0 or not owned
        cols = cols[live]
        if grid:  # the grid's live columns in every row
            values = _grid_products(ps.data.reshape(nx, states.size), reps)[:, live]
            values *= w[cols]
            rows, cols = np.repeat(np.arange(kept.size), cols.size), np.tile(cols, kept.size)
            blocks.append((rows, cols, values.ravel()))
        else:
            blocks.append((rows[live], cols, values[live] * w[cols]))
    rows, cols, values = blocks[0] if single else map(np.concatenate, zip(*blocks))
    if not single:  # each pass's rows ascend: merge them, each row's entries in pass order
        order = np.argsort(rows, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
    # K~ straight from its rows; scipy sorts each row and sums its repeats,
    # as it would from COO entries in this order
    indptr = np.searchsorted(rows, np.arange(kept.size + 1)).astype(np.int32)
    k = sparse.csr_array((values, cols, indptr), shape=(kept.size, kept.size))
    k.sum_duplicates()
    k.eliminate_zeros()  # products that underflow
    if _underflow_free(alpha, e):  # every candidate's emission product is a node
        dimension = _candidates(e > 0, alpha)
    else:
        dimension = sum(int(np.count_nonzero(w)) for _, w in _emission_products(e, alpha))
    return LumpedSystem(alpha, NonnegMatrix(k), u, dimension)


def _grid(s: int, alpha: int) -> list[np.ndarray]:
    """The tuples of {0..s-1}^alpha in lexicographic order, one array per place:
    the successors `_successors` gives a row that is full on s columns."""
    k = np.arange(s**alpha)
    return [k // s ** (alpha - 1 - j) % s for j in range(alpha)]


def _grid_products(p: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """prod_j p[m_j, c_j] for each multiset M (a row of reps) and each tuple c of the grid.

    p holds P's columns of a support S, one full row per state, and c runs
    over S^alpha in lexicographic order, one column each.  The products
    run left to right, as `_successors` multiplies them, by one broadcast
    outer product per coordinate; none is formed as an alpha-axis array.
    """
    values = p[reps[:, 0]]
    for j in range(1, reps.shape[1]):
        values = (values[:, :, None] * p[reps[:, j]][:, None, :]).reshape(len(reps), -1)
    return values


def _maximal_supports(emits: np.ndarray) -> np.ndarray:
    """Masks of the distinct S_z = {x : E[x, z] > 0} (emits[:, z]) no other contains, by first z."""
    s = emits.T
    if emits.all():  # every S_z holds every state: the first is the one
        return s[:1]
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
    """C(m + j, j + 1) at [j, m], for place j and state m: the colexicographic
    rank of a sorted tuple m is sum_j C(m_j + j, j + 1)."""
    return np.array(
        [[math.comb(m + j, j + 1) for m in range(nx)] for j in range(alpha)], dtype=np.intp
    )


def _rank(places, binom: np.ndarray) -> np.ndarray:
    """Colexicographic rank of sorted tuples among the multisets of their size.

    places holds one array per place, the tuples' states there, and each
    place's binomials are gathered at once.
    """
    return sum(b[d] for b, d in zip(binom, places))


def _sorted_columns(places: list[np.ndarray]) -> list[np.ndarray]:
    """Each tuple's states in ascending order, with one array per place as `places` holds them.

    Compare-exchanges of whole places, in the order of an insertion
    sorting network: place j - 1 takes the minimum and j the maximum.
    The arrays of `places` are overwritten, and one spare array of a
    place's size is all the sort allocates.
    """
    spare = np.empty_like(places[0])
    for i in range(1, len(places)):
        for j in range(i, 0, -1):
            a, b = places[j - 1], places[j]
            np.minimum(a, b, out=spare)
            np.maximum(a, b, out=b)
            places[j - 1], spare = spare, a
    return places

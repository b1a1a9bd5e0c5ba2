"""Associated graph, strongly connected components, and reachability.

The associated graph of a non-negative matrix has an edge i -> j exactly
when the entry (i, j) is stored in its CSR form (structural zeros are
dropped, so the stored pattern is the strict positivity pattern).  Its
SCC partition is the canonical decomposition into irreducible blocks.

Components come from an iterative Tarjan pass that reads successors
straight off ``csr.indptr`` / ``csr.indices``.  The order is a contract,
because component ids appear in reports: roots are taken in index order,
successors in CSR column order, and Tarjan's emission order (sinks
first) is reversed, which gives a topological order of the condensation
DAG.  Members of a component are listed in increasing index order.  The
reachable set from a weight vector's support singles out the components
that govern the growth of u^T A^n 1.

`_strongly_connected` tells, without the pass, whether a graph is one
component: two vectorised breadth-first sweeps from node 0, forward and
backward, which give up once they have spent about the pass's cost (a
long-diameter graph): (n + nnz) // 128 levels, 0 for small graphs.
`spectral.growth_rate` asks it before the pass, and an A it shows to be
one component never reaches the pass.  That serves irreducible systems
that build A: Markov rates, and HMM rates where `tensor.irreducible` is
undecided (see `entropy._growth`).  No call of the benchmark in `bench/`
is one at seeds 1-3.  On a dense chain of 4M entries the pass takes
377 ms and the sweeps 3.2 ms (one thread of a 2-core x86 box).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch
from .nonneg import NonnegMatrix

# Tarjan's pass costs about as much for this many nodes or stored entries
# as one level of a sweep (about 20 us on a 2-core x86 box).
_LEVEL_COST = 128


@dataclass(frozen=True)
class ComponentDecomposition:
    """SCC partition, topologically ordered, with condensation edges."""

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    dag_edges: frozenset[tuple[int, int]]

    @property
    def n_components(self) -> int:
        return len(self.components)


def strongly_connected_components(a: NonnegMatrix) -> ComponentDecomposition:
    """Canonical decomposition of the associated graph, topologically ordered.

    Iterative Tarjan (R. Tarjan, SIAM J. Comput. 1, 1972) over the CSR
    arrays; the condensation edges come from the stored entries whose
    endpoints lie in different components.  A one-component graph gets
    the pass too; `spectral.growth_rate` tells those apart first.
    """
    n = a.dim
    indptr = a.csr.indptr.tolist()
    indices = a.csr.indices.tolist()
    index = [-1] * n
    low = [0] * n
    # emission number of a node's component; -1 for a visited node still on the stack
    emitted = [-1] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, indptr[root])]
        while work:
            v, p = work[-1]
            end = indptr[v + 1]
            lv = low[v]
            while p < end:
                w = indices[p]
                p += 1
                iw = index[w]
                if iw == -1:
                    break
                if iw < lv and emitted[w] == -1:
                    lv = iw
            else:
                # row exhausted: v is finished
                work.pop()
                if lv == index[v]:
                    comp = []
                    while True:
                        x = stack.pop()
                        emitted[x] = len(comps)
                        comp.append(x)
                        if x == v:
                            break
                    comps.append(sorted(comp))
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                continue
            # descend into the unvisited successor w
            low[v] = lv
            work[-1] = (v, p)
            index[w] = low[w] = counter
            counter += 1
            stack.append(w)
            work.append((w, indptr[w]))
    comps.reverse()  # Tarjan emits sinks first

    comp_of = len(comps) - 1 - np.array(emitted, dtype=np.intp)
    src = comp_of[np.repeat(np.arange(n), np.diff(a.csr.indptr))]
    dst = comp_of[a.csr.indices]
    cross = src != dst
    return ComponentDecomposition(
        components=tuple(tuple(c) for c in comps),
        component_of=tuple(comp_of.tolist()),
        dag_edges=frozenset(zip(src[cross].tolist(), dst[cross].tolist())),
    )


def _strongly_connected(csr: sparse.csr_array) -> bool:
    """Whether node 0 reaches every node and every node reaches node 0.

    The forward sweep gathers, level by level, the CSR rows of the nodes
    it reached last.  The backward sweep marks, level by level, the rows
    with a positive product against the indicator of the columns it
    reached last, one product with A a level, so no transposed copy is
    formed.  csr is a NonnegMatrix's, whose stored entries are all
    positive, so a product is positive exactly on the rows with a stored
    entry there, and both sweeps see the graph Tarjan's pass sees.  A
    gather costs about what Tarjan's pass spends on 128 nodes or entries,
    a product that plus as much again for every 16384 stored entries;
    both sweeps share a budget of (n + nnz) // 128 gathers, so a
    long-diameter graph gives up after about Tarjan's own cost.  False
    when a sweep misses a node or the budget runs out.
    """
    n, nnz = csr.shape[0], csr.nnz
    indptr, indices = csr.indptr, csr.indices

    def successors(frontier: np.ndarray) -> np.ndarray:
        start = indptr[frontier]
        size = indptr[frontier + 1] - start
        offset = np.repeat(start - (np.cumsum(size) - size), size)
        hit = np.zeros(n, dtype=bool)
        hit[indices[offset + np.arange(offset.size)]] = True
        return hit

    def predecessors(frontier: np.ndarray) -> np.ndarray:
        marked = np.zeros(n)
        marked[frontier] = 1.0
        return csr @ marked > 0

    levels = _sweep(successors, n, (n + nnz) // _LEVEL_COST, 1)
    return levels >= 0 and _sweep(predecessors, n, levels, 1 + nnz // _LEVEL_COST**2) >= 0


def _sweep(step, n: int, levels: int, cost: int, start: int = 0, absent=None) -> int:
    """Budget left once a breadth-first sweep from `start` reaches all n nodes.

    step(frontier) marks the neighbours of the nodes first reached at the
    level before; each level takes `cost` from `levels`.  Indices marked
    in the boolean array `absent` are no nodes: they count as reached and
    are never a frontier.  Returns -1 when the sweep stops short of a node
    and -2 when the budget runs out first.
    """
    seen = np.zeros(n, dtype=bool) if absent is None else absent.copy()
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


def reachable_components(decomp: ComponentDecomposition, u: np.ndarray) -> frozenset[int]:
    """Component ids reachable (reflexively) from the support of u.

    One component is reachable exactly when u has mass, which is read
    from u alone, with no gather through component_of.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != len(decomp.component_of):
        raise DimensionMismatch("weight vector length does not match decomposition")
    if decomp.n_components == 1:
        return frozenset((0,)) if (u > 0).any() else frozenset()
    succ: dict[int, list[int]] = {}
    for a, b in decomp.dag_edges:
        succ.setdefault(a, []).append(b)
    seen = set(np.array(decomp.component_of, dtype=np.intp)[u > 0].tolist())
    frontier = list(seen)
    while frontier:
        c = frontier.pop()
        for d in succ.get(c, ()):
            if d not in seen:
                seen.add(d)
                frontier.append(d)
    return frozenset(seen)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .nonneg import NonnegMatrix


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
    endpoints lie in different components.  A rate asks
    `tensor.irreducible` first, on P's pattern, whether A is one
    component, and runs the pass only where that is undecided or A is
    reducible (`entropy._growth`).
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


def reachable_components(decomp: ComponentDecomposition, u: np.ndarray) -> frozenset[int]:
    """Component ids reachable (reflexively) from the support of u.

    One component is reachable exactly when u has mass, which is read
    from u alone, with no gather through component_of.
    """
    u = np.asarray(u, dtype=float)
    n = len(decomp.component_of)
    if u.shape != (n,):
        raise DimensionMismatch(
            f"weight vector of shape {u.shape} does not match decomposition of {n} nodes"
        )
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

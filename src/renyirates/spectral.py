"""Spectral radii of irreducible blocks and growth of weighted power sums.

The rate of u^T A^n 1 equals the largest spectral radius among the
components reachable from the support of u.  Radii are computed by power
iteration on A + I: the shift makes every irreducible non-negative block
primitive, so the Collatz-Wielandt bounds close geometrically even for
periodic components.  A sparse block (at most a quarter of its entries
stored) is iterated in CSR form, densified only for the hand-over
below; a denser block is iterated as a C-ordered dense copy, which then
needs at most four times the memory of its CSR form, and whose radius
does not depend on the caller's memory order.

Power iteration needs about 1/gap steps, so it stalls on nearly
decoupled blocks (sticky regimes, small-noise channels).  A block whose
bracket is still open after max(1000, m) steps hands over to Noda's
inverse iteration, which closes it in a few solves.  A block that cannot
close within those steps hands over sooner: every 32 steps its bracket
width is compared with the width 32 steps before, and when that
contraction, kept up, would leave the bracket open, a look-ahead by
repeated squaring reads the bracket the remaining steps would leave.  If
that is still open by a margin, the block hands over at once (blocks of
up to 128 nodes; sticky 2-state chains after 64 steps).  So a block that
power iteration closes keeps its float, and Noda's budget is still
max_iter - max(1000, m) solves.  Nothing hands over early where no Noda
step would follow: tol = 0, a budget of max(1000, m) steps or fewer, or
a sparse block past 3300 nodes.  A sparse block is densified for the
hand-over only, and only up to 3300 nodes (about 87 MB dense); a larger
one keeps power iteration for the whole budget and can still raise
NoConvergence when it is near-degenerate (a sparse LU would densify it
through fill-in).  A radius is the midpoint of a closed bracket, never
of an open one.

`growth_rate` takes all the radii of a call in one pass, and every power
step runs in one loop, `_power`.  It iterates one block, CSR or dense,
or dense blocks of one size in lockstep, as one (k, m, m) stack: a step
is one stacked product, whose slices run the same gemv as a lone block,
and row-wise ratios, bounds and sums, so each block closes or stalls at
the same step with the same float as alone, at the interpreter cost of
one block.  A block leaves the stack as soon as it closes or stalls, and
the last open one goes on in the same loop as a lone block.  A 1x1 block
is its entry, with no iteration.

`irreducible_growth` gives the growth of an irreducible A that is never
built: one component, whose radius is the Perron root of a matrix with
A's root, iterated as given.  An HMM's rate takes it with K lumped onto
multisets of hidden states, K~, when `tensor.irreducible` shows A
irreducible.

Finite lengths of an HMM run on K lumped onto multisets of hidden states
(see `tensor`); a fully observed chain's run on P^(o alpha), passed as a
dense array.  A weighted power sum u^T A^n 1 takes renormalised
steps w <- w^T A, or repeated squaring, as a cost rule fitted on
measured times prices them (see `log_weighted_power_sum`).  A step is a
dense gemv when the matrix is dense enough and at most 3300 nodes, the
split radius blocks use, and a CSR product otherwise; `_stepper` is the
one place that chooses.  A dense enough array is stepped and squared as
it is, with no copy, and a sparse one becomes CSR once.  Steps stop at the
first exact repeat of the normalised iterate, and the cycle adds the
steps left in O(period).  Where squaring is cheaper than all n steps, a
trial of as many steps as squaring would cost runs first when that is at
least 128 steps; a trial that meets no repeat hands over to squaring,
which then gives the float it gives alone.  Stepwise logs are summed
with math.fsum, so a stepwise result is within 4 ulps of the exact sum
of the n per-step logs, however large n is.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .components import (
    ComponentDecomposition,
    reachable_components,
    strongly_connected_components,
)
from .errors import DimensionMismatch, DimensionOverflow, NoConvergence
from .nonneg import NonnegMatrix, _check_entries, _square

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 10**5
CHARPOLY_MAX_DIM = 64

# The cost rule of log_weighted_power_sum, fitted with one BLAS thread on
# a 2-core x86 box: the cost of a CSR step and of a dense step per stored
# entry, and the interpreter's share of a step in CSR entries, all in units
# of one d^3 squaring product's cost / d^3; see its docstring.
_STEP_COST = 22
_DENSE_STEP_COST = 6
_STEP_OVERHEAD = 8000
# No stepwise trial runs before squaring on a budget of fewer steps.
_MIN_TRIAL = 128
# A stepwise power sum moves its checkpoint after 1, 2, 4, ... steps, at
# most this many, so it finds cycles of up to this period and keeps at most
# this many logs.
_CYCLE_WINDOW = 2**16
# The largest dimension densified by choice, for squaring or for a sparse
# block's Noda hand-over: a dense 3300 x 3300 array takes about 87 MB.
_DENSE_MAX_DIM = 3300

# Power steps a dense block gets (at least its dimension) before Noda's
# inverse iteration takes over.  Blocks of the fixtures close within 343
# steps and the benchmark's blocks other than its sticky chains within
# 665, so those radii keep the exact float power iteration gives them.
# A block whose bracket cannot close within them hands over sooner, at
# the end of a window of _WINDOW steps (see `_slow` and `_stays_open`);
# Noda still gets max_iter - max(1000, m) solves either way.
_POWER_STEPS = 1000
_WINDOW = 32
# A look-ahead must find the bracket this many times tol wide to hand a
# block over early, and runs on blocks of at most _LOOKAHEAD_MAX_DIM nodes.
_STALL_MARGIN = 100.0
_LOOKAHEAD_MAX_DIM = 128
# Dense blocks of one size iterate in stacks of at most this many bytes.
_STACK_BYTES = 2**23
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GrowthAnalysis:
    """Per-component radii plus the reachable maximum rho(A+)."""

    decomposition: ComponentDecomposition
    component_radii: tuple[float, ...]
    reachable: frozenset[int]
    rho_plus: float
    dominant_component: int | None


def _check_tol(tol: float) -> None:
    """Refuse a tolerance no bracket can meet honestly: NaN, negative or infinite."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"radius tolerance must be finite and >= 0, got {tol}")


def spectral_radius_irreducible(
    a: NonnegMatrix | np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> float:
    """Perron root of an irreducible non-negative matrix (or a 1x1 block).

    Power iteration on the shifted matrix B = A + I, stopping when the
    Collatz-Wielandt bracket min_i (Bv)_i/v_i <= rho(B) <= max_i (Bv)_i/v_i
    is narrower than tol.  B is a CSR array when A is a NonnegMatrix with
    nnz <= m^2 // 4, and a dense array otherwise.  A block whose bracket
    is still open after max(1000, m) steps continues with Noda's inverse
    iteration for the rest of the max_iter budget, a CSR block densified
    first; a CSR block of more than 3300 nodes stays with power iteration
    instead.  A block of up to 128 nodes whose bracket a look-ahead shows
    still open at the end of those steps hands over as soon as it is seen
    (see the module docstring), with the same Noda budget; no block does
    when tol = 0 or max_iter <= max(1000, m).  Returns the midpoint of a
    closed bracket or raises NoConvergence, whose message gives the power
    steps that ran.  A 1x1 block is its entry.  The block runs alone
    through the power loop that `growth_rate` runs on all its blocks at
    once.
    """
    _check_tol(tol)
    if not isinstance(a, NonnegMatrix):
        a = np.asarray(a, dtype=float)
    return _perron_radii([a], tol, max_iter)[0]


def _perron_radii(
    blocks: list[NonnegMatrix | np.ndarray], tol: float, max_iter: int
) -> list[float]:
    """Perron roots of irreducible blocks, as `spectral_radius_irreducible` gives them.

    A 1x1 block is its entry.  Every larger block is shifted by I and
    iterated by `_power`: a CSR block alone, dense blocks of one size as
    (k, m, m) stacks of at most 8 MB, and a dense block with no other of
    its size alone, each as a C-ordered copy.  Each radius is the float its
    block gives alone.  Blocks still open after their power steps, or
    stalled, finish in list order, so the NoConvergence raised is the
    first failing block's.
    """
    # per block: its radius, or (B, v, lo, hi, steps run) once its power
    # steps are spent or it stalls, with the bracket still open
    states: list = [None] * len(blocks)
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(blocks):
        m = a.dim if isinstance(a, NonnegMatrix) else a.shape[0]
        if isinstance(a, NonnegMatrix) and m > 1 and a.nnz <= m * m // 4:
            _power(a.csr + sparse.eye_array(m, format="csr"), [i], states, max_iter, tol)
        elif m <= 1:
            states[i] = float(_dense(a)[0, 0]) if m else 0.0
        else:
            groups.setdefault(m, []).append(i)
    for m, members in groups.items():
        per_stack = max(1, _STACK_BYTES // (8 * m * m))
        for first in range(0, len(members), per_stack):
            rows = members[first : first + per_stack]
            if len(rows) == 1:
                b = _dense(blocks[rows[0]])
            else:
                b = np.empty((len(rows), m, m))
                for j, i in enumerate(rows):
                    b[j] = _dense(blocks[i])
            b[..., np.arange(m), np.arange(m)] += 1.0
            _power(b, rows, states, max_iter, tol)
    return [_finish(state, tol, max_iter) for state in states]


def _dense(a: NonnegMatrix | np.ndarray) -> np.ndarray:
    """A private C-ordered dense copy of a block, so its radius does not depend on memory order."""
    return a.to_dense() if isinstance(a, NonnegMatrix) else np.array(a, order="C")


def _power_steps(b, max_iter: int) -> int:
    """Power steps a shifted block, or each block of a stack, gets before the hand-over to Noda."""
    m = b.shape[-1]
    if sparse.issparse(b) and m > _DENSE_MAX_DIM:
        return max_iter
    return min(max_iter, max(_POWER_STEPS, m))


def _power(b, rows: list[int], states: list, max_iter: int, tol: float) -> None:
    """Power steps on a shifted block b, or in lockstep on a (k, m, m) stack of them.

    A lone block, CSR or dense, iterates v of shape (m,).  A stack of
    dense blocks iterates v of shape (k, m): a step is one stacked
    product, whose slices run the same gemv as a lone block, and
    row-wise ratios, bounds and sums.  The stall rule (`_slow`,
    `_stays_open`) reads each slice alone, so each block closes or stalls
    at the step, and with the float, it would alone.  states[rows[j]]
    gets slice j's radius once its bracket closes, else (B, v, lo, hi,
    steps run) once its power steps are spent or it stalls.  A block
    leaves the stack as soon as it closes or stalls, and the last open
    one goes on as a lone block.
    """
    steps = _power_steps(b, max_iter)
    may_stall = tol > 0 and steps < max_iter  # only where Noda takes over
    m, stacked = b.shape[-1], b.ndim == 3
    # per slice: its iterate and bracket, its block, its bracket width at
    # the last window mark, and whether its look-ahead is still to come;
    # a lone block's values are scalars, and its slice index is ()
    if stacked:
        k = len(rows)
        v, lo, hi = np.full((k, m), 1.0 / m), np.full(k, -math.inf), np.full(k, math.inf)
        rows, fresh = np.array(rows), np.ones(k, dtype=bool)
    else:
        v, lo, hi = np.full(m, 1.0 / m), np.float64(-math.inf), np.float64(math.inf)
        rows, fresh = np.int64(rows[0]), np.True_
    last = hi

    def picked(mask) -> list:
        return np.flatnonzero(mask).tolist() if stacked else [()] * bool(mask)

    def leave(j, ran: int) -> None:
        states[rows[j]] = (b[j].copy() if stacked else b, v[j], lo[j], hi[j], ran)

    for ran in range(1, steps + 1):
        w = np.matmul(b, v[:, :, None])[:, :, 0] if stacked else b @ v
        ratios = w / v
        lo, hi = np.minimum.reduce(ratios, -1), np.maximum.reduce(ratios, -1)
        v = w / (w.sum(axis=1, keepdims=True) if stacked else w.sum())
        closed = hi - lo <= tol
        stalled = []
        if may_stall and ran % _WINDOW == 0:
            slow = fresh & _slow(hi - lo, last, steps - ran, tol)
            fresh, last = fresh ^ slow, hi - lo
            stalled = [
                j
                for j in picked(slow)
                if not closed[j] and _stays_open(b[j] if stacked else b, v[j], steps - ran, tol)
            ]
        if not (stalled or (closed.any() if stacked else closed)):
            continue
        for j in picked(closed):
            states[rows[j]] = float((lo[j] + hi[j]) / 2.0 - 1.0)
        for j in stalled:
            leave(j, ran)
        if not stacked:
            return
        closed[stalled] = True
        kept = np.flatnonzero(~closed)
        if not kept.size:
            return
        stacked = kept.size > 1
        b, v, lo, hi, rows, last, fresh = (
            x.take(kept if stacked else kept[0], axis=0) for x in (b, v, lo, hi, rows, last, fresh)
        )
    for j in range(len(rows)) if stacked else [()]:
        leave(j, steps)


def _slow(width, last, left: int, tol: float):
    """Whether a bracket `last` wide one window ago looks unable to close in `left` steps.

    True when the width did not shrink over the window, or when shrinking
    by the same factor in each window the `left` steps start still leaves
    it above tol.  Takes floats or arrays alike and uses only products,
    so a slice of a lockstep stack gets the answer its block gets alone.
    """
    ratio = np.minimum(width / last, 1.0)
    final = width
    windows = -(-left // _WINDOW)
    while windows:
        if windows & 1:
            final = final * ratio
        ratio = ratio * ratio
        windows >>= 1
    return (width >= last) | (final > tol)


def _stays_open(b, v: np.ndarray, left: int, tol: float) -> bool:
    """Whether b's bracket is still open, by a margin, after `left` more power steps from v.

    A window's contraction can be far slower than the block's own, on a
    plateau before the Perron vector takes over, so `_slow` only flags a
    block.  The bracket never widens under power iteration (b >= 0 keeps
    lo v <= b v <= hi v), so it is narrowest after the last step; this
    reads it there from b^left v, formed by repeated squaring in about
    2 log2(left) products of m x m arrays.  It must exceed _STALL_MARGIN
    times tol, or the rounding of an m-term ratio, which covers the other
    rounding of this route.  Past _LOOKAHEAD_MAX_DIM nodes, where the
    products cost more than the steps they save, a block is never open.
    """
    m = b.shape[0]
    if m > _LOOKAHEAD_MAX_DIM:
        return False
    b = b.toarray() if sparse.issparse(b) else b
    w, _ = _squaring(b.T, v, left)  # v^T (b^T)^left = (b^left v)^T
    if not w.min() > 0.0:  # an underflow: the look-ahead cannot tell
        return False
    ratios = (b @ w) / w
    hi = ratios.max()
    return bool(hi - ratios.min() > _STALL_MARGIN * max(tol, m * _EPS * hi))


def _finish(state, tol: float, max_iter: int) -> float:
    """A block's radius once its power steps are spent or it stalls: open brackets go to Noda."""
    if not isinstance(state, tuple):
        return state
    b, v, lo, hi, ran = state
    m = b.shape[0]
    steps = _power_steps(b, max_iter)
    if steps < max_iter:
        dense = b.toarray() if sparse.issparse(b) else b
        lo, hi = _noda(dense, v, lo, hi, tol, max_iter - steps, ran)
        return float((lo + hi) / 2.0 - 1.0)
    why = (
        f"; a {m}-node sparse block is too large to densify for Noda's inverse "
        f"iteration (limit {_DENSE_MAX_DIM} nodes)"
        if sparse.issparse(b) and m > _DENSE_MAX_DIM
        else ""
    )
    raise NoConvergence(
        f"power iteration left the radius in [{lo - 1.0:.17g}, {hi - 1.0:.17g}] "
        f"after {ran} steps (tolerance {tol}){why}"
    )


def _noda(
    b: np.ndarray, v: np.ndarray, lo: float, hi: float, tol: float, budget: int, ran: int
) -> tuple[float, float]:
    """Close the Perron bracket [lo, hi] of a dense irreducible b by inverse iteration.

    Noda's iteration (T. Noda, Numer. Math. 17, 1971; L. Elsner, Linear
    Algebra Appl. 15, 1976): solve (theta I - b) z = v with the shift theta
    just above the upper Collatz-Wielandt bound and take v = z / sum(z).  The
    bracket is re-read from the ratios (b v) / v rather than from Noda's
    update theta - min(v / z), which loses the lower bound when the shift
    lands on the root in floating point.  At most `budget` solves; `ran`
    is the count of power steps before them, for the error message.
    """
    m = b.shape[0]
    eye = np.eye(m)
    for step in range(budget):
        # A computed upper bound can sit an ulp below rho, where the solve
        # mixes signs; m ulps (the rounding of an m-term ratio) keep the
        # shift above it and (theta I - b)^-1 positive.
        theta = hi * (1.0 + m * _EPS)
        try:
            z = np.linalg.solve(theta * eye - b, v)
        except np.linalg.LinAlgError:
            stop = f"a singular solve at step {step + 1}"
            break
        total = z.sum()  # finite only if every entry of z is
        if not math.isfinite(total) or total == 0.0:
            stop = f"a non-finite solve at step {step + 1}"
            break
        v = z / total
        if v.min() <= 0.0:
            stop = f"a non-positive iterate at step {step + 1}"
            break
        ratios = (b @ v) / v
        lo, hi = max(lo, ratios.min()), min(hi, ratios.max())
        if hi - lo <= tol:
            return lo, hi
    else:
        stop = "1 solve" if budget == 1 else f"{budget} solves"
    raise NoConvergence(
        f"Noda inverse iteration left the radius in [{lo - 1.0:.17g}, {hi - 1.0:.17g}] "
        f"after {ran} power steps and {stop} (tolerance {tol})"
    )


def growth_rate(
    a: NonnegMatrix,
    u: np.ndarray,
    tol: float = DEFAULT_TOL,
    radius_matrix: tuple[NonnegMatrix, np.ndarray] | None = None,
) -> GrowthAnalysis:
    """Exact growth rate of u^T A^n 1: the maximum radius over reachable components.

    Components are found on A, and a singleton's radius is its diagonal
    entry.  radius_matrix, a pair (K, rows) with one row of K per node of
    A, gives each multi-node component its radius from K's block on its
    nodes' rows, which must have the component's Perron root, as the
    symbol-summed tuple matrix of a collision system does (see `tensor`).
    Nodes that share a row must lie in one component unless all of them
    are singletons.  Without it, K is A and each node is its own row.
    """
    _check_tol(tol)
    k, rows = radius_matrix if radius_matrix is not None else (a, np.arange(a.dim))
    u, rows = _checked_weights(u, a.dim), _checked_rows(rows, a.dim, k)
    decomp = strongly_connected_components(a)
    blocks = _radius_blocks(k.csr, rows, decomp)
    block_radii = iter(_perron_radii(blocks, tol, MAX_ITERATIONS))
    diagonal = a.csr.diagonal()
    radii = tuple(
        float(diagonal[comp[0]]) if len(comp) == 1 else next(block_radii)
        for comp in decomp.components
    )
    return _analysis(decomp, radii, u)


def irreducible_growth(
    u: np.ndarray, k: NonnegMatrix, tol: float = DEFAULT_TOL
) -> GrowthAnalysis:
    """The growth of an irreducible A of len(u) nodes, without A: rho(A) is rho(k).

    A's decomposition is then one component of all its nodes, as
    `strongly_connected_components` gives it, and its radius is k's
    Perron root, taken on k as given.  The caller vouches for A's
    irreducibility and for k's root (see `tensor.irreducible`).
    """
    _check_tol(tol)
    n = np.shape(u)[0]
    u = _checked_weights(u, n)
    decomp = ComponentDecomposition((tuple(range(n)),), (0,) * n, frozenset())
    return _analysis(decomp, tuple(_perron_radii([k], tol, MAX_ITERATIONS)), u)


def _checked_weights(u: np.ndarray, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[0] != n:
        raise DimensionMismatch("weight vector length does not match matrix dimension")
    _check_entries(u, "weight vector")
    return u


def _checked_rows(rows: np.ndarray, n: int, k: NonnegMatrix) -> np.ndarray:
    rows = np.asarray(rows)
    if len(rows) != n or (rows.size and not 0 <= rows.min() <= rows.max() < k.dim):
        raise DimensionMismatch("radius matrix rows must give each node one row of K")
    return rows


def _analysis(
    decomp: ComponentDecomposition, radii: tuple[float, ...], u: np.ndarray
) -> GrowthAnalysis:
    """The reachable components of a decomposition with radii, and the dominant one."""
    reachable = reachable_components(decomp, u)
    rho_plus = 0.0
    dominant = None
    for cid in range(decomp.n_components):  # topological order; first max wins ties
        if cid in reachable and (dominant is None or radii[cid] > rho_plus):
            rho_plus = radii[cid]
            dominant = cid
    if dominant is None:
        rho_plus = 0.0
    return GrowthAnalysis(
        decomposition=decomp,
        component_radii=radii,
        reachable=reachable,
        rho_plus=rho_plus,
        dominant_component=dominant,
    )


def _radius_blocks(
    k: sparse.csr_array, rows: np.ndarray, decomp: ComponentDecomposition
) -> list[NonnegMatrix]:
    """K's block on each multi-node component's rows, in component order.

    A component's rows are listed in order of first appearance among its
    members.  K is permuted once by all these rows and cut into
    contiguous blocks, each with its column indices in increasing order.
    """
    comps = [comp for comp in decomp.components if len(comp) > 1]
    if not comps:
        return []
    members = np.fromiter((i for comp in comps for i in comp), dtype=np.intp)
    sizes = np.array([len(comp) for comp in comps], dtype=np.intp)
    # a row used by a multi-node component must be no other node's
    node_comp = np.full(rows.size, -1, dtype=np.intp)
    node_comp[members] = np.repeat(np.arange(sizes.size), sizes)
    owner = np.full(k.shape[0], -1, dtype=np.intp)
    owner[rows[members]] = node_comp[members]
    if np.any((owner[rows] >= 0) & (owner[rows] != node_comp)):
        raise ValueError("a radius matrix row spans more than one component")
    _, first = np.unique(rows[members], return_index=True)
    first.sort()
    order = rows[members[first]]
    bounds = [0] + np.searchsorted(first, np.cumsum(sizes)).tolist()
    permuted = k[order][:, order]
    permuted.sort_indices()
    return [NonnegMatrix(permuted[s:e, s:e]) for s, e in zip(bounds, bounds[1:])]


def log_weighted_power_sum(a: NonnegMatrix | np.ndarray, u: np.ndarray, n: int) -> float:
    """Natural log of u^T A^n 1, stabilized; -inf when the sum is exactly 0.

    A is a NonnegMatrix or a dense array, which must be square, finite and
    non-negative; `_stepper` steps on a dense enough array as it is and
    turns a sparse one into CSR once, so the float does not depend on
    which form A comes in.

    Two paths, priced by a cost rule fitted on measured times (one BLAS
    thread, 2-core x86).  Repeated squaring with per-step rescaling
    (products of non-negative matrices involve no cancellation) costs
    about d^3 log2 n and keeps n = 10^6 cheap.  A renormalised step
    w <- w^T A (`_stepper`) costs about 22 (nnz + 8000) as a CSR product,
    or 6 d^2 + 22 * 8000 as a dense gemv, which runs when more than a
    quarter of A's entries are stored and d <= 3300, as for radius
    blocks (at d = 512 a gemv took 58-68 us and a CSR product 210-240
    us); 22 * 8000 is the interpreter's share of one step.  The budget
    is the squaring cost d^3 * n.bit_length() over the cost of one step;
    past 3300 nodes, where squaring's three dense d x d arrays would
    take more than 260 MB, it is n.

    A budget of at least n steps runs all of them.  Otherwise, when the
    budget is at least 128 steps, a stepwise trial of at most that many
    steps runs first, and the call squares from u, with the float
    squaring gives alone, only if the trial meets no repeat and no zero
    sum.  Below 128 steps no trial runs: small systems, such as lumped
    HMMs of 28-120 rows, repeat only after 65-512 steps, so a trial
    would only add its own cost.

    Stepwise iteration stops at the first exact repeat of its normalised
    iterate (a step is a fixed function of its bytes; R. P. Brent's cycle
    finding, BIT 20, 1980).  In floating point the iterate meets such a
    repeat soon after it has converged, after about
    log(eps) / log(|lambda_2| / rho) steps: 144 for a 600-dim chain with
    12 entries a row, but about 10^7 for a sticky chain with switch
    probability 1e-6.  The steps after the repeat cycle through the logs
    since its checkpoint, so they cost O(period).  Logs are summed with
    math.fsum (J. R. Shewchuk's adaptive-precision summation, DCG 18,
    1997) a Brent window at a time, into a pair of floats, and the
    cycle's multiple is formed exactly, so a stepwise result lies within
    4 ulps of the exact sum of the n per-step logs however large n is.
    """
    if isinstance(a, NonnegMatrix):
        d = a.dim
    else:
        a = _square(a)
        _check_entries(a, "non-negative matrix")
        d = a.shape[0]
    u = _checked_weights(u, d)
    if n < 0:
        raise ValueError("exponent must be non-negative")
    s = u.sum()
    if n == 0 or s == 0:
        return math.log(s) if s > 0 else -math.inf
    n = operator.index(n)
    b, step = _stepper(a)
    dense = isinstance(b, np.ndarray)
    if d > _DENSE_MAX_DIM:
        budget = n
    else:
        entries = _DENSE_STEP_COST * d * d if dense else _STEP_COST * b.nnz
        budget = d**3 * n.bit_length() // (entries + _STEP_COST * _STEP_OVERHEAD)
    if budget >= n or budget >= _MIN_TRIAL:
        value = _log_power_sum_stepwise(step, u, n, min(n, budget))
        if value is not None:
            return value
    return _log_power_sum_squaring(b if dense else b.to_dense(), u, n)


def _stepper(
    a: NonnegMatrix | np.ndarray,
) -> tuple[np.ndarray | NonnegMatrix, Callable[[np.ndarray], np.ndarray]]:
    """The form of A that steps run on, and the step w -> w^T A.

    The one rule that chooses it: a step is a dense gemv on a C-ordered
    array when more than a quarter of A's entries are stored and
    d <= 3300, as for radius blocks, and a CSR product
    (`NonnegMatrix.vecmat`) otherwise.  A dense array is used as it is
    (copied only when not C-ordered) and a sparse one becomes CSR once; a
    NonnegMatrix is densified when dense enough.
    """
    csr = isinstance(a, NonnegMatrix)
    d = a.dim if csr else a.shape[0]
    if d <= _DENSE_MAX_DIM and (a.nnz if csr else np.count_nonzero(a)) > d * d // 4:
        b = a.to_dense() if csr else np.ascontiguousarray(a)
        return b, lambda w: w @ b
    if not csr:
        a = NonnegMatrix.from_dense(a)
    return a, a.vecmat


def _log_power_sum_squaring(b: np.ndarray, u: np.ndarray, n: int) -> float:
    return _squaring(b, u, n)[1]


def _squaring(b: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """w^T b^n by repeated squaring: its direction, at unit sum, and the log of its sum.

    The iterate is rescaled to unit sum after each product and the power
    to unit maximum after each squaring, their logs kept aside.  The log
    is -inf, and the direction the zero iterate, once the iterate sums to
    0.  w itself is never written; with n = 0 it is returned as it is.
    """
    log_w = 0.0
    log_b = 0.0
    while True:
        if n & 1:
            w = w @ b
            s = w.sum()
            if s == 0:
                return w, -math.inf
            w /= s
            log_w += log_b + math.log(s)
        n >>= 1
        if n == 0:
            return w, log_w  # w is renormalized to unit sum after the last multiply
        b = b @ b
        peak = b.max()
        if peak == 0:
            b = np.zeros_like(b)
            log_b = 0.0
        else:
            b /= peak
            log_b = 2.0 * log_b + math.log(peak)


def _log_power_sum_stepwise(
    step: Callable[[np.ndarray], np.ndarray], u: np.ndarray, n: int, limit: int
) -> float | None:
    """log(u^T A^n 1) by renormalised steps w <- step(w); None if `limit` steps find no repeat.

    -inf as soon as a step sums to 0.  Once the iterate's bytes repeat a
    checkpoint's, so do the logs since it (see `log_weighted_power_sum`),
    and the sum is complete in O(period): with P their sum and
    (q, r) = divmod(steps left, period), it is acc + (q + 1) P plus the
    first r logs.  The checkpoint's largest entry screens a step before
    the bytes are compared.  When the checkpoint moves, its window's logs
    are folded into acc, a pair of floats whose sum is the sum of all
    logs so far to about eps^2 relative, and (q + 1) P is formed as
    closely (`_multiple`), so only the last rounding shows even where
    later logs cancel earlier ones.
    """
    w = u  # a step returns a new array, so u is never written
    acc = [0.0, 0.0]
    window = 1
    period = array("d")  # the logs added since the checkpoint
    mark, j = w.tobytes(), int(w.argmax())
    peak = w[j]
    for k in range(limit):
        w = step(w)
        s = w.sum()
        if s == 0:
            return -math.inf
        w /= s
        period.append(math.log(s))
        if w[j] == peak and w.tobytes() == mark:
            q, r = divmod(n - k - 1, len(period))
            try:
                return math.fsum([*acc, *_multiple(period, q + 1), *period[:r]])
            except OverflowError:  # (q + 1) P reaches the edge of the float range
                return math.copysign(math.inf, math.fsum(period))
        if len(period) == window:
            total = math.fsum([*acc, *period])
            acc = [total, math.fsum([*acc, *period, -total])]
            mark, j = w.tobytes(), int(w.argmax())
            peak, period, window = w[j], array("d"), min(2 * window, _CYCLE_WINDOW)
    return math.fsum([*acc, *period]) if limit == n else None


def _multiple(terms: array, c: int) -> list[float]:
    """Floats whose sum is c times the sum of `terms`, to about eps^2 relative.

    The sum is split into two floats, hi = fsum(terms) and the rounded
    remainder lo, and each is scaled by c's set bits, which is exact.
    """
    hi = math.fsum(terms)
    lo = math.fsum([*terms, -hi])
    return [math.ldexp(x, e) for e in range(c.bit_length()) if c >> e & 1 for x in (hi, lo)]


def characteristic_polynomial(a: NonnegMatrix | np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier recurrence: M_k = A (M_{k-1} + c_{k-1} I),
    c_k = -tr(M_k) / k.  Refused with DimensionOverflow past 64 nodes.
    """
    dense = a.to_dense() if isinstance(a, NonnegMatrix) else np.asarray(a, dtype=float)
    m = dense.shape[0]
    if m > CHARPOLY_MAX_DIM:
        raise DimensionOverflow(
            f"characteristic polynomial capped at dimension {CHARPOLY_MAX_DIM}, got {m}"
        )
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    mat = np.zeros_like(dense)
    for k in range(1, m + 1):
        mat = dense @ (mat + coeffs[k - 1] * np.eye(m))
        coeffs[k] = -np.trace(mat) / k
    return coeffs

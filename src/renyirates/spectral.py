"""Spectral radii of irreducible blocks and growth of weighted power sums.

The rate of u^T A^n 1 equals the largest spectral radius among the
components reachable from the support of u.  Radii are computed by
power iteration on A + cI, with c a quarter of the block's largest row
sum: any c > 0 makes an irreducible non-negative block primitive, so the
Collatz-Wielandt bounds close geometrically even for periodic
components, and a c on the scale of the block's own root keeps the
contraction (|lambda_2| + c) / (rho + c) well below 1 where rho is
small.  A bracket [lo, hi] of A + cI closes once
hi - lo <= DEFAULT_TOL (hi - c), 1e-14 relative to A's upper bound, enough
for the 12 significant digits the CLI prints, or once it is no wider than
m eps hi, the rounding of the m-term ratios it is read from, which is as
close as it can get.  A block is first scaled by the power of two that
brings its largest row sum into [1/2, 1), so no step nears under- or
overflow, and the radius of 2^k A is exactly 2^k times A's wherever
2^k A's entries are normal; a block whose row sum overflows the float
range is refused.

One rule (`_dense_enough`) picks the form every radius and power sum
runs on: a C-ordered dense array when more than a quarter of the entries
are stored (at most four times the memory of CSR), and CSR otherwise, so
no result depends on the caller's form or memory order.  A CSR matrix is
densified by choice only for the Noda hand-over and for squaring below,
and only up to 3300 nodes (about 87 MB dense).

Power iteration needs about 1/gap steps, so it stalls on nearly
decoupled blocks (sticky regimes, small-noise channels).  A block whose
bracket is still open after max(1000, m) steps hands over to Noda's
inverse iteration, which closes it in a few solves (at most 64), each
one LAPACK solve of the system scaled by the iterate, so that it keeps
the iterate's small entries.  A block that cannot close within those
steps hands over sooner: every 32 steps its bracket width is compared
with the width 32 steps before, and when that contraction, kept up,
would leave the bracket open, the block hands over at once (sticky
2-state chains after 64 steps past the squaring cut below).  A sparse
block past 3300 nodes, too large to densify for Noda, keeps power
iteration for 10^5 steps and can still raise NoConvergence when it is
near-degenerate (a sparse LU would densify it through fill-in).  A
radius is the midpoint of a closed bracket, never of an open one.

A dense block of at most 32 nodes takes no power step: B^512 1, the
iterate of 512 steps (512 the largest power of two within its 1000), is
reached by 9 squarings of B, each rescaled by its largest entry, and
its bracket is read once, against B itself.  It closes there, or hands
its open bracket to Noda, or, when that iterate has a zero, subnormal
or non-finite entry, takes the power steps from 1/m below.  On such
blocks a power step is mostly interpreter cost, so 9 small matmuls
replace the 32 to 72 steps a lumped HMM block takes and the 64 before
a sticky chain's hand-over.

`growth_rate` hands an A that Tarjan's pass finds to be one component
to `irreducible_growth` uncut, and otherwise takes all the radii of a
call in one pass, cut from A in one pass too (`_radius_blocks`).  Dense
blocks of one size within the squaring cut are squared as one (k, m, m)
stack, slice by slice (`_squared`).  Every other block, and each slice
whose squared iterate underflowed, takes its power steps alone, in one
loop (`_stepped`).  A step is only its product, a gemv or a CSR product, a
sum and a division; the steps leave their products and iterates in a
small buffer, and the Collatz-Wielandt brackets of eight steps are read
at once.  A block's radius comes from the first step whose bracket
closes, so it closes or stalls at the same step with the same float as
read step by step.  A 1x1 block is its entry, with no iteration.

`irreducible_growth` alone builds the decomposition of one component of
all A's nodes, whose radius is the Perron root of a matrix with A's
root, in the form `_operand` picks: A itself from `growth_rate`,
P^(o alpha) for a fully observed chain that `tensor.irreducible` shows
irreducible, held as CSR only when at most a quarter of its entries are
stored, or K lumped onto multisets of hidden states, K~, for such an
HMM, which never builds A.

Finite lengths of an HMM run on K lumped onto multisets of hidden states
(see `tensor`); a fully observed chain's run on P^(o alpha), passed as a
dense array.  A weighted power sum u^T A^n 1 takes renormalised
steps w <- w^T A, or repeated squaring, as a cost rule fitted on
measured times prices them (see `log_weighted_power_sum`).  A step is a
gemv on the dense form, a C-ordered array stepped and squared as it is,
and a CSR product on the CSR form.  Steps stop at the
first exact repeat of the normalised iterate, and the cycle adds the
steps left in O(period).  Where squaring is cheaper than all n steps, a
trial of as many steps as squaring would cost runs first when that is at
least 128 steps; a trial that meets no repeat hands over to squaring,
which then gives the float it gives alone.  Stepwise logs are summed
with math.fsum, so a stepwise result is within 4 ulps of the exact sum
of the n per-step logs, however large n is.  A matrix whose largest row
sum exceeds its dimension, which no model's does, is first scaled by the
power of two that brings its row sums below 1, so no product overflows.
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
from .errors import DimensionMismatch, DimensionOverflow, NoConvergence, NonFiniteEntry
from .nonneg import NonnegMatrix, _check_entries, _square

DEFAULT_TOL = 1e-14
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
# The largest CSR matrix densified by choice, for squaring or for a sparse
# block's Noda hand-over: a dense 3300 x 3300 array takes about 87 MB.
_DENSE_MAX_DIM = 3300

# Power steps a block gets (at least its dimension) before Noda's inverse
# iteration takes over; MAX_ITERATIONS caps them, and a CSR block too
# large to densify gets all MAX_ITERATIONS.  Past the squaring cut, the
# fixtures' blocks close within 77 steps and the benchmark's blocks other
# than its sticky chains within 623, so those radii keep the exact float
# power iteration gives them.  A block whose bracket cannot close within
# them hands over sooner, at the end of a window of _WINDOW steps (see
# `_slow`).  A dense block within the squaring cut takes none of them: it
# is read once at its power iterate 512, the largest power of two within
# them (`_squared`).
_POWER_STEPS = 1000
_WINDOW = 32
# Power steps read their brackets this many at a time (`_stepped`).  A read
# costs about a dozen numpy calls whatever its length, against 3 a step,
# and a block that closes on a read's first step runs at most 7 steps
# past it.  8 divides _WINDOW, so no read is cut short by a window mark.
_READ = 8
# Dense blocks of at most this many nodes jump to their power iterate
# 2^J, the largest power of two within their power steps, by J squarings
# (`_squared`), where Noda can take over a bracket left open.  Measured
# with one BLAS thread on a 2-core x86 box, a radius read this way took
# 150-160 us against 350-600 us of power steps on lumped HMM blocks of 15
# and 28 nodes, and 130-190 us against 120-160 us on random stochastic
# blocks of 8-32 nodes that close in one read; from 40 nodes those lose
# 1.4-2.2 times.
_SQUARE_MAX_DIM = 32
# Noda's solves a block gets.  Hand-overs that close take at most 3 in the
# benchmark, 13 in the tests' fixed cases, 32 on a 1200-node sticky ring
# and up to 46 on the random blocks of the property tests.
_NODA_SOLVES = 64
# Dense blocks of one size within the squaring cut are squared in stacks
# of at most this many bytes; with the blocks held until their stack is
# full, twice this at most.  A read of power steps holds its iterates,
# products and brackets in at most this many more.
_STACK_BYTES = 2**22
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class GrowthAnalysis:
    """Per-component radii plus the reachable maximum rho(A+)."""

    decomposition: ComponentDecomposition
    component_radii: tuple[float, ...]
    reachable: frozenset[int]
    rho_plus: float
    dominant_component: int | None


def spectral_radius_irreducible(a: NonnegMatrix | np.ndarray) -> float:
    """Perron root of an irreducible non-negative matrix (or a 1x1 block).

    Power iteration on the shifted matrix B = A + cI, c a quarter of A's
    largest row sum, A first scaled exactly by a power of two to a
    largest row sum in [1/2, 1), stopping when the Collatz-Wielandt
    bracket lo = min_i (Bv)_i/v_i <= rho(B) <= max_i (Bv)_i/v_i = hi is
    at most DEFAULT_TOL (hi - c) wide, relative to A's upper bound, or at
    most m eps hi, the rounding of the ratios, if that is wider.  The
    radius of 2^k A is exactly 2^k times A's wherever 2^k A's entries are
    normal.  A, a NonnegMatrix or an array, must be square, non-empty,
    finite and non-negative, with row sums inside the float range; B is
    dense when more than a quarter of A's entries are stored and CSR
    otherwise, whatever A's form (`_operand`).  A dense B of at most 32
    nodes reads its bracket once instead, at the iterate of 512 steps
    reached by 9 squarings (`_squared`), and takes the steps only when
    that iterate underflowed.  A block still open after max(1000, m)
    steps, or seen unable to close in them, or still open at its squared
    iterate, continues with at most 64 Noda solves (`_noda`), each one
    LAPACK solve scaled by the iterate; a CSR block of more than 3300
    nodes keeps power iteration for 10^5 steps instead.
    Returns the midpoint of a closed bracket or raises NoConvergence,
    whose message names the phase and gives A's bracket.  The block runs
    through the pass that `growth_rate` runs on all its blocks at once
    (`_perron_radii`).
    """
    return _perron_radii([_operand(a)])[0]


def _perron_radii(blocks: list[NonnegMatrix | np.ndarray]) -> list[float]:
    """Perron roots of irreducible blocks, as `spectral_radius_irreducible` gives them.

    A block is a NonnegMatrix, put in the form `_operand` picks, or a
    C-ordered dense array already in that form, which is never written.
    A 1x1 block is its entry, and a 0x0 block is refused with
    DimensionMismatch.  Every larger block is scaled and shifted
    by its own 2^-e and c (`_scale`), one per slice of a stack, and
    handed to `_power`: a CSR block alone, a dense block past the
    squaring cut alone as a stack of one, and dense blocks within the
    cut of one size in list order as (k, m, m) stacks of at most 4 MB,
    each run once full.  Each radius is the float its block gives alone.
    Blocks still open after their power steps or their squared iterate,
    or stalled, finish in list order, so the NoConvergence raised is the
    first failing block's.
    """
    # per block: its radius, or (B, v, lo, hi, ran, c, squarings) once its
    # power steps are spent, it stalls, or its squared iterate leaves the
    # bracket open, v being B's iterate `ran`; and the exponent e of its
    # scale 2^-e
    states: list = [None] * len(blocks)
    exponents = [0] * len(blocks)
    groups: dict[int, list[tuple[int, np.ndarray, np.float64]]] = {}

    def run(members: list[tuple[int, np.ndarray, np.float64]]) -> None:
        rows, forms, shifts = zip(*members)
        b, c = np.stack(forms), np.array(shifts)
        m = b.shape[-1]
        np.ldexp(b, -np.array([exponents[i] for i in rows])[:, None, None], out=b)
        b[:, np.arange(m), np.arange(m)] += c[:, None]
        _power(b, list(rows), states, c)
        members.clear()

    for i, b in enumerate(blocks):
        b = _operand(b) if isinstance(b, NonnegMatrix) else b
        m = b.dim if isinstance(b, NonnegMatrix) else len(b)
        if m == 0:
            raise DimensionMismatch("a 0x0 block has no Perron root")
        if m == 1:  # a 1x1 NonnegMatrix stores no entry
            states[i] = float(b[0, 0]) if isinstance(b, np.ndarray) else 0.0
        elif isinstance(b, NonnegMatrix):
            a = b.csr
            exponents[i], c = _scale(a)
            data = np.ldexp(a.data, -exponents[i])
            a = sparse.csr_array((data, a.indices, a.indptr), shape=a.shape)
            _power(a + c * sparse.eye_array(m, format="csr"), [i], states, np.array([c]))
        else:
            exponents[i], c = _scale(b)
            groups.setdefault(m, []).append((i, b, c))
            if m > _SQUARE_MAX_DIM or len(groups[m]) == _STACK_BYTES // (8 * m * m):
                run(groups[m])
    for members in groups.values():
        if members:
            run(members)
    return [_finish(state, e) for state, e in zip(states, exponents)]


def _scale(a: sparse.csr_array | np.ndarray) -> tuple[int, np.float64]:
    """The exponent e of a block's scale 2^-e, and the shift c of the scaled block.

    2^-e brings the largest row sum into [1/2, 1), exactly wherever the
    scaled entries are normal.  c is a quarter of the scaled row sum, or
    1 for a zero block: any c > 0 keeps an irreducible block's iterate
    positive, and this c lies on the scale of the root, which lies
    between the smallest and the largest row sum.
    """
    s, e = math.frexp(_largest_row_sum(a))
    return (e, np.float64(0.25 * s)) if s > 0.0 else (0, np.float64(1.0))


def _largest_row_sum(a: sparse.csr_array | np.ndarray) -> float:
    """The largest row sum of a CSR or dense matrix, 0 when it has no rows.

    Refused with NonFiniteEntry when it overflows the float range: no
    radius or power sum of such a matrix is computed from its entries.
    """
    with np.errstate(over="ignore"):
        total = float(np.max(a.sum(axis=1), initial=0.0))
    if total == math.inf:
        raise NonFiniteEntry("a row sum of the non-negative matrix overflows the float range")
    return total


def _width(hi, c, m: int):
    """The width a bracket [lo, hi] of A + cI closes at: DEFAULT_TOL (hi - c), or m eps hi if wider.

    DEFAULT_TOL is relative to A's upper bound hi - c.  No bracket read
    from m-term ratios of A + cI resolves less than their rounding, about
    m eps hi, so a block whose shift dwarfs its root still closes.  Takes
    floats or arrays alike.
    """
    return np.maximum(DEFAULT_TOL * (hi - c), m * _EPS * hi)


def _operand(a: NonnegMatrix | np.ndarray) -> NonnegMatrix | np.ndarray:
    """The checked matrix A in the form every radius and power sum runs on.

    The one rule: a C-ordered dense array when more than a quarter of
    A's entries are stored, else a NonnegMatrix.  An array must be square,
    finite and non-negative, and a C-ordered one dense enough comes back
    as it is, so callers must not write it.
    """
    if isinstance(a, NonnegMatrix):
        d, stored = a.dim, a.nnz
    else:
        a = _square(a)
        _check_entries(a, "non-negative matrix")
        d, stored = a.shape[0], np.count_nonzero(a)
    if not _dense_enough(stored, d):
        return a if isinstance(a, NonnegMatrix) else NonnegMatrix.from_dense(a)
    return a.to_dense() if isinstance(a, NonnegMatrix) else np.ascontiguousarray(a)


def _dense_enough(stored, d):
    """Whether d x d blocks with `stored` entries run dense (`_operand`, `_radius_blocks`)."""
    return stored > d * d // 4


def _power_steps(b) -> tuple[int, bool]:
    """Power steps each block of b gets, and whether Noda takes over a block they leave open.

    Noda's solve is dense, so a CSR block of more than _DENSE_MAX_DIM
    nodes gets all MAX_ITERATIONS steps and no Noda.  Any other block gets
    max(_POWER_STEPS, m) steps, at most MAX_ITERATIONS, and Noda when
    they are fewer.
    """
    m = b.shape[-1]
    if sparse.issparse(b) and m > _DENSE_MAX_DIM:
        return MAX_ITERATIONS, False
    steps = min(MAX_ITERATIONS, max(_POWER_STEPS, m))
    return steps, steps < MAX_ITERATIONS


def _power(b, rows: list[int], states: list, c: np.ndarray) -> None:
    """Radii of shifted blocks b = A + cI: one CSR block, or a (k, m, m) dense stack.

    rows numbers the blocks and c holds their shifts, one per slice (a
    CSR block is one slice).  A dense stack of at most _SQUARE_MAX_DIM
    nodes whose open brackets Noda can take over (`_power_steps`) is read
    once at its squared iterate (`_squared`); every other block, and each
    slice whose squared iterate underflowed, takes its power steps alone
    (`_stepped`).  states[rows[j]] gets slice j's radius or its open
    state.  A slice of a larger stack steps as a copy, so a block handed
    over keeps no view of its stack.
    """
    steps, may_stall = _power_steps(b)
    dense = not sparse.issparse(b)
    left = range(len(rows))
    if dense and may_stall and b.shape[-1] <= _SQUARE_MAX_DIM:
        left = _squared(b, rows, states, c, steps.bit_length() - 1).tolist()
    for j in left:
        one = b if not dense else b[0] if len(b) == 1 else b[j].copy()
        states[rows[j]] = _stepped(one, c[j])


def _stepped(b, c) -> float | tuple:
    """Power steps from 1/m on one shifted block b = A + cI, CSR or a dense (m, m) array.

    A step is only its product, its sum and a division, v <- b v / sum(b v):
    a gemv or a CSR product on the (m,) iterate.  The steps of a read, at
    most `_READ` and never past a `_WINDOW` mark, leave their products
    and iterates in a buffer allocated once.  The read then forms the
    Collatz-Wielandt ratios of all its steps at once, over the products,
    and their bracket [lo, hi] per step.  A bracket closes at `_width`:
    DEFAULT_TOL relative to A's upper bound hi - c, or the rounding floor
    m eps hi if that is wider.  Where Noda takes over (`_power_steps`),
    the stall rule (`_slow`) reads the bracket at each mark.  So the
    block closes or stalls at the step, and with the float, it would with
    its bracket read after every step.  Returns the midpoint, less c, of
    the first closed bracket, else (B, v, lo, hi, steps run, c, 0) once
    the power steps are spent or the block stalls.
    """
    steps, may_stall = _power_steps(b)
    dense = not sparse.issparse(b)
    m = b.shape[-1]
    # a read's r + 1 iterates and r products (then their ratios), and the
    # brackets read from them, hold at most _STACK_BYTES
    fits = max(1, min(_READ, (_STACK_BYTES // 8 - m) // (2 * m + 6)))
    x, w = np.empty((fits + 1, m)), np.empty((fits, m))
    x[0] = 1.0 / m
    lo, hi, ran = -math.inf, math.inf, 0
    last = hi  # the bracket width at the last window mark
    while ran < steps:
        r = min(fits, steps - ran, _WINDOW - ran % _WINDOW)
        for i in range(r):
            if dense:
                np.matmul(b, x[i], out=w[i])
            else:
                w[i] = b @ x[i]
            np.divide(w[i], np.add.reduce(w[i]), out=x[i + 1])
        ran += r
        ratios = np.divide(w[:r], x[:r], out=w[:r])
        lows, highs = np.minimum.reduce(ratios, axis=1), np.maximum.reduce(ratios, axis=1)
        target = _width(highs, c, m)
        closing = highs - lows <= target
        if closing.any():
            i = int(closing.argmax())
            return float((lows[i] + highs[i]) / 2.0 - c)
        x[0], lo, hi = x[r], lows[-1], highs[-1]
        if may_stall and ran % _WINDOW == 0:
            if _slow(hi - lo, last, steps - ran, target[-1]):
                break
            last = hi - lo
    return (b, x[0].copy(), lo, hi, ran, c, 0)


def _squared(b: np.ndarray, rows: list[int], states: list, c, squarings: int) -> np.ndarray:
    """Read each slice of a dense stack b = A + cI once, at its power iterate 2^squarings.

    The iterate v = B^(2^J) 1 / sum, J = squarings, is the normalised row
    sums of B squared J times, each square rescaled by its own largest
    entry per slice, and its Collatz-Wielandt bracket (B v) / v is read
    once, against B itself, so it bounds the root whatever rounding v
    took; it closes at `_width`, as in `_stepped`.  states[rows[j]] gets a
    closed slice's midpoint less c, or (B, v, lo, hi, 2^J, c, J) for Noda.
    Each slice runs the gemm, gemv and reductions its block runs alone.
    Returns the positions of the slices whose iterate has a zero,
    subnormal or non-finite entry, whose ratios would carry no digits;
    they are left to the power steps.
    """
    q, square, scaled = b, np.empty_like(b), np.empty_like(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(squarings):
            np.matmul(q, q, out=square)
            q = np.divide(square, np.maximum.reduce(square, axis=(1, 2), keepdims=True), out=scaled)
        sums = np.add.reduce(q, axis=2)
        v = np.divide(sums, np.add.reduce(sums, axis=1, keepdims=True), out=sums)
        usable = np.all(v >= _TINY, axis=1)  # false for a zero, subnormal or NaN entry
        ratios = np.matmul(b, v[..., None])[..., 0] / v
        lo, hi = np.minimum.reduce(ratios, axis=1), np.maximum.reduce(ratios, axis=1)
        closed = usable & (hi - lo <= _width(hi, c, b.shape[-1]))
    for j in np.flatnonzero(usable).tolist():
        if closed[j]:
            states[rows[j]] = float((lo[j] + hi[j]) / 2.0 - c[j])
        else:  # a copy frees the rest of the stack
            states[rows[j]] = (b[j].copy(), v[j].copy(), lo[j], hi[j], 1 << squarings, c[j], squarings)
    return np.flatnonzero(~usable)


def _slow(width, last, left: int, target):
    """Whether a bracket `last` wide one window ago looks unable to close in `left` steps.

    True when the width did not shrink over the window, or when shrinking
    by the same factor in each window the `left` steps start still leaves
    it above `target`, the width it closes at (`_width`).  The factor
    over all those windows is formed by repeated squaring, with products
    only; the stall steps the tests pin rest on these products.
    """
    ratio = np.minimum(width / last, 1.0)
    final = width
    windows = -(-left // _WINDOW)
    while windows:
        if windows & 1:
            final = final * ratio
        ratio = ratio * ratio
        windows >>= 1
    return (width >= last) | (final > target)


def _finish(state, e: int) -> float:
    """A block's radius, scaled back by 2^e, once its power steps are spent or it stalls.

    An open bracket goes to Noda (`_noda`) where `_power_steps` hands the
    block over, and is refused otherwise.  Errors give A's
    bracket, 2^e [lo - c, hi - c].
    """
    if not isinstance(state, tuple):
        return math.ldexp(state, e)
    b, v, lo, hi, ran, c, squarings = state
    m = b.shape[0]
    if _power_steps(b)[1]:
        dense = b.toarray() if sparse.issparse(b) else b
        lo, hi = _noda(dense, v, lo, hi, ran, c, squarings, e)
        return math.ldexp(float((lo + hi) / 2.0 - c), e)
    why = (
        f"; a {m}-node sparse block is too large to densify for Noda's inverse "
        f"iteration (limit {_DENSE_MAX_DIM} nodes)"
        if sparse.issparse(b) and m > _DENSE_MAX_DIM
        else ""
    )
    raise _left_open("power iteration", lo, hi, c, e, f"{ran} steps", why)


def _left_open(phase: str, lo, hi, c, e: int, after: str, why: str = "") -> NoConvergence:
    """The error for an open bracket [lo, hi] of 2^-e A + cI, given as A's, 2^e [lo - c, hi - c].

    `phase` left it open after `after`; `why` follows the tolerance.
    """
    return NoConvergence(
        f"{phase} left the radius in [{math.ldexp(lo - c, e):.17g}, "
        f"{math.ldexp(hi - c, e):.17g}] after {after} (relative tolerance {DEFAULT_TOL}){why}"
    )


def _noda(
    b: np.ndarray, v: np.ndarray, lo: float, hi: float, ran: int, c, squarings: int, e: int
) -> tuple[float, float]:
    """Close the Perron bracket [lo, hi] of a dense irreducible b = A + cI by inverse iteration.

    Noda's iteration (T. Noda, Numer. Math. 17, 1971; L. Elsner, Linear
    Algebra Appl. 15, 1976): solve (theta I - b) z = v with the shift theta
    just above the upper Collatz-Wielandt bound, by one LAPACK solve of the
    system scaled by v (`_scaled_solve`), and take v = z / sum(z).  The
    solve only proposes the next vector: the bracket is re-read
    from the ratios (b v) / v rather than from Noda's update
    theta - min(v / z), which loses the lower bound when the shift lands
    on the root in floating point.  The bracket closes at `_width`, as in
    power iteration, and is returned as b's; an error gives A's,
    2^e [lo - c, hi - c].  At most _NODA_SOLVES solves.  v is b's power
    iterate `ran`, reached by `squarings` squarings or, when that is 0, by
    `ran` power steps; the error message names them.
    """
    m = b.shape[0]
    ratios = (b @ v) / v
    for solve in range(1, _NODA_SOLVES + 1):
        # A computed upper bound can sit an ulp below rho(b); m ulps of hi,
        # the rounding floor of `_width`, keep the shift above it.  A ratio
        # past theta counts as theta: b's diagonal moves by its rounding.
        theta = hi * (1.0 + m * _EPS)
        z = _scaled_solve(b, v, v * np.maximum(theta - ratios, 0.0))
        if z is None:
            stop = f"a zero or non-finite pivot in solve {solve}"
            break
        v = z / z.sum()
        if not v.min() > 0.0:
            stop = f"an iterate that underflowed in solve {solve}"
            break
        ratios = (b @ v) / v
        lo, hi = max(lo, ratios.min()), min(hi, ratios.max())
        if hi - lo <= _width(hi, c, m):
            return lo, hi
    else:
        stop = "1 solve" if _NODA_SOLVES == 1 else f"{_NODA_SOLVES} solves"
    before = f"{squarings} squarings (power iterate {ran})" if squarings else f"{ran} power steps"
    raise _left_open("Noda inverse iteration", lo, hi, c, e, f"{before} and {stop}")


def _scaled_solve(b: np.ndarray, v: np.ndarray, u: np.ndarray) -> np.ndarray | None:
    """z with M z = v for the M-matrix M = theta I - b given by b and u = M v >= 0, v > 0.

    One `np.linalg.solve` of D^-1 M D y = 1, D = diag(v), and z = v y;
    None when LAPACK finds it singular or y is not finite.  The scaled
    diagonal u_i / v_i + sum_{j != i} b_ij v_j / v_i takes no
    subtraction.  Scaled by v, y is nearly constant near convergence, so
    a solve accurate in norm keeps every entry of z, however small.
    """
    s = b * v / v[:, None]
    np.fill_diagonal(s, 0.0)
    diagonal = u / v + s.sum(axis=1)
    np.negative(s, out=s)
    np.fill_diagonal(s, diagonal)
    try:
        y = np.linalg.solve(s, np.ones(len(v)))
    except np.linalg.LinAlgError:
        return None
    return v * y if np.isfinite(y).all() else None


def growth_rate(a: NonnegMatrix, u: np.ndarray) -> GrowthAnalysis:
    """Exact growth rate of u^T A^n 1: the maximum radius over reachable components.

    u is checked against A first.  An A of more than one node that
    Tarjan's pass finds to be one component goes to `irreducible_growth`
    uncut.  Otherwise a singleton component's radius is its diagonal
    entry, and a multi-node component's is the Perron root of its own
    block of A.
    """
    u = _checked_weights(u, a.dim)
    decomp = strongly_connected_components(a)
    if a.dim > 1 and decomp.n_components == 1:
        return irreducible_growth(u, a)
    block_radii = iter(_perron_radii(_radius_blocks(a.csr, decomp)))
    diagonal = a.csr.diagonal()
    radii = tuple(
        float(diagonal[comp[0]]) if len(comp) == 1 else next(block_radii)
        for comp in decomp.components
    )
    return _analysis(decomp, radii, u)


def irreducible_growth(u: np.ndarray, k: NonnegMatrix | np.ndarray) -> GrowthAnalysis:
    """The growth of an irreducible A of len(u) nodes from k, rho(k) = rho(A).

    The one place that builds A's decomposition of one component, as
    Tarjan's pass gives it; its radius is k's Perron root, taken on k in
    the form `_operand` picks, so a dense k with at most a quarter of its
    entries stored runs as CSR.  The caller vouches for len(u), A's
    irreducibility and k's root: k is A itself (`growth_rate`), or
    P^(o alpha) for a chain or K~ for an HMM (`tensor.irreducible`).
    """
    n = np.size(u)
    u = _checked_weights(u, n)
    decomp = ComponentDecomposition((tuple(range(n)),), (0,) * n, frozenset())
    return _analysis(decomp, tuple(_perron_radii([_operand(k)])), u)


def _checked_weights(u: np.ndarray, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise DimensionMismatch(f"weight vector has shape {u.shape}, expected ({n},)")
    _check_entries(u, "weight vector")
    return u


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
    return GrowthAnalysis(
        decomposition=decomp,
        component_radii=radii,
        reachable=reachable,
        rho_plus=rho_plus,
        dominant_component=dominant,
    )


def _radius_blocks(
    a: sparse.csr_array, decomp: ComponentDecomposition
) -> list[NonnegMatrix | np.ndarray]:
    """A's block on each multi-node component, in component order, in the form `_operand` picks.

    All blocks are cut in one pass over the stored entries of the member
    rows: an entry is kept when its column lies in its row's component,
    at its place in that block.  A block with more than a quarter of its
    entries stored is scattered into a C-ordered dense array, and the
    others become CSR blocks.  `a` is a NonnegMatrix's CSR form, with
    sorted columns, no repeated entry and no stored zero, and members
    ascend within a component, as `strongly_connected_components` lists
    them; so each CSR block is in that form too, and `NonnegMatrix`
    stores it as given.
    """
    comps = [comp for comp in decomp.components if len(comp) > 1]
    if not comps:
        return []
    sizes = np.array([len(comp) for comp in comps])
    members = np.fromiter((i for comp in comps for i in comp), dtype=np.intp, count=sizes.sum())
    block, place = np.full(a.shape[0], -1), np.empty(a.shape[0], dtype=np.intp)
    block[members] = np.repeat(np.arange(sizes.size), sizes)
    place[members] = np.arange(members.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # the member rows' entries, row by row; kept when within their row's block
    count = a.indptr[members + 1] - a.indptr[members]
    pos = np.repeat(a.indptr[members] - (np.cumsum(count) - count), count) + np.arange(count.sum())
    row = np.repeat(members, count)
    kept = block[a.indices[pos]] == block[row]
    pos, row = pos[kept], row[kept]
    blk, i, j, values = block[row], place[row], place[a.indices[pos]], a.data[pos]
    stored = np.bincount(blk, minlength=sizes.size)
    dense = _dense_enough(stored, sizes)
    # the dense blocks share one zero buffer, each at its own offset
    area = np.where(dense, sizes * sizes, 0)
    offset = np.cumsum(area) - area
    flat = np.zeros(area.sum())
    at = dense[blk]
    flat[offset[blk[at]] + i[at] * sizes[blk[at]] + j[at]] = values[at]
    blocks = []
    ends = np.cumsum(stored).tolist()
    for b, (m, o, e) in enumerate(zip(sizes.tolist(), offset.tolist(), ends)):
        if dense[b]:
            blocks.append(flat[o : o + m * m].reshape(m, m))
            continue
        run = slice(e - int(stored[b]), e)  # the block's kept entries, rows ascending
        indptr = np.searchsorted(i[run], np.arange(m + 1)).astype(np.int32)
        csr = sparse.csr_array((values[run], j[run].astype(np.int32), indptr), shape=(m, m))
        blocks.append(NonnegMatrix(csr))
    return blocks


def log_weighted_power_sum(a: NonnegMatrix | np.ndarray, u: np.ndarray, n: int) -> float:
    """Natural log of u^T A^n 1, stabilized; -inf when the sum is exactly 0.

    A is a NonnegMatrix or a dense array, which must be square, finite and
    non-negative, with row sums inside the float range.  Steps and
    squaring run on the form `_operand` picks, a C-ordered dense array
    (used as it is) when more than a quarter of A's entries are stored and
    CSR otherwise, so the float does not depend on A's form.  An A whose
    largest row sum exceeds d, which no model's does, runs as 2^-e A with
    row sums below 1, and n e log 2 is added to the result, so no product
    overflows.  Weights whose sum, or a step's, could overflow, which no
    model's can (they sum to at most 1), run as 2^-g u, and g log 2 is
    added to the result as well.

    Two paths, priced by a cost rule fitted on measured times (one BLAS
    thread, 2-core x86).  Repeated squaring with per-step rescaling
    (products of non-negative matrices involve no cancellation) costs
    about d^3 log2 n and keeps n = 10^6 cheap.  A renormalised step
    w <- w^T A costs about 22 (nnz + 8000) as a CSR product
    (`NonnegMatrix.vecmat`), or 6 d^2 + 22 * 8000 as a gemv on the dense
    form (at d = 512 a gemv took 58-68 us and a CSR product 210-240 us);
    22 * 8000 is the interpreter's share of one step.  The budget is the
    squaring cost d^3 * n.bit_length() over the cost of one step; past
    3300 nodes, where squaring's three dense d x d arrays would take more
    than 260 MB, it is n.

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
    b = _operand(a)
    dense = isinstance(b, np.ndarray)
    d = len(b) if dense else b.dim
    total = _largest_row_sum(b if dense else b.csr)
    u = _checked_weights(u, d)
    if n < 0:
        raise ValueError("exponent must be non-negative")
    # weights below 2^m sum below d 2^m and a step's below d^2 2^m (row
    # sums are at most d here), so they run as 2^-g u, g the least with
    # m - g + 2 d.bit_length() <= 1023
    g = max(0, math.frexp(np.max(u, initial=0.0))[1] + 2 * d.bit_length() - 1023)
    if g:
        u = np.ldexp(u, -g)
    s = u.sum()
    if n == 0 or s == 0:
        return math.log(s) + g * math.log(2.0) if s > 0 else -math.inf
    n = operator.index(n)
    # priced before the rescale, whose underflowed entries the CSR form drops
    if d > _DENSE_MAX_DIM:
        budget = n
    else:
        entries = _DENSE_STEP_COST * d * d if dense else _STEP_COST * b.nnz
        budget = d**3 * n.bit_length() // (entries + _STEP_COST * _STEP_OVERHEAD)
    e = math.frexp(total)[1] if total > d else 0
    if e:
        b = np.ldexp(b, -e) if dense else NonnegMatrix(
            sparse.csr_array((np.ldexp(b.csr.data, -e), b.csr.indices, b.csr.indptr), shape=(d, d))
        )
    value = None
    if budget >= n or budget >= _MIN_TRIAL:
        step = (lambda w: w @ b) if dense else b.vecmat
        value = _log_power_sum_stepwise(step, u, n, min(n, budget))
    if value is None:
        value = _log_power_sum_squaring(b if dense else b.to_dense(), u, n)
    return value + (n * e + g) * math.log(2.0) if e or g else value


def _log_power_sum_squaring(b: np.ndarray, w: np.ndarray, n: int) -> float:
    """log(w^T b^n 1) by repeated squaring; -inf once the iterate sums to 0.

    The iterate is rescaled to unit sum after each product and the power
    to unit maximum after each squaring, their logs kept aside.  w itself
    is never written.
    """
    log_w = 0.0
    log_b = 0.0
    while True:
        if n & 1:
            w = w @ b
            s = w.sum()
            if s == 0:
                return -math.inf
            w /= s
            log_w += log_b + math.log(s)
        n >>= 1
        if n == 0:
            return log_w  # w is renormalized to unit sum after the last multiply
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
    c_k = -tr(M_k) / k.  A must be square, finite and non-negative, and is
    refused with DimensionOverflow past 64 nodes, and with NonFiniteEntry
    when a coefficient overflows the float range.
    """
    b = _operand(a)
    m = len(b) if isinstance(b, np.ndarray) else b.dim
    if m > CHARPOLY_MAX_DIM:
        raise DimensionOverflow(
            f"characteristic polynomial capped at dimension {CHARPOLY_MAX_DIM}, got {m}"
        )
    dense = b if isinstance(b, np.ndarray) else b.to_dense()
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    mat = np.zeros_like(dense)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m + 1):
            mat = dense @ (mat + coeffs[k - 1] * np.eye(m))
            coeffs[k] = -np.trace(mat) / k
    if not np.isfinite(coeffs).all():
        raise NonFiniteEntry("a characteristic polynomial coefficient overflows the float range")
    return coeffs

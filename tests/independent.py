"""Independent references the tests compare the package against.

None is part of the pipeline, and each is written apart from the code it
checks:

- ``joint_chain`` forms the Markov pair process (X, Z) of an HMM as a
  dense matrix; its full Kronecker power, restricted by hand to tuples
  with one shared symbol, checks ``collision_system``.
- ``kronecker_power`` forms the tensor power of a matrix with
  ``scipy.sparse.kron``, folded left; ``restricted_kronecker_power`` cuts
  P's power down to the collision set and scales its columns, the route
  ``collision_system`` once took, and checks it bit for bit.
- ``submatrix`` slices a principal submatrix out of a CSR matrix; it
  checks the blocks ``growth_rate`` takes its radii from.
- ``empirical_growth_probe`` runs n renormalised vector-matrix products;
  ``(u^T A^n 1)^(1/n)`` checks the Perron root that ``growth_rate``
  reports.
- ``stepwise_logs`` runs all n renormalised products of
  ``log(u^T A^n 1)`` with the product the package steps with (A's
  transposed CSR form, or A's dense array when A is dense) and returns
  each step's log; ``math.fsum`` of them checks the stepwise power sum,
  which may stop early, to a few ulps.
- ``lumped_matrix`` forms K~ and u~ of an HMM by their definitions, one
  successor tuple at a time; it checks ``lumped_system`` float for
  float.
- ``sequence_probability`` runs the forward recursion over one output
  string; it checks the marginals the brute-force oracle enumerates.
- ``perron_enclosure`` encloses the Perron root of a float block in
  40-digit arithmetic: the Collatz-Wielandt bounds of a vector refined
  by inverse iteration from numpy's eigenvector; ``rate_bits`` maps
  such an enclosure to the rate in bits, and ``round12`` gives the
  12 significant digits the CLI prints of a number so enclosed, or None
  when the enclosure straddles a rounding boundary.
- ``power_iteration_radius`` runs plain power iteration on one block
  shifted by a quarter of its largest row sum, with the relative stop
  and its rounding floor, no stall exit and no hand-over, reading the
  bracket after every step; it checks, float for float, every radius
  the package closes by power iteration.  ``power_iteration_close``
  also gives the step that closed the bracket, which the package's
  reads of several steps at once must meet.
- ``squared_iterate_radius`` reads the Collatz-Wielandt bracket once, at
  the power iterate 2^J of a dense block shifted as above, reached by J
  squarings, each rescaled by its largest entry; it checks, float for
  float, the radius the package reads at that iterate, the open bracket
  it hands over from there, and which blocks it leaves to power steps.
- ``rounded_document`` rounds a report document's floats to 12
  significant digits and writes infinities and nan as strings, the way
  the CLI once prepared every report for ``json.dumps(..., indent=2)``;
  that dump checks the CLI's own JSON writer byte for byte.
- ``m_matrix_solve`` solves an M-matrix system given in the triplet form
  Noda's solves take, by Gaussian elimination on exact rationals; it
  checks each entry of the package's subtraction-free solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from typing import Sequence

import mpmath
import numpy as np
from scipy import sparse

from renyirates import HiddenMarkovModel, NonnegMatrix
from renyirates.errors import DimensionOverflow


@dataclass(frozen=True)
class JointChain:
    """The Markov pair process (X_i, Z_i) of an HMM."""

    pairs: tuple[tuple[str, str], ...]
    matrix: np.ndarray
    initial: np.ndarray


def joint_chain(hmm: HiddenMarkovModel) -> JointChain:
    """Transition matrix and initial law of the pair process (X, Z).

    M[(x,z),(x',z')] = P[x,x'] * E[x',z'] does not depend on z, so all
    rows sharing the hidden component are identical.  Pair indices are
    ordered lexicographically, hidden state outer.
    """
    p = hmm.chain.transition
    e = hmm.emission
    nx, nz = e.shape
    m4 = np.broadcast_to(
        p[:, np.newaxis, :, np.newaxis] * e[np.newaxis, np.newaxis, :, :],
        (nx, nz, nx, nz),
    )
    matrix = m4.reshape(nx * nz, nx * nz).copy()
    matrix.setflags(write=False)
    mu = (hmm.chain.initial[:, np.newaxis] * e).reshape(-1)
    mu.setflags(write=False)
    pairs = tuple(
        (x, z) for x in hmm.chain.states for z in hmm.observations
    )
    return JointChain(pairs=pairs, matrix=matrix, initial=mu)


def kronecker_power(a: NonnegMatrix, alpha: int, max_dim: int = 10**6) -> NonnegMatrix:
    """alpha-fold Kronecker power ((a x a) x a)...; tuple indices ordered lexicographically."""
    if a.dim**alpha > max_dim:
        raise DimensionOverflow(f"Kronecker power dimension {a.dim}^{alpha} exceeds cap {max_dim}")
    return NonnegMatrix(
        reduce(lambda x, y: sparse.kron(x, y, format="csr"), [a.csr] * alpha)
    )


def submatrix(a: NonnegMatrix, nodes: Sequence[int]) -> NonnegMatrix:
    """Principal submatrix on the given indices, in the given order."""
    idx = np.asarray(list(nodes), dtype=int)
    if idx.size == 0:
        return NonnegMatrix.from_dense(np.zeros((0, 0)))
    return NonnegMatrix(a.csr[idx][:, idx])


def restricted_kronecker_power(
    hmm: HiddenMarkovModel, alpha: int
) -> tuple[NonnegMatrix, np.ndarray, np.ndarray, tuple[str, ...]]:
    """The collision system by way of P^(tensor alpha): (A, nu, hidden tuples, labels).

    Node (xs, z) exists when prod_j E[xs_j, z] > 0; nodes are ordered by
    symbol, then lexicographically by hidden tuple.  A is P's Kronecker
    power restricted to the nodes' hidden tuples, its columns scaled by
    the nodes' emission products; nu is pi's Kronecker power on the same
    tuples, scaled the same way.
    """
    e = hmm.emission
    nx, nz = e.shape
    emit = np.stack([reduce(np.kron, [e[:, z]] * alpha) for z in range(nz)])
    symbols, hidden = np.nonzero(emit)
    weights = emit[symbols, hidden]
    power = kronecker_power(NonnegMatrix.from_dense(hmm.chain.transition), alpha)
    matrix = NonnegMatrix(submatrix(power, hidden).csr.multiply(weights[np.newaxis, :]))
    nu = reduce(np.kron, [hmm.chain.initial] * alpha)[hidden] * weights
    digits = np.stack(np.unravel_index(hidden, (nx,) * alpha), axis=1)
    labels = tuple(
        ",".join(hmm.chain.states[i] for i in tup) + "|" + hmm.observations[z]
        for tup, z in zip(digits.tolist(), symbols.tolist())
    )
    return matrix, nu, hidden, labels


def lumped_matrix(hmm: HiddenMarkovModel, alpha: int) -> tuple[sparse.csr_array, np.ndarray]:
    """K~ and u~ by their definitions.

    Rows are the multisets M of alpha states (sorted tuples) with w(M) > 0,
    in lexicographic order; w(M) = sum_z prod_j E[m_j, z] is summed over z
    by numpy.  Row M lists one entry per successor tuple t' of M in P's
    support whose sorted tuple is a row, from itertools.product in
    lexicographic order: w(sorted t') times prod_j P[m_j, t'_j], the
    product taken left to right, in the column of sorted t'.
    csr_array((data, (rows, cols))) sums each orbit's entries, and entries
    that underflow to 0 are dropped.  u~(M) = |orbit(M)| prod_j pi[m_j] w(M).
    """
    p, e, pi = hmm.chain.transition, hmm.emission, hmm.chain.initial
    nx = len(p)
    w = {
        m: np.array([math.prod(e[x, z] for x in m) for z in range(len(e.T))]).sum()
        for m in combinations_with_replacement(range(nx), alpha)
    }
    multisets = [m for m, weight in w.items() if weight > 0]
    column = {m: i for i, m in enumerate(multisets)}
    support = [np.flatnonzero(row).tolist() for row in p]
    rows, cols, data = [], [], []
    for i, m in enumerate(multisets):
        for t in product(*(support[x] for x in m)):
            target = tuple(sorted(t))
            if target in column:
                rows.append(i)
                cols.append(column[target])
                data.append(math.prod(p[x, y] for x, y in zip(m, t)) * w[target])
    k = sparse.csr_array((data, (rows, cols)), shape=(len(multisets), len(multisets)))
    k.eliminate_zeros()
    orbit = [
        math.factorial(alpha) // math.prod(math.factorial(m.count(x)) for x in set(m))
        for m in multisets
    ]
    u = np.array([n * math.prod(pi[x] for x in m) * w[m] for n, m in zip(orbit, multisets)])
    return k, u


def empirical_growth_probe(a: NonnegMatrix | np.ndarray, u: np.ndarray, n: int) -> float:
    """(u^T A^n 1)^(1/n), by n renormalized vector-matrix products."""
    if n < 1:
        raise ValueError(f"probe length must be >= 1, got {n}")
    dense = a.to_dense() if isinstance(a, NonnegMatrix) else np.asarray(a, dtype=float)
    w = np.asarray(u, dtype=float).copy()
    total = w.sum()
    if total == 0:
        return 0.0
    w /= total
    log_acc = math.log(total)
    for _ in range(n):
        w = w @ dense
        s = w.sum()
        if s == 0:
            return 0.0
        w /= s
        log_acc += math.log(s)
    return math.exp(log_acc / n)


def stepwise_logs(a: NonnegMatrix, u: np.ndarray, n: int) -> list[float] | None:
    """The n logs log(sum(w)) of renormalised products w <- w^T A from u; None if one sums to 0.

    A dense step, w times A's dense array, runs when more than a quarter
    of A's entries are stored, whatever A's size; otherwise A's
    transposed CSR form times w.  These are the package's products, so
    each log is the float the package's step gives.
    """
    dense = a.nnz > a.dim**2 // 4
    b = a.to_dense() if dense else a.csr.T.tocsr()
    w = np.asarray(u, dtype=float).copy()
    logs = []
    for _ in range(n):
        w = w @ b if dense else b @ w
        s = w.sum()
        if s == 0:
            return None
        w /= s
        logs.append(math.log(s))
    return logs


def sequence_probability(hmm: HiddenMarkovModel, symbols: Sequence[str]) -> float:
    """Exact marginal p(z_1 ... z_n) by the forward recursion."""
    if len(symbols) == 0:
        return 1.0
    p, e = hmm.chain.transition, hmm.emission
    zs = [hmm.observations.index(s) for s in symbols]
    w = hmm.chain.initial * e[:, zs[0]]
    for z in zs[1:]:
        w = (w @ p) * e[:, z]
    return float(w.sum())


ENCLOSURE_DIGITS = 40
# Rounds of inverse iteration `perron_enclosure` runs, each factored once.
ENCLOSURE_ROUNDS = 6


def perron_enclosure(block) -> tuple[mpmath.mpf, mpmath.mpf]:
    """[lo, hi] around the Perron root of an irreducible non-negative float block.

    Every float entry converts to an mpf exactly.  Inverse iteration at 40
    digits refines a positive vector v until its bounds agree to 30
    digits; for any v > 0 the Collatz-Wielandt bounds
    min_i (Av)_i / v_i <= rho <= max_i (Av)_i / v_i hold, here up to the
    rounding of 40-digit arithmetic.  The first round starts from the
    modulus of numpy's eigenvector for the largest real eigenvalue (ones
    if it has a zero entry), shifted just above that eigenvalue.  That
    vector is accurate only in norm: entries many decades below the
    largest have no digits, and solves keep them so.  A round ends after
    8 solves, or at a solve that leaves an entry 0, and the next one
    factors D^-1 (theta I - A) D, theta just above the last upper bound
    and D the last positive v, whose Perron vector has every entry near 1.
    Raises ArithmeticError when ENCLOSURE_ROUNDS rounds leave the bounds
    apart.  A 1x1 block is its entry.
    """
    block = np.asarray(block, dtype=float)
    with mpmath.workdps(ENCLOSURE_DIGITS):
        if block.shape == (1, 1):
            entry = mpmath.mpf(float(block[0, 0]))
            return entry, entry
        m = len(block)
        a = mpmath.matrix(block.tolist())
        values, vectors = np.linalg.eig(block)
        top = int(np.argmax(values.real))
        shift = mpmath.mpf(float(values[top].real)) * (1 + mpmath.mpf(10) ** -20)
        start = np.abs(vectors[:, top].real)
        v = mpmath.matrix(start.tolist() if start.min() > 0 else [1] * m)
        scale = [mpmath.mpf(1)] * m
        for _ in range(ENCLOSURE_ROUNDS):
            scaled = [
                [((shift if i == j else 0) - a[i, j]) * scale[j] / scale[i] for j in range(m)]
                for i in range(m)
            ]
            factors, pivots = mpmath.mp.LU_decomp(mpmath.matrix(scaled))
            for _ in range(8):
                ratios = [x / y for x, y in zip(a * v, v)]
                lo, hi = min(ratios), max(ratios)
                if hi - lo <= mpmath.mpf(10) ** -30 * hi:
                    return lo, hi
                y = mpmath.matrix([x / d for x, d in zip(v, scale)])
                z = mpmath.mp.U_solve(factors, mpmath.mp.L_solve(factors, y, pivots))
                w = mpmath.matrix([abs(x) * d for x, d in zip(z, scale)])
                if min(w) == 0:
                    break
                v = w
            shift = hi * (1 + mpmath.mpf(10) ** -20)
            scale = [x / max(v) for x in v]
        raise ArithmeticError(
            f"Perron enclosure still {mpmath.nstr((hi - lo) / hi, 3)} apart (relative) "
            f"after {ENCLOSURE_ROUNDS} rounds"
        )


def rate_bits(lo, hi, order) -> tuple[mpmath.mpf, mpmath.mpf]:
    """log2(rho) / (1 - order), the rate in bits, at both ends of an enclosure [lo, hi] of rho."""
    with mpmath.workdps(ENCLOSURE_DIGITS):
        return tuple(mpmath.log(x, 2) / (1 - mpmath.mpf(order)) for x in (lo, hi))


def round12(lo, hi) -> float | None:
    """The number 12 significant digits print of every value in [lo, hi], or None if they differ."""
    with mpmath.workdps(ENCLOSURE_DIGITS):
        ends = {format(Decimal(mpmath.nstr(x, ENCLOSURE_DIGITS)), ".12g") for x in (lo, hi)}
    return float(ends.pop()) if len(ends) == 1 else None


def power_iteration_radius(a: NonnegMatrix, tol: float, steps: int) -> float | None:
    """Perron root of an irreducible block by power iteration on B = A + cI; None if still open.

    The radius of `power_iteration_close`.
    """
    closed = power_iteration_close(a, tol, steps)
    return None if closed is None else closed[0]


def power_iteration_close(a: NonnegMatrix, tol: float, steps: int) -> tuple[float, int] | None:
    """(Perron root, the step that closed its bracket) by plain power iteration; None if still open.

    c is a quarter of A's largest row sum, summed in the form A is held
    in.  From uniform v, each step forms w = B v, reads the
    Collatz-Wielandt bracket [lo, hi] = [min_i w_i / v_i, max_i w_i / v_i]
    and renormalises v = w / sum(w); the root is the bracket's midpoint
    minus c once the bracket is at most tol (hi - c) wide, or at most
    m eps hi, the rounding of the ratios.  B is a CSR array when at most
    a quarter of A's entries are stored, else a dense one, as the package
    holds it.  Steps count from 1.
    """
    m = a.dim
    if a.nnz <= m * m // 4:
        c = 0.25 * a.csr.sum(axis=1).max()
        b = a.csr + c * sparse.eye_array(m, format="csr")
    else:
        dense = a.to_dense()
        c = 0.25 * dense.sum(axis=1).max()
        b = dense + c * np.eye(m)
    v = np.full(m, 1.0 / m)
    for step in range(1, steps + 1):
        w = b @ v
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        v = w / w.sum()
        if hi - lo <= max(tol * (hi - c), m * np.finfo(float).eps * hi):
            return float((lo + hi) / 2.0 - c), step
    return None


def squared_iterate_radius(block, tol: float, squarings: int):
    """The bracket of a dense block's power iterate 2^squarings, read once.

    A is scaled by the power of two 2^-e that brings its largest row sum
    s into [1/2, 1), and B = 2^-e A + cI with c = s / 4.  B is squared
    `squarings` times, each square divided by its largest entry, and v is
    the row sums of the result over their total.  The Collatz-Wielandt
    bracket [lo, hi] of the ratios (B v)_i / v_i closes once it is at most
    tol (hi - c) wide, or at most m eps hi.  Returns ("closed", root of A),
    the midpoint less c scaled back by 2^e; ("open", (v, lo, hi)), B's
    bracket, when it stays open; or ("fallback", None) when an entry of v
    is zero, subnormal or not finite.
    """
    a = np.array(block, dtype=float)
    m = len(a)
    s, e = math.frexp(a.sum(axis=1).max())
    c = 0.25 * s
    b = np.ldexp(a, -e) + c * np.eye(m)
    q = b
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(squarings):
            q = q @ q
            q = q / q.max()
        sums = q.sum(axis=1)
        v = sums / sums.sum()
    if not np.all(v >= np.finfo(float).tiny):
        return "fallback", None
    ratios = (b @ v) / v
    lo, hi = ratios.min(), ratios.max()
    if hi - lo <= max(tol * (hi - c), m * np.finfo(float).eps * hi):
        return "closed", math.ldexp(float((lo + hi) / 2.0 - c), e)
    return "open", (v, lo, hi)


def m_matrix_solve(b: np.ndarray, v: np.ndarray, u: np.ndarray) -> list[Fraction]:
    """The exact z with M z = v, M the M-matrix with off-diagonal entries -b_ij and M v = u.

    Every float converts to a Fraction exactly.  M's diagonal is
    (u_i + sum_{j != i} b_ij v_j) / v_i, and Gaussian elimination and
    back-substitution in rationals solve the system without rounding.
    """
    m = len(v)
    b, v, u = ([Fraction(x) for x in row] for row in (np.asarray(b).ravel(), v, u))
    rows = [[-b[i * m + j] for j in range(m)] for i in range(m)]
    for i in range(m):
        others = sum(b[i * m + j] * v[j] for j in range(m) if j != i)
        rows[i][i] = (u[i] + others) / v[i]
    rhs = list(v)
    for k in range(m):
        for i in range(k + 1, m):
            f = rows[i][k] / rows[k][k]
            for j in range(k, m):
                rows[i][j] -= f * rows[k][j]
            rhs[i] -= f * rhs[k]
    z = [Fraction(0)] * m
    for k in reversed(range(m)):
        z[k] = (rhs[k] - sum(rows[k][j] * z[j] for j in range(k + 1, m))) / rows[k][k]
    return z


def rounded_document(value):
    """Round floats to 12 significant digits, recursively; JSON-safe infinities."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: rounded_document(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded_document(v) for v in value]
    return value

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from sympy.polys.matrices import DomainMatrix

from renyirates import (
    NonnegMatrix,
    bsc_hmm,
    characteristic_polynomial,
    collision_system,
    entropy,
    entropy_rate,
    growth_rate,
    log_weighted_power_sum,
    spectral,
    spectral_radius_irreducible,
    strongly_connected_components,
    tensor,
    validate_chain,
    validate_hmm,
)
from renyirates.errors import (
    DimensionMismatch,
    DimensionOverflow,
    NegativeEntry,
    NoConvergence,
    NonFiniteEntry,
)
from renyirates.modelfile import load_model
from renyirates.random_models import random_hmm, random_nonneg_matrix, random_nonneg_vector

from conftest import FIXTURES, RESTRICTED_EXAMPLE
from independent import (
    empirical_growth_probe,
    m_matrix_solve,
    perron_enclosure,
    power_iteration_close,
    power_iteration_radius,
    squared_iterate_radius,
    stepwise_logs,
    submatrix,
)

A_EXAMPLE = NonnegMatrix.from_dense(RESTRICTED_EXAMPLE)
NU_EXAMPLE = np.full(5, 1.0 / 9.0)


class TestSpectralRadius:
    def test_mixing_pair(self):
        assert spectral_radius_irreducible(
            np.array([[0.16, 0.36], [0.36, 0.16]])
        ) == pytest.approx(0.52, abs=1e-12)

    def test_singleton(self):
        assert spectral_radius_irreducible(np.array([[0.81]])) == 0.81

    def test_periodic_permutation(self):
        # period-2 component; the +I shift still converges
        assert spectral_radius_irreducible(
            np.array([[0.0, 1.0], [1.0, 0.0]])
        ) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        a = rng.random((m, m)) + 0.05  # positive, hence irreducible
        rho = spectral_radius_irreducible(a)
        assert rho == pytest.approx(max(abs(np.linalg.eigvals(a))), abs=1e-10)

    def test_perron_bounds(self):
        rng = np.random.default_rng(11)
        a = rng.random((4, 4)) + 0.01
        rho = spectral_radius_irreducible(a)
        rs = a.sum(axis=1)
        assert rs.min() - 1e-12 <= rho <= rs.max() + 1e-12

    def test_no_convergence_budget(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 0)
        with pytest.raises(NoConvergence):
            spectral_radius_irreducible(np.ones((3, 3)))

    def test_radius_does_not_depend_on_memory_order(self):
        # a Fortran-ordered block once iterated in its own order, whose
        # gemv sums each row differently: 85 of these 200 radii moved
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(3, 30))
            a = rng.random((m, m)) + 0.01
            rho = spectral_radius_irreducible(a)
            assert spectral_radius_irreducible(np.asfortranarray(a)).hex() == rho.hex()


def _sparse_irreducible(rng, m):
    """m x m block with 3 stored entries per row; the cycle i -> i+1 makes it irreducible."""
    rows = np.repeat(np.arange(m), 3)
    cols = np.empty((m, 3), dtype=int)
    for i in range(m):
        others = rng.choice(np.setdiff1d(np.arange(m), [(i + 1) % m]), size=2, replace=False)
        cols[i] = [(i + 1) % m, *others]
    vals = rng.uniform(0.1, 1.0, size=3 * m)
    return NonnegMatrix(sparse.coo_array((vals, (rows, cols.ravel())), shape=(m, m)))


class TestSparseSpectralRadius:
    """Blocks with nnz <= m^2 // 4 are iterated in CSR form, never densified."""

    @pytest.fixture
    def no_densify(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sparse block was densified")

        monkeypatch.setattr(NonnegMatrix, "to_dense", refuse)

    @pytest.mark.parametrize("m", [50, 120, 300])
    def test_matches_dense_eigensolver(self, m, no_densify):
        a = _sparse_irreducible(np.random.default_rng(m), m)
        assert a.nnz == 3 * m <= m * m // 4
        eig = max(abs(np.linalg.eigvals(a.csr.toarray())))
        assert spectral_radius_irreducible(a) == pytest.approx(eig, abs=1e-9)

    @pytest.mark.parametrize("m", [4, 12, 40])
    def test_periodic_cycle(self, m, no_densify):
        # weighted m-cycle: period m, radius the geometric mean of the weights
        rng = np.random.default_rng(m)
        weights = rng.uniform(0.2, 2.0, size=m)
        idx = np.arange(m)
        a = NonnegMatrix(
            sparse.coo_array((weights, (idx, (idx + 1) % m)), shape=(m, m))
        )
        eig = max(abs(np.linalg.eigvals(a.csr.toarray())))
        rho = spectral_radius_irreducible(a)
        assert rho == pytest.approx(eig, abs=1e-9)
        assert rho == pytest.approx(np.exp(np.log(weights).mean()), abs=1e-9)


def exact_perron_root(block) -> float:
    """Largest real eigenvalue of a float matrix, from exact rational arithmetic.

    Independent of the package: each float entry is read as the exact
    rational it stores, sympy forms the characteristic polynomial over QQ,
    isolates its real roots and refines the largest to 1e-20.  The Perron
    root of an irreducible non-negative block is its largest real eigenvalue.
    """
    block = np.asarray(block, dtype=float)
    entries = [[sympy.QQ(*x.as_integer_ratio()) for x in row] for row in block.tolist()]
    charpoly = DomainMatrix(entries, block.shape, sympy.QQ).charpoly()
    poly = sympy.Poly(charpoly, sympy.Symbol("x"), domain=sympy.QQ).sqf_part()
    (lo, hi), _ = max(poly.intervals(), key=lambda interval: interval[0][1])
    lo, hi = poly.refine_root(lo, hi, eps=sympy.Rational(1, 10**20))
    return float((lo + hi) / 2)


def _sticky(s):
    """Two-regime chain that leaves regime 0 with probability s and regime 1 with 2s."""
    return np.array([[1.0 - s, s], [2.0 * s, 1.0 - 2.0 * s]])


STICKY_SWITCHES = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
# a shift of a quarter of the largest row sum dwarfs these roots: c / rho is
# about 240 and 2.5e5
ROW_SUM_SPREAD = [[[1e-3, 1.0], [1e-9, 1e-3]], [[0.0, 1e6], [1e-6, 0.0]]]
# eigenvalues 2e-6 apart: power iteration on A + I would need millions of steps
NEAR_REDUCIBLE = np.array([[0.9, 1e-6], [1e-6, 0.9 - 1e-9]])


def _assert_radii_exact(a: NonnegMatrix, u):
    ga = growth_rate(a, u)
    dense = a.to_dense()
    for comp, radius in zip(ga.decomposition.components, ga.component_radii):
        assert abs(radius - exact_perron_root(dense[np.ix_(comp, comp)])) <= 1e-12


def _assert_radii_of_own_blocks(a: NonnegMatrix, ga):
    """Each multi-node component's radius is its own block's, float for float.

    It also lies inside the block's 40-digit enclosure, widened by the
    tolerance and by the rounding of the ratios the bracket is read from.
    """
    for comp, radius in zip(ga.decomposition.components, ga.component_radii):
        if len(comp) == 1:
            continue
        block = submatrix(a, comp)
        assert radius == spectral_radius_irreducible(block)
        dense = block.to_dense()
        lo, hi = perron_enclosure(dense)
        rounding = 2 * len(comp) * spectral._EPS * (radius + _shift(dense))
        slack = spectral.DEFAULT_TOL * radius + rounding
        assert lo - slack <= radius <= hi + slack


def _sticky_ring(m):
    """m-node ring of nearly decoupled states, linked both ways by 1e-6; held in CSR."""
    i = np.arange(m)
    values = np.r_[0.9 - 1e-9 * i, np.full(2 * m, 1e-6)]
    return NonnegMatrix(
        sparse.coo_array((values, (np.r_[i, i, (i + 1) % m], np.r_[i, (i + 1) % m, i])), shape=(m, m))
    )


def _shift(a):
    """The shift c of A + cI: a quarter of A's largest row sum."""
    return 0.25 * a.sum(axis=1).max()


def _power_bracket(b, steps):
    """The bracket `steps` power steps on a shifted block leave, by the arithmetic of one step."""
    v = np.full(b.shape[0], 1.0 / b.shape[0])
    for _ in range(steps):
        w = b @ v
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        v = w / w.sum()
    return lo, hi


# 2^9 = 512 is the largest power of two within the 1000 power steps a
# block gets, so a dense block within the squaring cut is read once, at
# its power iterate 512, after 9 squarings
SQUARINGS = 9


@pytest.fixture
def loop_only(monkeypatch):
    """A squaring cut of 0 nodes: every dense block takes power steps, as past the cut."""
    monkeypatch.setattr(spectral, "_SQUARE_MAX_DIM", 0)


class TestNodaHandOver:
    """Dense blocks whose power iteration stalls finish with Noda's inverse iteration."""

    @pytest.fixture
    def noda_brackets(self, monkeypatch):
        """Record the closed bracket of every hand-over, as A + cI's.

        Noda closes the bracket of the block scaled by 2^-e, its last
        argument; scaling back by 2^e is exact.
        """
        brackets = []
        inner = spectral._noda

        def spy(*args):
            lo, hi = inner(*args)
            brackets.append((math.ldexp(lo, args[-1]), math.ldexp(hi, args[-1])))
            return lo, hi

        monkeypatch.setattr(spectral, "_noda", spy)
        return brackets

    def test_exact_oracle_on_known_roots(self):
        assert exact_perron_root([[0.16, 0.36], [0.36, 0.16]]) == pytest.approx(0.52, abs=1e-15)
        assert exact_perron_root(RESTRICTED_EXAMPLE) == pytest.approx(0.81, abs=1e-15)

    def test_near_reducible_block_closes_through_hand_over(self, noda_brackets):
        with pytest.MonkeyPatch.context() as mp, pytest.raises(NoConvergence, match="power iteration"):
            mp.setattr(spectral, "MAX_ITERATIONS", 1000)
            spectral_radius_irreducible(NEAR_REDUCIBLE)
        rho = spectral_radius_irreducible(NEAR_REDUCIBLE)
        assert len(noda_brackets) == 1
        assert abs(rho - exact_perron_root(NEAR_REDUCIBLE)) <= 1e-12

    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_hadamard_square_of_sticky_chain(self, s, noda_brackets):
        a = _sticky(s) ** 2
        rho = spectral_radius_irreducible(a)
        assert len(noda_brackets) == 1
        assert abs(rho - exact_perron_root(a)) <= 1e-12

    def test_shift_on_the_root_returns_closed_midpoint(self, noda_brackets):
        # s = 1e-6: after the first solve the upper bound equals rho(P o P + cI)
        # in floating point; Noda's update formula would leave a bracket of 4e-7
        a = _sticky(1e-6) ** 2
        c = _shift(a)
        rho = spectral_radius_irreducible(a)
        ((lo, hi),) = noda_brackets
        assert 0.0 <= hi - lo <= max(spectral.DEFAULT_TOL * (hi - c), 2 * spectral._EPS * hi)
        assert rho == (lo + hi) / 2.0 - c
        assert abs(rho - exact_perron_root(a)) <= 1e-12

    @pytest.mark.parametrize("a", ROW_SUM_SPREAD, ids=["c-240-rho", "c-2.5e5-rho"])
    def test_shift_that_dwarfs_the_root_still_closes(self, a, noda_brackets):
        # tol relative to rho lies below the rounding of A + cI's ratios,
        # about m eps hi, so the bracket closes at that floor instead
        a = np.array(a)
        c = _shift(a)
        rho = spectral_radius_irreducible(a)
        ((lo, hi),) = noda_brackets
        floor = 2 * spectral._EPS * hi
        assert spectral.DEFAULT_TOL * (hi - c) < floor
        assert 0.0 <= hi - lo <= floor
        assert rho == (lo + hi) / 2.0 - c
        # computed Collatz-Wielandt bounds hold up to the rounding of the ratios
        assert lo - c - floor <= exact_perron_root(a) <= hi - c + floor

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_bsc_sticky_chain_radii(self, s, alpha):
        chain = validate_chain(_sticky(s), [0.5, 0.5])
        cs = collision_system(bsc_hmm(chain, 0.1), alpha)
        _assert_radii_exact(cs.matrix, cs.initial)

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_bsc_sweep_radii(self, eps, alpha):
        cs = collision_system(bsc_hmm(load_model(FIXTURES / "bsc.model"), eps), alpha)
        _assert_radii_exact(cs.matrix, cs.initial)

    def test_zero_budget_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 0)
        with pytest.raises(NoConvergence, match=r"power iteration .* after 0 steps"):
            spectral_radius_irreducible(NEAR_REDUCIBLE)

    def test_exhausted_noda_budget_names_phase_and_bracket(self, monkeypatch, loop_only):
        # past the squaring cut this block hands over after 64 power steps
        # and needs two solves, where its budget leaves one
        monkeypatch.setattr(spectral, "_NODA_SOLVES", 1)
        a = _sticky(1e-6) ** 2
        with pytest.raises(NoConvergence, match="Noda .* after 64 power steps") as info:
            spectral_radius_irreducible(a)
        assert f"(relative tolerance {spectral.DEFAULT_TOL})" in str(info.value)
        # the message gives A's bracket, [lo - c, hi - c]
        lo, hi = map(float, re.search(r"in \[(\S+), (\S+)\]", str(info.value)).groups())
        assert hi - lo > 1e-12
        # computed Collatz-Wielandt bounds hold up to the rounding of the ratios
        assert lo - 1e-15 <= exact_perron_root(a) <= hi + 1e-15

    def test_exhausted_noda_budget_after_squaring_names_the_squarings(self, monkeypatch):
        # within the squaring cut the same block hands over at its power
        # iterate 512, read after 9 squarings, and again needs two solves
        monkeypatch.setattr(spectral, "_NODA_SOLVES", 1)
        a = _sticky(1e-6) ** 2
        match = rf"Noda .* after {SQUARINGS} squarings \(power iterate 512\) and 1 solve \("
        with pytest.raises(NoConvergence, match=match) as info:
            spectral_radius_irreducible(a)
        lo, hi = map(float, re.search(r"in \[(\S+), (\S+)\]", str(info.value)).groups())
        assert hi - lo > 1e-12
        assert lo - 1e-15 <= exact_perron_root(a) <= hi + 1e-15

    def test_sparse_near_degenerate_block_closes_through_hand_over(self, monkeypatch, noda_brackets):
        # a 20-node ring with 1e-6 links: power iteration alone would not
        # close the bracket in 10^5 steps; the power phase runs in CSR form
        # (NonnegMatrix.to_dense is never called) and only the hand-over
        # gets a dense copy
        monkeypatch.setattr(NonnegMatrix, "to_dense", lambda self: pytest.fail("densified"))
        m = 20
        ring = _sticky_ring(m)
        assert ring.nnz <= m * m // 4
        rho = spectral_radius_irreducible(ring)
        assert len(noda_brackets) == 1
        assert abs(rho - exact_perron_root(ring.csr.toarray())) <= 1e-12

    def test_ring_whose_small_entries_a_lapack_solve_lost(self, noda_brackets):
        # a 10-node ring linked by about 1e-4: with an unscaled LAPACK solve
        # of M z = v its lower bound stayed 4e-14 below the root for 99,000
        # solves
        a = _linked_ring(8367)
        rho = spectral_radius_irreducible(a)
        assert len(noda_brackets) == 1
        _assert_within_closing_width(rho, a)

    def test_hmm_rate_whose_small_entries_a_lapack_solve_lost(self, monkeypatch, noda_brackets):
        # draw 160 of a random-HMM corpus: 6 states, 3 symbols, order 3.  Its
        # rate runs on the 41-node lumped K~, and growth_rate on the built
        # 153-node A; with an unscaled LAPACK solve of M z = v both stalled
        # for 99,000 solves
        rng = np.random.default_rng(2026)
        for _ in range(161):
            nx, nz, alpha = (int(rng.integers(*bounds)) for bounds in ((2, 7), (1, 4), (2, 4)))
            hmm = random_hmm(rng, nx, nz, sparsity=rng.uniform(0, 0.7))
        lumped = tensor.lumped_system(hmm, alpha).matrix
        with monkeypatch.context() as mp:
            mp.setattr(entropy, "collision_system", lambda *args, **kwargs: pytest.fail("built A"))
            rho = entropy_rate(hmm, alpha).rho_plus
        _assert_within_closing_width(rho, lumped.to_dense())
        cs = collision_system(hmm, alpha)
        assert cs.matrix.dim == 153
        ga = growth_rate(cs.matrix, cs.initial)
        assert ga.decomposition.components == (tuple(range(153)),)
        _assert_within_closing_width(ga.rho_plus, cs.matrix.to_dense())
        assert len(noda_brackets) == 2

    def test_failed_pivot_names_the_solve(self, monkeypatch):
        # a singular M (u = 0) leaves a zero last pivot, and Noda names the
        # solve that met one
        v = np.array([0.5, 0.5])
        assert spectral._scaled_solve(_sticky(1e-6) ** 2, v, np.zeros(2)) is None
        monkeypatch.setattr(spectral, "_scaled_solve", lambda *args: None)
        with pytest.raises(NoConvergence, match=r"Noda .* a zero or non-finite pivot in solve 1 \("):
            spectral_radius_irreducible(_sticky(1e-6) ** 2)

    def test_large_stalled_sparse_block_names_its_size(self, monkeypatch):
        # past 3300 nodes a stalled CSR block is not densified: it keeps power
        # iteration for the whole budget and the error names its size
        monkeypatch.setattr(spectral, "_noda", lambda *args: pytest.fail("handed over"))
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3400)
        ring = _sticky_ring(3301)
        with pytest.raises(NoConvergence, match=r"after 3400 steps .* 3301-node sparse block") as info:
            spectral_radius_irreducible(ring)
        # all 3400 steps ran: the message gives the bracket they leave
        c = _shift(ring.csr)
        lo, hi = _power_bracket(ring.csr + c * sparse.eye_array(3301, format="csr"), 3400)
        assert f"[{lo - c:.17g}, {hi - c:.17g}]" in str(info.value)


def _linked_ring(seed):
    """A 10-node ring, diag(0.5 + 0.3 U) linked by 10^-k U(0.2, 1) on (i, i + 1 mod 10), k in 2-5.

    Held in CSR (20 of 100 entries stored); power iteration stalls on
    its small links, and Noda closes it.
    """
    rng = np.random.default_rng(seed)
    a = np.diag(0.5 + 0.3 * rng.random(10))
    i = np.arange(10)
    a[i, (i + 1) % 10] += 10.0 ** -int(rng.integers(2, 6)) * rng.uniform(0.2, 1, 10)
    return a


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_linked_ring_radii_lie_within_their_closing_width(seed):
    a = _linked_ring(seed)
    _assert_within_closing_width(spectral_radius_irreducible(a), a)


def _assert_within_closing_width(rho, a):
    """rho lies within the width its bracket closes at (`spectral._width`) of a's 40-digit enclosure.

    The enclosure itself must have closed to 30 digits.
    """
    c = _shift(a)
    width = spectral._width(rho + c, c, len(a))
    lo, hi = perron_enclosure(a)
    assert hi - lo <= 1e-30 * hi
    assert lo - width <= rho <= hi + width


def _nearly_decoupled_triplet(rng):
    """(b, v, u) of a ring of 2-12 nodes linked by 1e-2 to 1e-12, v spanning up to 30 decades.

    u = (theta I - b) v, theta just above the largest ratio (b v)_i / v_i.
    """
    m = int(rng.integers(2, 13))
    link = 10.0 ** -rng.uniform(2, 12)
    i = np.arange(m)
    b = np.diag(0.5 + 0.3 * rng.random(m))
    b[i, (i + 1) % m] += link * rng.uniform(0.2, 1.0, m)
    b[(i + 1) % m, i] += link * rng.uniform(0.2, 1.0, m) * (rng.random(m) < 0.5)
    v = 10.0 ** -rng.uniform(0, 30, m)
    ratios = (b @ v) / v
    theta = ratios.max() * (1.0 + 10.0 ** -rng.uniform(1, 15))
    return b, v, v * (theta - ratios)


@pytest.mark.parametrize("seed", range(40))
def test_triplet_solve_keeps_every_entrys_digits(seed):
    # every entry of z, however small, lies within a few ulps of the exact
    # solution; an unscaled LAPACK solve of M z = v, accurate only in norm,
    # is off by up to 1e13 ulps in the small entries
    b, v, u = _nearly_decoupled_triplet(np.random.default_rng(seed))
    z = spectral._scaled_solve(b, v, u)
    for got, exact in zip(z.tolist(), m_matrix_solve(b, v, u)):
        assert abs(Fraction(got) - exact) <= 4 * spectral._EPS * exact


def _stall_block(rng):
    """An irreducible block, nearly decoupled at small coupling: dense, or CSR at 8 or 10 nodes."""
    m = int(rng.choice([2, 2, 3, 4, 4, 6, 8, 10]))
    coupling = 10.0 ** -int(rng.integers(0, 9))
    idx = np.arange(m)
    a = np.diag(0.5 + rng.choice([0.0, 1e-9, 1e-4, 0.3]) * rng.random(m))
    a[idx, (idx + 1) % m] += coupling * rng.uniform(0.2, 1.0, size=m)
    if m < 8:
        a += coupling * rng.random((m, m)) * (rng.random((m, m)) < 0.7)
    return NonnegMatrix.from_dense(a)


def test_enclosure_closes_where_numpy_starts_it_poorly(monkeypatch):
    # numpy's eigenvector leaves this 10-node ring's entries far below its
    # largest without digits: 8 solves from it once left the enclosure
    # 4.6e-11 apart (relative), and one round of solves still does
    a = _stall_block(np.random.default_rng(1001)).to_dense()
    _assert_within_closing_width(spectral_radius_irreducible(a), a)
    monkeypatch.setattr("independent.ENCLOSURE_ROUNDS", 1)
    with pytest.raises(ArithmeticError, match="apart"):
        perron_enclosure(a)


def _radii_and_exits(blocks, **patches):
    """Radii of `_perron_radii`, and per block the power steps before Noda (None: no hand-over)."""
    exits = []
    finish = spectral._finish

    def spy(state, *args):
        exits.append(state[4] if isinstance(state, tuple) else None)
        return finish(state, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_finish", spy)
        for name, value in patches.items():
            mp.setattr(spectral, name, value)
        radii = spectral._perron_radii(blocks)
    return radii, exits


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_stall_exit_leaves_closing_radii_alone(seed, count):
    # dense blocks of one size, beside CSR blocks, each take their power
    # steps alone; a window longer than any budget switches the stall
    # exit off.  Every block closes; one that power iteration closes
    # keeps the float it has with the stall exit off, and one handed
    # over to Noda lies within its closing width of the exact root
    rng = np.random.default_rng(seed)
    blocks = [_stall_block(rng) for _ in range(count)]
    radii, exits = _radii_and_exits(blocks)
    radii_off, _ = _radii_and_exits(blocks, _WINDOW=10**9)
    for block, rho, rho_off, ran in zip(blocks, radii, radii_off, exits):
        if ran is None:
            assert rho == rho_off
        else:
            dense = block.to_dense()
            exact, c = exact_perron_root(dense), _shift(dense)
            assert abs(rho - exact) <= spectral._width(exact + c, c, block.dim)


def _mixed_block(rng, kind):
    """A block for `_perron_radii`: CSR, dense of a few shared sizes, 1x1, or a sticky chain's square."""
    if kind == "csr":
        return _sparse_irreducible(rng, int(rng.integers(12, 30)))
    if kind == "dense":
        m = int(rng.choice([2, 3, 5]))
        idx = np.arange(m)
        a = rng.random((m, m)) * (rng.random((m, m)) < 0.8)
        a[idx, (idx + 1) % m] += 0.5
        return NonnegMatrix.from_dense(a)
    if kind == "one":
        return NonnegMatrix.from_dense([[rng.random()]])
    return NonnegMatrix.from_dense(_sticky(10.0 ** -rng.uniform(2, 8)) ** 2)


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(["csr", "dense", "one", "sticky"]), min_size=1, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_radii_match_plain_power_iteration(seed, kinds):
    # every block takes its power steps alone, sticky ones among them
    # hand over to Noda, and a 1x1 block is its entry; plain power
    # iteration on each block is the reference for every radius that
    # closes without a hand-over
    # (with a squaring cut of 0 nodes, so the dense blocks take power
    # steps too; `test_small_dense_blocks_read_their_squared_iterate`
    # checks them within the cut)
    rng = np.random.default_rng(seed)
    blocks = [_mixed_block(rng, kind) for kind in kinds]
    radii, exits = _radii_and_exits(blocks, _SQUARE_MAX_DIM=0)
    for block, rho, ran in zip(blocks, radii, exits):
        if block.dim == 1:
            assert rho == block.to_dense()[0, 0]
        elif ran is None:
            reference = power_iteration_radius(block, spectral.DEFAULT_TOL, spectral.MAX_ITERATIONS)
            assert reference is not None and rho.hex() == reference.hex()
        else:
            assert abs(rho - exact_perron_root(block.to_dense())) <= 1e-12


def _square_block(rng, kind, m):
    """A dense block of m nodes within the squaring cut, of the given kind.

    "periodic": p classes, p = 2 or 3, each linked to the next by a positive
    block, so the block's period is p; "spread": upper triangular entries
    linked back by a subdiagonal of 10^(-span / (m - 1)) or so, span in
    [150, 300], whose Perron vector spans 150 to 300 decades (its iterate
    of 4096 steps does, over 300 draws); "sticky": a sticky chain's
    Hadamard square, which Noda closes; "fallback": a 2-node block linked
    back by a subnormal entry, whose squared iterate underflows; and
    "dense": random entries, 80 % stored, with a cycle through every node.
    """
    if kind == "sticky":
        return _sticky(10.0 ** -rng.uniform(2, 8)) ** 2
    if kind == "fallback":
        link, back = 10.0 ** -rng.uniform(2, 4), 10.0 ** -rng.uniform(309, 323)
        return np.array([[1.0, link], [back, 0.05 * rng.random()]])
    a = np.zeros((m, m))
    if kind == "periodic":
        period = int(rng.integers(2, min(m, 3) + 1))
        classes = np.array_split(rng.permutation(m), period)
        for here, there in zip(classes, classes[1:] + classes[:1]):
            a[np.ix_(here, there)] = rng.uniform(0.1, 1.0, (len(here), len(there)))
    elif kind == "spread":
        a = np.triu(rng.uniform(0.1, 1.0, (m, m)))
        a[np.diag_indices(m)] = np.r_[1.5, rng.uniform(0.2, 0.6, m - 1)]
        i = np.arange(1, m)
        a[i, i - 1] = 10.0 ** -(rng.uniform(150, 300) / (m - 1)) * rng.uniform(0.5, 1.0, m - 1)
    else:
        idx = np.arange(m)
        a = rng.random((m, m)) * (rng.random((m, m)) < 0.8)
        a[idx, (idx + 1) % m] += 0.5
    return a


@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.sampled_from(["periodic", "spread", "sticky", "fallback", "dense"]), min_size=1, max_size=6
    ),
)
@settings(max_examples=30, deadline=None)
def test_small_dense_blocks_read_their_squared_iterate(seed, kinds):
    # dense blocks of 2 to 32 nodes, some of one size, so they share a
    # stack: each is read once at its power iterate 2^9, float for float
    # as `squared_iterate_radius` reads it, and closes there, hands its
    # open bracket to Noda, or, with an iterate that underflowed, takes
    # the power steps it takes past the cut; each gives the float it
    # gives alone, within its closing width of the 40-digit enclosure
    rng = np.random.default_rng(seed)
    sizes = [2, 3, int(rng.integers(4, spectral._SQUARE_MAX_DIM + 1))]
    arrays = [_square_block(rng, kind, sizes[int(rng.integers(0, 3))]) for kind in kinds]
    blocks = [NonnegMatrix.from_dense(a) for a in arrays]
    for b in blocks:
        assert spectral._dense_enough(b.nnz, b.dim) and b.dim <= spectral._SQUARE_MAX_DIM
    radii, states = _radii_or_errors(blocks)
    assert [_key(r) for r in radii] == [_key(_radii_or_errors([b])[0][0]) for b in blocks]
    for a, block, rho, state in zip(arrays, blocks, radii, states):
        path, read = squared_iterate_radius(a, spectral.DEFAULT_TOL, SQUARINGS)
        if path == "closed":
            assert rho.hex() == read.hex()
        elif path == "open":
            v, lo, hi = read
            assert (state[4], state[6]) == (2**SQUARINGS, SQUARINGS)
            assert state[1].tobytes() == v.tobytes() and (state[2], state[3]) == (lo, hi)
        else:
            assert state[6] == 0  # no squaring: from 1/m by power steps
            assert _key(rho) == _key(_radii_or_errors([block], _SQUARE_MAX_DIM=0)[0][0])
        if isinstance(rho, float):
            _assert_within_closing_width(rho, a)


class TestSquaringCut:
    """Which blocks are read at their squared iterate, and which take power steps."""

    @pytest.fixture
    def squared(self, monkeypatch):
        """Record the dimension of every stack `_squared` reads."""
        dims = []
        inner = spectral._squared
        monkeypatch.setattr(
            spectral, "_squared", lambda b, *args: dims.append(b.shape[-1]) or inner(b, *args)
        )
        return dims

    @pytest.mark.parametrize("m", [2, spectral._SQUARE_MAX_DIM, spectral._SQUARE_MAX_DIM + 1])
    def test_dense_blocks_within_the_cut_square(self, m, squared):
        a = _square_block(np.random.default_rng(m), "dense", m)
        rho = spectral_radius_irreducible(a)
        assert squared == ([m] if m <= spectral._SQUARE_MAX_DIM else [])
        _assert_within_closing_width(rho, a)

    def test_csr_blocks_do_not_square(self, squared):
        spectral_radius_irreducible(_sparse_irreducible(np.random.default_rng(3), 20))
        assert squared == []

    def test_no_squaring_where_noda_cannot_take_over(self, monkeypatch, squared):
        # a budget of MAX_ITERATIONS steps leaves Noda nothing, so the
        # block takes its power steps as it did before the squaring
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1000)
        a = _square_block(np.random.default_rng(5), "dense", 6)
        rho = spectral_radius_irreducible(a)
        assert squared == []
        reference = power_iteration_radius(NonnegMatrix.from_dense(a), spectral.DEFAULT_TOL, 1000)
        assert rho.hex() == reference.hex()


def _radii_or_errors(blocks, **patches):
    """Per block its radius or the NoConvergence message it raises, and its state, by `_perron_radii`."""
    states = []
    finish = spectral._finish

    def spy(state, e):
        states.append(state)
        try:
            return finish(state, e)
        except NoConvergence as error:
            return str(error)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_finish", spy)
        for name, value in patches.items():
            mp.setattr(spectral, name, value)
        return spectral._perron_radii(blocks), states


def _key(radius):
    """A radius by its hex digits, or a NoConvergence message as it is."""
    return radius.hex() if isinstance(radius, float) else radius


def _states_after(blocks, budget):
    """Per block, its radius if `_perron_radii` closes it within `budget` steps, else ("open", steps run)."""

    def finish(state, e):  # a closed radius is scaled back by 2^e, as `_finish` does
        return ("open", state[4]) if isinstance(state, tuple) else math.ldexp(state, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_finish", finish)
        mp.setattr(spectral, "MAX_ITERATIONS", budget)
        return spectral._perron_radii(blocks)


# (kind, seed) of `_mixed_block`s whose bracket, read after every step,
# first closes at the given step: the first step of a read of _READ = 8,
# its last, a _WINDOW mark (32), and dense 3-node blocks of one size,
# which close in the third, fourth and fifth reads
CLOSING_BLOCKS = {
    "first-of-read": [("dense", 1, 25)],
    "last-of-read": [("dense", 64, 24)],
    "window-mark": [("dense", 172, 32)],
    "csr-first-of-read": [("csr", 42, 73)],
    "csr-window-mark": [("csr", 113, 64)],
    "stack": [
        ("dense", 6, 22), ("dense", 64, 24), ("dense", 1, 25), ("dense", 172, 32), ("dense", 36, 33)
    ],
}


@pytest.mark.parametrize("group", CLOSING_BLOCKS.values(), ids=CLOSING_BLOCKS.keys())
def test_blocks_close_at_the_step_a_per_step_read_closes_them(group):
    # the brackets of several steps are read at once; a block must still
    # close at its first closing step, with that step's midpoint, and stay
    # open one step before it, whatever read the step falls in.  Budgets
    # below 1000 steps leave Noda nothing, so no block squares; at the
    # full budget a squaring cut of 0 nodes keeps the dense blocks on the
    # power steps
    blocks = [_mixed_block(np.random.default_rng(seed), kind) for kind, seed, _ in group]
    closes = [power_iteration_close(block, spectral.DEFAULT_TOL, 1000) for block in blocks]
    assert [step for _, step in closes] == [step for _, _, step in group]
    assert len({block.dim for block in blocks}) == 1  # a stack's blocks share one size
    for budget in sorted({step for _, step in closes} | {step - 1 for _, step in closes}):
        # below 1000 steps no block stalls or hands over
        states = _states_after(blocks, budget)
        for state, (rho, step) in zip(states, closes):
            if step <= budget:
                assert state.hex() == rho.hex()
            else:
                assert state == ("open", budget)
    radii, exits = _radii_and_exits(blocks, _SQUARE_MAX_DIM=0)  # the full budget, stall rule on
    assert exits == [None] * len(blocks)
    assert [r.hex() for r in radii] == [rho.hex() for rho, _ in closes]


@given(st.integers(0, 2**32 - 1), st.sampled_from(["csr", "dense", "sticky"]), st.data())
@settings(max_examples=60, deadline=None)
def test_radius_scales_exactly_with_the_block(seed, kind, data):
    # a block is scaled by a power of two to a largest row sum in [1/2, 1)
    # before any step, and the shift c, a quarter of the largest row sum,
    # the relative stop and its rounding floor all scale with A, so 2^k
    # passes through every power step and Noda solve exactly, for every k
    # that keeps 2^k A's entries normal and its row sums (so its radius)
    # finite; a unit shift does not
    block = _mixed_block(np.random.default_rng(seed), kind)
    a = block.csr
    low = -1021 - math.frexp(a.data.min())[1]
    high = 1024 - math.frexp(a.sum(axis=1).max())[1]
    k = data.draw(st.integers(low, high), label="k")
    scaled = sparse.csr_array((np.ldexp(a.data, k), a.indices, a.indptr), shape=a.shape)
    rho = spectral_radius_irreducible(block)
    assert spectral_radius_irreducible(NonnegMatrix(scaled)) == math.ldexp(rho, k)


@pytest.mark.parametrize("k", [-1021, -1000, -990, -980, 0, 980, 1023])
def test_radius_near_the_float_range_edges(k):
    # every entry of 2^k P o P, P the sticky chain at s = 1e-6, is normal;
    # its block once ran into subnormal iterates near k = -980 and raised
    a = _sticky(1e-6) ** 2
    assert spectral_radius_irreducible(np.ldexp(a, k)) == math.ldexp(spectral_radius_irreducible(a), k)


class TestStallExit:
    """A block whose bracket cannot close in its power steps hands over to Noda early."""

    @pytest.fixture
    def noda_steps(self, monkeypatch):
        """Record the power steps run before every hand-over."""
        steps = []
        inner = spectral._noda

        def spy(*args):
            steps.append(args[4])
            return inner(*args)

        monkeypatch.setattr(spectral, "_noda", spy)
        return steps

    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_hadamard_square_hands_over_after_two_windows(self, s, noda_steps, loop_only):
        spectral_radius_irreducible(_sticky(s) ** 2)
        assert noda_steps == [2 * spectral._WINDOW]

    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_hadamard_square_hands_over_at_its_squared_iterate(self, s, noda_steps, monkeypatch):
        # within the squaring cut the block takes no power step: it is
        # read once, at its power iterate 2^9, and handed over from there
        squarings = []
        noda = spectral._noda
        monkeypatch.setattr(
            spectral, "_noda", lambda *args: squarings.append(args[6]) or noda(*args)
        )
        spectral_radius_irreducible(_sticky(s) ** 2)
        assert noda_steps == [2**SQUARINGS]
        assert squarings == [SQUARINGS]

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_bsc_sticky_system_hands_over_within_four_windows(
        self, s, alpha, noda_steps, loop_only
    ):
        # the fast modes of these blocks die out first and leave a plateau
        # (after about 100 steps at s = 1e-8), which the window compares
        # see one window later
        hmm = bsc_hmm(validate_chain(_sticky(s), [0.5, 0.5]), 0.1)
        cs = collision_system(hmm, alpha)
        growth_rate(cs.matrix, cs.initial)
        entropy_rate(hmm, alpha)  # on the lumped matrix
        assert len(noda_steps) == 2
        assert max(noda_steps) <= 4 * spectral._WINDOW

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_bsc_sticky_system_hands_over_at_its_squared_iterate(self, s, alpha, noda_steps):
        # A and the lumped matrix are dense and within the squaring cut
        hmm = bsc_hmm(validate_chain(_sticky(s), [0.5, 0.5]), 0.1)
        cs = collision_system(hmm, alpha)
        assert cs.matrix.dim <= spectral._SQUARE_MAX_DIM
        growth_rate(cs.matrix, cs.initial)
        entropy_rate(hmm, alpha)
        assert noda_steps == [2**SQUARINGS] * 2

    def test_no_early_exit_when_the_budget_leaves_noda_nothing(self, monkeypatch):
        # a cap of 1000 power steps leaves no solve, so all 1000 steps run
        # and the message gives the bracket they leave
        monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1000)
        with pytest.raises(NoConvergence, match=r"power iteration .* after 1000 steps") as info:
            spectral_radius_irreducible(NEAR_REDUCIBLE)
        c = _shift(NEAR_REDUCIBLE)
        lo, hi = _power_bracket(NEAR_REDUCIBLE + c * np.eye(2), 1000)
        assert f"[{lo - c:.17g}, {hi - c:.17g}]" in str(info.value)

    def test_noda_failure_names_the_power_steps_run(self, monkeypatch, loop_only):
        # two windows of power steps, then one solve where two are needed
        monkeypatch.setattr(spectral, "_NODA_SOLVES", 1)
        with pytest.raises(NoConvergence, match=r"Noda .* after 64 power steps and 1 solve \("):
            spectral_radius_irreducible(_sticky(1e-6) ** 2)

    def test_noda_failure_names_the_squarings_run(self, monkeypatch):
        # within the squaring cut: 9 squarings, then one solve where two are needed
        monkeypatch.setattr(spectral, "_NODA_SOLVES", 1)
        with pytest.raises(
            NoConvergence, match=r"Noda .* after 9 squarings \(power iterate 512\) and 1 solve \("
        ):
            spectral_radius_irreducible(_sticky(1e-6) ** 2)


BAD_WEIGHTS = [
    pytest.param([math.nan, 1.0], NonFiniteEntry, id="nan"),
    pytest.param([math.inf, 1.0], NonFiniteEntry, id="inf"),
    pytest.param([-1.0, 1.0], NegativeEntry, id="negative"),
    # a column once gave a rate on an irreducible A and raised numpy's
    # matmul ValueError in the power sum; a scalar raised IndexError
    pytest.param([[1.0], [1.0]], DimensionMismatch, id="column"),
    pytest.param([[1.0, 1.0]], DimensionMismatch, id="row"),
    pytest.param(1.0, DimensionMismatch, id="scalar"),
]

BAD_ARRAYS = [
    pytest.param([[0.5, math.nan], [0.2, 0.3]], NonFiniteEntry, id="nan"),
    pytest.param([[0.5, math.inf], [0.2, 0.3]], NonFiniteEntry, id="inf"),
    pytest.param([[0.5, -0.1], [0.2, 0.3]], NegativeEntry, id="negative"),
    pytest.param([[0.5, 0.5, 0.1], [0.2, 0.3, 0.1]], DimensionMismatch, id="non-square"),
    pytest.param([0.5, 0.5], DimensionMismatch, id="one-dimensional"),
    pytest.param([[math.nan]], NonFiniteEntry, id="nan-1x1"),
    pytest.param([[-math.inf, 0.1], [0.2, 0.3]], NonFiniteEntry, id="minus-inf"),
    pytest.param([[-2.0]], NegativeEntry, id="negative-1x1"),
    pytest.param([[0.5, -0.6], [0.2, 0.3]], NegativeEntry, id="negative-below-diagonal"),
    # finite entries whose row sums overflow: the radius once raised
    # NoConvergence with the bracket [nan, nan]
    pytest.param(np.full((3, 3), 1e308), NonFiniteEntry, id="row-sum-overflow"),
]


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_matrix_rejects_non_finite_entry(self, bad):
        with pytest.raises(NonFiniteEntry):
            NonnegMatrix.from_dense([[0.5, bad], [0.2, 0.3]])

    def test_matrix_rejects_negative_entry(self):
        with pytest.raises(NegativeEntry):
            NonnegMatrix.from_dense([[0.5, -0.1], [0.2, 0.3]])

    @pytest.mark.parametrize("u,error", BAD_WEIGHTS)
    def test_growth_rate_rejects_bad_weights_before_any_work(self, monkeypatch, u, error):
        a = NonnegMatrix.from_dense([[0.5, 0.5], [0.2, 0.3]])
        calls = []
        monkeypatch.setattr(spectral, "strongly_connected_components", calls.append)
        with pytest.raises(error, match="weight vector"):
            growth_rate(a, u)
        assert calls == []

    @pytest.mark.parametrize(
        "u,error",
        [
            pytest.param(np.ones(15), DimensionMismatch, id="short"),
            pytest.param(np.ones(17), DimensionMismatch, id="long"),
            pytest.param([math.nan] + [1.0] * 15, NonFiniteEntry, id="nan"),
        ],
    )
    def test_growth_rate_checks_weights_before_the_shortcut(self, monkeypatch, u, error):
        # a positive 16 x 16 A is one component, and irreducible_growth reads
        # A's dimension off len(u), so u must be checked against A before any
        # pass or radius
        a = NonnegMatrix.from_dense(np.random.default_rng(5).uniform(0.1, 1.0, (16, 16)))
        calls = []
        for name in ("strongly_connected_components", "_perron_radii"):
            monkeypatch.setattr(spectral, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(error, match="weight vector"):
            growth_rate(a, u)
        assert calls == []

    @pytest.mark.parametrize("u,error", BAD_WEIGHTS)
    @pytest.mark.parametrize("n", [0, 3])
    def test_power_sum_rejects_bad_weights(self, u, error, n):
        a = NonnegMatrix.from_dense([[0.5, 0.5], [0.2, 0.3]])
        with pytest.raises(error, match="weight vector"):
            log_weighted_power_sum(a, u, n)

    def test_power_sum_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError, match="exponent must be non-negative"):
            log_weighted_power_sum(A_EXAMPLE, NU_EXAMPLE, -1)

    @pytest.mark.parametrize("n", [7, 10**6])
    def test_squaring_a_nilpotent_matrix_gives_minus_infinity(self, monkeypatch, n):
        # at n = 7 the iterate's sum reaches 0; at 10^6 the squared power does first
        squarings = []
        squaring = spectral._log_power_sum_squaring
        monkeypatch.setattr(
            spectral, "_log_power_sum_squaring", lambda *args: squarings.append(args) or squaring(*args)
        )
        a = np.triu(np.ones((3, 3)), 1)
        assert log_weighted_power_sum(a, np.full(3, 1 / 3), n) == -math.inf
        assert len(squarings) == 1

    def test_reducible_block_names_the_underflowed_iterate(self):
        # diag(1, 2) is no irreducible block: Noda's iterate loses node 0
        with pytest.raises(NoConvergence, match="an iterate that underflowed in solve"):
            spectral_radius_irreducible(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("a,error", BAD_ARRAYS)
    @pytest.mark.parametrize("n", [0, 3])
    def test_power_sum_rejects_bad_arrays(self, a, error, n):
        with pytest.raises(error):
            log_weighted_power_sum(np.array(a), np.full(2, 0.5), n)

    @pytest.mark.parametrize("a,error", BAD_ARRAYS)
    def test_radius_rejects_bad_arrays(self, a, error):
        # these once gave nan, -2.0 as a Perron root, a math domain error
        # or a numpy broadcast error
        with pytest.raises(error):
            spectral_radius_irreducible(np.array(a))

    @pytest.mark.parametrize("a,error", BAD_ARRAYS)
    def test_characteristic_polynomial_rejects_bad_arrays(self, a, error):
        with pytest.raises(error):
            characteristic_polynomial(np.array(a))

    @pytest.mark.parametrize(
        "a",
        [np.full((3, 3), 1e308), np.array([[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [1.0, 1.0, 1.0]])],
        ids=["one-component", "in-a-block"],
    )
    def test_growth_rate_refuses_a_row_sum_that_overflows(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEntry, match="row sum .* overflows the float range"):
                growth_rate(NonnegMatrix.from_dense(a), np.ones(3))

    def test_empty_block_has_no_perron_root(self):
        # it once came back as 0.0; an empty analysis and an empty power
        # sum keep their results
        for a in (np.zeros((0, 0)), NonnegMatrix.from_dense(np.zeros((0, 0)))):
            with pytest.raises(DimensionMismatch, match="0x0 block"):
                spectral_radius_irreducible(a)
        ga = growth_rate(NonnegMatrix.from_dense(np.zeros((0, 0))), np.zeros(0))
        assert (ga.component_radii, ga.rho_plus, ga.dominant_component) == ((), 0.0, None)
        assert log_weighted_power_sum(np.zeros((0, 0)), np.zeros(0), 3) == -math.inf


def _scaled_ring(m, x):
    """The m-node cycle with every entry x, held in CSR."""
    i = np.arange(m)
    return NonnegMatrix(sparse.coo_array((np.full(m, x), (i, (i + 1) % m)), shape=(m, m)))


@pytest.mark.parametrize(
    "a,u,n,expected",
    [
        # squared once, the 3 x 3 array once overflowed to nan
        pytest.param(np.full((3, 3), 1e200), np.full(3, 1 / 3), 5, 5 * math.log(3e200), id="squaring"),
        # past 3300 nodes every one of the 10 steps is a CSR product
        pytest.param(_scaled_ring(3400, 1e300), np.full(3400, 1 / 3400), 10, 10 * math.log(1e300), id="stepwise"),
    ],
)
def test_power_sum_of_row_sums_past_the_dimension(a, u, n, expected):
    # such a matrix runs scaled by a power of two below row sums of 1, so
    # no product overflows and no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_weighted_power_sum(a, u, n) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "a,u,n,expected",
    [
        # the weights sum to 2e308, past the float range; d = 2 squares at
        # n = 3 and n = 10^6 alike
        pytest.param(np.eye(2), np.full(2, 1e308), 0, math.log(2.0) + math.log(1e308), id="n0"),
        pytest.param(np.eye(2), np.full(2, 1e308), 3, math.log(2.0) + math.log(1e308), id="n3"),
        pytest.param(np.eye(2), np.full(2, 1e308), 10**6, math.log(2.0) + math.log(1e308), id="squaring"),
        # the weights' sum is finite, the first step's is not
        pytest.param(
            np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.7e308, 0.0]), 3,
            math.log(2.0) + math.log(1.7e308), id="first-step",
        ),
        # past 3300 nodes every step is a CSR product
        pytest.param(_scaled_ring(3400, 1.0), np.full(3400, 1e308), 10, math.log(3400) + math.log(1e308), id="stepwise"),
    ],
)
def test_power_sum_of_weights_whose_sum_overflows(a, u, n, expected):
    # such weights run scaled by a power of two, so no sum overflows and
    # no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_weighted_power_sum(a, u, n) == pytest.approx(expected, rel=1e-14)


class TestFromDense:
    """NonnegMatrix.from_dense gives the CSR arrays scipy gives, zeros dropped."""

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(np.zeros((0, 0)), id="empty"),
            pytest.param(np.zeros((3, 3)), id="zeros"),
            pytest.param(np.array([[0.0, 1.5], [-0.0, 2.0]]), id="negative-zero"),
            pytest.param(np.array([[4.0]]), id="one"),
            pytest.param(random_nonneg_matrix(np.random.default_rng(1), 64, 0.0), id="dense"),
            pytest.param(random_nonneg_matrix(np.random.default_rng(2), 97, 0.95), id="sparse"),
            pytest.param(
                np.asfortranarray(random_nonneg_matrix(np.random.default_rng(3), 9)), id="fortran"
            ),
            pytest.param([[1, 0], [2, 3]], id="integer-list"),
        ],
    )
    def test_same_arrays_as_scipy(self, a):
        expected = sparse.csr_array(np.asarray(a, dtype=float))
        expected.eliminate_zeros()
        got = NonnegMatrix.from_dense(a).csr
        assert got.shape == expected.shape and got.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got, name), getattr(expected, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    @pytest.mark.parametrize("shape", [(2, 3), (0, 2), (3, 0), (4,), (1, 1, 1)])
    def test_refuses_non_square(self, shape):
        with pytest.raises(DimensionMismatch):
            NonnegMatrix.from_dense(np.ones(shape))


class TestGrowthRate:
    def test_example_dominant_component(self):
        ga = growth_rate(A_EXAMPLE, NU_EXAMPLE)
        assert ga.rho_plus == pytest.approx(0.81, abs=1e-12)
        assert sorted(ga.component_radii) == pytest.approx(
            [0.36, 0.36, 0.52, 0.81], abs=1e-12
        )
        assert ga.decomposition.components[ga.dominant_component] == (0,)

    def test_zero_weight_vector(self):
        ga = growth_rate(A_EXAMPLE, np.zeros(5))
        assert ga.dominant_component is None
        assert ga.rho_plus == 0.0
        assert ga.reachable == frozenset()

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_empirical_probe(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        a = random_nonneg_matrix(rng, m, zero_prob=0.5)
        u = random_nonneg_vector(rng, m)
        ga = growth_rate(NonnegMatrix.from_dense(a), u)
        if ga.rho_plus > 0.05:
            probe = empirical_growth_probe(NonnegMatrix.from_dense(a), u, 4000)
            assert probe == pytest.approx(ga.rho_plus, abs=1e-2)

    def test_invariant_under_positive_scaling_of_u(self):
        rng = np.random.default_rng(12)
        a = NonnegMatrix.from_dense(random_nonneg_matrix(rng, 5))
        u = random_nonneg_vector(rng, 5)
        ga1 = growth_rate(a, u)
        ga2 = growth_rate(a, 7.5 * u)
        assert ga1.rho_plus == ga2.rho_plus
        assert ga1.reachable == ga2.reachable

    @pytest.mark.parametrize("seed", range(8))
    def test_radius_blocks_are_principal_submatrices(self, seed):
        # dense blocks and sparse rings, joined forward and shuffled with
        # singletons: each cut block is A's principal submatrix on its
        # component, in the form `_operand` picks, a sparse one with
        # columns in increasing order
        rng = np.random.default_rng(seed)
        sizes = rng.choice([1, 2, 3, 5, 9, 16], size=int(rng.integers(3, 8)))
        n = int(sizes.sum())
        a = np.zeros((n, n))
        for start, m in zip(np.cumsum(sizes) - sizes, sizes):
            idx = start + np.arange(m)
            a[idx, np.roll(idx, -1)] = rng.uniform(0.1, 1.0, m)  # one cycle through the block
            if m < 9:
                a[np.ix_(idx, idx)] += rng.uniform(0.1, 1.0, (m, m)) * (rng.random((m, m)) < 0.6)
            later = n - start - m  # edges out to later blocks only
            a[idx[0], start + m :] = rng.uniform(0.1, 1.0, later) * (rng.random(later) < 0.3)
        shuffle = rng.permutation(n)
        matrix = NonnegMatrix.from_dense(a[np.ix_(shuffle, shuffle)])
        decomp = strongly_connected_components(matrix)
        comps = [comp for comp in decomp.components if len(comp) > 1]
        blocks = spectral._radius_blocks(matrix.csr, decomp)
        assert len(blocks) == len(comps) == np.count_nonzero(sizes > 1)
        for comp, block in zip(comps, blocks):
            expected = spectral._operand(submatrix(matrix, comp))
            assert type(block) is type(expected)
            if isinstance(block, np.ndarray):
                assert block.flags.c_contiguous and block.tobytes() == expected.tobytes()
            else:
                assert block.csr.has_sorted_indices and block.csr.shape == expected.csr.shape
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(block.csr, name), getattr(expected.csr, name))

    @pytest.mark.parametrize("order", range(2, 9))
    def test_noiseless_system_keeps_its_own_blocks(self, order):
        # each multi-node component's radius is its own block of A's, and
        # an enclosure at 40 digits, widened by the tolerance, holds it
        cs = collision_system(load_model(FIXTURES / "fig2.model"), order)
        _assert_radii_of_own_blocks(cs.matrix, growth_rate(cs.matrix, cs.initial))

    @pytest.mark.parametrize("seed", range(12))
    def test_reducible_hmm_radii_are_their_own_blocks(self, seed):
        rng = np.random.default_rng(seed)
        while True:  # the next reducible draw with a multi-node component
            alpha = int(rng.integers(2, 4))
            hmm = random_hmm(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), sparsity=0.5)
            cs = collision_system(hmm, alpha)
            ga = growth_rate(cs.matrix, cs.initial)
            sizes = [len(comp) for comp in ga.decomposition.components]
            if len(sizes) > 1 and max(sizes) > 1:
                break
        _assert_radii_of_own_blocks(cs.matrix, ga)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_one_tuple_component_is_its_row_sum(self, alpha):
        # one hidden state, three symbols: A is one 3-node component of
        # equal rows, so its root is their sum, which its block gives to 1 ulp
        hmm = validate_hmm(validate_chain([[1.0]], [1.0]), [[0.3, 0.5, 0.2]])
        cs = collision_system(hmm, alpha)
        ga = growth_rate(cs.matrix, cs.initial)
        assert ga.decomposition.components == ((0, 1, 2),)
        _assert_radii_of_own_blocks(cs.matrix, ga)
        (radius,) = ga.component_radii
        row_sum = math.fsum(cs.matrix.to_dense()[0].tolist())
        assert abs(radius - row_sum) <= math.ulp(row_sum)
        assert entropy_rate(hmm, alpha).rho_plus == radius

    @pytest.mark.parametrize(
        "seed,sizes,sticky,dense_max",
        [
            pytest.param(seed, [1, 3, 1, 12, 40, 2, 1, 25], False, 19, id=str(seed))
            for seed in range(6)
        ]
        # 24 dense 4-node blocks and 6 dense 2-node blocks are squared in
        # two stacks, beside three CSR blocks; the last 2-node block is a
        # sticky chain's Hadamard square, which hands over to Noda
        + [pytest.param(6, [4] * 24 + [40, 2, 2, 30, 2, 2, 40, 2, 2], True, 19, id="lockstep")]
        # eight dense blocks of two sizes past the squaring cut, each of
        # which takes its power steps alone
        + [pytest.param(7, [36, 40] * 4, False, 40, id="dense-past-the-cut")],
    )
    def test_block_slices_match_submatrix_radii(self, monkeypatch, seed, sizes, sticky, dense_max):
        # growth_rate slices blocks out of one copy of A permuted into
        # component order; each radius must be the very float the block's
        # own principal submatrix gives
        rng = np.random.default_rng(seed)
        m = sum(sizes)
        a = np.triu(rng.random((m, m)) * (rng.random((m, m)) < 0.02), k=1)
        start = 0
        for k in sizes:
            idx = np.arange(start, start + k)
            # dense and sparse blocks: a k-cycle plus entries of density 0.9
            # up to dense_max nodes, else 0.1
            block = rng.random((k, k)) * (rng.random((k, k)) < (0.9 if k <= dense_max else 0.1))
            block[idx - start, (idx - start + 1) % k] += 0.5
            a[start : start + k, start : start + k] = block
            start += k
        if sticky:
            a[m - 2 :, m - 2 :] = _sticky(1e-6) ** 2
        perm = rng.permutation(m)
        a = NonnegMatrix.from_dense(a[np.ix_(perm, perm)])
        hand_overs = []
        noda = spectral._noda
        monkeypatch.setattr(spectral, "_noda", lambda *args: hand_overs.append(1) or noda(*args))
        ga = growth_rate(a, np.ones(m))
        assert len(hand_overs) == sticky
        assert sorted(map(len, ga.decomposition.components)) == sorted(sizes)
        for comp, radius in zip(ga.decomposition.components, ga.component_radii):
            assert radius == spectral_radius_irreducible(submatrix(a, sorted(comp)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        a = random_nonneg_matrix(rng, 5, zero_prob=0.4)
        u = random_nonneg_vector(rng, 5)
        perm = rng.permutation(5)
        ap = a[np.ix_(perm, perm)]
        up = u[perm]
        r1 = growth_rate(NonnegMatrix.from_dense(a), u).rho_plus
        r2 = growth_rate(NonnegMatrix.from_dense(ap), up).rho_plus
        assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_component_found_by_tarjan_is_not_cut(self, monkeypatch, seed):
        # Tarjan's pass finds a 2-4-node A's one component; its radius is
        # then taken on A uncut, the very float its cut block gives
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        a = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
        a[np.arange(m), np.roll(np.arange(m), -1)] += 0.5  # a cycle through every node
        a = NonnegMatrix.from_dense(a)
        u = random_nonneg_vector(rng, m)
        decomp = strongly_connected_components(a)
        cut = spectral._perron_radii(spectral._radius_blocks(a.csr, decomp))
        monkeypatch.setattr(spectral, "_radius_blocks", lambda *args: pytest.fail("cut A"))
        ga = growth_rate(a, u)
        ref = spectral.irreducible_growth(u, a)
        assert ga.decomposition == ref.decomposition == decomp
        hexes = [[r.hex() for r in radii] for radii in (ga.component_radii, ref.component_radii, cut)]
        assert hexes[0] == hexes[1] == hexes[2]
        assert (ga.reachable, ga.dominant_component, ga.rho_plus.hex()) == (
            ref.reachable, ref.dominant_component, ref.rho_plus.hex()
        )


class TestStepwisePowerSum:
    def test_vecmat_is_row_vector_times_matrix(self):
        rng = np.random.default_rng(3)
        a = NonnegMatrix.from_dense(random_nonneg_matrix(rng, 30, zero_prob=0.8))
        for _ in range(2):  # the second call reuses the cached transpose
            u = rng.random(30)
            assert np.allclose(a.vecmat(u), u @ a.to_dense(), rtol=1e-14, atol=0.0)

    def test_stepwise_matches_squaring(self):
        rng = np.random.default_rng(4)
        m = 552
        a = NonnegMatrix.from_dense(random_nonneg_matrix(rng, m, zero_prob=0.98))
        u = random_nonneg_vector(rng, m)
        stepwise = spectral._log_power_sum_stepwise(_step(a), u, 300, 300)
        squaring = spectral._log_power_sum_squaring(a.to_dense(), u, 300)
        assert stepwise == pytest.approx(squaring, rel=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["dense", "sparse", "reducible", "cycle", "nilpotent"]),
        st.integers(1, 12),
        st.one_of(
            st.sampled_from([0, 1, 2]),
            st.integers(1, 11).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
            st.integers(0, 3000),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_within_4_ulps_of_every_step(self, seed, kind, m, n):
        # the sum stops at the first repeat of its iterate, yet lies within
        # 4 ulps of the exact sum of all n steps' logs, and is -inf at the
        # same step
        rng = np.random.default_rng(seed)
        a, u = _power_sum_system(rng, kind, m)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_steps(mp)
            value = spectral._log_power_sum_stepwise(_step(a), u, n, n)
        _assert_within_4_ulps(value, stepwise_logs(a, u, n))
        if kind == "nilpotent":
            first_zero = next(k for k in range(m + 1) if stepwise_logs(a, u, k) is None)
            assert calls == [min(n, first_zero)]
        else:
            assert calls[0] <= n

    def test_cycle_of_period_m(self, monkeypatch):
        # a weighted m-cycle: once rounding settles, the iterate repeats
        # every m steps, and every remainder of the steps left after the
        # repeat is added from the period's logs
        m = 7
        a, u = _power_sum_system(np.random.default_rng(1), "cycle", m)
        calls = _count_steps(monkeypatch)
        for n in range(10**4, 10**4 + m):
            calls[0] = 0
            value = spectral._log_power_sum_stepwise(_step(a), u, n, n)
            _assert_within_4_ulps(value, stepwise_logs(a, u, n))
            assert calls[0] < 100

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.7])
    def test_sum_that_cancels_near_zero(self, c):
        # a large first log, then a cycle of negative ones: near n = k the
        # sum cancels to about 0, where a rounded partial sum or a rounded
        # q * P would be many ulps off
        a = NonnegMatrix.from_dense([[c]])
        for k in (50, 300):
            u = np.array([c**-k])
            for n in range(k - 2, k + 3):
                value = spectral._log_power_sum_stepwise(_step(a), u, n, n)
                _assert_within_4_ulps(value, stepwise_logs(a, u, n))

    @pytest.mark.parametrize("c,expected", [(0.5, -math.inf), (2.0, math.inf)])
    def test_length_past_the_float_range(self, c, expected):
        # (q + 1) P overflows a float, as the log of the sum does
        a = NonnegMatrix.from_dense([[c]])
        n = 10**400
        assert spectral._log_power_sum_stepwise(_step(a), np.ones(1), n, n) == expected

    def test_benchmark_chain(self, monkeypatch):
        # shaped like the finite-horizon benchmark's 800-node chain, at its
        # length; adding the logs in turn is 1309 ulps off here
        rng = np.random.default_rng(7)
        a = NonnegMatrix.from_dense(_chain(rng, 800, 12).to_dense() ** 1.5)
        u = rng.dirichlet(np.ones(800))
        n = 18000
        calls = _count_steps(monkeypatch)
        value = spectral._log_power_sum_stepwise(_step(a), u, n, n)
        _assert_within_4_ulps(value, stepwise_logs(a, u, n))
        assert calls[0] < 2000

    def test_long_length_costs_only_the_steps_to_the_cycle(self, monkeypatch):
        # the steps after the repeat cost O(period), and the sum carries no
        # rounding that grows with n
        rng = np.random.default_rng(50)
        a = NonnegMatrix.from_dense(rng.random((50, 50)))
        u = rng.random(50)
        n = 10**9
        calls = _count_steps(monkeypatch)
        step = _step(a)
        tracemalloc.start()
        try:
            value = spectral._log_power_sum_stepwise(step, u, n, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls[0] <= 4096
        assert peak < 4 * 2**20
        squaring = spectral._log_power_sum_squaring(a.to_dense(), u, n)
        assert abs(value - squaring) <= 4 * math.ulp(squaring)


def _assert_within_4_ulps(value, logs):
    """value is -inf where a step sums to 0, else within 4 ulps of math.fsum(logs)."""
    if logs is None:
        assert value == -math.inf
    else:
        exact = math.fsum(logs)
        assert abs(value - exact) <= 4 * math.ulp(exact), (value, exact)


def _power_sum_system(rng, kind, m):
    """A matrix of the given kind, and weights with zero and -0.0 entries."""
    if kind == "cycle":  # a weighted m-cycle: the iterate has period m
        a = np.zeros((m, m))
        a[np.arange(m), (np.arange(m) + 1) % m] = rng.uniform(0.5, 2.0, m)
    elif kind == "nilpotent":
        a = np.triu(rng.uniform(0.5, 1.0, (m, m)), 1)
    else:
        a = random_nonneg_matrix(rng, m, zero_prob=0.0 if kind == "dense" else 0.7)
        if kind == "sparse":  # a cycle through every node keeps it irreducible
            a[np.arange(m), (np.arange(m) + 1) % m] += rng.random(m)
        else:  # reducible: nothing leads back from the second half
            a[m // 2 :, : m // 2] = 0.0
    u = rng.random(m)
    u[rng.random(m) < 0.3] = 0.0
    u[rng.random(m) < 0.2] = -0.0
    return NonnegMatrix.from_dense(a), u


def _step(a):
    """The step w -> w^T A that log_weighted_power_sum runs on A's form."""
    b = spectral._operand(a)
    return b.vecmat if isinstance(b, NonnegMatrix) else lambda w: w @ b


def _count_steps(monkeypatch):
    """A one-entry list that counts the steps of every stepwise power sum from here on."""
    calls = [0]
    inner = spectral._log_power_sum_stepwise

    def counted(step, *args):
        def counting(w):
            calls[0] += 1
            return step(w)

        return inner(counting, *args)

    monkeypatch.setattr(spectral, "_log_power_sum_stepwise", counted)
    return calls


def _count_vecmat(monkeypatch):
    """A one-entry list that counts NonnegMatrix.vecmat calls from here on."""
    calls = [0]
    inner = NonnegMatrix.vecmat

    def spy(self, w):
        calls[0] += 1
        return inner(self, w)

    monkeypatch.setattr(NonnegMatrix, "vecmat", spy)
    return calls


def _chain(rng, m, per_row):
    """An m-state chain with per_row entries a row (all m when per_row is None)."""
    if per_row is None:
        p = rng.random((m, m))
    else:
        p = np.zeros((m, m))
        for i in range(m):
            p[i, rng.choice(m, size=per_row, replace=False)] = rng.random(per_row)
    return NonnegMatrix.from_dense(p / p.sum(axis=1, keepdims=True))


def _spy_paths(monkeypatch):
    """A list that records, in order, each path log_weighted_power_sum runs from here on."""
    calls = []
    for name in ("_log_power_sum_stepwise", "_log_power_sum_squaring"):
        inner = getattr(spectral, name)
        monkeypatch.setattr(
            spectral, name, lambda *args, name=name, inner=inner: calls.append(name) or inner(*args)
        )
    return calls


class TestPowerSumCostRule:
    """The path log_weighted_power_sum takes at measured points on both sides of the rule."""

    @pytest.mark.parametrize(
        "m,per_row,n,path",
        [
            (2000, 6, 1000, "_log_power_sum_stepwise"),
            (513, None, 100, "_log_power_sum_stepwise"),
            # squaring would cost 9688 steps; the repeat comes after 144
            (600, 12, 22000, "_log_power_sum_stepwise"),
        ],
    )
    def test_path_taken(self, monkeypatch, m, per_row, n, path):
        rng = np.random.default_rng(m)
        a = _chain(rng, m, per_row)
        calls = _spy_paths(monkeypatch)
        value = log_weighted_power_sum(a, np.full(m, 1.0 / m), n)
        assert calls == [path]
        assert value == pytest.approx(0.0, abs=1e-9)  # a stochastic matrix keeps the mass

    def test_priced_before_the_rescale(self, monkeypatch):
        # 523 entries price 2^23 steps of this 100-node CSR matrix at 127, no
        # trial; its row sum of 1000 runs it as 2^-10 A, where 5e-324
        # underflows and is dropped, and 522 entries would price a trial
        rng = np.random.default_rng(4)
        d, i = 100, np.arange(100)
        a = np.zeros((d, d))
        a[i, (i + 1) % d] = 1.0
        a[0, 0], a[1, 1] = 1000.0, 5e-324
        a.flat[rng.choice(np.flatnonzero(a.ravel() == 0), 421, replace=False)] = rng.uniform(0.1, 1.0, 421)
        assert NonnegMatrix.from_dense(a).nnz == 523
        calls = _spy_paths(monkeypatch)
        log_weighted_power_sum(NonnegMatrix.from_dense(a), np.full(d, 1.0 / d), 2**23)
        assert calls == ["_log_power_sum_squaring"]

    def test_trial_without_repeat_squares_from_u(self, monkeypatch):
        # a lazy chain mixes too slowly to repeat within the 384 steps its
        # squaring costs: the trial spends them, then squaring runs alone
        rng = np.random.default_rng(8)
        m, n = 200, 10**6
        p = 0.99 * np.eye(m) + 0.01 * _chain(rng, m, None).to_dense()
        a = NonnegMatrix.from_dense(p**1.5)
        u = rng.dirichlet(np.ones(m))
        steps, calls = _count_steps(monkeypatch), _spy_paths(monkeypatch)
        value = log_weighted_power_sum(a, u, n)
        assert calls == ["_log_power_sum_stepwise", "_log_power_sum_squaring"]
        # the squaring cost in dense steps: 200^3 * 20 // (6 * 200^2 + 22 * 8000)
        assert steps[0] == 384
        assert value.hex() == spectral._log_power_sum_squaring(a.to_dense(), u, n).hex()

    def test_dense_chain_steps_on_its_dense_array(self, monkeypatch):
        rng = np.random.default_rng(300)
        m, n = 300, 10**4
        a = NonnegMatrix.from_dense(_chain(rng, m, None).to_dense() ** 1.5)
        u = rng.dirichlet(np.ones(m))
        vecmat, calls = _count_vecmat(monkeypatch), _spy_paths(monkeypatch)
        value = log_weighted_power_sum(a, u, n)
        assert calls == ["_log_power_sum_stepwise"] and vecmat == [0]
        assert value == pytest.approx(spectral._log_power_sum_squaring(a.to_dense(), u, n), rel=1e-12)

    @pytest.mark.parametrize(
        "m,per_row,n,paths",
        [
            (300, None, 10**4, ["_log_power_sum_stepwise"]),
            (100, None, 10**6, ["_log_power_sum_squaring"]),
            (600, 12, 22000, ["_log_power_sum_stepwise"]),
            (50, 12, 10**6, ["_log_power_sum_squaring"]),
            ("lazy", None, 10**6, ["_log_power_sum_stepwise", "_log_power_sum_squaring"]),
        ],
    )
    def test_array_gives_the_float_of_its_csr_form(self, monkeypatch, m, per_row, n, paths):
        # on both sides of the rule, and on both sides of the dense/CSR step
        # rule, an array takes the path and the float of NonnegMatrix.from_dense
        # of it, C- or Fortran-ordered
        rng = np.random.default_rng(17)
        if m == "lazy":  # the trial meets no repeat and hands over to squaring
            m = 200
            p = 0.99 * np.eye(m) + 0.01 * _chain(rng, m, None).to_dense()
        else:
            p = _chain(rng, m, per_row).to_dense()
        a = p**1.5
        u = rng.dirichlet(np.ones(m))
        calls = _spy_paths(monkeypatch)
        expected = log_weighted_power_sum(NonnegMatrix.from_dense(a), u, n)
        assert calls == paths
        for b in (a, np.asfortranarray(a)):
            calls.clear()
            assert log_weighted_power_sum(b, u, n).hex() == expected.hex()
            assert calls == paths

    def test_numpy_integer_exponent(self):
        expected = log_weighted_power_sum(A_EXAMPLE, NU_EXAMPLE, 1000)
        assert log_weighted_power_sum(A_EXAMPLE, NU_EXAMPLE, np.int64(1000)) == expected


def _with_stored(rng, d, stored):
    """A d x d irreducible array with exactly `stored` positive entries: a d-cycle and more."""
    pattern = np.zeros(d * d, dtype=bool)
    i = np.arange(d)
    pattern[i * d + (i + 1) % d] = True
    pattern[rng.choice(np.flatnonzero(~pattern), stored - d, replace=False)] = True
    return np.where(pattern.reshape(d, d), rng.uniform(0.1, 1.0, (d, d)), 0.0)


class TestOneFormRule:
    """Radii and power sums run on one form, dense past a quarter of the entries stored."""

    @pytest.mark.parametrize("d", [4, 40])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_radius_and_power_sum_pick_the_same_form(self, monkeypatch, d, extra):
        a = _with_stored(np.random.default_rng(d + extra), d, d * d // 4 + extra)
        dense = extra == 1
        power, radius_forms = spectral._power, []

        def spy(b, *rest):
            radius_forms.append("csr" if sparse.issparse(b) else "dense")
            return power(b, *rest)

        monkeypatch.setattr(spectral, "_power", spy)
        # past the size squaring may densify, a power sum steps all n steps
        monkeypatch.setattr(spectral, "_DENSE_MAX_DIM", 0)
        steps, vecmat = _count_steps(monkeypatch), _count_vecmat(monkeypatch)
        radii, sums = [], []
        for form in (a, NonnegMatrix.from_dense(a)):
            radii.append(spectral_radius_irreducible(form).hex())
            sums.append(log_weighted_power_sum(form, np.full(d, 1.0 / d), 300).hex())
        assert radius_forms == ["dense" if dense else "csr"] * 2
        assert steps[0] > 0 and vecmat[0] == (0 if dense else steps[0])
        assert radii[0] == radii[1] and sums[0] == sums[1]


class TestEmpiricalGrowthProbe:
    def test_scalar_case(self):
        a = NonnegMatrix.from_dense([[0.5]])
        assert empirical_growth_probe(a, np.array([1.0]), 100) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_example_converges_to_dominant_radius(self):
        probe = empirical_growth_probe(A_EXAMPLE, NU_EXAMPLE, 5000)
        assert probe == pytest.approx(0.81, abs=0.01)

    def test_nilpotent_chain_dies(self):
        a = NonnegMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        assert empirical_growth_probe(a, np.array([1.0, 0.0]), 2) == 0.0


class TestCharacteristicPolynomial:
    def test_one_by_one(self):
        assert characteristic_polynomial(np.array([[0.81]])) == pytest.approx(
            [1.0, -0.81]
        )

    def test_mixing_pair(self):
        # det(lambda I - A) = lambda^2 - 0.32 lambda - 0.1040, roots 0.52 and -0.2
        coeffs = characteristic_polynomial(np.array([[0.16, 0.36], [0.36, 0.16]]))
        assert coeffs == pytest.approx([1.0, -0.32, -0.104], abs=1e-14)
        roots = sorted(np.roots(coeffs))
        assert roots == pytest.approx([-0.2, 0.52], abs=1e-12)

    def test_bsc_degree_eight(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        cs = collision_system(bsc_hmm(chain, 0.1), 2)
        coeffs = characteristic_polynomial(cs.matrix)
        assert len(coeffs) == 9
        ga = growth_rate(cs.matrix, cs.initial)
        assert abs(np.polyval(coeffs, ga.rho_plus)) <= 1e-8

    def test_component_radii_are_roots(self):
        ga = growth_rate(A_EXAMPLE, NU_EXAMPLE)
        coeffs = characteristic_polynomial(A_EXAMPLE)
        for rho in ga.component_radii:
            assert abs(np.polyval(coeffs, rho)) <= 1e-8

    def test_dimension_guard(self):
        with pytest.raises(DimensionOverflow):
            characteristic_polynomial(np.eye(65))

    def test_matches_numpy_poly(self):
        rng = np.random.default_rng(14)
        a = rng.random((5, 5))
        assert characteristic_polynomial(a) == pytest.approx(
            np.poly(a).tolist(), rel=1e-9, abs=1e-12
        )

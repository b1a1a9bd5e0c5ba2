import math
import re
import tracemalloc

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
    entropy_rate,
    growth_rate,
    log_weighted_power_sum,
    spectral,
    spectral_radius_irreducible,
    strongly_connected_components,
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
from renyirates.random_models import random_nonneg_matrix, random_nonneg_vector

from conftest import FIXTURES, RESTRICTED_EXAMPLE
from independent import (
    empirical_growth_probe,
    power_iteration_radius,
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

    def test_no_convergence_budget(self):
        with pytest.raises(NoConvergence):
            spectral_radius_irreducible(np.ones((3, 3)), max_iter=0)

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
    return NonnegMatrix.from_sparse(sparse.coo_array((vals, (rows, cols.ravel())), shape=(m, m)))


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
        a = NonnegMatrix.from_sparse(
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
# eigenvalues 2e-6 apart: power iteration on A + I would need millions of steps
NEAR_REDUCIBLE = np.array([[0.9, 1e-6], [1e-6, 0.9 - 1e-9]])


def _assert_radii_exact(a: NonnegMatrix, u):
    ga = growth_rate(a, u)
    dense = a.to_dense()
    for comp, radius in zip(ga.decomposition.components, ga.component_radii):
        assert abs(radius - exact_perron_root(dense[np.ix_(comp, comp)])) <= 1e-12


def _sticky_ring(m):
    """m-node ring of nearly decoupled states, linked both ways by 1e-6; held in CSR."""
    i = np.arange(m)
    values = np.r_[0.9 - 1e-9 * i, np.full(2 * m, 1e-6)]
    return NonnegMatrix.from_sparse(
        sparse.coo_array((values, (np.r_[i, i, (i + 1) % m], np.r_[i, (i + 1) % m, i])), shape=(m, m))
    )


def _power_bracket(b, steps):
    """The bracket `steps` power steps on a shifted block leave, by the arithmetic of one step."""
    v = np.full(b.shape[0], 1.0 / b.shape[0])
    for _ in range(steps):
        w = b @ v
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        v = w / w.sum()
    return lo, hi


class TestNodaHandOver:
    """Dense blocks whose power iteration stalls finish with Noda's inverse iteration."""

    @pytest.fixture
    def noda_brackets(self, monkeypatch):
        """Record the closed bracket of every hand-over."""
        brackets = []
        inner = spectral._noda

        def spy(*args):
            brackets.append(inner(*args))
            return brackets[-1]

        monkeypatch.setattr(spectral, "_noda", spy)
        return brackets

    def test_exact_oracle_on_known_roots(self):
        assert exact_perron_root([[0.16, 0.36], [0.36, 0.16]]) == pytest.approx(0.52, abs=1e-15)
        assert exact_perron_root(RESTRICTED_EXAMPLE) == pytest.approx(0.81, abs=1e-15)

    def test_near_reducible_block_closes_through_hand_over(self, noda_brackets):
        with pytest.raises(NoConvergence, match="power iteration"):
            spectral_radius_irreducible(NEAR_REDUCIBLE, max_iter=1000)
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
        # s = 1e-6: after the first solve the upper bound equals rho(P o P + I)
        # in floating point; Noda's update formula would leave a bracket of 4e-7
        a = _sticky(1e-6) ** 2
        rho = spectral_radius_irreducible(a)
        ((lo, hi),) = noda_brackets
        assert 0.0 <= hi - lo <= 1e-12
        assert rho == (lo + hi) / 2.0 - 1.0
        assert abs(rho - exact_perron_root(a)) <= 1e-12

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

    def test_zero_budget_raises(self):
        with pytest.raises(NoConvergence, match=r"power iteration .* after 0 steps"):
            spectral_radius_irreducible(NEAR_REDUCIBLE, max_iter=0)

    def test_exhausted_noda_budget_names_phase_and_bracket(self):
        # this block hands over after 64 power steps and needs two solves,
        # where its budget leaves one
        a = _sticky(1e-6) ** 2
        with pytest.raises(NoConvergence, match="Noda .* after 64 power steps") as info:
            spectral_radius_irreducible(a, max_iter=1001)
        lo, hi = map(float, re.search(r"in \[(\S+), (\S+)\]", str(info.value)).groups())
        assert hi - lo > 1e-12
        # computed Collatz-Wielandt bounds hold up to the rounding of the ratios
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

    def test_large_stalled_sparse_block_names_its_size(self, monkeypatch):
        # past 3300 nodes a stalled CSR block is not densified: it keeps power
        # iteration for the whole budget and the error names its size
        monkeypatch.setattr(spectral, "_noda", lambda *args: pytest.fail("handed over"))
        ring = _sticky_ring(3301)
        with pytest.raises(NoConvergence, match=r"after 3400 steps .* 3301-node sparse block") as info:
            spectral_radius_irreducible(ring, max_iter=3400)
        # all 3400 steps ran: the message gives the bracket they leave
        lo, hi = _power_bracket(ring.csr + sparse.eye_array(3301, format="csr"), 3400)
        assert f"[{lo - 1.0:.17g}, {hi - 1.0:.17g}]" in str(info.value)


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


def _radii_and_exits(blocks, **patches):
    """Radii of `_perron_radii`, and per block the power steps before Noda (None: no hand-over)."""
    exits = []
    finish = spectral._finish

    def spy(state, tol, max_iter):
        exits.append(state[4] if isinstance(state, tuple) else None)
        return finish(state, tol, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_finish", spy)
        for name, value in patches.items():
            mp.setattr(spectral, name, value)
        radii = spectral._perron_radii(blocks, spectral.DEFAULT_TOL, spectral.MAX_ITERATIONS)
    return radii, exits


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_stall_exit_leaves_closing_radii_alone(seed, count):
    # dense blocks of one size iterate in lockstep, beside CSR blocks; a
    # window longer than any budget switches the stall exit off
    rng = np.random.default_rng(seed)
    blocks = [_stall_block(rng) for _ in range(count)]
    radii, exits = _radii_and_exits(blocks)
    radii_off, exits_off = _radii_and_exits(blocks, _WINDOW=10**9)
    for block, rho, rho_off, ran, ran_off in zip(blocks, radii, radii_off, exits, exits_off):
        assert (ran is None) == (ran_off is None)  # the same blocks hand over
        if ran is None:
            assert rho == rho_off
        else:
            assert ran <= ran_off == 1000
            assert abs(rho - exact_perron_root(block.to_dense())) <= 1e-12


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
    # CSR blocks iterate alone, dense blocks of one size in lockstep
    # stacks, sticky ones among them hand over to Noda, and a 1x1 block is
    # its entry; plain power iteration on each block alone is the
    # reference for every radius that closes without a hand-over
    rng = np.random.default_rng(seed)
    blocks = [_mixed_block(rng, kind) for kind in kinds]
    radii, exits = _radii_and_exits(blocks)
    for block, rho, ran in zip(blocks, radii, exits):
        if block.dim == 1:
            assert rho == block.to_dense()[0, 0]
        elif ran is None:
            reference = power_iteration_radius(block, spectral.DEFAULT_TOL, spectral.MAX_ITERATIONS)
            assert reference is not None and rho.hex() == reference.hex()
        else:
            assert abs(rho - exact_perron_root(block.to_dense())) <= 1e-12


class TestStallExit:
    """A block whose bracket cannot close in its power steps hands over to Noda early."""

    @pytest.fixture
    def noda_steps(self, monkeypatch):
        """Record the power steps run before every hand-over."""
        steps = []
        inner = spectral._noda

        def spy(*args):
            steps.append(args[6])
            return inner(*args)

        monkeypatch.setattr(spectral, "_noda", spy)
        return steps

    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_hadamard_square_hands_over_after_two_windows(self, s, noda_steps):
        spectral_radius_irreducible(_sticky(s) ** 2)
        assert noda_steps == [2 * spectral._WINDOW]

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("s", STICKY_SWITCHES)
    def test_bsc_sticky_system_hands_over_within_four_windows(self, s, alpha, noda_steps):
        # the fast modes of these blocks die out first and leave a plateau
        # (after about 100 steps at s = 1e-8), which the window compares
        # see one window later
        hmm = bsc_hmm(validate_chain(_sticky(s), [0.5, 0.5]), 0.1)
        cs = collision_system(hmm, alpha)
        growth_rate(cs.matrix, cs.initial)
        entropy_rate(hmm, alpha)  # on the lumped matrix
        assert len(noda_steps) == 2
        assert max(noda_steps) <= 4 * spectral._WINDOW

    def test_no_early_exit_when_the_budget_leaves_noda_nothing(self):
        # max_iter = 1000 leaves no solve, so all 1000 steps run and the
        # message gives the bracket they leave
        with pytest.raises(NoConvergence, match=r"power iteration .* after 1000 steps") as info:
            spectral_radius_irreducible(NEAR_REDUCIBLE, max_iter=1000)
        lo, hi = _power_bracket(NEAR_REDUCIBLE + np.eye(2), 1000)
        assert f"[{lo - 1.0:.17g}, {hi - 1.0:.17g}]" in str(info.value)

    @pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-6])
    def test_zero_tolerance_never_exits_early(self, s, noda_steps):
        try:
            spectral_radius_irreducible(_sticky(s) ** 2, tol=0.0, max_iter=1010)
        except NoConvergence as error:
            assert "after 1000 power steps" in str(error)
        assert noda_steps == [1000]

    def test_noda_failure_names_the_power_steps_run(self):
        # two windows of power steps, then one solve where two are needed
        with pytest.raises(NoConvergence, match=r"Noda .* after 64 power steps and 1 solve \("):
            spectral_radius_irreducible(_sticky(1e-6) ** 2, max_iter=1001)


class TestToleranceCheck:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_radius_rejects_bad_tolerance(self, tol):
        block = NonnegMatrix.from_dense([[0.16, 0.36], [0.36, 0.16]])
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            spectral_radius_irreducible(block, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_growth_rate_rejects_bad_tolerance_on_singletons(self, tol):
        # only singleton components: no radius iteration runs at all
        a = NonnegMatrix.from_dense([[0.5, 0.2], [0.0, 0.3]])
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            growth_rate(a, np.ones(2), tol=tol)

    def test_zero_tolerance_is_valid(self):
        ga = growth_rate(A_EXAMPLE, NU_EXAMPLE, tol=0.0)
        assert ga.rho_plus == pytest.approx(0.81, abs=1e-12)
        assert sorted(ga.component_radii) == pytest.approx(
            [0.36, 0.36, 0.52, 0.81], abs=1e-12
        )


BAD_WEIGHTS = [
    pytest.param([math.nan, 1.0], NonFiniteEntry, id="nan"),
    pytest.param([math.inf, 1.0], NonFiniteEntry, id="inf"),
    pytest.param([-1.0, 1.0], NegativeEntry, id="negative"),
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

    @pytest.mark.parametrize("u,error", BAD_WEIGHTS)
    @pytest.mark.parametrize("n", [0, 3])
    def test_power_sum_rejects_bad_weights(self, u, error, n):
        a = NonnegMatrix.from_dense([[0.5, 0.5], [0.2, 0.3]])
        with pytest.raises(error, match="weight vector"):
            log_weighted_power_sum(a, u, n)

    @pytest.mark.parametrize(
        "a,error",
        [
            pytest.param([[0.5, math.nan], [0.2, 0.3]], NonFiniteEntry, id="nan"),
            pytest.param([[0.5, math.inf], [0.2, 0.3]], NonFiniteEntry, id="inf"),
            pytest.param([[0.5, -0.1], [0.2, 0.3]], NegativeEntry, id="negative"),
            pytest.param([[0.5, 0.5, 0.1], [0.2, 0.3, 0.1]], DimensionMismatch, id="non-square"),
            pytest.param([0.5, 0.5], DimensionMismatch, id="one-dimensional"),
        ],
    )
    @pytest.mark.parametrize("n", [0, 3])
    def test_power_sum_rejects_bad_arrays(self, a, error, n):
        with pytest.raises(error):
            log_weighted_power_sum(np.array(a), np.full(2, 0.5), n)


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

    def test_hidden_tuple_map_length_checked(self):
        with pytest.raises(DimensionMismatch):
            growth_rate(A_EXAMPLE, NU_EXAMPLE, radius_matrix=(A_EXAMPLE, np.arange(4)))

    @pytest.mark.parametrize("rows", [[0, 1, 2, 3, -1], [0, 1, 2, 3, 5]])
    def test_hidden_tuple_map_rows_must_be_rows_of_k(self, rows):
        with pytest.raises(DimensionMismatch):
            growth_rate(A_EXAMPLE, NU_EXAMPLE, radius_matrix=(A_EXAMPLE, np.array(rows)))

    def test_hidden_tuple_across_components_rejected(self):
        # node 4 lies in the component {3, 4}, node 0 is a singleton
        with pytest.raises(ValueError, match="spans more than one component"):
            growth_rate(A_EXAMPLE, NU_EXAMPLE, radius_matrix=(A_EXAMPLE, np.array([0, 1, 2, 3, 0])))

    def test_hidden_tuple_across_two_blocks_rejected(self):
        # two 2-node components, {0, 1} and {2, 3}, share row 1
        a = NonnegMatrix.from_dense(
            [[0.2, 0.3, 0.1, 0.0], [0.4, 0.1, 0.0, 0.0], [0.0, 0.0, 0.3, 0.5], [0.0, 0.0, 0.6, 0.2]]
        )
        with pytest.raises(ValueError, match="spans more than one component"):
            growth_rate(a, np.ones(4), radius_matrix=(a, np.array([0, 1, 1, 2])))

    def test_hidden_tuple_shared_by_singletons_allowed(self):
        ga = growth_rate(A_EXAMPLE, NU_EXAMPLE, radius_matrix=(A_EXAMPLE, np.array([0, 0, 2, 3, 4])))
        assert ga.component_radii == growth_rate(A_EXAMPLE, NU_EXAMPLE).component_radii

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_noiseless_system_keeps_its_own_blocks(self, order):
        # no hidden tuple repeats under a deterministic observation, so
        # every radius is the float A's own block gives
        cs = collision_system(load_model(FIXTURES / "fig2.model"), order)
        assert len(set(cs.node_tuple.tolist())) == cs.dimension
        with_map = growth_rate(cs.matrix, cs.initial, radius_matrix=(cs.tuple_matrix, cs.node_tuple))
        assert with_map.component_radii == growth_rate(cs.matrix, cs.initial).component_radii

    @pytest.mark.parametrize(
        "seed,sizes,sticky",
        [pytest.param(seed, [1, 3, 1, 12, 40, 2, 1, 25], False, id=str(seed)) for seed in range(6)]
        # 24 dense 4-node blocks and 6 dense 2-node blocks iterate in two
        # lockstep stacks, beside three CSR blocks; the last 2-node block is
        # a sticky chain's Hadamard square, which hands over to Noda
        + [pytest.param(6, [4] * 24 + [40, 2, 2, 30, 2, 2, 40, 2, 2], True, id="lockstep")],
    )
    def test_block_slices_match_submatrix_radii(self, monkeypatch, seed, sizes, sticky):
        # without a radius matrix, growth_rate slices blocks out of one copy
        # of A permuted into component order; each radius must be the very
        # float the block's own principal submatrix gives
        rng = np.random.default_rng(seed)
        m = sum(sizes)
        a = np.triu(rng.random((m, m)) * (rng.random((m, m)) < 0.02), k=1)
        start = 0
        for k in sizes:
            idx = np.arange(start, start + k)
            # dense and sparse blocks: a k-cycle plus entries of density 0.9 or 0.1
            block = rng.random((k, k)) * (rng.random((k, k)) < (0.9 if k < 20 else 0.1))
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

    def test_one_node_collapsed_block_is_its_entry(self):
        # one hidden state, three symbols: A is one 3-node component whose
        # symbol-summed block is 1x1, so its radius is that entry itself; a
        # shifted iteration would give (0.38 + 1) - 1 = 0.3799999999999999
        hmm = validate_hmm(validate_chain([[1.0]], [1.0]), [[0.3, 0.5, 0.2]])
        cs = collision_system(hmm, 2)
        entry = sum(cs.matrix.to_dense()[0].tolist())  # a row of A summed in column order
        assert (entry + 1.0) - 1.0 != entry
        assert cs.tuple_matrix.to_dense().tolist() == [[entry]]
        ga = growth_rate(cs.matrix, cs.initial, radius_matrix=(cs.tuple_matrix, cs.node_tuple))
        assert ga.decomposition.components == ((0, 1, 2),)
        assert ga.component_radii == (entry,)
        assert entropy_rate(hmm, 2).rho_plus == entry

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
        stepwise = spectral._log_power_sum_stepwise(spectral._stepper(a)[1], u, 300, 300)
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
            value = spectral._log_power_sum_stepwise(spectral._stepper(a)[1], u, n, n)
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
            value = spectral._log_power_sum_stepwise(spectral._stepper(a)[1], u, n, n)
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
                value = spectral._log_power_sum_stepwise(spectral._stepper(a)[1], u, n, n)
                _assert_within_4_ulps(value, stepwise_logs(a, u, n))

    @pytest.mark.parametrize("c,expected", [(0.5, -math.inf), (2.0, math.inf)])
    def test_length_past_the_float_range(self, c, expected):
        # (q + 1) P overflows a float, as the log of the sum does
        a = NonnegMatrix.from_dense([[c]])
        n = 10**400
        assert spectral._log_power_sum_stepwise(spectral._stepper(a)[1], np.ones(1), n, n) == expected

    def test_benchmark_chain(self, monkeypatch):
        # shaped like the finite-horizon benchmark's 800-node chain, at its
        # length; adding the logs in turn is 1309 ulps off here
        rng = np.random.default_rng(7)
        a = NonnegMatrix.from_dense(_chain(rng, 800, 12).to_dense() ** 1.5)
        u = rng.dirichlet(np.ones(800))
        n = 18000
        calls = _count_steps(monkeypatch)
        value = spectral._log_power_sum_stepwise(spectral._stepper(a)[1], u, n, n)
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
        step = spectral._stepper(a)[1]
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


def _count_steps(monkeypatch):
    """A one-entry list that counts the calls of every step `spectral._stepper` hands out from here on."""
    calls = [0]
    stepper = spectral._stepper

    def counted(a):
        dense, inner = stepper(a)

        def step(w):
            calls[0] += 1
            return inner(w)

        return dense, step

    monkeypatch.setattr(spectral, "_stepper", counted)
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

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from renyirates import (
    NonnegMatrix,
    brute_force_collision,
    bsc_hmm,
    collision_system,
    deterministic_observation,
    entropy_rate,
    finite_length_entropy,
    identity_observation,
    load_model,
    log_weighted_power_sum,
    markov_finite_length,
    markov_rate,
    growth_rate,
    spectral_radius_irreducible,
    validate_chain,
    validate_hmm,
)
from renyirates import entropy, nonneg, tensor
from renyirates.errors import DimensionOverflow, InvalidOrder
from renyirates.oracle import brute_force_entropy
from renyirates.random_models import random_chain, random_hmm

from conftest import FIXTURES, OBS_MAP

RATE_EXAMPLE = -math.log2(0.81)  # 0.304006...


def iid_uniform(k):
    chain = validate_chain([[1.0]], [1.0])
    return validate_hmm(chain, [np.full(k, 1.0 / k)])


class TestFiniteLengthEntropy:
    def test_single_symbol_process_is_zero(self):
        chain = validate_chain([[1.0]], [1.0])
        hmm = validate_hmm(chain, [[1.0]])
        for alpha, n in [(2, 1), (3, 7), (2, 100)]:
            assert finite_length_entropy(hmm, alpha, n).value_bits == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_iid_uniform_scales_linearly(self, n):
        hmm = iid_uniform(4)
        rep = finite_length_entropy(hmm, 2, n)
        assert rep.value_bits == pytest.approx(n * 2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
            sparsity=float(rng.uniform(0, 0.4)),
        )
        for alpha in (2, 3):
            for n in (1, 3, 8):
                rep = finite_length_entropy(hmm, alpha, n)
                assert rep.value_bits == pytest.approx(
                    brute_force_entropy(hmm, alpha, n), rel=1e-10
                )

    def test_per_symbol_values_form_cauchy_ladder(self, example_hmm):
        diffs = []
        for n in (25, 50, 100, 200):
            h_n = finite_length_entropy(example_hmm, 2, n).value_bits / n
            h_2n = finite_length_entropy(example_hmm, 2, 2 * n).value_bits / (2 * n)
            diffs.append(abs(h_2n - h_n))
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))

    def test_order_monotonicity(self, example_hmm):
        for n in (1, 4, 8):
            h2 = finite_length_entropy(example_hmm, 2, n).value_bits
            h3 = finite_length_entropy(example_hmm, 3, n).value_bits
            assert h3 <= h2 + 1e-12
            assert h3 >= 0.0

    def test_never_forms_the_tensor_power(self):
        # P^(tensor alpha) alone would take 12 bytes a stored entry (20 MB for
        # fig2 at alpha = 8, 117 MB for the 5-state chain at alpha = 5); finite
        # lengths and rates both peak below that
        chain = random_chain(np.random.default_rng(6), 5)
        noiseless = deterministic_observation(chain, {s: "ab"[i % 2] for i, s in enumerate(chain.states)})
        for model, alpha in [(load_model(FIXTURES / "fig2.model"), 8), (noiseless, 5)]:
            tensor_bytes = 12 * np.count_nonzero(model.chain.transition) ** alpha
            runs = {
                "finite length": lambda: finite_length_entropy(model, alpha, 50),
                "rate": lambda: entropy_rate(model, alpha),
            }
            for path, run in runs.items():
                tracemalloc.start()
                try:
                    assert run().finite
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < tensor_bytes, f"{path} at alpha = {alpha}: peak {peak} bytes"

    def test_dense_order_four_model(self):
        # K would be 4096-dim with 16.8M entries; the lumped matrix has 330 rows
        hmm = random_hmm(np.random.default_rng(8), 8, 3)
        start = time.perf_counter()
        rep = finite_length_entropy(hmm, 4, 10**6)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.3f}s"
        assert rep.finite and rep.dimension == 3 * 8**4
        expected = math.log2(brute_force_collision(hmm, 4, 5))
        assert finite_length_entropy(hmm, 4, 5).log2_collision == pytest.approx(expected, rel=1e-12)


class TestEntropyRate:
    def test_example_rate(self, example_hmm):
        rep = entropy_rate(example_hmm, 2)
        assert rep.value_bits == pytest.approx(0.30401, abs=1e-4)
        assert rep.value_bits == pytest.approx(RATE_EXAMPLE, abs=1e-12)
        assert rep.rho_plus == pytest.approx(0.81, abs=1e-12)
        assert 0.52 in [pytest.approx(r, abs=1e-9) for r in rep.component_radii]

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    def test_iid_uniform_rate(self, alpha):
        rep = entropy_rate(iid_uniform(8), alpha)
        assert rep.value_bits == pytest.approx(3.0, abs=1e-12)

    def test_example_rate_matches_finite_length_slope(self, example_hmm):
        rep = entropy_rate(example_hmm, 3)
        h400 = finite_length_entropy(example_hmm, 3, 400).value_bits
        h800 = finite_length_entropy(example_hmm, 3, 800).value_bits
        slope = (h800 - h400) / 400.0
        assert abs(slope - rep.value_bits) < 1e-3
        # the per-symbol value approaches the rate like c/n, so doubling n
        # roughly halves the gap
        gap400 = abs(h400 / 400 - rep.value_bits)
        gap800 = abs(h800 / 800 - rep.value_bits)
        assert gap800 < 0.6 * gap400

    def test_invalid_order(self, example_hmm):
        with pytest.raises(InvalidOrder):
            entropy_rate(example_hmm, 1)

    @pytest.mark.parametrize("order", [65, 10**6, 10**12])
    @pytest.mark.parametrize("fixture", ["unit", "iid-uniform-2", "fig2"])
    def test_orders_past_64_refused_at_once(self, fixture, order):
        # the builds hold X^alpha as arrays with alpha axes; numpy allows 64,
        # so a larger order is refused before nx^alpha is formed
        hmm = load_model(FIXTURES / f"{fixture}.model")
        for build in (
            lambda: entropy_rate(hmm, order),
            lambda: finite_length_entropy(hmm, order, 3),
            lambda: collision_system(hmm, order),
        ):
            start = time.perf_counter()
            with pytest.raises(DimensionOverflow, match="exceeds 64"):
                build()
            assert time.perf_counter() - start < 1.0

    def test_order_64_still_reports(self):
        hmm = load_model(FIXTURES / "iid-uniform-2.model")
        assert entropy_rate(hmm, 64).value_bits == pytest.approx(1.0, abs=1e-12)
        assert finite_length_entropy(hmm, 64, 3).value_bits == pytest.approx(3.0, abs=1e-12)


class TestMarkovRate:
    def test_visible_example_dominated_by_transient_state(self, example_chain):
        rep = markov_rate(example_chain, 2)
        assert rep.value_bits == pytest.approx(RATE_EXAMPLE, abs=1e-12)
        assert rep.dominant_members == ("1",)  # singleton transient state
        assert rep.rho_plus == pytest.approx(0.81, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 2, 3.7])
    def test_uniform_two_state_chain(self, alpha):
        chain = validate_chain([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
        assert markov_rate(chain, alpha).value_bits == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_identity_observation_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, int(rng.integers(2, 5)), sparsity=0.3)
        direct = markov_rate(chain, 2).value_bits
        via_hmm = entropy_rate(identity_observation(chain), 2).value_bits
        assert abs(direct - via_hmm) <= 1e-9

    def test_order_one_rejected(self, example_chain):
        with pytest.raises(InvalidOrder):
            markov_rate(example_chain, 1.0)
        with pytest.raises(InvalidOrder):
            markov_rate(example_chain, -2)

    @pytest.mark.parametrize("order", [1000.0, 5000.0])
    def test_order_that_underflows_rejected(self, order):
        # P o 1000 loses the entries 0.1 and 0.2, and pi^5000 all of pi;
        # the pattern would no longer be P's, so no value is reported
        chain = validate_chain([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])
        with pytest.raises(InvalidOrder, match="underflows"):
            markov_rate(chain, order)
        with pytest.raises(InvalidOrder, match="underflows"):
            markov_finite_length(chain, order, 50)
        assert markov_rate(chain, 300.0).finite

    def test_infinite_order_rejected(self, example_chain):
        # P**inf would zero every transition probability below 1
        with pytest.raises(InvalidOrder, match="finite"):
            markov_rate(example_chain, math.inf)
        with pytest.raises(InvalidOrder, match="finite"):
            markov_finite_length(example_chain, math.inf, 3)


class TestMarkovFiniteLength:
    def test_length_checked_before_build(self, monkeypatch, example_chain):
        def refuse(*args, **kwargs):
            raise AssertionError("built the Hadamard power for an invalid length")

        monkeypatch.setattr(entropy, "_hadamard_system", refuse)
        with pytest.raises(ValueError, match="length"):
            markov_finite_length(example_chain, 2.0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_order_matches_identity_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, 3)
        hmm = identity_observation(chain)
        for n in (1, 4, 9):
            assert markov_finite_length(chain, 2, n).value_bits == pytest.approx(
                finite_length_entropy(hmm, 2, n).value_bits, rel=1e-12
            )

    def test_real_order_against_direct_sum(self):
        rng = np.random.default_rng(21)
        chain = random_chain(rng, 2)
        alpha, n = 2.5, 4
        p, pi = chain.transition, chain.initial
        total = 0.0
        for path in np.ndindex(*(2,) * n):
            prob = pi[path[0]]
            for a, b in zip(path, path[1:]):
                prob *= p[a, b]
            total += prob**alpha
        expected = (1.0 / (1.0 - alpha)) * math.log2(total)
        assert markov_finite_length(chain, alpha, n).value_bits == pytest.approx(
            expected, rel=1e-12
        )


def _csr_route(chain, alpha):
    """P^(o alpha) as a CSR matrix powered on its stored entries, and pi0^alpha."""
    c = sparse.csr_array(chain.transition)
    c.eliminate_zeros()
    c.data = c.data**alpha
    c.eliminate_zeros()
    c.sort_indices()
    return NonnegMatrix(c), chain.initial**alpha


def _sparse_chain(rng, m, per_row):
    p = np.zeros((m, m))
    for i in range(m):
        p[i, rng.choice(m, size=per_row, replace=False)] = rng.random(per_row)
    return validate_chain(p / p.sum(axis=1, keepdims=True), rng.dirichlet(np.ones(m)))


def _chain_with_exact_zeros(rng, m):
    p = rng.random((m, m))
    p[rng.random((m, m)) < 0.4] = 0.0
    p[np.arange(m), np.arange(m)] += 0.5
    return validate_chain(p / p.sum(axis=1, keepdims=True), rng.dirichlet(np.ones(m)))


HADAMARD_CHAINS = {
    "dense": lambda rng: random_chain(rng, 120),
    "sparse": lambda rng: _sparse_chain(rng, 150, 6),
    "exact-zeros": lambda rng: _chain_with_exact_zeros(rng, 60),
    "example": lambda rng: validate_chain(
        [[0.9, 0.1, 0.0], [0.0, 0.4, 0.6], [0.0, 0.6, 0.4]], [0.5, 0.5, 0.0]
    ),
}


class TestHadamardRoute:
    """A chain's P^(o alpha) as a dense array gives the floats of the CSR route it replaced."""

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2, 2.5, 3, 300])
    @pytest.mark.parametrize("kind", sorted(HADAMARD_CHAINS))
    def test_bit_identical_to_the_csr_route(self, kind, alpha):
        chain = HADAMARD_CHAINS[kind](np.random.default_rng(len(kind)))
        a, u = _csr_route(chain, alpha)
        if a.nnz < np.count_nonzero(chain.transition):  # an entry underflows to 0
            assert kind != "example"  # its least entry, 0.1^300, is still a normal float
            with pytest.raises(InvalidOrder, match="underflows"):
                markov_rate(chain, alpha)
            with pytest.raises(InvalidOrder, match="underflows"):
                markov_finite_length(chain, alpha, 5)
            return
        for n in (1, 2, 300, 10**5):
            got = markov_finite_length(chain, alpha, n).log2_collision
            assert got.hex() == (log_weighted_power_sum(a, u, n - 1) / math.log(2.0)).hex()
        ga = growth_rate(a, u)
        rep = markov_rate(chain, alpha)
        assert rep.rho_plus.hex() == ga.rho_plus.hex()
        assert [r.hex() for r in rep.component_radii] == [r.hex() for r in ga.component_radii]

    def test_dense_chain_finite_length_builds_no_csr(self, monkeypatch):
        chain = random_chain(np.random.default_rng(9), 100)
        expected = [markov_finite_length(chain, 1.5, n) for n in (9, 10**4, 10**6)]

        def refuse(*args, **kwargs):
            raise AssertionError("built a CSR matrix for a dense chain's finite length")

        monkeypatch.setattr(nonneg.sparse, "csr_array", refuse)
        monkeypatch.setattr(NonnegMatrix, "from_dense", classmethod(refuse))
        assert [markov_finite_length(chain, 1.5, n) for n in (9, 10**4, 10**6)] == expected


class TestNoiselessRate:
    def test_example(self, example_chain):
        rep = entropy_rate(deterministic_observation(example_chain, OBS_MAP), 2)
        assert rep.value_bits == pytest.approx(0.30401, abs=1e-4)

    def test_injective_map_equals_markov_rate(self, example_chain):
        T = {"1": "x", "2": "y", "3": "z"}
        rep = entropy_rate(deterministic_observation(example_chain, T), 2)
        assert rep.value_bits == pytest.approx(markov_rate(example_chain, 2).value_bits, abs=1e-12)

    def test_constant_map_rate_zero(self, example_chain):
        T = {s: "o" for s in example_chain.states}
        rep = entropy_rate(deterministic_observation(example_chain, T), 2)
        assert rep.value_bits == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_deterministic_observation_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, int(rng.integers(2, 5)))
        symbols = ["a", "b"]
        T = {s: symbols[int(rng.integers(0, 2))] for s in chain.states}
        direct = entropy_rate(deterministic_observation(chain, T), 2).value_bits
        via_hmm = entropy_rate(deterministic_observation(chain, T), 2).value_bits
        assert abs(direct - via_hmm) <= 1e-9


class TestBscPipeline:
    def test_zero_noise_equals_markov_rate(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        assert entropy_rate(bsc_hmm(chain, 0.0), 2).value_bits == pytest.approx(
            markov_rate(chain, 2).value_bits, abs=1e-12
        )

    def test_noisy_system_dimension(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        rep = entropy_rate(bsc_hmm(chain, 0.05), 2)
        assert rep.dimension == 8

    def test_rate_perturbation_is_linear_in_noise(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        base = entropy_rate(bsc_hmm(chain, 0.0), 2).value_bits
        ratios = [
            abs(entropy_rate(bsc_hmm(chain, eps), 2).value_bits - base) / eps
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert max(ratios) <= 3.0 * min(ratios)


class TestLumpedRate:
    """An irreducible A's rate comes from K~, and A is never built."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 3, 4]))
    @settings(max_examples=80, deadline=None)
    def test_report_matches_growth_rate_on_collision_system(self, seed, alpha):
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(2, {2: 7, 3: 5, 4: 4}[alpha]))
        sparsity = float(rng.uniform(0, 0.6))
        if rng.random() < 0.3:
            chain = random_chain(rng, nx, sparsity=sparsity)
            hmm = deterministic_observation(chain, {s: "ab"[int(rng.integers(0, 2))] for s in chain.states})
        else:
            hmm = random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=sparsity)
        assume(tensor.irreducible(hmm, alpha))
        # two radii closed to the default 1e-12 bracket can differ by that
        # much (seed 1432 at alpha = 4 does, by 2e-13 relative); closed to
        # 1e-14 they agree within the 1e-13 asserted
        rep = entropy_rate(hmm, alpha, tol=1e-14)
        cs = collision_system(hmm, alpha)
        ga = growth_rate(
            cs.matrix, cs.initial, tol=1e-14, radius_matrix=(cs.tuple_matrix, cs.node_tuple)
        )
        ref = entropy._rate_report(float(alpha), ga, cs.labels(), cs.dimension)
        assert rep.rho_plus == pytest.approx(ref.rho_plus, rel=1e-13, abs=0)
        assert rep.value_bits == pytest.approx(ref.value_bits, rel=1e-12, abs=1e-14)
        assert rep.dimension == ref.dimension
        assert rep.reachable == ref.reachable
        assert rep.dominant_component == ref.dominant_component
        assert rep.dominant_members == ref.dominant_members
        assert len(rep.component_radii) == len(ref.component_radii) == 1

    @pytest.mark.parametrize("seed,nx,nz,alpha", [(1, 3, 2, 2), (0, 4, 2, 2), (7, 4, 3, 3)])
    def test_sparse_emission_radius_is_taken_on_the_lumped_matrix(self, seed, nx, nz, alpha):
        # with zeros in E, A's symbol-major node order meets the multisets
        # out of K~'s order; the radius is still K~'s own, iterated as built
        hmm = random_hmm(np.random.default_rng(seed), nx, nz, sparsity=0.4)
        assert (hmm.emission == 0).any() and tensor.irreducible(hmm, alpha)
        lumped = tensor.lumped_system(hmm, alpha)
        rho = entropy_rate(hmm, alpha).rho_plus
        assert rho.hex() == spectral_radius_irreducible(lumped.matrix).hex()

    def test_collision_system_is_never_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("collision_system ran")

        monkeypatch.setattr(entropy, "collision_system", refuse)
        rep = entropy_rate(random_hmm(np.random.default_rng(2), 5, 2), 3)
        assert rep.dimension == 2 * 5**3 and rep.reachable == (0,)

    def test_dense_order_four_rate_matches_the_finite_slope(self):
        # A would store 151M entries and is refused; K~ has 330 rows
        hmm = random_hmm(np.random.default_rng(8), 8, 3)
        start = time.perf_counter()
        rep = entropy_rate(hmm, 4)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"took {elapsed:.3f}s"
        assert rep.dimension == 3 * 8**4 and len(rep.dominant_members) == rep.dimension
        n = 10**6
        slope = (
            finite_length_entropy(hmm, 4, n + 1000).value_bits
            - finite_length_entropy(hmm, 4, n).value_bits
        ) / 1000
        assert rep.value_bits == pytest.approx(slope, abs=1e-9)

    @staticmethod
    def _rate_from_collision_system(hmm, alpha):
        cs = collision_system(hmm, alpha)
        ga = growth_rate(cs.matrix, cs.initial, radius_matrix=(cs.tuple_matrix, cs.node_tuple))
        return entropy._rate_report(float(alpha), ga, cs.labels(), cs.dimension)

    def test_sparse_emissions_take_the_lumped_matrix(self, monkeypatch):
        # dense 12 states observed in 6 groups of 2 at alpha = 4: A is
        # irreducible and stores 36 * 4^4 = 9216 entries; the lumped build
        # enumerates one group's columns a pass, 36 * C(5, 4) * 2^4 = 2880
        chain = random_chain(np.random.default_rng(12), 12)
        hmm = deterministic_observation(chain, {s: f"g{i // 2}" for i, s in enumerate(chain.states)})
        assert tensor.irreducible(hmm, 4) is True
        supports = tensor._maximal_supports(hmm.emission > 0)
        assert tensor._lumped_count(chain.transition, supports, 4) == 2880

        def refuse(*args, **kwargs):
            raise AssertionError("collision_system ran")

        monkeypatch.setattr(entropy, "collision_system", refuse)
        rep = entropy_rate(hmm, 4)
        monkeypatch.undo()
        ref = self._rate_from_collision_system(hmm, 4)
        assert rep.rho_plus == pytest.approx(ref.rho_plus, rel=1e-13, abs=0)
        assert (rep.dimension, rep.reachable, rep.dominant_members) == (
            ref.dimension, ref.reachable, ref.dominant_members
        )

    def test_deterministic_observation_within_the_lumped_budget(self, monkeypatch):
        # dense 44 states observed in 11 groups of 4 at alpha = 3: A stores
        # 11^2 * 16^3 = 495,616 entries; over P's full rows the lumped build
        # would enumerate 11 * C(6, 3) * 44^3 = 18.7M, over one group's
        # columns a pass 11^2 * C(6, 3) * 4^3 = 154,880
        chain = random_chain(np.random.default_rng(44), 44)
        hmm = deterministic_observation(chain, {s: f"g{i // 4}" for i, s in enumerate(chain.states)})
        supports = tensor._maximal_supports(hmm.emission > 0)
        assert tensor._lumped_count(chain.transition, supports, 3) == 154_880
        assert tensor.lumped_system(hmm, 3).matrix.dim == 11 * math.comb(6, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("collision_system ran")

        monkeypatch.setattr(entropy, "collision_system", refuse)
        rep = entropy_rate(hmm, 3)
        monkeypatch.undo()
        assert rep.dimension == 11 * 4**3 and rep.finite
        ref = self._rate_from_collision_system(hmm, 3)
        assert rep.rho_plus == pytest.approx(ref.rho_plus, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_overlapping_supports_match_the_oracle(self, alpha):
        # states 0 and 1 emit "a", states 1 and 2 emit "b": two maximal
        # supports that share state 1, whose multisets one pass keeps
        chain = random_chain(np.random.default_rng(alpha), 3)
        hmm = validate_hmm(chain, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        assert sorted(tensor._maximal_supports(hmm.emission > 0).tolist()) == [
            [False, True, True], [True, True, False]
        ]
        for n in range(1, 10):
            assert finite_length_entropy(hmm, alpha, n).value_bits == pytest.approx(
                brute_force_entropy(hmm, alpha, n), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("alpha,dimension", [(2, 7), (3, 12)])
    def test_one_dimension_when_emission_products_underflow(self, alpha, dimension):
        # state 1 emits "2" with probability 1e-200, so (1, 1|2) has an
        # emission product of 0 and is no node of A
        chain = validate_chain([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
        hmm = validate_hmm(chain, [[1 - 1e-200, 1e-200], [0.5, 0.5]])
        assert entropy_rate(hmm, alpha).dimension == dimension
        assert finite_length_entropy(hmm, alpha, 5).dimension == dimension
        assert collision_system(hmm, alpha).dimension == dimension

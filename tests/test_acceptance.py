"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from renyirates import (
    NonnegMatrix,
    bsc_hmm,
    characteristic_polynomial,
    collision_system,
    deterministic_observation,
    entropy_rate,
    finite_length_entropy,
    growth_rate,
    identity_observation,
    markov_rate,
    strongly_connected_components,
)
from renyirates.modelfile import load_model
from renyirates.oracle import brute_force_collision
from renyirates.random_models import (
    random_chain,
    random_hmm,
    random_nonneg_matrix,
    random_nonneg_vector,
)

from conftest import FIXTURES, RESTRICTED_EXAMPLE
from independent import empirical_growth_probe


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL - {description}")
        raise
    print(f"\n[criterion {num}] PASS - {description}")


def test_criterion_1_worked_example():
    with criterion(1, "worked example: dimension 5, radii 0.52/0.81, rate 0.30401"):
        start = time.perf_counter()
        hmm = load_model(FIXTURES / "fig2.model")
        cs = collision_system(hmm, 2)
        rep = entropy_rate(hmm, 2)
        elapsed = time.perf_counter() - start
        assert cs.dimension == 5
        # radii agree with an independent dense eigensolver to 1e-9
        decomp = strongly_connected_components(cs.matrix)
        dense = cs.matrix.to_dense()
        for cid, comp in enumerate(decomp.components):
            block = dense[np.ix_(comp, comp)]
            eig = max(abs(np.linalg.eigvals(block)))
            assert abs(rep.component_radii[cid] - eig) <= 1e-9
        radii = sorted(rep.component_radii)
        assert any(abs(r - 0.52) <= 5e-3 for r in radii)
        assert any(abs(r - 0.81) <= 5e-3 for r in radii)
        assert abs(rep.value_bits - 0.30401) <= 1e-4
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_2_restricted_matrix_fidelity(example_hmm):
    with criterion(2, "restricted tensored matrix matches the printed 5x5"):
        cs = collision_system(example_hmm, 2)
        assert cs.labels() == ("1,1|a", "1,3|a", "3,1|a", "3,3|a", "2,2|b")
        assert np.abs(cs.matrix.to_dense() - RESTRICTED_EXAMPLE).max() <= 1e-12
        computed = sorted(cs.matrix.csr.data)
        printed = sorted([0.81, 0.01, 0.36, 0.06, 0.16, 0.36, 0.06, 0.36, 0.36, 0.16])
        assert np.allclose(computed, printed, atol=1e-12)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "transfer-matrix collision formula matches brute force, 200 random HMMs"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            nx = int(rng.integers(1, 4))
            nz = int(rng.integers(1, 4))
            hmm = random_hmm(rng, nx, nz, sparsity=float(rng.uniform(0, 0.5)))
            for alpha in (2, 3):
                for n in range(1, 9):
                    rep = finite_length_entropy(hmm, alpha, n)
                    cp_formula = 2.0 ** rep.log2_collision
                    cp_bf = brute_force_collision(hmm, alpha, n)
                    assert cp_bf > 0
                    assert abs(cp_formula - cp_bf) / cp_bf <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_growth_rate_characterization():
    with criterion(4, "asymptotic growth rate: probe within 1e-2, reachability exact"):
        start = time.perf_counter()
        rng = np.random.default_rng(1177)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            a = random_nonneg_matrix(rng, m, zero_prob=0.5)
            u = random_nonneg_vector(rng, m)
            mat = NonnegMatrix.from_dense(a)
            ga = growth_rate(mat, u)
            # exact reachability characterization via the truncated walk
            walk = u @ np.linalg.matrix_power(np.eye(m) + (a > 0).astype(float), m)
            for i in range(m):
                assert (walk[i] > 0) == (ga.decomposition.component_of[i] in ga.reachable)
            if ga.rho_plus > 0.05:
                probe = empirical_growth_probe(mat, u, 4000)
                assert abs(probe - ga.rho_plus) <= 1e-2
        elapsed = time.perf_counter() - start
        assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_criterion_5_pipeline_coherence():
    with criterion(5, "Hadamard and noiseless routes agree with the HMM pipeline"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            chain = random_chain(
                rng, int(rng.integers(2, 5)), sparsity=float(rng.uniform(0, 0.4))
            )
            d = abs(
                markov_rate(chain, 2).value_bits
                - entropy_rate(identity_observation(chain), 2).value_bits
            )
            assert d <= 1e-9
        for _ in range(100):
            chain = random_chain(rng, int(rng.integers(2, 5)))
            symbols = ["a", "b", "c"]
            T = {
                s: symbols[int(rng.integers(0, min(3, chain.n_states)))]
                for s in chain.states
            }
            d = abs(
                entropy_rate(deterministic_observation(chain, T), 2).value_bits
                - entropy_rate(deterministic_observation(chain, T), 2).value_bits
            )
            assert d <= 1e-9


def test_criterion_6_transient_state_dominates(example_chain):
    with criterion(6, "visible-chain regression: transient state carries the rate"):
        rep = markov_rate(example_chain, 2)
        assert rep.dominant_members == ("1",)
        assert rep.rho_plus == pytest.approx(0.81, abs=1e-9)
        # state 1 is transient: stationary mass zero
        pi = example_chain.initial
        p = example_chain.transition
        for _ in range(5000):
            pi = pi @ p
        assert pi[0] < 1e-12
        assert abs(rep.value_bits - 0.30401) <= 1e-4


def test_criterion_7_bsc_perturbation():
    with criterion(7, "BSC: 8x8 system, degree-8 polynomial, O(eps) rate shift"):
        chain = load_model(FIXTURES / "bsc.model")
        assert (chain.transition > 0).all()
        cs = collision_system(bsc_hmm(chain, 0.01), 2)
        assert cs.dimension == 8
        coeffs = characteristic_polynomial(cs.matrix)
        assert len(coeffs) == 9  # monic, degree 8
        base = entropy_rate(bsc_hmm(chain, 0.0), 2).value_bits
        ratios = [
            abs(entropy_rate(bsc_hmm(chain, eps), 2).value_bits - base) / eps
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert max(ratios) <= 3.0 * min(ratios)


def test_criterion_8_long_horizon_performance():
    with criterion(8, "n = 10^6 finite-length entropy in < 1 s, no underflow"):
        hmm = load_model(FIXTURES / "fig2.model")
        n = 10**6
        start = time.perf_counter()
        rep = finite_length_entropy(hmm, 2, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert math.isfinite(rep.value_bits)
        rate = entropy_rate(hmm, 2).value_bits
        assert abs(rep.value_bits / n - rate) <= 1e-4


def test_criterion_9_order_monotonicity_and_nonnegativity():
    with criterion(9, "Renyi order monotonicity and non-negativity"):
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            nx = int(rng.integers(1, 4))
            nz = int(rng.integers(1, 4))
            hmm = random_hmm(rng, nx, nz, sparsity=float(rng.uniform(0, 0.5)))
            for n in (1, 4, 8):
                h2 = finite_length_entropy(hmm, 2, n).value_bits
                h3 = finite_length_entropy(hmm, 3, n).value_bits
                assert h3 <= h2 + 1e-9
                assert 0.0 <= h3 and 0.0 <= h2
            r2 = entropy_rate(hmm, 2).value_bits
            r3 = entropy_rate(hmm, 3).value_bits
            assert r3 <= r2 + 1e-9
            assert 0.0 <= r3 and 0.0 <= r2
        rng = np.random.default_rng(909)
        for _ in range(100):
            chain = random_chain(
                rng, int(rng.integers(2, 5)), sparsity=float(rng.uniform(0, 0.4))
            )
            r2 = markov_rate(chain, 2).value_bits
            r3 = markov_rate(chain, 3).value_bits
            assert r3 <= r2 + 1e-9
            assert 0.0 <= r3 and 0.0 <= r2

import itertools
import math
import time

import numpy as np
import pytest

from renyirates import (
    collision_system,
    identity_observation,
    validate_chain,
    validate_hmm,
)
from renyirates.errors import DimensionOverflow, InvalidOrder
from renyirates.oracle import (
    all_sequence_probabilities,
    brute_force_collision,
    brute_force_entropy,
    renyi_bits,
)
from renyirates.random_models import random_hmm

from independent import sequence_probability


def path_enumeration_probability(hmm, symbols):
    """Independent oracle: explicit sum over all hidden paths."""
    zs = [hmm.observations.index(s) for s in symbols]
    p, e, pi = hmm.chain.transition, hmm.emission, hmm.chain.initial
    total = 0.0
    for xs in itertools.product(range(hmm.n_states), repeat=len(zs)):
        term = pi[xs[0]] * e[xs[0], zs[0]]
        for t in range(1, len(zs)):
            term *= p[xs[t - 1], xs[t]] * e[xs[t], zs[t]]
        total += term
    return total


class TestSequenceProbability:
    def test_deterministic_cycle(self):
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])
        hmm = identity_observation(chain)
        assert sequence_probability(hmm, ["1", "2", "1", "2"]) == 1.0
        assert sequence_probability(hmm, ["1", "1"]) == 0.0

    def test_example_first_symbol(self, example_hmm):
        assert sequence_probability(example_hmm, ["a"]) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, 3, 2, sparsity=0.2)
        for symbols in itertools.product(hmm.observations, repeat=3):
            assert sequence_probability(hmm, symbols) == pytest.approx(
                path_enumeration_probability(hmm, symbols), abs=1e-14
            )

    def test_zero_length_refused(self, example_hmm):
        with pytest.raises(ValueError, match="length must be >= 1, got 0"):
            all_sequence_probabilities(example_hmm, 0)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_total_probability(self, n, example_hmm):
        probs = all_sequence_probabilities(example_hmm, n)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)


class TestBruteForceCollision:
    def test_zero_collision_probability_is_infinite_entropy(self):
        assert renyi_bits(0.0, 2) == math.inf

    def test_iid_uniform_bits(self):
        chain = validate_chain([[1.0]], [1.0])
        hmm = validate_hmm(chain, [[0.5, 0.5]])
        # eight equiprobable sequences of mass 1/8: CP = 8 * (1/8)^2 = 1/8
        assert brute_force_collision(hmm, 2, 3) == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert brute_force_entropy(hmm, 2, 3) == pytest.approx(3.0, abs=1e-12)

    def test_example_length_two_identity(self, example_hmm):
        cs = collision_system(example_hmm, 2)
        direct = float(cs.initial @ cs.matrix.to_dense() @ np.ones(5))
        assert brute_force_collision(example_hmm, 2, 2) == pytest.approx(
            direct, rel=1e-13
        )
        assert brute_force_entropy(example_hmm, 2, 2) == pytest.approx(
            -math.log2(direct), rel=1e-12
        )

    def test_length_one_closed_form(self, example_hmm):
        marg = example_hmm.chain.initial @ example_hmm.emission
        assert brute_force_collision(example_hmm, 2, 1) == pytest.approx(
            float((marg**2).sum()), rel=1e-15
        )

    def test_single_state_entropy_zero(self):
        chain = validate_chain([[1.0]], [1.0])
        hmm = validate_hmm(chain, [[1.0]])
        assert brute_force_entropy(hmm, 3, 5) == 0.0

    def test_monotone_in_length_and_order(self, example_hmm):
        values = [brute_force_collision(example_hmm, 2, n) for n in range(1, 6)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for n in (1, 3):
            assert brute_force_collision(example_hmm, 3, n) <= brute_force_collision(
                example_hmm, 2, n
            )

    def test_enumeration_guard(self, example_hmm):
        with pytest.raises(DimensionOverflow):
            brute_force_collision(example_hmm, 2, 30)

    @pytest.mark.parametrize("nz,n", [(1, 10**7 + 1), (1, 10**12), (2, 24), (2, 10**12), (3, 15)])
    def test_enumeration_guard_counts_steps_and_strings(self, nz, n):
        # refused when nz^n strings or n steps pass the cap, without forming
        # nz^n for a large n; 2^23 and 3^14 strings are within the cap
        hmm = validate_hmm(validate_chain([[1.0]], [1.0]), [[1.0 / nz] * nz])
        start = time.perf_counter()
        with pytest.raises(DimensionOverflow, match="exceeds cap"):
            all_sequence_probabilities(hmm, n)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("alpha", [1, 2.5])
    def test_invalid_order(self, example_hmm, alpha):
        with pytest.raises(InvalidOrder):
            brute_force_collision(example_hmm, alpha, 3)

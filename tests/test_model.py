import numpy as np
import pytest

from renyirates import (
    bsc_hmm,
    deterministic_observation,
    entropy_rate,
    finite_length_entropy,
    identity_observation,
    validate_chain,
    validate_hmm,
)
from renyirates.errors import (
    DimensionMismatch,
    InvalidLabel,
    InvalidNoise,
    NegativeEntry,
    NonFiniteEntry,
    NonStochasticRow,
    WrongAlphabet,
)
from renyirates.random_models import random_hmm

from conftest import OBS_MAP, P_EXAMPLE, PI_UNIFORM3
from independent import joint_chain


class TestValidateChain:
    def test_example_chain_valid(self):
        chain = validate_chain(P_EXAMPLE, PI_UNIFORM3)
        assert chain.states == ("1", "2", "3")
        assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)
        assert abs(chain.initial.sum() - 1.0) < 1e-12

    def test_single_state_chain(self):
        chain = validate_chain([[1.0]], [1.0])
        assert chain.n_states == 1

    def test_non_stochastic_row(self):
        with pytest.raises(NonStochasticRow):
            validate_chain([[0.5, 0.6], [0.5, 0.5]], [0.5, 0.5])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_chain([[1.2, -0.2], [0.5, 0.5]], [0.5, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_chain([[0.5, 0.5], [0.5, 0.5]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_rejected(self, bad):
        # |nan - 1| > tol is False, so a row sum check alone lets NaN through
        with pytest.raises(NonFiniteEntry):
            validate_chain([[bad, 0.5], [0.5, 0.5]], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_rejected(self, bad):
        with pytest.raises(NonFiniteEntry):
            validate_chain([[0.5, 0.5], [0.5, 0.5]], [bad, 0.5])

    def test_non_finite_emission_rejected(self, example_chain):
        with pytest.raises(NonFiniteEntry):
            validate_hmm(example_chain, [[1.0, 0.0], [np.nan, 1.0], [1.0, 0.0]])

    def test_non_square_transition_rejected(self):
        with pytest.raises(DimensionMismatch, match="transition matrix has shape"):
            validate_chain([[0.5, 0.5]], [1.0])

    def test_emission_with_wrong_row_count_rejected(self, example_chain):
        with pytest.raises(DimensionMismatch, match="emission matrix has shape"):
            validate_hmm(example_chain, [[1.0, 0.0], [0.0, 1.0]])

    def test_initial_law_far_from_one_rejected(self):
        with pytest.raises(NonStochasticRow, match="initial distribution sums to"):
            validate_chain([[0.5, 0.5], [0.3, 0.7]], [0.5 + 1e-6, 0.5])

    def test_initial_law_near_one_renormalized(self):
        pi = np.array([0.5 + 1e-12, 0.5])
        chain = validate_chain([[0.5, 0.5], [0.3, 0.7]], pi)
        assert chain.initial.tolist() == (pi / pi.sum()).tolist()

    def test_small_deviation_renormalized(self):
        chain = validate_chain([[0.5 + 1e-11, 0.5], [0.3, 0.7]], [0.5, 0.5])
        assert np.allclose(chain.transition.sum(axis=1), 1.0, atol=1e-15)


class TestJointChain:
    def test_deterministic_chain_and_emission(self):
        # P = I, E = I: pair (x, z) moves to (x, x) with probability 1.
        chain = validate_chain(np.eye(2), [0.5, 0.5])
        hmm = validate_hmm(chain, np.eye(2))
        jc = joint_chain(hmm)
        assert jc.matrix.shape == (4, 4)
        for a, (x, z) in enumerate(jc.pairs):
            for b, (xp, zp) in enumerate(jc.pairs):
                expected = 1.0 if (xp == x and zp == xp) else 0.0
                assert jc.matrix[a, b] == expected

    def test_example_joint_dimensions(self, example_hmm):
        jc = joint_chain(example_hmm)
        assert jc.matrix.shape == (6, 6)
        assert abs(jc.initial.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_hmm_invariants(self, seed):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, int(rng.integers(2, 4)), 2)
        jc = joint_chain(hmm)
        assert np.allclose(jc.matrix.sum(axis=1), 1.0, atol=1e-12)
        # rows with the same hidden component are identical
        nz = hmm.n_symbols
        for x in range(hmm.n_states):
            block = jc.matrix[x * nz : (x + 1) * nz]
            assert np.array_equal(block, np.tile(block[0], (nz, 1)))


class TestObservations:
    def test_identity_observation(self, example_chain):
        hmm = identity_observation(example_chain)
        assert hmm.observations == example_chain.states
        assert np.array_equal(hmm.emission, np.eye(3))

    def test_deterministic_observation_example(self, example_chain):
        hmm = deterministic_observation(example_chain, OBS_MAP)
        assert hmm.observations == ("a", "b")
        assert np.array_equal(hmm.emission, [[1, 0], [0, 1], [1, 0]])

    def test_deterministic_identity_map_matches_identity(self, example_chain):
        via_map = deterministic_observation(
            example_chain, {s: s for s in example_chain.states}
        )
        direct = identity_observation(example_chain)
        assert np.array_equal(via_map.emission, direct.emission)
        assert via_map.observations == direct.observations

    def test_partial_map_rejected(self, example_chain):
        with pytest.raises(WrongAlphabet):
            deterministic_observation(example_chain, {"1": "a"})

    def test_keys_that_name_no_state_rejected(self, example_chain):
        with pytest.raises(WrongAlphabet, match=r"names no state: \['4', 'x'\]"):
            deterministic_observation(example_chain, OBS_MAP | {"4": "a", "x": "c"})


class TestLabels:
    @pytest.mark.parametrize("states", [[1, 2, 3], ["1", 2, "3"], ["1", None, "3"]])
    def test_non_string_states_rejected(self, states):
        with pytest.raises(InvalidLabel, match="strings"):
            validate_chain(P_EXAMPLE, PI_UNIFORM3, states=states)

    def test_duplicate_states_rejected(self):
        with pytest.raises(InvalidLabel, match="'a' repeats"):
            validate_chain(P_EXAMPLE, PI_UNIFORM3, states=["a", "b", "a"])

    @pytest.mark.parametrize("observations", [[1, 2, 3], ["1", "2", 3.0]])
    def test_non_string_observations_rejected(self, example_chain, observations):
        # such a model used to pass here and die in a collision-index label
        with pytest.raises(InvalidLabel, match="strings"):
            validate_hmm(example_chain, np.eye(3), observations=observations)

    def test_duplicate_observations_rejected(self, example_chain):
        with pytest.raises(InvalidLabel, match="'x' repeats"):
            validate_hmm(example_chain, np.eye(3), observations=["x", "y", "x"])

    @pytest.mark.parametrize("omap", [{"1": 1, "2": 2, "3": 1}, {"1": "a", "2": 2, "3": "a"}])
    def test_non_string_observation_map_rejected(self, example_chain, omap):
        with pytest.raises(InvalidLabel, match="strings"):
            deterministic_observation(example_chain, omap)

    def test_string_is_not_a_sequence_of_labels(self, example_chain):
        # a str iterates as one-character strings, which were taken as labels
        with pytest.raises(InvalidLabel, match="state labels must be a sequence of strings, not 'abc'"):
            validate_chain(P_EXAMPLE, PI_UNIFORM3, states="abc")
        with pytest.raises(InvalidLabel, match="observation labels .* not 'xyz'"):
            validate_hmm(example_chain, np.eye(3), observations="xyz")

    def test_label_count_still_checked(self, example_chain):
        with pytest.raises(DimensionMismatch):
            validate_chain(P_EXAMPLE, PI_UNIFORM3, states=["a", "b"])
        with pytest.raises(DimensionMismatch):
            validate_hmm(example_chain, np.eye(3), observations=["x", "y"])

    def test_valid_labels_kept(self, example_chain):
        hmm = validate_hmm(example_chain, np.eye(3), observations=["x", "y", "z"])
        assert hmm.observations == ("x", "y", "z")
        assert entropy_rate(hmm, 2).finite
        assert finite_length_entropy(hmm, 2, 3).finite


class TestBscHmm:
    def test_noiseless_limit(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        hmm = bsc_hmm(chain, 0.0)
        assert np.array_equal(hmm.emission, np.eye(2))

    def test_emission_matrix(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        hmm = bsc_hmm(chain, 0.25)
        assert np.allclose(hmm.emission, [[0.75, 0.25], [0.25, 0.75]])

    def test_invalid_noise(self):
        chain = validate_chain([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
        with pytest.raises(InvalidNoise):
            bsc_hmm(chain, 0.6)

    def test_wrong_alphabet(self, example_chain):
        with pytest.raises(WrongAlphabet):
            bsc_hmm(example_chain, 0.1)

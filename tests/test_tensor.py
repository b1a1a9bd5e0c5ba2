import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from renyirates import (
    NonnegMatrix,
    collision_system,
    deterministic_observation,
    finite_length_entropy,
    hadamard_power,
    load_model,
    tensor,
    validate_chain,
    validate_hmm,
)
from renyirates.errors import DimensionOverflow, InvalidOrder
from renyirates.random_models import random_chain, random_hmm

from conftest import FIXTURES, P_EXAMPLE, PI_UNIFORM3, RESTRICTED_EXAMPLE
from independent import joint_chain, kronecker_power


class TestKroneckerPower:
    def test_example_second_power(self):
        k = kronecker_power(NonnegMatrix.from_dense(P_EXAMPLE), 2)
        expected = np.kron(P_EXAMPLE, P_EXAMPLE)
        dense = k.to_dense()
        assert np.allclose(dense, expected, atol=0)
        # spot-check printed entries of the 9x9: row (1,1)
        assert dense[0, 0] == pytest.approx(0.81)
        assert dense[0, 1] == pytest.approx(0.09)
        assert dense[0, 3] == pytest.approx(0.09)
        assert dense[0, 4] == pytest.approx(0.01)

    def test_first_power_is_identity_case(self):
        a = NonnegMatrix.from_dense([[0.2, 0.8], [0.5, 0.5]])
        assert np.array_equal(kronecker_power(a, 1).to_dense(), a.to_dense())

    def test_triple_power_entrywise(self):
        rng = np.random.default_rng(3)
        base = rng.random((2, 2))
        k = kronecker_power(NonnegMatrix.from_dense(base), 3).to_dense()
        for i in itertools.product(range(2), repeat=3):
            for j in itertools.product(range(2), repeat=3):
                flat_i = i[0] * 4 + i[1] * 2 + i[2]
                flat_j = j[0] * 4 + j[1] * 2 + j[2]
                prod = base[i[0], j[0]] * base[i[1], j[1]] * base[i[2], j[2]]
                assert k[flat_i, flat_j] == pytest.approx(prod, rel=1e-15)

    def test_row_sums_are_powers_of_base_row_sums(self):
        rng = np.random.default_rng(4)
        base = rng.random((3, 3))
        k = kronecker_power(NonnegMatrix.from_dense(base), 2)
        rs = base.sum(axis=1)
        expected = np.kron(rs, rs)
        assert np.allclose(k.csr.sum(axis=1), expected, rtol=1e-12)

    def test_dimension_guard(self):
        a = NonnegMatrix.from_dense(np.ones((10, 10)))
        with pytest.raises(DimensionOverflow):
            kronecker_power(a, 7)


class TestHadamardPower:
    def test_example_square(self):
        h = hadamard_power(NonnegMatrix.from_dense(P_EXAMPLE), 2)
        expected = np.array([[0.81, 0.01, 0.0], [0.0, 0.16, 0.36], [0.0, 0.36, 0.16]])
        assert np.allclose(h.to_dense(), expected, atol=1e-15)

    def test_order_one_is_identity(self):
        a = NonnegMatrix.from_dense(P_EXAMPLE)
        assert np.array_equal(hadamard_power(a, 1.0).to_dense(), P_EXAMPLE)

    def test_fractional_order_matches_scalar_powering(self):
        rng = np.random.default_rng(5)
        base = rng.random((3, 3))
        base[0, 1] = 0.0
        h = hadamard_power(NonnegMatrix.from_dense(base), 2.5).to_dense()
        for i in range(3):
            for j in range(3):
                assert h[i, j] == pytest.approx(base[i, j] ** 2.5, abs=1e-15)
        assert h[0, 1] == 0.0  # structural zero preserved


class TestCollisionSystem:
    def test_example_restricted_matrix(self, example_hmm):
        cs = collision_system(example_hmm, 2)
        assert cs.dimension == 5
        assert cs.labels() == ("1,1|a", "1,3|a", "3,1|a", "3,3|a", "2,2|b")
        assert np.allclose(cs.matrix.to_dense(), RESTRICTED_EXAMPLE, atol=1e-12)
        assert np.allclose(cs.initial, np.full(5, 1.0 / 9.0), atol=1e-15)

    def test_single_state_hmm(self):
        chain = validate_chain([[1.0]], [1.0])
        hmm = validate_hmm(chain, [[1.0]])
        for alpha in (2, 3, 4):
            cs = collision_system(hmm, alpha)
            assert cs.dimension == 1
            assert np.allclose(cs.matrix.to_dense(), [[1.0]], atol=1e-15)
            assert cs.initial == pytest.approx([1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_tensor_restriction(self, seed):
        # oracle: materialize the joint chain's full Kronecker power and
        # restrict it to equal-symbol tuples afterwards
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, 2, 2)
        alpha = 2
        cs = collision_system(hmm, alpha)
        jc = joint_chain(hmm)
        full = np.kron(jc.matrix, jc.matrix)
        nz = hmm.n_symbols
        pairs = jc.pairs
        flat = [
            (a, b)
            for a, (xa, za) in enumerate(pairs)
            for b, (xb, zb) in enumerate(pairs)
            if za == zb
        ]
        # reorder the oracle restriction into the canonical z-major order
        def key(ab):
            a, b = ab
            (xa, za), (xb, _) = pairs[a], pairs[b]
            return (za, xa, xb)

        flat.sort(key=key)
        sel = [a * len(pairs) + b for a, b in flat]
        oracle = full[np.ix_(sel, sel)]
        assert np.allclose(cs.matrix.to_dense(), oracle, atol=0)
        nu_oracle = np.array(
            [jc.initial[a] * jc.initial[b] for a, b in flat]
        )
        assert np.allclose(cs.initial, nu_oracle, atol=0)

    def test_substochastic_rows(self, example_hmm):
        for alpha in (2, 3):
            cs = collision_system(example_hmm, alpha)
            assert (cs.matrix.csr.sum(axis=1) <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_initial_mass_is_single_symbol_collision(self, seed):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, 3, 2, sparsity=0.3)
        for alpha in (2, 3):
            cs = collision_system(hmm, alpha)
            marg = hmm.chain.initial @ hmm.emission
            assert cs.initial.sum() == pytest.approx(
                float((marg**alpha).sum()), rel=1e-12
            )

    def test_invalid_order(self, example_hmm):
        with pytest.raises(InvalidOrder):
            collision_system(example_hmm, 1)
        with pytest.raises(InvalidOrder):
            collision_system(example_hmm, 2.5)

    def test_dimension_guard(self, example_hmm):
        with pytest.raises(DimensionOverflow):
            collision_system(example_hmm, 2, max_dim=3)

    def test_build_never_holds_the_tensor_power(self):
        # P^(tensor 8) has 6^8 = 1.7M stored entries, about 20 MB; A has 514
        fig2 = load_model(FIXTURES / "fig2.model")
        tracemalloc.start()
        try:
            cs = collision_system(fig2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cs.dimension, cs.matrix.nnz) == (257, 514)
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_byte_budget_refuses_before_allocating(self):
        # dense 16 states, 4 symbols, alpha = 3: dimension 16384 passes the
        # cap, but A would store 16 * 256^3 = 268M entries (3.2 GB as CSR)
        hmm = random_hmm(np.random.default_rng(0), 16, 4)
        assert 16**3 * 4 <= 10**6
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(DimensionOverflow, match="268435456 entries"):
                collision_system(hmm, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestLumpedBuildBudget:
    def test_refuses_before_allocating(self):
        # dense 12 states, 1 symbol, alpha = 5: dimension 12^5 = 248832 passes
        # the cap, but the lumped build would enumerate C(16, 5) * 12^5 = 1.09e9
        # successor entries, tens of GB
        hmm = random_hmm(np.random.default_rng(0), 12, 1)
        assert 12**5 <= 10**6
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(DimensionOverflow, match="1086898176 entries"):
                finite_length_entropy(hmm, 5, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("nx,alpha,sparsity", [(3, 2, 0.0), (5, 3, 0.5), (6, 4, 0.7), (4, 6, 0.3)])
    def test_count_is_the_enumeration(self, nx, alpha, sparsity):
        # h_alpha of P's row degrees counts the successors of every multiset
        p = sparse.csr_array(random_chain(np.random.default_rng(nx), nx, sparsity=sparsity).transition)
        p.eliminate_zeros()
        reps = np.array(list(itertools.combinations_with_replacement(range(nx), alpha)))
        rows, _, _ = tensor._successors(p, reps)
        assert tensor._lumped_entries(np.diff(p.indptr).tolist(), alpha) == rows.size


class TestNoiselessCollisionSystem:
    def test_injective_map_gives_hadamard_power(self, example_chain):
        T = {"1": "a", "2": "b", "3": "c"}
        cs = collision_system(deterministic_observation(example_chain, T), 2)
        # colliding tuples are exactly the diagonal (x, x)
        assert cs.dimension == 3
        expected = P_EXAMPLE**2
        # indices ordered by symbol; T is order-preserving here
        assert np.allclose(cs.matrix.to_dense(), expected, atol=0)

    def test_constant_map_gives_full_tensor(self, example_chain):
        T = {s: "o" for s in example_chain.states}
        cs = collision_system(deterministic_observation(example_chain, T), 2)
        assert cs.dimension == 9
        assert np.allclose(
            cs.matrix.to_dense(), np.kron(P_EXAMPLE, P_EXAMPLE), atol=0
        )
        assert np.allclose(
            cs.initial, np.kron(PI_UNIFORM3, PI_UNIFORM3), atol=0
        )

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from renyirates import (
    MarkovChain,
    NonnegMatrix,
    collision_system,
    deterministic_observation,
    entropy,
    finite_length_entropy,
    load_model,
    strongly_connected_components,
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


def hadamard_power(p, alpha: float) -> np.ndarray:
    """P^(o alpha) as a fully observed chain's pipeline forms it, for any non-negative square p."""
    p = np.asarray(p, dtype=float)
    d = p.shape[0]
    chain = MarkovChain(tuple(str(i) for i in range(d)), p, np.full(d, 1.0 / d))
    return entropy._hadamard_system(chain, alpha)[1]


class TestHadamardPower:
    def test_example_square(self):
        h = hadamard_power(P_EXAMPLE, 2)
        expected = np.array([[0.81, 0.01, 0.0], [0.0, 0.16, 0.36], [0.0, 0.36, 0.16]])
        assert np.allclose(h, expected, atol=1e-15)

    def test_order_one_is_identity(self, monkeypatch):
        # a chain's order check refuses 1; it is bypassed to pin the power itself
        monkeypatch.setattr(entropy, "_chain_order", float)
        assert np.array_equal(hadamard_power(P_EXAMPLE, 1.0), P_EXAMPLE)

    def test_fractional_order_matches_scalar_powering(self):
        rng = np.random.default_rng(5)
        base = rng.random((3, 3))
        base[0, 1] = 0.0
        h = hadamard_power(base, 2.5)
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

    def test_count_skips_multisets_no_symbol_can_emit(self):
        # 40 states with 4 entries a row, observed in 4 groups of 10, at
        # alpha = 4: over all multisets h_4 counts 31.6M entries (2.35 GiB);
        # only multisets inside one group have w > 0, and each pass keeps
        # one group's columns, fewer than 4 h_4 = 732k entries
        rng = np.random.default_rng(4)
        p = np.zeros((40, 40))
        for i in range(40):
            p[i, rng.choice(40, size=4, replace=False)] = rng.dirichlet(np.ones(4))
        chain = validate_chain(p, np.full(40, 1 / 40))
        hmm = deterministic_observation(chain, {s: f"g{i // 10}" for i, s in enumerate(chain.states)})
        assert tensor._lumped_entries([4] * 40, 4) == 31_592_960
        assert 4 * tensor._lumped_entries([4] * 10, 4) == 732_160
        assert 31_592_960 * (4 * 4 + 64) > tensor._BUILD_BYTES > 732_160 * (4 * 4 + 64)
        assert tensor._lumped_count(p, tensor._maximal_supports(hmm.emission > 0), 4) < 732_160
        lumped = tensor.lumped_system(hmm, 4, max_dim=10**8)
        assert lumped.matrix.dim == 4 * math.comb(13, 4)
        assert lumped.dimension == 4 * 10**4

    @pytest.mark.parametrize("groups", [1, 2, 3, 6])
    def test_lumped_count_stays_below_the_stored_entries(self, groups):
        # dense 6 states, observed deterministically in `groups` groups, at
        # alpha = 3: each group is a maximal support, so the lumped build
        # enumerates groups^2 * C(6 / groups + 2, 3) * (6 / groups)^3 entries
        # where A stores groups^2 * (36 / groups^2)^3
        chain = random_chain(np.random.default_rng(6), 6)
        size = 6 // groups
        hmm = deterministic_observation(chain, {s: f"g{i // size}" for i, s in enumerate(chain.states)})
        supports = tensor._maximal_supports(hmm.emission > 0)
        lumped = groups**2 * math.comb(size + 2, 3) * size**3
        stored = groups**2 * (size * size) ** 3
        groups_masks = np.repeat(np.eye(groups, dtype=bool), size, axis=0).T
        assert sorted(supports.tolist()) == sorted(groups_masks.tolist())
        assert tensor._lumped_count(chain.transition, supports, 3) == lumped
        assert tensor._stored_entries(chain.transition, hmm.emission > 0, 3) == stored
        assert lumped <= stored

    def test_lumped_cheaper_under_dense_emissions(self):
        # a sparse P with a dense E has one maximal support, and the count
        # is h_alpha of P's row degrees
        rng = np.random.default_rng(3)
        p = random_chain(rng, 5, sparsity=0.5).transition
        emits = random_hmm(rng, 5, 3).emission > 0
        supports = tensor._maximal_supports(emits)
        assert supports.tolist() == [[True] * 5]
        for alpha in (2, 3, 4):
            count = tensor._lumped_count(p, supports, alpha)
            assert count == tensor._lumped_entries(np.count_nonzero(p, axis=1).tolist(), alpha)
            assert count <= tensor._stored_entries(p, emits, alpha)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_count_bounds_the_enumeration_and_stays_below_the_stored_entries(self, seed, alpha):
        # random patterns of P and E, every state emitting something: the
        # passes enumerate sum_S sum_M prod_j c_S(m_j) over the multisets M
        # inside some support, which the count bounds, and A stores more
        rng = np.random.default_rng(seed)
        nx, nz = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        p = rng.random((nx, nx)) < rng.uniform(0.1, 1.0)
        emits = rng.random((nx, nz)) < rng.uniform(0.1, 1.0)
        emits[np.arange(nx), rng.integers(0, nz, size=nx)] = True
        supports = tensor._maximal_supports(emits)
        sets = [set(np.flatnonzero(s).tolist()) for s in supports]
        assert len(set(map(frozenset, sets))) == len(sets)
        assert not any(a < b for a in sets for b in sets)
        assert all(any(set(np.flatnonzero(s)) <= t for t in sets) for s in emits.T)
        successors = p.astype(int) @ supports.T.astype(int)
        multisets = [
            m
            for m in itertools.combinations_with_replacement(range(nx), alpha)
            if any(set(m) <= t for t in sets)
        ]
        enumerated = sum(math.prod(successors[m, i].tolist()) for m in multisets for i in range(len(sets)))
        count = tensor._lumped_count(p, supports, alpha)
        assert enumerated <= count <= tensor._stored_entries(p, emits, alpha)

    @pytest.mark.parametrize("nx,alpha,sparsity", [(3, 2, 0.0), (5, 3, 0.5), (6, 4, 0.7), (4, 6, 0.3)])
    def test_count_is_the_enumeration(self, nx, alpha, sparsity):
        # h_alpha of P's row degrees counts the successors of every multiset
        p = sparse.csr_array(random_chain(np.random.default_rng(nx), nx, sparsity=sparsity).transition)
        p.eliminate_zeros()
        reps = np.array(list(itertools.combinations_with_replacement(range(nx), alpha)))
        rows, _, _ = tensor._successors(p, reps)
        assert tensor._lumped_entries(np.diff(p.indptr).tolist(), alpha) == rows.size


class TestSuccessors:
    @pytest.mark.parametrize(
        "nx,alpha,sparsity", [(4, 1, 0.3), (3, 2, 0.0), (5, 3, 0.6), (4, 4, 0.4), (3, 6, 0.5)]
    )
    def test_enumerates_the_tensor_power_in_order(self, nx, alpha, sparsity):
        # every successor tuple of every row, rows ascending and each row's
        # successors in lexicographic order, with the product of P's entries
        # taken left to right
        rng = np.random.default_rng(alpha)
        p = sparse.csr_array(random_chain(rng, nx, sparsity=sparsity).transition)
        p.eliminate_zeros()
        tuples = rng.integers(0, nx, size=(7, alpha))
        rows, successors, values = tensor._successors(p, tuples)
        columns = [p.indices[p.indptr[x] : p.indptr[x + 1]].tolist() for x in range(nx)]
        expected = [
            (r, s, math.prod((p[x, y] for x, y in zip(t, s)), start=1.0))
            for r, t in enumerate(tuples.tolist())
            for s in itertools.product(*(columns[x] for x in t))
        ]
        assert rows.tolist() == [r for r, _, _ in expected]
        assert successors.dtype == p.indices.dtype
        assert [tuple(s) for s in successors.tolist()] == [s for _, s, _ in expected]
        assert values.tolist() == [v for _, _, v in expected]


def _three_cycle_hmm():
    """A 3-cycle chain with one symbol: at alpha = 2, A has 3 components and K~ 2."""
    chain = validate_chain(np.roll(np.eye(3), 1, axis=1), np.full(3, 1.0 / 3.0))
    return validate_hmm(chain, np.ones((3, 1)))


def _sweep_model(rng: np.random.Generator, kind: str, alpha: int):
    nx = int(rng.integers(1, {2: 7, 3: 5, 4: 4}[alpha]))
    sparsity = float(rng.uniform(0.3, 0.8))
    if kind == "sparse":
        return random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=sparsity)
    if kind == "deterministic":
        chain = random_chain(rng, nx, sparsity=sparsity)
        return deterministic_observation(chain, {s: "abc"[int(rng.integers(0, 3))] for s in chain.states})
    if kind == "silent":  # a last symbol that no state emits
        hmm = random_hmm(rng, nx, int(rng.integers(1, 3)), sparsity=sparsity)
        return validate_hmm(hmm.chain, np.hstack([hmm.emission, np.zeros((nx, 1))]))
    if kind == "cycle":  # a random permutation, sometimes with a few chords
        p = np.eye(nx)[rng.permutation(nx)]
        if rng.random() < 0.5:
            p = 0.8 * p + 0.2 * random_chain(rng, nx, sparsity=0.8).transition
        chain = validate_chain(p, rng.dirichlet(np.ones(nx)))
        return validate_hmm(chain, random_hmm(rng, nx, 2, sparsity=0.5).emission)
    # underflow: P[0, 1] = 1e-170, so a product of two such entries is 0
    p = random_chain(rng, max(nx, 2), sparsity=sparsity).transition.copy()
    p[0, 0] += 1.0
    p[0, 1] = 1e-170
    p[0] /= p[0].sum()
    chain = validate_chain(p, rng.dirichlet(np.ones(p.shape[0])))
    return validate_hmm(chain, random_hmm(rng, p.shape[0], 2, sparsity=0.3).emission)


class TestIrreducibleSweep:
    """`tensor.irreducible` decides A's irreducibility on P's pattern, without A."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["sparse", "deterministic", "silent", "cycle", "underflow"]),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_decision_equals_tarjan_on_a(self, seed, kind, alpha):
        hmm = _sweep_model(np.random.default_rng(seed), kind, alpha)
        decision = tensor.irreducible(hmm, alpha)
        cs = collision_system(hmm, alpha)
        if decision is not None:
            assert decision == (strongly_connected_components(cs.matrix).n_components == 1)
        if kind == "underflow":
            assert decision is None  # a product of alpha entries of P can reach 0
        elif cs.tuple_matrix.dim >= 2:
            # a few levels settle these small systems, far inside the budget
            assert decision is not None

    def test_three_cycle_is_reducible_though_its_lumped_matrix_is_not(self):
        hmm = _three_cycle_hmm()
        cs = collision_system(hmm, 2)
        lumped = tensor.lumped_system(hmm, 2)
        assert strongly_connected_components(cs.matrix).n_components == 3
        assert strongly_connected_components(lumped.matrix).n_components == 2
        assert tensor.irreducible(hmm, 2) is False

    def test_one_tuple_is_undecided(self):
        chain = validate_chain([[1.0]], [1.0])
        assert tensor.irreducible(validate_hmm(chain, [[0.5, 0.5]]), 3) is None

    def test_refused_like_the_collision_build(self):
        hmm = random_hmm(np.random.default_rng(0), 10, 2)
        with pytest.raises(DimensionOverflow):
            tensor.irreducible(hmm, 4, max_dim=10**4)
        with pytest.raises(InvalidOrder):
            tensor.irreducible(hmm, 1.5)

    def test_long_diameter_gives_up_within_the_budget(self, monkeypatch):
        # a 40-state ring with self-loops and one symbol: at alpha = 2 each
        # sweep needs 39 levels of 2 units (2 * 40^3 multiply-adds), but both
        # together get 32 + (n + nnz) // 128 = 32 + (1600 + 6400) // 128 = 94
        # units, so the decision is left to the collision build
        m = 40
        p = 0.5 * np.eye(m) + 0.5 * np.roll(np.eye(m), 1, axis=1)
        hmm = validate_hmm(validate_chain(p, np.full(m, 1.0 / m)), np.ones((m, 1)))
        spent = []
        sweep = tensor._sweep

        def counted_sweep(step, n, levels, cost, *rest):
            return sweep(lambda frontier: spent.append(cost) or step(frontier), n, levels, cost, *rest)

        monkeypatch.setattr(tensor, "_sweep", counted_sweep)
        assert tensor.irreducible(hmm, 2) is None
        assert spent == [2] * 47
        assert strongly_connected_components(collision_system(hmm, 2).matrix).n_components == 1


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

import hashlib
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
    bsc_hmm,
    collision_system,
    deterministic_observation,
    entropy,
    entropy_rate,
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
from independent import joint_chain, kronecker_power, lumped_matrix


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
        # dense 16 states, 4 symbols, alpha = 3: A has 16384 nodes, but
        # would store 16 * 256^3 = 268M entries (3.2 GB as CSR)
        hmm = random_hmm(np.random.default_rng(0), 16, 4)
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


def test_dimension_where_underflow_depends_on_factor_order():
    # products of the three emissions of symbol "1" multiply left to right,
    # and a * b * c gives 5e-324 or 0 by the order of its factors: 12 of the
    # 27 candidates are nodes, and {1, 2, 3} keeps 2 of its 6 orderings
    a, b, c = 7.82766110014382e-164, 4.859096491986313e-161, 0.5053563706827833
    chain = validate_chain(np.full((3, 3), 1 / 3), np.full(3, 1 / 3))
    hmm = validate_hmm(chain, [[a, 1 - a], [b, 1 - b], [c, 1 - c]])
    nodes = tensor.collision_nodes(hmm, 3)
    first = [label.split("|")[0] for label in nodes.labels() if label.endswith("|1")]
    assert len(first) == 12
    assert [t for t in first if sorted(t.split(",")) == ["1", "2", "3"]] == ["1,2,3", "2,1,3"]
    assert nodes.dimension == 39
    assert tensor.lumped_system(hmm, 3).dimension == 39
    assert finite_length_entropy(hmm, 3, 5).dimension == 39
    assert entropy_rate(hmm, 3).dimension == 39


def test_nodes_rank_their_hidden_tuples_once(monkeypatch):
    # A's build reads one ranking of A's distinct hidden tuples, and the
    # labels, named from each symbol's candidates, read none
    hmm = load_model(FIXTURES / "fig2.model")
    nodes = tensor.collision_nodes(hmm, 3)
    ranked, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda x, **kw: ranked.append(x is nodes.hidden) or unique(x, **kw))
    a = collision_system(hmm, 3, nodes).matrix
    assert nodes.labels() == nodes.labels() == collision_system(hmm, 3).labels()
    assert ranked.count(True) == 1
    assert a.csr.data.tobytes() == collision_system(hmm, 3).matrix.csr.data.tobytes()


class TestLumpedBuildBudget:
    def test_refuses_before_allocating(self):
        # dense 12 states, 1 symbol, alpha = 5: A has 12^5 = 248832 nodes,
        # but the lumped build would enumerate C(16, 5) * 12^5 = 1.09e9
        # successor entries, tens of GB
        hmm = random_hmm(np.random.default_rng(0), 12, 1)
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
        lumped = tensor.lumped_system(hmm, 4)
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
        rows, _, _ = tensor._successors(p, reps.T)
        assert tensor._lumped_entries(np.diff(p.indptr).tolist(), alpha) == rows.size


def _refused_at_once(build, match):
    """build() raises DimensionOverflow matching `match` within 1 s, under a 1 MiB peak."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DimensionOverflow, match=match):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestListingBudgets:
    """Each listing a build makes is predicted in closed form and refused past the budget."""

    def test_node_listing(self):
        # fig2 at alpha = 39: symbol a lists 2^39 candidate tuples, about
        # 0.2 TiB with their labels; A's nodes are listed by both rate paths
        fig2 = load_model(FIXTURES / "fig2.model")
        assert tensor._candidates(fig2.emission > 0, 39) == 2**39 + 1
        match = f"collision nodes would list {2**39 + 1} tuples"
        _refused_at_once(lambda: tensor.collision_nodes(fig2, 39), match)

    def test_rank_past_intp(self):
        # 2 states, each its own symbol, at alpha = 63: A has 2 nodes, but
        # 2^63 hidden tuples cannot be ranked in int64
        hmm = validate_hmm(validate_chain(np.full((2, 2), 0.5), [0.5, 0.5]), np.eye(2))
        assert tensor._candidates(hmm.emission > 0, 63) == 2
        for build in (tensor.collision_nodes, entropy.entropy_rate):
            _refused_at_once(lambda: build(hmm, 63), "2\\^63 hidden tuples overflow")

    def test_node_bytes_grow_with_the_labels(self, monkeypatch):
        # one node, whose label repeats a 100-character state name 4 times
        name = "s" * 100
        hmm = deterministic_observation(validate_chain([[1.0]], [1.0], states=[name]), {name: "z"})
        predicted = 224 + 16 * 4 + 2 * (4 * 101 + 1)
        monkeypatch.setattr(tensor, "_BUILD_BYTES", predicted)
        assert tensor.collision_nodes(hmm, 4).labels() == (",".join([name] * 4) + "|z",)
        monkeypatch.setattr(tensor, "_BUILD_BYTES", predicted - 1)
        _refused_at_once(lambda: tensor.collision_nodes(hmm, 4), "collision nodes would list 1 tuples")

    def test_astral_names_are_charged_four_bytes_a_character(self, monkeypatch):
        # CPython stores a name with a code point above U+FFFF at 4 bytes a
        # character, so a budget between the 2- and 4-byte charges admits
        # ASCII names and refuses astral ones of the same length
        def model(letter):
            states = [letter * 29 + str(i) for i in range(3)]
            chain = validate_chain(np.full((3, 3), 1 / 3), np.full(3, 1 / 3), states=states)
            return deterministic_observation(chain, {s: letter * 30 for s in states})

        label = 2 * (30 + 1) + 30
        monkeypatch.setattr(tensor, "_BUILD_BYTES", 9 * (224 + 16 * 2 + 2 * label))
        assert 9 * (224 + 16 * 2 + 4 * label) > tensor._BUILD_BYTES
        assert len(tensor.collision_nodes(model("s"), 2).labels()) == 9
        astral = model("\U0001f600")
        assert len(astral.chain.states[0]) == len(astral.observations[0]) == 30
        _refused_at_once(lambda: tensor.collision_nodes(astral, 2), "collision nodes would list 9 tuples")

    def test_multiset_listing(self):
        # 60 states, each its own symbol, at alpha = 8: A has 60 nodes and
        # K~ 60 rows, but C(67, 8) = 6.7e9 multisets would be listed, each
        # with its 8 * 60 emissions
        chain = random_chain(np.random.default_rng(0), 60, sparsity=0.9)
        hmm = deterministic_observation(chain, {s: s for s in chain.states})
        match = f"lumped system would list {math.comb(67, 8)} multisets"
        _refused_at_once(lambda: finite_length_entropy(hmm, 8, 3), match)

    def test_node_recount(self):
        # state 0 emits "1" with probability 1e-200, so emission products
        # can underflow and A's nodes are recounted: 2 * 2^25 candidate
        # tuples at alpha = 25, though K~ has at most 26 rows
        chain = validate_chain([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        hmm = validate_hmm(chain, [[1 - 1e-200, 1e-200], [0.5, 0.5]])
        assert not tensor._underflow_free(25, hmm.emission)
        match = f"lumped system would count {2 * 2**25} tuples"
        _refused_at_once(lambda: finite_length_entropy(hmm, 25, 3), match)
        # every tuple emits "0"; "1" only from tuples holding state 0 at most once
        assert finite_length_entropy(hmm, 24, 3).dimension == 2**24 + 1 + 24

    def test_rate_refused_before_the_sweep(self, monkeypatch):
        # A's nodes (fig2 at alpha = 39), which both paths list, are checked
        # before `irreducible` runs; K~'s successor entries (dense 12 x 1 at
        # alpha = 5) only once the sweep has chosen K~'s path
        dense12 = random_hmm(np.random.default_rng(0), 12, 1)
        start = time.perf_counter()
        with pytest.raises(DimensionOverflow, match="lumped system would enumerate"):
            entropy.entropy_rate(dense12, 5)
        assert time.perf_counter() - start < 1.0

        def no_sweep(*args):
            raise AssertionError("swept a system that every path refuses")

        monkeypatch.setattr(entropy, "irreducible", no_sweep)
        fig2 = load_model(FIXTURES / "fig2.model")
        _refused_at_once(lambda: entropy.entropy_rate(fig2, 39), "collision nodes would list")

    def test_sweep_mask_is_built_symbol_by_symbol(self):
        # 64 symbols: one mask of X^5 a symbol would take 64 * 6^5 bytes,
        # more than the sweep's own bound of 32 bytes a tuple
        hmm = random_hmm(np.random.default_rng(0), 6, 64)
        tracemalloc.start()
        try:
            assert tensor.irreducible(hmm, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 6**5, f"peak {peak} bytes"

    def test_sweep_past_the_budget_is_undecided(self, monkeypatch):
        # the sweep's 32 bytes a tuple of X^alpha are priced before any array
        hmm = random_hmm(np.random.default_rng(0), 6, 2)
        monkeypatch.setattr(tensor, "_BUILD_BYTES", 32 * 6**5)
        assert tensor.irreducible(hmm, 5)
        monkeypatch.setattr(tensor, "_BUILD_BYTES", 32 * 6**5 - 1)
        assert tensor.irreducible(hmm, 5) is None


class TestSuccessors:
    @pytest.mark.parametrize(
        "nx,alpha,sparsity",
        [(4, 1, 0.3), (3, 2, 0.0), (5, 3, 0.6), (4, 4, 0.4), (3, 6, 0.5), (4, 8, None)],
    )
    def test_enumerates_the_tensor_power_in_order(self, nx, alpha, sparsity):
        # every successor tuple of every row, rows ascending and each row's
        # successors in lexicographic order, with the product of P's entries
        # taken left to right; places come as the rows of a transposed
        # (T, alpha) view, as `lumped_system` gives them, and as
        # np.unravel_index's tuple, as `collision_system` does
        rng = np.random.default_rng(alpha)
        if sparsity is None:  # two entries a row, x and x + 1: earlier places repeat the most
            x = np.arange(nx)
            cols = np.stack([x, (x + 1) % nx], axis=1).ravel()
            p = sparse.csr_array((rng.uniform(0.1, 1.0, 2 * nx), (np.repeat(x, 2), cols)), shape=(nx, nx))
            p.sort_indices()
        else:
            p = sparse.csr_array(random_chain(rng, nx, sparsity=sparsity).transition)
            p.eliminate_zeros()
        tuples = rng.integers(0, nx, size=(7, alpha))
        columns = [p.indices[p.indptr[x] : p.indptr[x + 1]].tolist() for x in range(nx)]
        expected = [
            (r, s, math.prod((p[x, y] for x, y in zip(t, s)), start=1.0))
            for r, t in enumerate(tuples.tolist())
            for s in itertools.product(*(columns[x] for x in t))
        ]
        shape = (nx,) * alpha
        for places in (tuples.T, np.unravel_index(np.ravel_multi_index(tuples.T, shape), shape)):
            rows, successors, values = tensor._successors(p, places)
            assert rows.tolist() == [r for r, _, _ in expected]
            assert len(successors) == alpha
            assert all(d.dtype == p.indices.dtype and d.size == rows.size for d in successors)
            assert list(zip(*(d.tolist() for d in successors))) == [s for _, s, _ in expected]
            assert values.tolist() == [v for _, _, v in expected]


class TestColumns:
    @pytest.mark.parametrize("seed", range(20))
    def test_gives_scipys_column_slice(self, seed):
        # the CSR arrays of P's columns of one emission support, as the
        # collision and lumped builds slice them
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(1, 12))
        p = sparse.csr_array(random_chain(rng, nx, sparsity=rng.uniform(0.0, 0.8)).transition)
        p.eliminate_zeros()
        states = np.flatnonzero(rng.random(nx) < rng.uniform(0.0, 1.0))
        got, expected = tensor._columns(p, states), p[:, states]
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


    @pytest.mark.parametrize("seed", range(10))
    def test_transition_rows_are_scipys_csr(self, seed):
        # the CSR arrays both builds read of P, taken from its non-zero
        # positions without a scipy constructor
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, int(rng.integers(1, 12)), sparsity=rng.uniform(0.0, 0.8))
        got = tensor._transition_rows(validate_hmm(chain, np.ones((len(chain.states), 1))))
        expected = sparse.csr_array(chain.transition)
        expected.eliminate_zeros()
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# sha256 (first 16 hex digits) of K~'s values, column indices and row
# bounds (as little-endian int64) and of u~, as lumped_system gave them
# before K~ was assembled straight from its rows
LUMPED_DIGESTS = {
    ("fig2", 2): "1c895f98d30a2978",
    ("fig2", 3): "584779d315742c57",
    ("fig2", 4): "bc43f15c845a1c6b",
    ("fig2", 5): "4c8ebc9a2afcaf93",
    ("fig2", 6): "8aa50e5e881633ad",
    ("fig2", 7): "0e7a3a148da7b1f8",
    ("fig2", 8): "c04389af5a0411ab",
    ("bsc", 2): "65ea456c1f84e498",
    ("bsc", 3): "581bea0c9c441061",
    ("bsc", 4): "a348841a273d9b7b",
    ("bsc", 5): "7988350ea6dc9d7e",
    ("bsc", 6): "29e160854cc99039",
    ("bsc", 7): "f35cd975dfc38f02",
    ("bsc", 8): "3844fa0b58f6941e",
}


def _assert_lumped_is_the_definition(monkeypatch, hmm, alpha, grids: int, enumerations: int):
    """lumped_system(hmm, alpha) equals `lumped_matrix` float for float, with
    `grids` supports built as one grid and `enumerations` by `_successors`."""
    calls = {"_grid_products": 0, "_successors": 0}
    for name in calls:
        inner = getattr(tensor, name)

        def counted(*args, inner=inner, name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(tensor, name, counted)
    lumped = tensor.lumped_system(hmm, alpha)
    monkeypatch.undo()
    assert calls == {"_grid_products": grids, "_successors": enumerations}
    k, u = lumped_matrix(hmm, alpha)
    got = lumped.matrix.csr
    assert got.shape == k.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(k, name)), name
    assert [x.hex() for x in lumped.initial.tolist()] == [x.hex() for x in u.tolist()]
    return lumped


class TestLumpedMatrix:
    @pytest.mark.parametrize("alpha", range(2, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_definition_float_for_float(self, monkeypatch, seed, alpha):
        # every state emits every symbol, so every multiset is a row; P's
        # zeros thin the successors, and duplicate orbit entries are summed
        # by scipy in the order the definition lists them
        rng = np.random.default_rng(100 * alpha + seed)
        nx = int(rng.integers(2, 7 if alpha <= 3 else 5))
        chain = random_chain(rng, nx, sparsity=float(rng.choice([0.0, 0.5])))
        hmm = validate_hmm(chain, rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=nx))
        full = int((chain.transition > 0).all())
        _assert_lumped_is_the_definition(monkeypatch, hmm, alpha, full, 1 - full)

    @pytest.mark.parametrize("alpha", range(2, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_full_rows_build_one_grid(self, monkeypatch, seed, alpha):
        # dense P and dense emissions: every multiset's successors are the
        # grid X^alpha, ranked once and tiled over the rows
        rng = np.random.default_rng(10 * alpha + seed)
        nx = int(rng.integers(2, 6 if alpha <= 3 else 4))
        hmm = random_hmm(rng, nx, int(rng.integers(1, 4)))
        assert (hmm.chain.transition > 0).all() and (hmm.emission > 0).all()
        _assert_lumped_is_the_definition(monkeypatch, hmm, alpha, 1, 0)

    @pytest.mark.parametrize("alpha", range(2, 6))
    @pytest.mark.parametrize("seed", range(3))
    def test_one_support_a_grid_and_one_not(self, monkeypatch, seed, alpha):
        # states 0-2 emit "a" and 2-4 "b": P's columns 0-2 are all positive,
        # so {0, 1, 2} builds as a grid; P[0, 4] = 0, so {2, 3, 4} is
        # enumerated row by row, and the two passes' rows are merged
        rng = np.random.default_rng(seed)
        p = rng.random((5, 5)) + 0.05
        p[0, 4] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        e = np.zeros((5, 2))
        e[:2, 0] = e[3:, 1] = 1.0
        e[2] = rng.dirichlet(np.ones(2))
        hmm = validate_hmm(validate_chain(p, rng.dirichlet(np.ones(5))), e)
        assert len(tensor._maximal_supports(e > 0)) == 2
        _assert_lumped_is_the_definition(monkeypatch, hmm, alpha, 1, 1)

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_grid_products_that_underflow_are_dropped(self, monkeypatch, alpha):
        # state 0 moves to states 1 and 2 with probability 1e-170, so its
        # products over two of them underflow to 0; K~ drops those entries
        p = np.array([[1 - 2e-170, 1e-170, 1e-170], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        hmm = validate_hmm(validate_chain(p, [0.2, 0.3, 0.5]), [[0.4, 0.6], [0.5, 0.5], [0.1, 0.9]])
        lumped = _assert_lumped_is_the_definition(monkeypatch, hmm, alpha, 1, 0)
        rows = math.comb(3 + alpha - 1, alpha)
        assert lumped.matrix.nnz < rows * rows

    def test_order_64_builds_one_grid(self, monkeypatch):
        # one state: the grid is one tuple of 64 places, never an array of 65 axes
        hmm = load_model(FIXTURES / "iid-uniform-2.model")
        lumped = _assert_lumped_is_the_definition(monkeypatch, hmm, 64, 1, 0)
        assert lumped.matrix.to_dense().tolist() == [[2.0**-63]]

    @pytest.mark.parametrize("name,alpha", sorted(LUMPED_DIGESTS))
    def test_fixtures_keep_their_floats(self, name, alpha):
        model = load_model(FIXTURES / f"{name}.model")
        hmm = bsc_hmm(model, 0.1) if name == "bsc" else model
        lumped = tensor.lumped_system(hmm, alpha)
        k = lumped.matrix.csr
        h = hashlib.sha256()
        for a in (k.data, k.indices.astype("<i8"), k.indptr.astype("<i8"), lumped.initial):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest()[:16] == LUMPED_DIGESTS[name, alpha]

    @pytest.mark.parametrize("alpha", range(2, 6))
    @pytest.mark.parametrize("seed", range(4))
    def test_dimension_in_closed_form_when_no_emission_product_underflows(
        self, monkeypatch, seed, alpha
    ):
        rng = np.random.default_rng(seed)
        hmm = random_hmm(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), sparsity=0.4)
        monkeypatch.setattr(tensor, "_emission_products", lambda *args: pytest.fail("recounted"))
        dimension = tensor.lumped_system(hmm, alpha).dimension
        monkeypatch.undo()
        assert dimension == tensor.collision_nodes(hmm, alpha).dimension

    def test_dimension_recounted_when_emission_products_can_underflow(self):
        # 2 log2(1e-200) is below -1000: the products are formed, and the
        # candidate (0, 0|"1"), whose product is 1e-400, is no node
        chain = random_chain(np.random.default_rng(0), 3)
        hmm = validate_hmm(chain, [[1 - 1e-200, 1e-200], [0.5, 0.5], [0.3, 0.7]])
        dimension = tensor.lumped_system(hmm, 2).dimension
        assert dimension == tensor.collision_nodes(hmm, 2).dimension == 2 * 3**2 - 1

    @pytest.mark.parametrize("sparsity", [0.0, 0.6])
    def test_index_arrays_are_int32(self, sparsity):
        # as collision_system and NonnegMatrix.from_dense give them
        rng = np.random.default_rng(3)
        hmm = random_hmm(rng, 6, 3, sparsity=sparsity)
        for matrix in (
            tensor.lumped_system(hmm, 3).matrix,
            collision_system(hmm, 3).matrix,
            NonnegMatrix.from_dense(hmm.chain.transition),
        ):
            assert matrix.csr.indices.dtype == matrix.csr.indptr.dtype == np.int32


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
        elif np.unique(cs.nodes.hidden).size >= 2:
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

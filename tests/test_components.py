import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from renyirates import (
    MarkovChain,
    NonnegMatrix,
    collision_system,
    entropy,
    growth_rate,
    reachable_components,
    spectral,
    strongly_connected_components,
    tensor,
    validate_chain,
)
from renyirates.errors import DimensionMismatch
from renyirates.modelfile import load_model
from renyirates.random_models import (
    random_chain,
    random_hmm,
    random_nonneg_matrix,
    random_nonneg_vector,
)
from renyirates.spectral import GrowthAnalysis

from conftest import FIXTURES, RESTRICTED_EXAMPLE
from independent import submatrix

# canonical index order of the example system: 11, 13, 31, 33, 22
A_EXAMPLE = NonnegMatrix.from_dense(RESTRICTED_EXAMPLE)


def successors(a: NonnegMatrix) -> list[list[int]]:
    """Associated graph read off the stored CSR pattern, in column order."""
    indptr, indices = a.csr.indptr, a.csr.indices
    return [indices[indptr[i] : indptr[i + 1]].tolist() for i in range(a.dim)]


class TestAssociatedGraph:
    # the stored CSR pattern of a NonnegMatrix is its associated graph
    def test_example_edges(self):
        adj = successors(A_EXAMPLE)
        assert adj[0] == [0, 4]  # (1,1) has a self-loop and feeds (2,2)
        assert adj[4] == [3, 4]

    def test_zero_matrix_is_edgeless(self):
        adj = successors(NonnegMatrix.from_dense(np.zeros((3, 3))))
        assert adj == [[], [], []]

    @pytest.mark.parametrize("seed", range(5))
    def test_edges_equal_stored_positions(self, seed):
        rng = np.random.default_rng(seed)
        a = random_nonneg_matrix(rng, 6, zero_prob=0.6)
        adj = successors(NonnegMatrix.from_dense(a))
        edges = {(i, j) for i in range(6) for j in adj[i]}
        assert edges == {(i, j) for i in range(6) for j in range(6) if a[i, j] > 0}


class TestStronglyConnectedComponents:
    def test_example_decomposition(self):
        # The printed matrix has four irreducible blocks: the tuples (1,3)
        # and (3,1) do not communicate because P[1,3] = 0.
        decomp = strongly_connected_components(A_EXAMPLE)
        comps = {frozenset(c) for c in decomp.components}
        assert comps == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3, 4}),
        }

    def test_partition_and_topological_order(self):
        decomp = strongly_connected_components(A_EXAMPLE)
        seen = sorted(i for c in decomp.components for i in c)
        assert seen == list(range(5))
        for a, b in decomp.dag_edges:
            assert a < b

    def test_complete_positive_matrix_single_component(self):
        decomp = strongly_connected_components(NonnegMatrix.from_dense(np.ones((4, 4))))
        assert decomp.n_components == 1

    def test_upper_triangular_gives_singletons(self):
        a = np.triu(np.ones((4, 4)), k=1)
        decomp = strongly_connected_components(NonnegMatrix.from_dense(a))
        assert decomp.components == ((0,), (1,), (2,), (3,))

    @pytest.mark.parametrize("seed", range(5))
    def test_condensation_is_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        a = random_nonneg_matrix(rng, 6, zero_prob=0.5)
        decomp = strongly_connected_components(NonnegMatrix.from_dense(a))
        k = decomp.n_components
        cond = np.zeros((k, k))
        for x, y in decomp.dag_edges:
            cond[x, y] = 1.0
        again = strongly_connected_components(NonnegMatrix.from_dense(cond))
        assert all(len(c) == 1 for c in again.components)


def _random_graphs():
    """Random reducible matrices and collision systems, as NonnegMatrix."""
    rng = np.random.default_rng(2024)
    mats = []
    for _ in range(40):
        n = int(rng.integers(1, 41))
        a = random_nonneg_matrix(rng, n, zero_prob=float(rng.uniform(0.6, 0.97)))
        mats.append(NonnegMatrix.from_dense(a))
    for alpha in (2, 3):
        hmm = random_hmm(rng, 4, 2, sparsity=0.4)
        mats.append(collision_system(hmm, alpha).matrix)
    return mats


RANDOM_GRAPHS = _random_graphs()


class TestSccAgainstReference:
    @pytest.mark.parametrize("a", RANDOM_GRAPHS)
    def test_partition_matches_csgraph(self, a):
        decomp = strongly_connected_components(a)
        n_ref, labels = csgraph.connected_components(a.csr, connection="strong")
        assert decomp.n_components == n_ref
        ours = {frozenset(c) for c in decomp.components}
        ref = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(n_ref)}
        assert ours == ref
        for cid, comp in enumerate(decomp.components):
            assert list(comp) == sorted(comp)
            assert all(decomp.component_of[i] == cid for i in comp)

    @pytest.mark.parametrize("a", RANDOM_GRAPHS)
    def test_dag_edges_recomputed_by_hand(self, a):
        decomp = strongly_connected_components(a)
        dense = a.to_dense()
        cof = decomp.component_of
        expected = {
            (cof[i], cof[j])
            for i in range(a.dim)
            for j in range(a.dim)
            if dense[i, j] > 0 and cof[i] != cof[j]
        }
        assert decomp.dag_edges == expected
        assert all(x < y for x, y in decomp.dag_edges)  # topological order
        assert all(type(x) is int for edge in decomp.dag_edges for x in edge)

    def test_fig2_order_pinned(self):
        cs = collision_system(load_model(FIXTURES / "fig2.model"), 2)
        decomp = strongly_connected_components(cs.matrix)
        assert decomp.components == ((2,), (1,), (0,), (3, 4))

    def test_random_order_pinned(self):
        # A DFS over the condensation, roots and successors by smallest
        # member, would give ((0, 7), (3, 4, 5, 6), (2,), (1,)) here;
        # the Tarjan order over CSR rows is part of the report contract.
        pattern = np.array(
            [
                [0, 0, 0, 1, 1, 0, 0, 1],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 1, 0],
                [0, 0, 1, 0, 0, 1, 0, 0],
                [0, 0, 0, 1, 1, 0, 0, 0],
                [0, 1, 0, 0, 1, 0, 0, 0],
                [1, 0, 0, 0, 1, 0, 0, 0],
            ],
            dtype=float,
        )
        decomp = strongly_connected_components(NonnegMatrix.from_dense(pattern))
        assert decomp.components == ((0, 7), (3, 4, 5, 6), (1,), (2,))
        assert decomp.dag_edges == {(0, 1), (1, 2), (1, 3)}

    def test_empty_matrix(self):
        decomp = strongly_connected_components(NonnegMatrix(sparse.csr_array((0, 0))))
        assert decomp.components == ()
        assert decomp.component_of == ()
        assert decomp.dag_edges == frozenset()


def _assert_same_analysis(ga: GrowthAnalysis, expected: GrowthAnalysis) -> None:
    """Equal decompositions and reachable sets, and radii equal float for float."""
    assert ga.decomposition == expected.decomposition
    assert ga.reachable == expected.reachable
    assert ga.dominant_component == expected.dominant_component
    hexes = [r.hex() for r in (*ga.component_radii, ga.rho_plus)]
    assert hexes == [r.hex() for r in (*expected.component_radii, expected.rho_plus)]


def _ring_chain(m: int) -> MarkovChain:
    """m-state ring moving either way or staying, each with probability 1/3:
    one component of diameter m // 2, whose Perron vector is uniform."""
    p, i = np.zeros((m, m)), np.arange(m)
    p[i, i] = p[i, (i + 1) % m] = p[i, (i - 1) % m] = 1 / 3
    return validate_chain(p, np.full(m, 1.0 / m))


def _random_chain(rng: np.random.Generator, kind: str) -> MarkovChain:
    """A random chain of 1-120 states whose pattern is drawn by kind."""
    n = int(rng.integers(1, 121))
    zero_prob = 0.0 if kind == "dense" else float(rng.uniform(0.3, 0.99))
    p = random_nonneg_matrix(rng, n, zero_prob=zero_prob)
    if kind in ("cycle", "source", "subnormal"):  # a Hamiltonian cycle makes it irreducible
        p[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    if kind == "source":  # state 0 reaches every state, none reaches it
        p[0] += 0.5
        p[:, 0] = 0.0
    empty = np.flatnonzero(p.sum(axis=1) == 0)
    p[empty, empty] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    if kind == "subnormal":  # positive entries far below the rounding of a row sum
        tiny = (rng.random((n, n)) < 0.2) & (p == 0)
        p[tiny] = rng.integers(1, 2**30, size=np.count_nonzero(tiny)) * 5e-324
    pi = random_nonneg_vector(rng, n, zero_prob=0.5)
    pi[rng.integers(n)] += 1.0
    return validate_chain(p, pi / pi.sum())


class TestIrreducibleShortcut:
    """A chain's rate asks `tensor.irreducible`, on P's pattern, whether
    P^(o alpha) is one component: one that is goes to `irreducible_growth`
    as the dense array it is, and the rest to Tarjan's pass in `growth_rate`."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["dense", "sparse", "cycle", "source", "subnormal"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_decomposition_equals_tarjan(self, seed, kind):
        rng = np.random.default_rng(seed)
        chain = _random_chain(rng, kind)
        # an order below 1 keeps subnormal entries positive
        alpha = float(rng.uniform(0.2, 0.9)) if kind == "subnormal" else float(rng.uniform(1.1, 3))
        _, a, u = entropy._hadamard_system(chain, alpha)
        expected = growth_rate(NonnegMatrix.from_dense(a), u)
        decision = tensor.irreducible(chain, alpha)
        if decision is not None:
            assert decision == (expected.decomposition.n_components == 1)
        _, ga, _, system = entropy._growth(chain, alpha)
        assert isinstance(system, np.ndarray) == bool(decision)
        _assert_same_analysis(ga, expected)

    @pytest.mark.parametrize("loop", [0.0, 0.7])
    def test_single_node(self, loop):
        a = NonnegMatrix.from_dense([[loop]])
        _assert_same_analysis(growth_rate(a, [1.0]), spectral.irreducible_growth([1.0], a))
        assert strongly_connected_components(a).components == ((0,),)
        assert tensor.irreducible(validate_chain([[1.0]], [1.0]), 2) is None

    @pytest.mark.parametrize("m", [255, 3301])
    def test_long_ring_falls_back_within_the_level_bound(self, monkeypatch, m):
        # a ring needs about m // 2 levels a sweep; both sweeps together get
        # (n + nnz) // 128 units, at 1 + m^2 // 2^16 a level: 7 levels of 1
        # unit at m = 255, and no level at m = 3301 (103 units, 167 a level)
        # before Tarjan's pass takes over
        chain = _ring_chain(m)
        budget, cost = (m + 3 * m) // 128, 1 + m * m // 2**16
        spent, passes = [], []
        sweep, tarjan = tensor._sweep, spectral.strongly_connected_components

        def counted_sweep(step, n, levels, cost, *rest):
            return sweep(lambda frontier: spent.append(cost) or step(frontier), n, levels, cost, *rest)

        monkeypatch.setattr(tensor, "_sweep", counted_sweep)
        monkeypatch.setattr(
            spectral, "strongly_connected_components", lambda a: passes.append(1) or tarjan(a)
        )
        assert tensor.irreducible(chain, 2) is None
        assert budget - cost < sum(spent) <= budget
        _, ga, _, system = entropy._growth(chain, 2)
        assert isinstance(system, NonnegMatrix)
        assert passes == [1]
        assert ga.decomposition.components == (tuple(range(m)),)

    def test_dense_irreducible_chain_builds_no_csr(self, monkeypatch):
        # 2000 dense states: P^(o 2) holds 32 MB; wrapping it in CSR and
        # running Tarjan's pass on it had peaked at 137 MiB
        chain = random_chain(np.random.default_rng(1), 2000)
        _, a, u = entropy._hadamard_system(chain, 2)
        expected = growth_rate(NonnegMatrix.from_dense(a), u)
        del a

        def refused(*args):
            raise AssertionError("built A's CSR form or ran Tarjan's pass")

        monkeypatch.setattr(NonnegMatrix, "from_dense", refused)
        monkeypatch.setattr(spectral, "strongly_connected_components", refused)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            report = entropy.markov_rate(chain, 2)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert report.rho_plus.hex() == expected.rho_plus.hex()
        assert report.component_radii == expected.component_radii
        assert peak <= 2.5 * 8 * 2000**2, f"peak {peak / 2**20:.1f} MiB"


class TestReachability:
    def test_example_full_support_reaches_all(self, example_hmm):
        cs = collision_system(example_hmm, 2)
        decomp = strongly_connected_components(cs.matrix)
        reach = reachable_components(decomp, cs.initial)
        assert reach == frozenset(range(decomp.n_components))

    @pytest.mark.parametrize("length", [4, 6])
    def test_weights_of_another_length_rejected(self, length):
        decomp = strongly_connected_components(A_EXAMPLE)
        with pytest.raises(DimensionMismatch, match="does not match decomposition"):
            reachable_components(decomp, np.ones(length))

    @pytest.mark.parametrize(
        "u", [np.ones((5, 1)), np.ones((1, 5)), 1.0], ids=["column", "row", "scalar"]
    )
    def test_weights_of_another_shape_rejected(self, u):
        decomp = strongly_connected_components(A_EXAMPLE)
        with pytest.raises(DimensionMismatch, match="weight vector of shape"):
            reachable_components(decomp, u)

    def test_zero_vector_reaches_nothing(self):
        decomp = strongly_connected_components(A_EXAMPLE)
        assert reachable_components(decomp, np.zeros(5)) == frozenset()

    def test_mass_on_22_excludes_component_11(self):
        decomp = strongly_connected_components(A_EXAMPLE)
        u = np.zeros(5)
        u[4] = 1.0  # all weight on tuple (2,2)
        reach = reachable_components(decomp, u)
        members = {i for c in reach for i in decomp.components[c]}
        assert members == {3, 4}  # the mixing pair only; (1,1) unreachable

    @pytest.mark.parametrize("seed", range(8))
    def test_truncated_series_characterization(self, seed):
        # i is in a reachable component iff u^T (sum_{k<=m} A^k) e_i > 0;
        # truncation at m suffices because paths never need more steps
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        a = random_nonneg_matrix(rng, m, zero_prob=0.5)
        u = random_nonneg_vector(rng, m)
        decomp = strongly_connected_components(NonnegMatrix.from_dense(a))
        reach = reachable_components(decomp, u)
        walk = u @ np.linalg.matrix_power(np.eye(m) + (a > 0).astype(float), m)
        for i in range(m):
            assert (walk[i] > 0) == (decomp.component_of[i] in reach)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_support(self, seed):
        rng = np.random.default_rng(seed)
        m = 6
        a = random_nonneg_matrix(rng, m, zero_prob=0.5)
        decomp = strongly_connected_components(NonnegMatrix.from_dense(a))
        u = random_nonneg_vector(rng, m, zero_prob=0.5)
        v = u + random_nonneg_vector(rng, m, zero_prob=0.5)
        assert reachable_components(decomp, u) <= reachable_components(decomp, v)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_same_set_as_a_walk_from_each_weighted_node(self, seed, m, zero_prob):
        # the seed set gathered in numpy equals the components of the
        # weighted nodes looked up one by one, and the walk from it the
        # walk over the condensation edges; u is all zero for zero_prob 1
        rng = np.random.default_rng(seed)
        a = random_nonneg_matrix(rng, m, zero_prob=float(rng.uniform(0.5, 0.95)))
        decomp = strongly_connected_components(NonnegMatrix.from_dense(a))
        u = random_nonneg_vector(rng, m, zero_prob=zero_prob)
        seen = {decomp.component_of[i] for i in range(m) if u[i] > 0}
        grew = True
        while grew:
            grew = False
            for c, d in decomp.dag_edges:
                if c in seen and d not in seen:
                    seen.add(d)
                    grew = True
        reach = reachable_components(decomp, u)
        assert reach == frozenset(seen)
        assert all(type(c) is int for c in reach)
        assert reachable_components(decomp, np.zeros(m)) == frozenset()


class TestComponentSubmatrix:
    # a component's block is the principal submatrix on its sorted members
    def test_example_mixing_pair(self):
        sub = submatrix(A_EXAMPLE, [3, 4])
        assert np.allclose(sub.to_dense(), [[0.16, 0.36], [0.36, 0.16]], atol=0)

    def test_all_nodes_is_identity_operation(self):
        sub = submatrix(A_EXAMPLE, range(5))
        assert np.array_equal(sub.to_dense(), A_EXAMPLE.to_dense())

    def test_singleton(self):
        rng = np.random.default_rng(9)
        a = NonnegMatrix.from_dense(rng.random((4, 4)))
        sub = submatrix(a, [2])
        assert np.allclose(sub.to_dense(), [[a.to_dense()[2, 2]]], atol=1e-15)

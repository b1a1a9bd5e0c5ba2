"""Property-based checks over randomly drawn models and matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyirates import (
    NonnegMatrix,
    collision_system,
    deterministic_observation,
    growth_rate,
    hadamard_power,
    kronecker_power,
    reachable_components,
    strongly_connected_components,
)
from renyirates.random_models import (
    random_chain,
    random_hmm,
    random_nonneg_matrix,
    random_nonneg_vector,
)

from independent import joint_chain

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_joint_chain_is_row_stochastic(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(
        rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)),
        sparsity=float(rng.uniform(0, 0.5)),
    )
    jc = joint_chain(hmm)
    assert np.allclose(jc.matrix.sum(axis=1), 1.0, atol=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_joint_chain_rows_independent_of_observed_symbol(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(rng, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
    jc = joint_chain(hmm)
    nz = hmm.n_symbols
    for x in range(hmm.n_states):
        rows = jc.matrix[x * nz : (x + 1) * nz]
        assert np.array_equal(rows, np.tile(rows[0], (nz, 1)))


@given(seeds, st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_collision_system_equals_restricted_full_tensor(seed, alpha):
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(1, 3))
    nz = int(rng.integers(1, 5 - nx))
    noisy = random_hmm(rng, nx, nz)
    # a noiseless measurement Z = T(X) under a random map T
    chain = random_chain(rng, int(rng.integers(1, 4)))
    T = {s: "ab"[int(rng.integers(0, 2))] for s in chain.states}
    for hmm in (noisy, deterministic_observation(chain, T)):
        cs = collision_system(hmm, alpha)
        jc = joint_chain(hmm)
        full = NonnegMatrix.from_dense(jc.matrix)
        power = kronecker_power(full, alpha).to_dense()
        pairs = jc.pairs
        # pairs (x, z) with E[x, z] = 0 never carry mass and are not indexed
        emits = hmm.emission.reshape(-1) > 0
        flat = [
            tup
            for tup in np.ndindex(*(len(pairs),) * alpha)
            if len({pairs[i][1] for i in tup}) == 1 and all(emits[i] for i in tup)
        ]
        flat.sort(key=lambda tup: (pairs[tup[0]][1],) + tuple(pairs[i][0] for i in tup))
        radix = len(pairs) ** np.arange(alpha - 1, -1, -1)
        sel = [int(np.dot(tup, radix)) for tup in flat]
        assert np.allclose(cs.matrix.to_dense(), power[np.ix_(sel, sel)], atol=1e-14)
        nu = np.array([math.prod(jc.initial[i] for i in tup) for tup in flat])
        assert np.allclose(cs.initial, nu, atol=1e-15)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_collision_rows_substochastic(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    cs = collision_system(hmm, 2)
    assert (cs.matrix.csr.sum(axis=1) <= 1.0 + 1e-12).all()


@given(seeds, st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_hadamard_power_matches_scalar_powering(seed, alpha):
    rng = np.random.default_rng(seed)
    a = random_nonneg_matrix(rng, 4, zero_prob=0.4)
    h = hadamard_power(NonnegMatrix.from_dense(a), alpha).to_dense()
    for i in range(4):
        for j in range(4):
            expected = a[i, j] ** alpha if a[i, j] > 0 else 0.0
            assert h[i, j] == pytest.approx(expected, rel=1e-14)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_kronecker_row_sums(seed):
    rng = np.random.default_rng(seed)
    a = random_nonneg_matrix(rng, 3, zero_prob=0.3)
    k = kronecker_power(NonnegMatrix.from_dense(a), 2)
    rs = a.sum(axis=1)
    assert np.allclose(k.csr.sum(axis=1), np.kron(rs, rs), rtol=1e-12)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_reachability_monotone_in_support(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    a = NonnegMatrix.from_dense(random_nonneg_matrix(rng, m, zero_prob=0.5))
    decomp = strongly_connected_components(a)
    u = random_nonneg_vector(rng, m, zero_prob=0.6)
    v = u + random_nonneg_vector(rng, m, zero_prob=0.6)
    assert reachable_components(decomp, u) <= reachable_components(decomp, v)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_growth_rate_depends_only_on_weight_support(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    a = NonnegMatrix.from_dense(random_nonneg_matrix(rng, m, zero_prob=0.5))
    u = random_nonneg_vector(rng, m)
    scaled = u * float(rng.uniform(0.1, 10.0))
    assert growth_rate(a, u).rho_plus == growth_rate(a, scaled).rho_plus

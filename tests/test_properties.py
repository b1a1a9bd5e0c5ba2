"""Property-based checks over randomly drawn models and matrices."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import renyirates.cli
import renyirates.entropy
from renyirates import (
    MarkovChain,
    NonnegMatrix,
    collision_system,
    deterministic_observation,
    entropy_rate,
    finite_length_entropy,
    growth_rate,
    load_model,
    log_weighted_power_sum,
    parse_model,
    reachable_components,
    serialize_model,
    strongly_connected_components,
    tensor,
    validate_hmm,
)
from renyirates.errors import DimensionOverflow
from renyirates.random_models import (
    random_chain,
    random_hmm,
    random_nonneg_matrix,
    random_nonneg_vector,
)

from independent import joint_chain, kronecker_power, restricted_kronecker_power

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


@given(seeds, st.sampled_from([2, 3, 4]), st.sampled_from(["noisy", "noiseless", "silent symbol"]))
@settings(max_examples=60, deadline=None)
def test_collision_system_is_the_restricted_kronecker_power_bit_for_bit(seed, alpha, kind):
    """The direct build gives P^(tensor alpha)'s floats, restricted and column-scaled."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(1, 6 if alpha < 4 else 5))
    sparsity = float(rng.uniform(0, 0.8))
    if kind == "noiseless":
        chain = random_chain(rng, nx, sparsity=sparsity)
        hmm = deterministic_observation(chain, {s: "abc"[int(rng.integers(0, 3))] for s in chain.states})
    else:
        hmm = random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=sparsity)
    if kind == "silent symbol":
        emission = np.insert(hmm.emission, int(rng.integers(0, hmm.n_symbols + 1)), 0.0, axis=1)
        hmm = validate_hmm(hmm.chain, emission)
    cs = collision_system(hmm, alpha)
    matrix, nu, hidden, labels = restricted_kronecker_power(hmm, alpha)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(cs.matrix.csr, name), getattr(matrix.csr, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert cs.initial.tobytes() == nu.tobytes()
    assert cs.nodes.hidden.tobytes() == hidden.tobytes()
    assert cs.labels() == labels
    # the closed-form count the byte budget is checked on
    p = sparse.csr_array(hmm.chain.transition)
    p.eliminate_zeros()
    assert tensor._stored_entries(p, hmm.emission > 0, alpha) == cs.matrix.nnz


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
    chain = MarkovChain(("1", "2", "3", "4"), a, np.full(4, 0.25))
    with pytest.MonkeyPatch.context() as mp:  # the range includes order 1, which rates refuse
        mp.setattr(renyirates.entropy, "_chain_order", float)
        h = renyirates.entropy._hadamard_system(chain, alpha)[1]
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


def _rate_and_components_radii(hmm, alpha):
    """Radii of `entropy_rate` and of `renyirates components` on one model file.

    The components radii are caught on their way to JSON; both sides read
    the file, whose rows are renormalised on loading.
    """
    seen = []
    inner = renyirates.entropy._growth

    def spy(*args, **kwargs):
        seen.append(inner(*args, **kwargs))
        return seen[-1]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(serialize_model(hmm)))
        renyirates.entropy._growth = spy
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert renyirates.cli.main(["components", str(path), "--order", str(alpha)]) == 0
        finally:
            renyirates.entropy._growth = inner
        rate = entropy_rate(load_model(path), alpha)
    ((_, analysis, _, _),) = seen
    return rate.component_radii, analysis.component_radii


@given(seeds, st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_symbol_summed_matrix_matches_collision_system(seed, alpha):
    """Finite lengths and radii computed on K agree with A, the matrix they stand for."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(1, 6))
    if rng.random() < 0.3:
        chain = random_chain(rng, nx, sparsity=float(rng.uniform(0, 0.5)))
        hmm = deterministic_observation(chain, {s: "abc"[int(rng.integers(0, 3))] for s in chain.states})
    else:
        hmm = random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=float(rng.uniform(0, 0.5)))
    cs = collision_system(hmm, alpha)
    a = cs.matrix.to_dense()

    for n in (1, 2, 5, 40):
        rep = finite_length_entropy(hmm, alpha, n)
        expected = log_weighted_power_sum(cs.matrix, cs.initial, n - 1) / math.log(2.0)
        assert rep.log2_collision == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert rep.dimension == cs.dimension

    rep = entropy_rate(hmm, alpha)
    decomp = strongly_connected_components(cs.matrix)
    assert len(rep.component_radii) == decomp.n_components
    for comp, radius in zip(decomp.components, rep.component_radii):
        block = a[np.ix_(comp, comp)]
        assert radius == pytest.approx(np.abs(np.linalg.eigvals(block)).max(), abs=1e-9)
    rate_radii, components_radii = _rate_and_components_radii(hmm, alpha)
    assert rate_radii == components_radii


def _predictions(build):
    """build()'s result and its byte predictions: (what, count, bytes) for each check."""
    seen = []
    check = tensor._check_build_bytes

    def record(what, count, bytes_each):
        seen.append((what, count, count * bytes_each))
        check(what, count, bytes_each)

    with patch.object(tensor, "_check_build_bytes", record):
        return build(), seen


def _refused(build) -> bool:
    try:
        build()
    except DimensionOverflow:
        return True
    return False


@given(seeds, st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_builds_are_refused_exactly_past_their_predicted_bytes(seed, alpha):
    """A build runs at a budget of its largest prediction and is refused one byte below.

    The counts predicted are those the built systems show: A's stored
    entries and nodes (no product underflows at these orders) and K~'s
    multisets, with K~'s successor entries at most A's; K~ counts A's
    nodes in closed form, so its recount is not charged.
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(1, 6))
    hmm = random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=float(rng.uniform(0, 0.5)))
    collision = lambda: collision_system(hmm, alpha)
    finite = lambda: finite_length_entropy(hmm, alpha, 3)
    cs, seen = _predictions(collision)
    assert {what: count for what, count, _ in seen} == {
        "collision system would store {} entries": cs.matrix.nnz,
        "collision nodes would list {} tuples": cs.dimension,
    }
    rep, lumped_seen = _predictions(finite)
    counts = {what: count for what, count, _ in lumped_seen}
    assert counts.pop("lumped system would enumerate {} entries") <= cs.matrix.nnz
    assert counts == {"lumped system would list {} multisets": math.comb(nx + alpha - 1, alpha)}
    assert rep.dimension == cs.dimension
    for build, predictions in ((collision, seen), (finite, lumped_seen)):
        predicted = max(size for _, _, size in predictions)
        for budget in (predicted - 1, predicted):
            with patch.object(tensor, "_BUILD_BYTES", budget):
                assert _refused(build) == (budget < predicted)


@given(seeds, st.sampled_from([2, 3, 4]))
@settings(max_examples=40, deadline=None)
def test_lumped_matrix_matches_collision_system(seed, alpha):
    """Finite lengths on the multiset-lumped matrix agree with A at up to C(nx+alpha-1, alpha) rows."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(1, 6 if alpha < 4 else 5))
    if rng.random() < 0.3:
        chain = random_chain(rng, nx, sparsity=float(rng.uniform(0, 0.5)))
        hmm = deterministic_observation(chain, {s: "abc"[int(rng.integers(0, 3))] for s in chain.states})
    else:
        hmm = random_hmm(rng, nx, int(rng.integers(1, 4)), sparsity=float(rng.uniform(0, 0.5)))
    cs = collision_system(hmm, alpha)
    seen = []
    inner = renyirates.entropy.log_weighted_power_sum

    def spy(a, u, n):
        seen.append(a.dim)
        return inner(a, u, n)

    renyirates.entropy.log_weighted_power_sum = spy
    try:
        for n in (1, 2, 5, 40):
            rep = finite_length_entropy(hmm, alpha, n)
            expected = log_weighted_power_sum(cs.matrix, cs.initial, n - 1) / math.log(2.0)
            assert rep.log2_collision == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert rep.dimension == cs.dimension
    finally:
        renyirates.entropy.log_weighted_power_sum = inner
    assert len(seen) == 4
    assert seen[0] <= math.comb(nx + alpha - 1, alpha)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_model_file_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    hmm = random_hmm(
        rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)), sparsity=float(rng.uniform(0, 0.5))
    )
    back = parse_model(json.loads(json.dumps(serialize_model(hmm))))
    assert back.chain.states == hmm.chain.states and back.observations == hmm.observations
    for got, want in [
        (back.chain.transition, hmm.chain.transition),
        (back.chain.initial, hmm.chain.initial),
        (back.emission, hmm.emission),
    ]:
        assert got.tobytes() == want.tobytes()

"""NonnegMatrix's one CSR form: sorted columns, no repeated entry, no stored zero."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from renyirates import (
    NonnegMatrix,
    bsc_hmm,
    characteristic_polynomial,
    collision_system,
    growth_rate,
    log_weighted_power_sum,
    spectral,
    spectral_radius_irreducible,
    strongly_connected_components,
    tensor,
)
from renyirates.errors import DimensionMismatch
from renyirates.modelfile import load_model

from conftest import FIXTURES

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _csr(d, rows, cols, values, rng=None):
    """A d x d csr_array holding the entries (rows, cols, values) as given.

    Rows ascend; within a row the entries keep their sorted column order,
    or are shuffled when rng is given.  Indices are int32, as
    `NonnegMatrix.from_dense` stores them.
    """
    order = np.lexsort((cols, rows)) if rng is None else rng.permutation(rows.size)
    order = order[np.argsort(rows[order], kind="stable")]
    indptr = np.searchsorted(rows[order], np.arange(d + 1)).astype(np.int32)
    return sparse.csr_array((values[order], cols[order].astype(np.int32), indptr), shape=(d, d))


def _stored_forms(a, rng):
    """a stored three ways no stage may tell apart: with stored +0.0 and -0.0,
    with each row's columns shuffled, and with each entry split into x/2 + x/2."""
    d = len(a)
    rows, cols = np.nonzero(a)
    values = a[rows, cols]
    zr, zc = np.nonzero(a == 0)
    pick = rng.random(zr.size) < 0.5
    zeros = np.where(rng.random(pick.sum()) < 0.5, 0.0, -0.0)
    return {
        "zeros": _csr(d, np.r_[rows, zr[pick]], np.r_[cols, zc[pick]], np.r_[values, zeros]),
        "shuffled": _csr(d, rows, cols, values, rng),
        "halves": _csr(d, np.r_[rows, rows], np.r_[cols, cols], np.r_[values, values] / 2, rng),
    }


def _outcome(f, *args):
    """The repr of f(*args), or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except Exception as exc:  # every stored form must fail alike
        return f"{type(exc).__name__}: {exc}"


def _radius_hex(a):
    return spectral_radius_irreducible(a).hex()


def _power_sum_hex(a, u, n):
    return log_weighted_power_sum(a, u, n).hex()


def _polynomial_hex(a):
    return [c.hex() for c in characteristic_polynomial(a)]


def _growth(a, u):
    ga = growth_rate(a, u)
    radii = [r.hex() for r in ga.component_radii]
    return ga.decomposition, radii, ga.reachable, ga.rho_plus.hex(), ga.dominant_component


@given(seeds, st.sampled_from([0.0, 0.3, 0.6, 0.85]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_stored_form_is_the_dense_arrays(seed, zero_prob, irreducible):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 11))
    a = np.where(rng.random((d, d)) < zero_prob, 0.0, rng.uniform(0.1, 1.0, (d, d)))
    if irreducible:  # a d-cycle through every node
        i = np.arange(d)
        a[i, (i + 1) % d] = rng.uniform(0.1, 1.0, d)
    u = np.where(rng.random(d) < 0.3, 0.0, rng.random(d))
    expected = NonnegMatrix.from_dense(a)
    results = {}
    for name, x in {"dense": None, **_stored_forms(a, rng)}.items():
        if x is None:
            m = expected
        else:
            given_arrays = [arr.copy() for arr in (x.data, x.indices, x.indptr)]
            m = NonnegMatrix(x)
            for arr, before in zip((x.data, x.indices, x.indptr), given_arrays):
                assert arr.tobytes() == before.tobytes(), f"{name}: input rewritten"
            for attr in ("data", "indices", "indptr"):
                got, want = getattr(m.csr, attr), getattr(expected.csr, attr)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, attr)
        results[name] = [
            _outcome(strongly_connected_components, m),
            _outcome(_growth, m, u),
            _outcome(_radius_hex, m),
            _outcome(_power_sum_hex, m, u, 5),
            _outcome(_power_sum_hex, m, u, 1000),
            _outcome(_polynomial_hex, m),
        ]
    assert results["zeros"] == results["shuffled"] == results["halves"] == results["dense"]


class TestConstructor:
    def test_stored_zeros_are_no_edges(self):
        # diag(1, 2) with zeros stored at (0, 1) and (1, 0) once came out as
        # one component, whose Noda iteration underflowed
        x = sparse.csr_array(
            (np.array([1.0, 0.0, 0.0, 2.0]), np.array([0, 1, 0, 1]), np.array([0, 2, 4])), shape=(2, 2)
        )
        ga = growth_rate(NonnegMatrix(x), np.ones(2))
        assert ga.decomposition.components == ((1,), (0,))
        assert ga.component_radii == (2.0, 1.0) and ga.rho_plus == 2.0

    def test_unsorted_row_keeps_tarjans_order(self):
        # row 0 stored with columns [2, 1] once took Tarjan to node 2 first,
        # which reordered the components and named another dominant node
        x = sparse.csr_array(
            (np.array([1.0, 1.0, 0.5, 0.5]), np.array([2, 1, 1, 2]), np.array([0, 2, 3, 4])), shape=(3, 3)
        )
        for a in (NonnegMatrix(x), NonnegMatrix.from_dense(x.toarray())):
            ga = growth_rate(a, np.array([1.0, 0.0, 0.0]))
            assert ga.decomposition.components == ((0,), (2,), (1,))
            assert ga.decomposition.components[ga.dominant_component] == (2,)

    def test_stored_zeros_do_not_densify(self):
        # 8-node blocks of at most 16 = 8^2 / 4 entries, stored with all 64:
        # the zeros once sent them dense, with other last bits
        rng = np.random.default_rng(0)
        i = np.arange(8)
        for _ in range(50):
            a = np.zeros((8, 8))
            a[i, (i + 1) % 8] = 1.0
            a.flat[rng.choice(64, 8, replace=False)] = 1.0
            a *= rng.uniform(0.1, 1.0, (8, 8))
            everything = np.tile(i, 8)
            x = sparse.csr_array((a.ravel(), everything, np.arange(0, 65, 8)), shape=(8, 8))
            m = NonnegMatrix(x)
            assert isinstance(spectral._operand(m), NonnegMatrix) and m.nnz <= 16
            assert _radius_hex(m) == _radius_hex(NonnegMatrix.from_dense(a))

    def test_canonical_csr_array_is_stored_as_given(self):
        x = NonnegMatrix.from_dense(np.array([[0.0, 1.5], [0.5, 2.0]])).csr
        assert NonnegMatrix(x).csr is x

    def test_other_csr_input_is_copied_not_rewritten(self):
        # unsorted columns, a repeated entry and a stored -0.0 in one row
        data, indices, indptr = np.array([1.0, 0.5, -0.0, 0.5]), np.array([1, 0, 2, 0]), np.array([0, 4, 4, 4])
        x = sparse.csr_array((data.copy(), indices.copy(), indptr.copy()), shape=(3, 3))
        m = NonnegMatrix(x)
        assert m.csr is not x
        assert (m.csr.data.tolist(), m.csr.indices.tolist(), m.csr.indptr.tolist()) == ([1.0, 1.0], [0, 1], [0, 2, 2, 2])
        for got, given_array in zip((x.data, x.indices, x.indptr), (data, indices, indptr)):
            assert got.tobytes() == given_array.tobytes()

    @pytest.mark.parametrize(
        "kind", [sparse.coo_array, sparse.csc_array, sparse.csr_matrix, sparse.lil_array]
    )
    def test_other_sparse_input_becomes_the_csr_form(self, kind):
        a = np.array([[0.0, 1.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 3.0]])
        got, expected = NonnegMatrix(kind(a)).csr, NonnegMatrix.from_dense(a).csr
        assert type(got) is sparse.csr_array
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(expected, attr)), attr

    @pytest.mark.parametrize("shape", [(2, 3), (3, 0), (2,)])
    def test_refuses_non_square(self, shape):
        with pytest.raises(DimensionMismatch, match="expected square"):
            NonnegMatrix(sparse.csr_array(shape))

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, bool, np.float32])
    def test_other_real_dtypes_are_stored_as_float64(self, dtype):
        # integer and boolean input once crashed the radius, a one-component
        # growth and the power sum with numpy's UFuncTypeError, and float32
        # input ran them in float32
        x = sparse.csr_array(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=dtype))
        given_data = x.data.copy()
        m, expected = NonnegMatrix(x), NonnegMatrix.from_dense(x.toarray().astype(float))
        assert x.data.dtype == dtype and x.data.tobytes() == given_data.tobytes()
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(m.csr, attr), getattr(expected.csr, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
        u = np.array([1.0, 0.0, 2.0])
        assert _radius_hex(m) == _radius_hex(expected)
        assert _growth(m, u) == _growth(expected, u)
        assert _power_sum_hex(m, u, 7) == _power_sum_hex(expected, u, 7)

    def test_builds_are_stored_as_given(self):
        # A, K~ and the CSR blocks cut from A are already in the one form
        hmm = bsc_hmm(load_model(FIXTURES / "bsc.model"), 0.1)
        matrices = [collision_system(hmm, 3).matrix, tensor.lumped_system(hmm, 3).matrix]
        i = np.arange(40)
        ring = NonnegMatrix.from_dense(np.eye(40)[(i + 1) % 40] + np.eye(40)[(i - 1) % 40])
        two_rings = NonnegMatrix(sparse.block_diag([ring.csr, ring.csr], format="csr"))
        decomp = strongly_connected_components(two_rings)
        blocks = spectral._radius_blocks(two_rings.csr, decomp)
        assert len(blocks) == 2 and all(isinstance(b, NonnegMatrix) for b in blocks)
        for m in matrices + blocks:
            assert NonnegMatrix(m.csr).csr is m.csr

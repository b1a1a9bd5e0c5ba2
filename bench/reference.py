"""Independent references for the benchmark's correctness check.

Nothing here calls the package's tensor, components or spectral code.
Collision matrices are built from plain Kronecker products over every
(symbol, hidden tuple) pair; strongly connected components come from
``scipy.sparse.csgraph``; Perron roots are the largest eigenvalue modulus
from a dense or ARPACK eigensolver; finite-length collision masses come
from a renormalised vector-matrix loop.  The package's brute-force oracle
is the reference for short lengths.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigs

# Blocks up to this size get a dense eigensolver; larger ones use ARPACK.
DENSE_EIG_MAX = 400

# Same bar as the package's test suite: 1e-9 on radii and bits, relative
# to the magnitude once that exceeds 1.
TOLERANCE = 1e-9


# Probabilities are compared relatively; they can be far below 1.
RELATIVE_FIELDS = frozenset({"collision_probability"})


def close(value, expected, tol: float = TOLERANCE, relative: bool = False) -> bool:
    """True when value matches expected to tol (relative above magnitude 1)."""
    if isinstance(expected, (int, np.integer)) and not isinstance(expected, bool):
        return value == expected
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(expected)
            and all(close(v, e, tol, relative) for v, e in zip(value, expected))
        )
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if math.isinf(expected):
        return value == expected
    scale = abs(expected) if relative else max(1.0, abs(expected))
    return abs(value - expected) <= tol * scale


def matches(result: dict, expected: dict) -> bool:
    """Every expected field is present in result and close to its reference.

    Fields the result has beyond the expected ones are ignored, so a report
    that grows new fields still matches.
    """
    return all(
        k in result and close(result[k], v, relative=k in RELATIVE_FIELDS)
        for k, v in expected.items()
    )


def collision_matrix(p, e, pi, alpha: int):
    """Order-alpha collision matrix B over (symbol, hidden tuple), weights nu, dimension.

    B[(z,xs),(z',xs')] = prod_j P[x_j,x'_j] E[x'_j,z'],
    nu[(z,xs)] = prod_j pi[x_j] E[x_j,z].  Indices whose tuple cannot emit
    their symbol are dropped.
    """
    p, e, pi = (np.asarray(x, dtype=float) for x in (p, e, pi))
    nz = e.shape[1]
    k = reduce(lambda x, y: sparse.kron(x, y, format="csr"), [sparse.csr_array(p)] * alpha)
    emit = [reduce(np.kron, [e[:, z]] * alpha) for z in range(nz)]
    weights = np.concatenate(emit)
    b = sparse.kron(np.ones((nz, nz)), k, format="csr") @ sparse.diags_array(weights)
    pik = reduce(np.kron, [pi] * alpha)
    nu = np.concatenate([pik * w for w in emit])
    keep = np.flatnonzero(weights > 0)
    b = sparse.csr_array(b)[keep][:, keep]
    b.eliminate_zeros()
    return b, nu[keep], keep.size


def hadamard_system(p, pi, alpha: float):
    """Entrywise power of a fully observed chain and its weights."""
    p, pi = np.asarray(p, dtype=float), np.asarray(pi, dtype=float)
    b = sparse.csr_array(np.where(p > 0, p, 0.0) ** alpha)
    b.eliminate_zeros()
    return b, pi**alpha, p.shape[0]


def bsc_emission(epsilon: float) -> np.ndarray:
    return np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])


def _block_radius(block) -> float:
    m = block.shape[0]
    if m <= DENSE_EIG_MAX:
        return float(np.abs(np.linalg.eigvals(block.toarray())).max())
    vals = eigs(sparse.csr_array(block, dtype=float), k=1, which="LM", return_eigenvectors=False)
    return float(np.abs(vals).max())


def _reachable(b, support: np.ndarray) -> np.ndarray:
    seen = support.copy()
    frontier = support.astype(float)
    bt = b.T.tocsr()
    while frontier.any():
        nxt = (bt @ frontier > 0) & ~seen
        seen |= nxt
        frontier = nxt.astype(float)
    return seen


def spectrum(b, nu):
    """(rho_plus, sorted radii of all components, number of components)."""
    n_comp, labels = csgraph.connected_components(b, directed=True, connection="strong")
    reach = _reachable(b, np.asarray(nu) > 0)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_comp + 1))
    radii = []
    rho_plus = 0.0
    for c in range(n_comp):
        nodes = order[bounds[c] : bounds[c + 1]]
        r = _block_radius(b[nodes][:, nodes])
        radii.append(r)
        if reach[nodes[0]]:
            rho_plus = max(rho_plus, r)
    return rho_plus, sorted(radii), n_comp


def rate_bits(rho: float, alpha: float) -> float:
    if rho <= 0:
        return math.inf
    return max(math.log2(rho) / (1.0 - alpha), 0.0)


def rate_fields(b, nu, alpha: float) -> dict:
    rho, _, _ = spectrum(b, nu)
    return {"value_bits": rate_bits(rho, alpha), "rho_plus": rho}


def log_power_sum(b, nu, m: int) -> float:
    """ln(nu^T B^m 1) by renormalised steps.

    Once the normalised vector stops moving it is the Perron direction, and
    every later step multiplies the mass by the same factor, so the rest
    of the exponent is added in closed form.
    """
    w = np.asarray(nu, dtype=float)
    s = w.sum()
    if s == 0:
        return -math.inf
    w = w / s
    acc = math.log(s)
    bt = b.T.tocsr()
    for k in range(m):
        nxt = bt @ w
        s = nxt.sum()
        if s == 0:
            return -math.inf
        nxt /= s
        acc += math.log(s)
        if np.abs(nxt - w).max() <= 1e-14 * nxt.max():
            return acc + (m - k - 1) * math.log(s)
        w = nxt
    return acc


def finite_fields(log_cp: float, alpha: float) -> dict:
    """The report's value_bits and log2 collision mass from ln CP."""
    if log_cp == -math.inf:
        return {"value_bits": math.inf, "log2_collision": -math.inf}
    log2_cp = log_cp / math.log(2.0)
    return {"value_bits": max(log2_cp / (1.0 - alpha), 0.0), "log2_collision": log2_cp}

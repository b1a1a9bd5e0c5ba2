"""Top-level Renyi entropy formulas.

Finite-length entropies of an HMM come from powers of the symbol-summed
tuple matrix K lumped onto multisets of hidden states, K~, which gives
the collision probabilities of the restricted tensored matrix A at up to
nz * alpha! times smaller dimension (see `tensor`).  Rates come from the
maximal spectral radius over reachable irreducible components of A.
When A is irreducible, which `tensor.irreducible` decides from P's
pattern without building A, that is rho(K~), taken on K~ as built and
reachable when nu has mass; K~'s build is never larger than A's (see
`tensor._lumped_count`).  Otherwise A is built, split into components
and each radius taken from K's block.  One routine, `_growth`, makes
that choice; `entropy_rate`, `markov_rate` and `renyirates components`
all take their analysis from it, so the report and the rate agree float
for float.  A fully observed chain's system is the Hadamard power
P^(o alpha), formed as a dense array (`_hadamard_system`): its finite
lengths pass that array to the power sum, and its rates wrap it once in
CSR for the component split.  A length-n realization uses exponent
n - 1, validated against the brute-force oracle.  All values are in bits
(log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder
from .model import HiddenMarkovModel, MarkovChain, _chain_order
from .nonneg import NonnegMatrix
from .spectral import (
    GrowthAnalysis,
    growth_rate,
    irreducible_growth,
    log_weighted_power_sum,
)
from .tensor import (
    DEFAULT_MAX_DIM,
    collision_nodes,
    collision_system,
    irreducible,
    lumped_system,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyReport:
    """Result of an entropy computation plus spectral diagnostics."""

    order: float
    kind: str  # "finite" or "rate"
    value_bits: float  # math.inf when the collision mass vanishes
    length: int | None = None
    log2_collision: float | None = None
    dimension: int | None = None
    rho_plus: float | None = None
    component_radii: tuple[float, ...] | None = None
    reachable: tuple[int, ...] | None = None
    dominant_component: int | None = None
    dominant_members: tuple[str, ...] | None = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value_bits)


def _finite_report(order: float, n: int, log_cp: float, dimension: int) -> EntropyReport:
    if log_cp == -math.inf:
        value = math.inf
    else:
        value = (1.0 / (1.0 - order)) * (log_cp / _LN2)
        value = max(value, 0.0)  # clip -0.0 and tolerance dust
    return EntropyReport(
        order=order,
        kind="finite",
        value_bits=value,
        length=n,
        log2_collision=log_cp / _LN2 if log_cp != -math.inf else -math.inf,
        dimension=dimension,
    )


def _rate_report(
    order: float, ga: GrowthAnalysis, labels: tuple[str, ...], dimension: int
) -> EntropyReport:
    if ga.rho_plus > 0:
        value = max((1.0 / (1.0 - order)) * math.log2(ga.rho_plus), 0.0)
    else:
        value = math.inf
    dominant_members = None
    if ga.dominant_component is not None:
        members = ga.decomposition.components[ga.dominant_component]
        dominant_members = tuple(labels[i] for i in members)
    return EntropyReport(
        order=order,
        kind="rate",
        value_bits=value,
        dimension=dimension,
        rho_plus=ga.rho_plus,
        component_radii=ga.component_radii,
        reachable=tuple(sorted(ga.reachable)),
        dominant_component=ga.dominant_component,
        dominant_members=dominant_members,
    )


def finite_length_entropy(
    hmm: HiddenMarkovModel,
    alpha: int,
    n: int,
    max_dim: int = DEFAULT_MAX_DIM,
) -> EntropyReport:
    """Renyi entropy of the first n observed symbols, H_alpha(Z_1..Z_n)."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    lumped = lumped_system(hmm, alpha, max_dim=max_dim)
    log_cp = log_weighted_power_sum(lumped.matrix, lumped.initial, n - 1)
    return _finite_report(float(lumped.order), n, log_cp, lumped.dimension)


def _growth(
    model: MarkovChain | HiddenMarkovModel,
    alpha: float,
    max_dim: int = DEFAULT_MAX_DIM,
    tol: float = 1e-12,
) -> tuple[float, GrowthAnalysis, tuple[str, ...], NonnegMatrix | None]:
    """The rate's analysis: checked order, growth analysis, A's labels and A if built.

    The one place that chooses a rate path.  A chain's A is P^(o alpha),
    split into components.  An HMM's A is not built when
    `tensor.irreducible` finds it irreducible: the analysis then has one
    component of all A's nodes, whose radius is rho(K~)
    (`irreducible_growth`), reachable when nu has mass; A's nodes, nu and
    labels come from `tensor.collision_nodes`, which finite lengths never
    call.  Otherwise A is built and `growth_rate` splits it, each radius
    taken from K's block.  The labels are A's, in A's node order, on
    every path; max_dim applies to HMMs only.
    """
    if isinstance(model, MarkovChain):
        alpha, a, u = _hadamard_system(model, alpha)
        a = NonnegMatrix.from_dense(a)
        return alpha, growth_rate(a, u, tol=tol), model.states, a
    if irreducible(model, alpha, max_dim=max_dim):
        lumped = lumped_system(model, alpha, max_dim=max_dim)
        nodes = collision_nodes(model, lumped.order)
        ga = irreducible_growth(nodes.initial, lumped.matrix, tol=tol)
        return float(lumped.order), ga, nodes.labels(), None
    cs = collision_system(model, alpha, max_dim=max_dim)
    ga = growth_rate(
        cs.matrix, cs.initial, tol=tol, radius_matrix=(cs.tuple_matrix, cs.node_tuple)
    )
    return float(cs.order), ga, cs.labels(), cs.matrix


def entropy_rate(
    hmm: HiddenMarkovModel,
    alpha: int,
    max_dim: int = DEFAULT_MAX_DIM,
    tol: float = 1e-12,
) -> EntropyReport:
    """Asymptotic Renyi entropy per observed symbol.

    Taken from the rate path `_growth` chooses: K~ when A is irreducible,
    else A split into components.  Either way `dimension` is A's node
    count and `dominant_members` lists A's labels in A's node order.
    """
    order, ga, labels, _ = _growth(hmm, alpha, max_dim, tol)
    return _rate_report(order, ga, labels, len(labels))


def _hadamard_system(
    chain: MarkovChain, alpha: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Checked order, P^(o alpha) as a dense array and pi0^alpha of a fully observed chain.

    Only P's positive entries are powered, so its zeros stay zeros; the
    powered array is C-ordered whatever P's memory order.  No positive
    entry of P or pi0 may underflow to 0.
    """
    alpha = _chain_order(alpha)
    p = chain.transition
    stored = p > 0
    a = np.power(p, alpha, out=np.zeros(p.shape), where=stored)
    u = chain.initial**alpha
    positive = (np.count_nonzero(stored), np.count_nonzero(chain.initial))
    if (np.count_nonzero(a), np.count_nonzero(u)) != positive:
        raise InvalidOrder(f"order {alpha} underflows positive entries of P or pi0 to 0")
    return alpha, a, u


def markov_rate(
    chain: MarkovChain, alpha: float, tol: float = 1e-12
) -> EntropyReport:
    """Rate of a fully observed chain, any real order: Hadamard-power route."""
    order, ga, labels, _ = _growth(chain, alpha, tol=tol)
    return _rate_report(order, ga, labels, len(labels))


def markov_finite_length(chain: MarkovChain, alpha: float, n: int) -> EntropyReport:
    """Finite-length entropy of a fully observed chain, any real order."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    alpha, a, u = _hadamard_system(chain, alpha)
    log_cp = log_weighted_power_sum(a, u, n - 1)
    return _finite_report(alpha, n, log_cp, chain.n_states)


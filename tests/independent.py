"""Independent references the tests compare the package against.

Neither is part of the pipeline, and each is written apart from the code
it checks:

- ``joint_chain`` forms the Markov pair process (X, Z) of an HMM as a
  dense matrix; its full Kronecker power, restricted by hand to tuples
  with one shared symbol, checks ``collision_system``.
- ``empirical_growth_probe`` runs n renormalised vector-matrix products;
  ``(u^T A^n 1)^(1/n)`` checks the Perron root that ``growth_rate``
  reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from renyirates import HiddenMarkovModel, NonnegMatrix


@dataclass(frozen=True)
class JointChain:
    """The Markov pair process (X_i, Z_i) of an HMM."""

    pairs: tuple[tuple[str, str], ...]
    matrix: np.ndarray
    initial: np.ndarray


def joint_chain(hmm: HiddenMarkovModel) -> JointChain:
    """Transition matrix and initial law of the pair process (X, Z).

    M[(x,z),(x',z')] = P[x,x'] * E[x',z'] does not depend on z, so all
    rows sharing the hidden component are identical.  Pair indices are
    ordered lexicographically, hidden state outer.
    """
    p = hmm.chain.transition
    e = hmm.emission
    nx, nz = e.shape
    m4 = np.broadcast_to(
        p[:, np.newaxis, :, np.newaxis] * e[np.newaxis, np.newaxis, :, :],
        (nx, nz, nx, nz),
    )
    matrix = m4.reshape(nx * nz, nx * nz).copy()
    matrix.setflags(write=False)
    mu = (hmm.chain.initial[:, np.newaxis] * e).reshape(-1)
    mu.setflags(write=False)
    pairs = tuple(
        (x, z) for x in hmm.chain.states for z in hmm.observations
    )
    return JointChain(pairs=pairs, matrix=matrix, initial=mu)


def empirical_growth_probe(a: NonnegMatrix | np.ndarray, u: np.ndarray, n: int) -> float:
    """(u^T A^n 1)^(1/n), by n renormalized vector-matrix products."""
    if n < 1:
        raise ValueError(f"probe length must be >= 1, got {n}")
    dense = a.to_dense() if isinstance(a, NonnegMatrix) else np.asarray(a, dtype=float)
    w = np.asarray(u, dtype=float).copy()
    total = w.sum()
    if total == 0:
        return 0.0
    w /= total
    log_acc = math.log(total)
    for _ in range(n):
        w = w @ dense
        s = w.sum()
        if s == 0:
            return 0.0
        w /= s
        log_acc += math.log(s)
    return math.exp(log_acc / n)

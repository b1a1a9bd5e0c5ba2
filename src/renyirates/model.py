"""Markov chains, hidden Markov models, and their entropy orders.

A chain is a validated row-stochastic transition matrix P with an initial
law; an HMM adds a memoryless emission kernel E.  `tensor` builds the
collision system straight from (P, E); a fully observed chain takes the
Hadamard power of P instead.  An HMM's order is an integer >= 2, a fully
observed chain's any finite real > 0 other than 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidLabel,
    InvalidNoise,
    InvalidOrder,
    NegativeEntry,
    NonFiniteEntry,
    NonStochasticRow,
    WrongAlphabet,
)

# Row sums farther than this from 1 are rejected; smaller deviations are
# silently renormalized, unless they are within the rounding of the sum.
STOCHASTIC_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


def _clean_probabilities(a: np.ndarray, what: str) -> np.ndarray:
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteEntry(f"non-finite entry in {what}")
    if a.min(initial=0.0) < -1e-12:
        raise NegativeEntry(f"negative entry in {what}: min = {a.min()}")
    a[a < 0] = 0.0
    return a


def _validated_rows(a: np.ndarray, what: str) -> np.ndarray:
    a = _clean_probabilities(a, what)
    sums = a.sum(axis=1)
    bad = np.abs(sums - 1.0) > STOCHASTIC_TOL
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonStochasticRow(f"row {i} of {what} sums to {sums[i]!r}")
    # a row already within rounding of 1 is kept as given: dividing it again
    # could move its last digits, so a validated row would not survive a
    # second validation (a model file's round trip) unchanged
    off = np.abs(sums - 1.0) > a.shape[1] * _EPS
    a[off] /= sums[off, np.newaxis]
    a.setflags(write=False)
    return a


def _validated_distribution(v: np.ndarray, what: str) -> np.ndarray:
    v = _clean_probabilities(v, what).ravel()
    s = v.sum()
    if abs(s - 1.0) > STOCHASTIC_TOL:
        raise NonStochasticRow(f"{what} sums to {s!r}")
    if abs(s - 1.0) > v.size * _EPS:  # as in _validated_rows
        v /= s
    v.setflags(write=False)
    return v


def _checked_labels(labels, n: int, what: str) -> tuple[str, ...]:
    """n distinct string labels; "1" .. "n" when none are given.

    A string is refused, not split into one label a character.
    """
    if labels is None:
        return tuple(str(i + 1) for i in range(n))
    if isinstance(labels, str):
        raise InvalidLabel(f"{what} labels must be a sequence of strings, not {labels!r}")
    labels = tuple(labels)
    if len(labels) != n:
        raise DimensionMismatch(f"{len(labels)} {what} labels for {n} {what}s")
    for label in labels:
        if not isinstance(label, str):
            raise InvalidLabel(f"{what} labels must be strings, got {label!r}")
    if len(set(labels)) != n:
        repeated = next(s for s in labels if labels.count(s) > 1)
        raise InvalidLabel(f"{what} labels must be unique, {repeated!r} repeats")
    return labels


@dataclass(frozen=True)
class MarkovChain:
    """Finite-state chain with a validated row-stochastic transition matrix."""

    states: tuple[str, ...]
    transition: np.ndarray
    initial: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class HiddenMarkovModel:
    """Markov chain observed through a memoryless emission channel."""

    chain: MarkovChain
    observations: tuple[str, ...]
    emission: np.ndarray

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def n_symbols(self) -> int:
        return len(self.observations)


def validate_chain(
    transition,
    initial,
    states: Sequence[str] | None = None,
) -> MarkovChain:
    """Validate and normalize a transition matrix and initial distribution."""
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"transition matrix has shape {p.shape}")
    pi = np.asarray(initial, dtype=float).ravel()
    if pi.shape[0] != p.shape[0]:
        raise DimensionMismatch(
            f"initial distribution has length {pi.shape[0]}, expected {p.shape[0]}"
        )
    labels = _checked_labels(states, p.shape[0], "state")
    return MarkovChain(
        states=labels,
        transition=_validated_rows(p, "transition matrix"),
        initial=_validated_distribution(pi, "initial distribution"),
    )


def validate_hmm(
    chain: MarkovChain,
    emission,
    observations: Sequence[str] | None = None,
) -> HiddenMarkovModel:
    """Validate an emission kernel against a chain."""
    e = np.asarray(emission, dtype=float)
    if e.ndim != 2 or e.shape[0] != chain.n_states:
        raise DimensionMismatch(f"emission matrix has shape {e.shape}")
    labels = _checked_labels(observations, e.shape[1], "observation")
    return HiddenMarkovModel(
        chain=chain,
        observations=labels,
        emission=_validated_rows(e, "emission matrix"),
    )


def _hmm_order(alpha) -> int:
    """Entropy order of an HMM: an integer >= 2, the tensor power taken."""
    if not (float(alpha).is_integer() and alpha >= 2):
        raise InvalidOrder(f"order must be an integer >= 2, got {alpha}")
    return int(alpha)


def _chain_order(alpha) -> float:
    """Entropy order of a fully observed chain: any finite real > 0 other than 1.

    An infinite order is refused: the Hadamard power P**inf zeroes every
    transition probability below 1.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf or alpha == 1.0:
        raise InvalidOrder(f"order must be positive and != 1 and finite, got {alpha}")
    return alpha


def identity_observation(chain: MarkovChain) -> HiddenMarkovModel:
    """Observe the chain itself: Z = X, emission = identity."""
    return HiddenMarkovModel(
        chain=chain,
        observations=chain.states,
        emission=np.eye(chain.n_states),
    )


def deterministic_observation(
    chain: MarkovChain, observation_map: Mapping[str, str]
) -> HiddenMarkovModel:
    """Noiseless measurement Z = T(X) for a total map T on the states.

    The observation alphabet is the sorted set of values of T.  A key
    that names no state is refused.
    """
    missing = [s for s in chain.states if s not in observation_map]
    if missing:
        raise WrongAlphabet(f"observation map undefined on states {missing}")
    unknown = [k for k in observation_map if k not in chain.states]
    if unknown:
        raise WrongAlphabet(f"observation map names no state: {unknown}")
    for s in chain.states:
        if not isinstance(observation_map[s], str):
            raise InvalidLabel(
                f"observation labels must be strings, got {observation_map[s]!r} for state {s!r}"
            )
    symbols = tuple(sorted(set(observation_map[s] for s in chain.states)))
    e = np.zeros((chain.n_states, len(symbols)))
    for i, s in enumerate(chain.states):
        e[i, symbols.index(observation_map[s])] = 1.0
    return validate_hmm(chain, e, symbols)


def bsc_hmm(chain: MarkovChain, epsilon: float) -> HiddenMarkovModel:
    """Binary chain observed through a symmetric channel with crossover epsilon."""
    if chain.n_states != 2:
        raise WrongAlphabet(f"BSC observation needs 2 states, got {chain.n_states}")
    if not (0.0 <= epsilon <= 0.5):
        raise InvalidNoise(f"crossover probability {epsilon} outside [0, 1/2]")
    e = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])
    return validate_hmm(chain, e, ("0", "1"))

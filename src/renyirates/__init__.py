"""Exact Renyi entropies and entropy rates of Markov chains and HMMs."""

from .components import (
    ComponentDecomposition,
    reachable_components,
    strongly_connected_components,
)
from .entropy import (
    EntropyReport,
    entropy_rate,
    finite_length_entropy,
    markov_finite_length,
    markov_rate,
)
from .model import (
    HiddenMarkovModel,
    MarkovChain,
    bsc_hmm,
    deterministic_observation,
    identity_observation,
    validate_chain,
    validate_hmm,
)
from .modelfile import load_model, parse_model, serialize_model
from .nonneg import NonnegMatrix
from .oracle import brute_force_collision, brute_force_entropy, sequence_probability
from .spectral import (
    GrowthAnalysis,
    characteristic_polynomial,
    growth_rate,
    log_weighted_power_sum,
    spectral_radius_irreducible,
)
from .tensor import CollisionSystem, collision_system

__version__ = "0.1.0"

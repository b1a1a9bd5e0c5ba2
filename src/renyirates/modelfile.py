"""Model file grammar: a single JSON document per model.

Required keys: "format" (currently 1), "kind" ("markov" or "hmm"),
"states" (list of labels), "transition" (dense row-major rows),
"initial" (distribution over states).  HMM models additionally carry
either an explicit channel ("observations" + "emission") or a
deterministic "observation_map" from state label to symbol.  Unknown
keys are rejected, and so is a key repeated within one object.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, RenyiError
from .model import (
    HiddenMarkovModel,
    MarkovChain,
    deterministic_observation,
    validate_chain,
    validate_hmm,
)

FORMAT_VERSION = 1

_COMMON_KEYS = {"format", "kind", "states", "transition", "initial"}
_HMM_KEYS = _COMMON_KEYS | {"observations", "emission", "observation_map"}
_NUMBER = {int, float}  # JSON numbers; bool, a subclass of int, is not one


def parse_model(doc: dict) -> MarkovChain | HiddenMarkovModel:
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    if type(doc.get("format")) is not int or doc["format"] != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind not in ("markov", "hmm"):
        raise ModelFormatError(f"kind must be 'markov' or 'hmm', got {kind!r}")
    allowed = _HMM_KEYS if kind == "hmm" else _COMMON_KEYS
    unknown = set(doc) - allowed
    if unknown:
        raise ModelFormatError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    missing = _COMMON_KEYS - set(doc)
    if missing:
        raise ModelFormatError(f"missing fields: {sorted(missing)}")
    states = doc["states"]
    if not isinstance(states, list):
        raise ModelFormatError("states must be a list of strings")
    try:
        chain = validate_chain(
            _numbers(doc, "transition", 2), _numbers(doc, "initial", 1), states=states
        )
    except (RenyiError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"invalid chain: {exc}") from exc
    if kind == "markov":
        return chain

    has_channel = "emission" in doc or "observations" in doc
    has_map = "observation_map" in doc
    if has_channel == has_map:
        raise ModelFormatError(
            "hmm models need exactly one of (observations + emission) or observation_map"
        )
    try:
        if has_map:
            omap = doc["observation_map"]
            if not isinstance(omap, dict) or not all(isinstance(v, str) for v in omap.values()):
                raise ModelFormatError("observation_map must be an object with string values")
            return deterministic_observation(chain, omap)
        if "observations" not in doc or "emission" not in doc:
            raise ModelFormatError("observations and emission must be given together")
        observations = doc["observations"]
        if not isinstance(observations, list):
            raise ModelFormatError("observations must be a list of strings")
        return validate_hmm(chain, _numbers(doc, "emission", 2), observations)
    except ModelFormatError:
        raise
    except (RenyiError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"invalid hmm: {exc}") from exc


def _numbers(doc: dict, field: str, depth: int) -> np.ndarray:
    """doc[field] as floats, if `depth` (1 or 2) nested lists of JSON ints and floats.

    Types match exactly: numpy would also take true, false and "0.5".
    """
    rows = [doc[field]] if depth == 1 else doc[field]
    if type(rows) is list and all(type(r) is list and {*map(type, r)} <= _NUMBER for r in rows):
        return np.array(doc[field], dtype=float)
    raise ModelFormatError(f"{field} must be a list of {'lists of ' * (depth - 1)}numbers")


def _reject_constant(name: str):
    raise ModelFormatError(f"non-finite number {name} in model file")


def _unique_fields(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ModelFormatError(f"repeated field {repeated!r} in model file")
    return doc


def load_model(path: str | Path) -> MarkovChain | HiddenMarkovModel:
    try:
        text = Path(path).read_text()
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_model(doc)


def serialize_model(model: MarkovChain | HiddenMarkovModel) -> dict:
    """Normalized document; parse(serialize(m)) reproduces m exactly."""
    if isinstance(model, HiddenMarkovModel):
        chain = model.chain
        doc = {
            "format": FORMAT_VERSION,
            "kind": "hmm",
            "states": list(chain.states),
            "transition": chain.transition.tolist(),
            "initial": chain.initial.tolist(),
            "observations": list(model.observations),
            "emission": model.emission.tolist(),
        }
    else:
        chain = model
        doc = {
            "format": FORMAT_VERSION,
            "kind": "markov",
            "states": list(chain.states),
            "transition": chain.transition.tolist(),
            "initial": chain.initial.tolist(),
        }
    return doc

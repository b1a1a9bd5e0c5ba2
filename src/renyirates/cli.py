"""Command-line front end.

Subcommands: entropy, rate, components, oracle.  Each invocation reads a
model file, runs one computation, writes a versioned JSON report to
stdout (floats at 12 significant digits, fixed field order) and a short
human summary to stderr.  The report is written by `_json` in one walk
of the document, rounding floats as it goes; its text is byte for byte
json.dumps(..., indent=2) of the rounded document, whose indenting runs
json's pure-Python encoder element by element.  Exit codes: 0 ok, 1
parse/validation error, 2 usage error (argparse's own), 3 size guard (a
build predicted past the byte budget of `tensor`, or an order above
64), so a script can tell a model too large from a wrong command line.  Each subcommand takes only
the options it reads: no size option, since the budget is fixed, and no
radius tolerance, since every radius closes at spectral.DEFAULT_TOL.
`components` reports the analysis `rate` computes (`entropy._growth`),
and builds the collision matrix A beyond that only for the
characteristic polynomial of an A of at most 64 nodes, on the nodes that
analysis listed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import entropy as rates
from . import oracle as bf
from .errors import DimensionOverflow, RenyiError
from .model import (
    HiddenMarkovModel,
    MarkovChain,
    _hmm_order,
    bsc_hmm,
    identity_observation,
)
from .modelfile import load_model
from .spectral import CHARPOLY_MAX_DIM, characteristic_polynomial
from .tensor import CollisionNodes, collision_system

REPORT_VERSION = 1

_STRING = json.encoder.encode_basestring_ascii


def _number(x: float) -> str:
    """A float at 12 significant digits; infinities and nan as JSON strings."""
    if math.isfinite(x):
        return float.__repr__(float(f"{x:.12g}"))
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


# The scalar types a report holds, matched exactly, and how json writes them.
_SCALARS = {
    str: _STRING,
    int: int.__repr__,
    float: _number,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, pad: str = "\n") -> str:
    """JSON text of a report document: json.dumps(..., indent=2) of it rounded.

    Floats are rounded as `_number` writes them; dicts (str keys), lists
    and tuples nest; str, int, bool and None are written as json writes
    them.  pad is the newline and indent of the line value starts on.
    Types are matched exactly first, and subclasses by isinstance, as
    json matches them; a list of one scalar type is written by one join.
    Anything else is a TypeError, as it is to json.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = map(_STRING, value)  # a TypeError on a key that is no str
        body = sep.join([k + ": " + _json(v, inner) for k, v in zip(keys, value.values())])
        return "{" + inner + body + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if write is not None:
            body = sep.join(map(write, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    if isinstance(value, str):
        return _STRING(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _number(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, summary: str) -> None:
    sys.stdout.write(_json(doc) + "\n")
    sys.stderr.write(summary + "\n")


def _load(args) -> MarkovChain | HiddenMarkovModel:
    model = load_model(args.model)
    if args.epsilon is not None:
        if not isinstance(model, MarkovChain):
            raise RenyiError("--epsilon applies only to markov model files")
        model = bsc_hmm(model, args.epsilon)
    return model


def _report_head(command: str, model) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "command": command,
        "kind": "hmm" if isinstance(model, HiddenMarkovModel) else "markov",
    }


def _entropy_fields(rep: rates.EntropyReport) -> dict:
    return {
        "order": rep.order,
        "length": rep.length,
        "value_bits": rep.value_bits,
        "log2_collision_probability": rep.log2_collision,
        "dimension": rep.dimension,
        "finite": rep.finite,
    }


def _rate_fields(rep: rates.EntropyReport) -> dict:
    return {
        "order": rep.order,
        "value_bits": rep.value_bits,
        "rho_plus": rep.rho_plus,
        "dominant_component": rep.dominant_component,
        "dominant_members": list(rep.dominant_members or ()),
        "component_radii": list(rep.component_radii or ()),
        "reachable_components": list(rep.reachable or ()),
        "dimension": rep.dimension,
        "finite": rep.finite,
    }


def cmd_entropy(args) -> None:
    model = _load(args)
    if isinstance(model, HiddenMarkovModel):
        rep = rates.finite_length_entropy(model, args.order, args.length)
    else:
        rep = rates.markov_finite_length(model, args.order, args.length)
    doc = _report_head("entropy", model) | _entropy_fields(rep)
    _emit(doc, f"H_{rep.order:g}(Z^{args.length}) = {rep.value_bits:.6g} bits")


def cmd_rate(args) -> None:
    model = _load(args)
    if isinstance(model, HiddenMarkovModel):
        rep = rates.entropy_rate(model, args.order)
    else:
        rep = rates.markov_rate(model, args.order)
    doc = _report_head("rate", model) | _rate_fields(rep)
    _emit(
        doc,
        f"rate H_{rep.order:g} = {rep.value_bits:.6g} bits/symbol "
        f"(rho+ = {rep.rho_plus:.6g})",
    )


def cmd_components(args) -> None:
    model = _load(args)
    order, ga, labels, matrix = rates._growth(model, args.order)
    decomp = ga.decomposition
    if len(labels) <= CHARPOLY_MAX_DIM:
        if isinstance(matrix, CollisionNodes):  # the rate took K~: A is built on its nodes
            matrix = collision_system(model, order, matrix).matrix
        poly = characteristic_polynomial(matrix).tolist()
    else:
        poly = None
    doc = _report_head("components", model) | {
        "order": order,
        "dimension": len(labels),
        "nodes": list(labels),
        "components": [
            {
                "id": cid,
                "members": [labels[i] for i in comp],
                "radius": ga.component_radii[cid],
                "reachable": cid in ga.reachable,
            }
            for cid, comp in enumerate(decomp.components)
        ],
        "condensation_edges": sorted(decomp.dag_edges),
        "rho_plus": ga.rho_plus,
        "dominant_component": ga.dominant_component,
        "characteristic_polynomial": poly,
    }
    _emit(
        doc,
        f"{len(labels)} nodes, {decomp.n_components} components, "
        f"rho+ = {ga.rho_plus:.6g}",
    )


def cmd_oracle(args) -> None:
    model = _load(args)
    hmm = identity_observation(model) if isinstance(model, MarkovChain) else model
    order = _hmm_order(args.order)
    cp = bf.brute_force_collision(hmm, order, args.length)
    value = bf.renyi_bits(cp, order)
    doc = _report_head("oracle", model) | {
        "order": order,
        "length": args.length,
        "collision_probability": cp,
        "value_bits": value,
    }
    _emit(doc, f"brute force H_{order}(Z^{args.length}) = {value:.6g} bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyirates",
        description="Renyi entropies and entropy rates of Markov chains and HMMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, length=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model file (JSON)")
        p.add_argument("--order", type=float, required=True, help="entropy order alpha")
        if length:
            p.add_argument(
                "--length", type=int, required=True, help="number of observed symbols"
            )
        p.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="observe a 2-state markov model through a BSC with this crossover",
        )
        p.set_defaults(func=func)

    command("entropy", "finite-length Renyi entropy", cmd_entropy, length=True)
    command("rate", "asymptotic Renyi entropy rate", cmd_rate)
    command("components", "irreducible components and radii", cmd_components)
    command("oracle", "brute-force collision probability", cmd_oracle, length=True)
    return parser


# Built once at import: parse_args keeps no state between calls.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        args.func(args)
    except DimensionOverflow as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (RenyiError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: entropy, rate, components, oracle.  Each invocation reads a
model file, runs one computation, writes a versioned JSON report to
stdout (floats at 12 significant digits, fixed field order) and a short
human summary to stderr.  Exit codes: 0 ok, 1 parse/validation error,
2 usage error (argparse's own), 3 dimension guard, so a script can tell
a model too large from a wrong command line.  Each subcommand takes only
the options it reads.  `components` reports the analysis `rate` computes
(`entropy._growth`), and builds the collision matrix A beyond that only
for the characteristic polynomial of an A of at most 64 nodes.
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
from .tensor import DEFAULT_MAX_DIM, collision_system

REPORT_VERSION = 1


def _fmt(value):
    """Round floats to 12 significant digits, recursively; JSON-safe infinities."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(doc: dict, summary: str) -> None:
    sys.stdout.write(json.dumps(_fmt(doc), indent=2) + "\n")
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
        rep = rates.finite_length_entropy(
            model, args.order, args.length, max_dim=args.max_dim
        )
    else:
        rep = rates.markov_finite_length(model, args.order, args.length)
    doc = _report_head("entropy", model) | _entropy_fields(rep)
    _emit(doc, f"H_{rep.order:g}(Z^{args.length}) = {rep.value_bits:.6g} bits")


def cmd_rate(args) -> None:
    model = _load(args)
    if isinstance(model, HiddenMarkovModel):
        rep = rates.entropy_rate(
            model, args.order, max_dim=args.max_dim, tol=args.tolerance
        )
    else:
        rep = rates.markov_rate(model, args.order, tol=args.tolerance)
    doc = _report_head("rate", model) | _rate_fields(rep)
    _emit(
        doc,
        f"rate H_{rep.order:g} = {rep.value_bits:.6g} bits/symbol "
        f"(rho+ = {rep.rho_plus:.6g})",
    )


def cmd_components(args) -> None:
    model = _load(args)
    order, ga, labels, matrix = rates._growth(model, args.order, args.max_dim, args.tolerance)
    decomp = ga.decomposition
    if len(labels) <= CHARPOLY_MAX_DIM:
        if matrix is None:
            matrix = collision_system(model, order, max_dim=args.max_dim).matrix
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
    if isinstance(model, MarkovChain):
        model = identity_observation(model)
    order = _hmm_order(args.order)
    cp = bf.brute_force_collision(model, order, args.length)
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

    def command(name, help_text, func, length=False, max_dim=True, tolerance=False):
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
        if max_dim:
            p.add_argument(
                "--max-dim",
                type=int,
                default=DEFAULT_MAX_DIM,
                help=(
                    "HMMs: refuse an order whose states^order * symbols (the collision "
                    "system's index set) exceeds this, also where only the lumped matrix "
                    "is built; Markov models ignore it"
                ),
            )
        if tolerance:
            p.add_argument(
                "--tolerance",
                type=float,
                default=1e-12,
                help="spectral radius tolerance",
            )
        p.set_defaults(func=func)

    command("entropy", "finite-length Renyi entropy", cmd_entropy, length=True)
    command("rate", "asymptotic Renyi entropy rate", cmd_rate, tolerance=True)
    command("components", "irreducible components and radii", cmd_components, tolerance=True)
    command(
        "oracle", "brute-force collision probability", cmd_oracle, length=True, max_dim=False
    )
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

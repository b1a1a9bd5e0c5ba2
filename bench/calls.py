"""Seeded call lists for the three workloads.

Each workload is a fixed list of calls built from the seed.  A call runs
one public entry point of ``renyirates`` and returns the numeric fields
it reports today; its reference is computed separately, after
timing, by ``reference``.  Functions are looked up on the package at call
time, so the traced run sees the wrapped versions.

Input shapes are fixed and only the random values depend on the seed, so
the cost of a call, and the order of call costs, hardly move between
seeds.  Multiplicities are chosen so that the median and the tail of the
per-call times each fall inside a group of like calls, not on the step
between two cost modes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import renyirates as rz
import renyirates.cli  # noqa: F401 - makes rz.cli available
from renyirates import random_models

import reference as ref

@dataclass
class Call:
    """One timed call and the reference it is checked against."""

    label: str
    family: str  # calls of one family share a code path; warm-up runs one of each
    cost: float  # rough relative cost, used to pick the cheapest warm-up call
    run: Callable[[], dict]
    expect: Callable[[], dict]
    inputs: tuple  # what the call receives; fingerprints the call list


def digest(calls: list[Call]) -> str:
    """Short hash of every call's label and inputs, in list order."""
    h = hashlib.sha256()
    for call in calls:
        h.update(call.label.encode())
        for item in call.inputs:
            h.update(np.asarray(item).tobytes() if isinstance(item, np.ndarray) else repr(item).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- inputs


def sparse_chain(rng: np.random.Generator, nx: int, k: int):
    """Transition matrix with exactly k non-zeros per row, and an initial law.

    Every row keeps its self-loop and its successor, so the chain is
    irreducible and aperiodic whatever the seed; the other k - 2 entries
    sit at random columns.
    """
    p = np.zeros((nx, nx))
    for i in range(nx):
        others = [j for j in range(nx) if j not in (i, (i + 1) % nx)]
        cols = [i, (i + 1) % nx] + list(rng.choice(others, size=k - 2, replace=False))
        p[i, cols] = rng.dirichlet(np.ones(k))
    pi = rng.dirichlet(np.ones(nx))
    return p, pi


def sparse_hmm(rng, nx: int, nz: int, k: int, pi=None):
    p, pi0 = sparse_chain(rng, nx, k)
    e = rng.dirichlet(np.ones(nz), size=nx)
    return rz.validate_hmm(rz.validate_chain(p, pi0 if pi is None else pi), e)


# The radius iteration count swings with the matrix values (by a factor of
# two or more on sparse and block-structured matrices), so rate inputs draw
# their transition and emission values from this fixed generator and only
# their initial laws from the seed; their cost then does not move between
# seeds.
FIXED_VALUES_SEED = 1709


def block_chain(values: np.random.Generator, rng: np.random.Generator, blocks: int):
    """Block-triangular chain: 2-state recurrent blocks joined by transient states.

    Block b has states 3b, 3b+1 (self-loops, mutual moves, an exit) and a
    transient state 3b+2 without self-loop that feeds block b+1; the last
    block is closed.  The initial law, drawn from rng, sits on block
    blocks // 3, so the blocks before it are unreachable; the transition
    values come from `values`.
    """
    nx = 3 * blocks - 1
    p = np.zeros((nx, nx))
    for b in range(blocks):
        s0, s1 = 3 * b, 3 * b + 1
        last = b == blocks - 1
        for s in (s0, s1):
            cols = [s0, s1] if last else [s0, s1, 3 * b + 2]
            p[s, cols] = values.dirichlet(np.ones(len(cols)))
        if not last:
            p[3 * b + 2, [3 * b + 3, 3 * b + 4]] = values.dirichlet(np.ones(2))
    pi = np.zeros(nx)
    start = 3 * (blocks // 3)
    pi[[start, start + 1]] = rng.dirichlet(np.ones(2))
    return p, pi


def sticky_chain(rng: np.random.Generator, switch: float):
    """Two-regime chain that leaves regime 0 with probability `switch`.

    The transition matrix is fixed, so the iteration count of its radius is
    too; the seed draws the initial law (and the BSC crossover).
    """
    back = 2.0 * switch
    p = np.array([[1.0 - switch, switch], [back, 1.0 - back]])
    return p, rng.dirichlet(np.ones(2))


# ----------------------------------------------------------- call makers


def _rate(rep) -> dict:
    return {"value_bits": rep.value_bits, "rho_plus": rep.rho_plus}


def _finite(rep) -> dict:
    return {"value_bits": rep.value_bits, "log2_collision": rep.log2_collision}


def _hmm_inputs(hmm, *args) -> tuple:
    return (hmm.chain.transition, hmm.emission, hmm.chain.initial, *args)


def _chain_inputs(chain, *args) -> tuple:
    return (chain.transition, chain.initial, *args)


def hmm_rate_call(label, family, hmm, alpha) -> Call:
    def expect():
        b, nu, _ = ref.collision_matrix(hmm.chain.transition, hmm.emission, hmm.chain.initial, alpha)
        return ref.rate_fields(b, nu, alpha)

    cost = hmm.n_symbols * hmm.n_states**alpha
    return Call(label, family, cost, lambda: _rate(rz.entropy_rate(hmm, alpha)), expect, _hmm_inputs(hmm, alpha))


def markov_rate_call(label, family, chain, alpha) -> Call:
    def expect():
        b, nu, _ = ref.hadamard_system(chain.transition, chain.initial, alpha)
        return ref.rate_fields(b, nu, alpha)

    return Call(
        label, family, chain.n_states, lambda: _rate(rz.markov_rate(chain, alpha)), expect, _chain_inputs(chain, alpha)
    )


# Enumerating nz^n strings is the reference while it stays this small.
BRUTE_MAX_STRINGS = 2**16


def hmm_finite_call(label, family, hmm, alpha, n) -> Call:
    def expect():
        if hmm.n_symbols**n <= BRUTE_MAX_STRINGS:
            cp = rz.oracle.brute_force_collision(hmm, alpha, n)
            return ref.finite_fields(math.log(cp) if cp > 0 else -math.inf, alpha)
        b, nu, _ = ref.collision_matrix(hmm.chain.transition, hmm.emission, hmm.chain.initial, alpha)
        return ref.finite_fields(ref.log_power_sum(b, nu, n - 1), alpha)

    cost = hmm.n_symbols * hmm.n_states**alpha
    return Call(
        label, family, cost, lambda: _finite(rz.finite_length_entropy(hmm, alpha, n)), expect, _hmm_inputs(hmm, alpha, n)
    )


def markov_finite_call(label, family, chain, alpha, n) -> Call:
    def expect():
        b, nu, _ = ref.hadamard_system(chain.transition, chain.initial, alpha)
        return ref.finite_fields(ref.log_power_sum(b, nu, n - 1), alpha)

    return Call(
        label,
        family,
        chain.n_states,
        lambda: _finite(rz.markov_finite_length(chain, alpha, n)),
        expect,
        _chain_inputs(chain, alpha, n),
    )


# ------------------------------------------------------------ workloads


def spread(groups: list[list[Call]]) -> list[Call]:
    """All calls, each group's members spread evenly over the list.

    A group of like calls then samples the box over the whole pass, not
    over the fraction of a second it would take back to back.
    """
    keyed = [((j + 0.5) / len(g), i, j, call) for i, g in enumerate(groups) for j, call in enumerate(g)]
    return [k[-1] for k in sorted(keyed, key=lambda k: k[:3])]


def rate_ladder(rng: np.random.Generator, workdir: Path) -> list[Call]:
    """Rates where the collision build, SCCs and Perron radii do the work.

    Per pass: 21 calls cheaper than the sixteen 98-dim HMMs and 21 dearer
    ones, so the median sits inside the 98-dim rung; the six sticky calls
    that run out of iterations today, with the three dearest rungs,
    hold the tail.
    """
    fixed = np.random.default_rng(FIXED_VALUES_SEED)
    rungs, others = [], []
    for alpha, nx, nz, samples in [(2, 5, 2, 19), (2, 7, 2, 16), (2, 12, 3, 2), (3, 6, 3, 1), (4, 4, 3, 1)]:
        rung = []
        for _ in range(samples):
            values = random_models.random_hmm(fixed, nx, nz)
            chain = rz.validate_chain(values.chain.transition, rng.dirichlet(np.ones(nx)))
            hmm = rz.validate_hmm(chain, values.emission)
            rung.append(hmm_rate_call(f"rate random_hmm a={alpha} d={nz * nx**alpha}", "rate-hmm", hmm, alpha))
        if samples > 1:
            rungs.append(rung)
        else:
            others += rung
    for alpha, nx, k in [(3, 8, 3), (4, 5, 3), (4, 6, 3)]:
        hmm = sparse_hmm(fixed, nx, 2, k, pi=rng.dirichlet(np.ones(nx)))
        others.append(hmm_rate_call(f"rate sparse_hmm a={alpha} d={2 * nx**alpha}", "rate-hmm", hmm, alpha))
    for blocks in (2, 5, 8):
        p, pi = block_chain(fixed, rng, blocks)
        hmm = rz.validate_hmm(rz.validate_chain(p, pi), fixed.dirichlet(np.ones(2), size=p.shape[0]))
        others.append(hmm_rate_call(f"rate block_hmm blocks={blocks}", "rate-block", hmm, 2))
        chain = rz.validate_chain(p, pi)
        others.append(markov_rate_call(f"markov_rate block blocks={blocks}", "rate-markov", chain, 1.5))
    for switch in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        p, pi = sticky_chain(rng, switch)
        chain = rz.validate_chain(p, pi)
        others.append(markov_rate_call(f"markov_rate sticky s={switch:g}", "rate-markov", chain, 2))
        bsc = rz.bsc_hmm(chain, float(rng.uniform(0.09, 0.11)))
        others.append(hmm_rate_call(f"rate bsc sticky s={switch:g}", "rate-hmm", bsc, 2))
    return spread(rungs + [others])


def finite_horizon(rng: np.random.Generator, workdir: Path) -> list[Call]:
    """Finite lengths on both sides of the dense-squaring size limit.

    Up to dimension 512 the lengths reach 10^6 (repeated squaring); above
    it they stop where one stepwise call takes about a second.  The four
    stepwise calls hold the tail.
    """
    squaring, stepwise = [], []
    for alpha, nx, nz in [(2, 7, 2), (3, 5, 2), (2, 12, 3), (4, 4, 2)]:
        hmm = random_models.random_hmm(rng, nx, nz)
        d = nz * nx**alpha
        for n in (9, 10**3, 10**6):
            squaring.append(hmm_finite_call(f"finite random_hmm a={alpha} d={d} n={n}", "finite-hmm", hmm, alpha, n))
    for nx in (100, 300, 512):
        chain = random_models.random_chain(rng, nx)
        for alpha, n in [(0.5, 100), (1.5, 10**4), (2.5, 10**6)]:
            squaring.append(markov_finite_call(f"markov_finite d={nx} a={alpha} n={n}", "finite-markov", chain, alpha, n))
    for alpha, nx, k, n in [(3, 8, 3, 10**4), (2, 20, 4, 15000)]:
        hmm = sparse_hmm(rng, nx, 2, k)
        stepwise.append(hmm_finite_call(f"finite sparse_hmm a={alpha} d={2 * nx**alpha} n={n}", "finite-hmm", hmm, alpha, n))
    for nx, k, n in [(800, 12, 18000), (600, 12, 22000)]:
        chain = rz.validate_chain(*sparse_chain(rng, nx, k))
        stepwise.append(markov_finite_call(f"markov_finite d={nx} a=1.5 n={n}", "finite-markov", chain, 1.5, n))
    return spread([squaring, stepwise])


# ------------------------------------------------------------- cli-sweep

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _number(v):
    return float(v) if v in ("inf", "-inf") else v


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rz.cli.main(argv)
    return code, out.getvalue()


def _model_system(doc: dict, alpha: float, epsilon: float | None):
    """Reference matrix, weights and dimension for a model document."""
    p = np.array(doc["transition"], dtype=float)
    pi = np.array(doc["initial"], dtype=float)
    if epsilon is not None:
        return ref.collision_matrix(p, ref.bsc_emission(epsilon), pi, int(alpha))
    if doc["kind"] == "markov":
        return ref.hadamard_system(p, pi, alpha)
    if "observation_map" in doc:
        symbols = sorted(set(doc["observation_map"].values()))
        e = np.zeros((len(doc["states"]), len(symbols)))
        for i, s in enumerate(doc["states"]):
            e[i, symbols.index(doc["observation_map"][s])] = 1.0
    else:
        e = np.array(doc["emission"], dtype=float)
    return ref.collision_matrix(p, e, pi, int(alpha))


def cli_call(command: str, path: Path, alpha: float, length: int | None = None, epsilon: float | None = None) -> Call:
    argv = [command, str(path), "--order", repr(alpha)]
    if length is not None:
        argv += ["--length", str(length)]
    if epsilon is not None:
        argv += ["--epsilon", repr(epsilon)]
    fields = {
        "rate": ("value_bits", "rho_plus", "dimension"),
        "entropy": ("value_bits", "log2_collision_probability", "dimension"),
        "components": ("rho_plus", "dimension"),
        "oracle": ("collision_probability", "value_bits"),
    }[command]

    def run():
        code, out = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        doc = json.loads(out)
        got = {k: _number(doc[k]) for k in fields}
        if command == "components":
            got["n_components"] = len(doc["components"])
            got["radii"] = sorted(c["radius"] for c in doc["components"])
        return got

    def expect():
        b, nu, dim = _model_system(json.loads(path.read_text()), alpha, epsilon)
        if command in ("rate", "components"):
            rho, radii, n_comp = ref.spectrum(b, nu)
            if command == "components":
                return {"rho_plus": rho, "dimension": dim, "n_components": n_comp, "radii": radii}
            return {"value_bits": ref.rate_bits(rho, alpha), "rho_plus": rho, "dimension": dim}
        log_cp = ref.log_power_sum(b, nu, length - 1)
        f = ref.finite_fields(log_cp, alpha)
        if command == "oracle":
            return {"collision_probability": math.exp(log_cp), "value_bits": f["value_bits"]}
        return {"value_bits": f["value_bits"], "log2_collision_probability": f["log2_collision"], "dimension": dim}

    label = " ".join(argv).replace(str(path), path.name)
    return Call(label, f"cli-{command}", 1.0, run, expect, (path.read_text(),))


def _write(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return path


# Small generated models, five calls each: the calls around the median,
# where per-call overhead dominates.
GENERATED_MODELS = 20


def cli_sweep(rng: np.random.Generator, workdir: Path) -> list[Call]:
    """All four subcommands at small sizes, where per-call overhead dominates."""
    fig2, bsc, m142 = FIXTURES / "fig2.model", FIXTURES / "bsc.model", FIXTURES / "markov142.model"
    calls = []
    for alpha in range(2, 9):
        calls += [cli_call("rate", fig2, float(alpha)), cli_call("components", fig2, float(alpha))]
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3):
        calls.append(cli_call("rate", bsc, 2.0, epsilon=eps))
    for alpha in (0.5, 1.5, 2.5, 3.0):
        calls.append(cli_call("rate", m142, alpha))
    calls += [
        cli_call("entropy", fig2, 2.0, length=10),
        cli_call("entropy", fig2, 3.0, length=10**6),
        cli_call("entropy", m142, 1.5, length=100),
        cli_call("oracle", fig2, 2.0, length=10),
        cli_call("oracle", bsc, 2.0, length=8, epsilon=0.1),
    ]
    for i in range(GENERATED_MODELS):
        p, pi = sparse_chain(rng, 4, 3)
        states = [f"s{j}" for j in range(4)]
        mk = _write(workdir, f"markov{i}.model", {
            "format": 1, "kind": "markov", "states": states,
            "transition": p.tolist(), "initial": pi.tolist(),
        })
        hm = _write(workdir, f"hmm{i}.model", {
            "format": 1, "kind": "hmm", "states": states,
            "transition": p.tolist(), "initial": pi.tolist(),
            "observations": ["x", "y"], "emission": rng.dirichlet(np.ones(2), size=4).tolist(),
        })
        alpha = round(float(rng.uniform(1.1, 3.5) if i % 2 else rng.uniform(0.3, 0.9)), 3)
        calls += [
            cli_call("rate", mk, alpha),
            cli_call("entropy", mk, alpha, length=int(rng.integers(10, 10**4))),
            cli_call("rate", hm, 2.0),
            cli_call("entropy", hm, 2.0, length=int(rng.integers(10, 10**4))),
            cli_call("oracle", hm, 2.0, length=10),
        ]
    return calls


BUILDERS = {"rate-ladder": rate_ladder, "finite-horizon": finite_horizon, "cli-sweep": cli_sweep}


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The workload's call list; the same seed gives the same list."""
    return BUILDERS[workload](np.random.default_rng(seed), workdir)

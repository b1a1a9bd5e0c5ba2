"""CLI JSON on the fixtures, byte for byte against the files in tests/golden/.

Each `rate` or `components` golden file is the stdout of one call, as
written by the package before the sparse-native rate path replaced the
dense one.  Each `entropy` golden file was written by the package before
finite lengths moved to the symbol-summed tuple matrix.  A change that
moves any reported digit fails here.

Every radius, rho_plus and value_bits in the `rate` and `components`
files is also checked against the 12 significant digits of the exact
value, the Perron root of the collision matrix enclosed at 40 digits.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from renyirates import MarkovChain, bsc_hmm
from renyirates.cli import main
from renyirates.modelfile import load_model

from conftest import FIXTURES
from independent import perron_enclosure, rate_bits, restricted_kronecker_power, round12

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (fixture, order, None)
    for fixture in ("bsc", "fig2", "iid-uniform-2", "markov142", "unit")
    for order in range(2, 9 if fixture == "fig2" else 5)
] + [("bsc", order, 0.1) for order in range(2, 5)]


ENTROPY_CASES = [
    (fixture, order, None)
    for fixture in ("bsc", "fig2", "iid-uniform-2", "markov142", "unit")
    for order in range(2, 5)
] + [("bsc", order, 0.1) for order in range(2, 5)]

LENGTHS = (1, 10, 10**4, 10**6)


def _golden_name(command, fixture, order, epsilon, length=None):
    stem = f"{command}-{fixture}-order{order}"
    stem += f"-epsilon{epsilon}" if epsilon is not None else ""
    return stem + (f"-length{length}" if length is not None else "") + ".json"


def _argv(command, fixture, order, epsilon):
    argv = [command, str(FIXTURES / f"{fixture}.model"), "--order", str(order)]
    return argv + (["--epsilon", str(epsilon)] if epsilon is not None else [])


@pytest.mark.parametrize("command", ["rate", "components"])
@pytest.mark.parametrize("fixture,order,epsilon", CASES)
def test_cli_json_matches_golden(capsys, command, fixture, order, epsilon):
    assert main(_argv(command, fixture, order, epsilon)) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / _golden_name(command, fixture, order, epsilon)).read_bytes()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("fixture,order,epsilon", ENTROPY_CASES)
def test_entropy_json_matches_golden(capsys, fixture, order, epsilon, length):
    assert main(_argv("entropy", fixture, order, epsilon) + ["--length", str(length)]) == 0
    out = capsys.readouterr().out
    expected = GOLDEN / _golden_name("entropy", fixture, order, epsilon, length)
    assert out.encode() == expected.read_bytes()


def test_every_golden_file_is_checked():
    expected = {
        _golden_name(command, *case)
        for command in ("rate", "components")
        for case in CASES
    } | {
        _golden_name("entropy", *case, length)
        for case in ENTROPY_CASES
        for length in LENGTHS
    }
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


def _collision_matrix(fixture, order, epsilon):
    """A as a dense array and its node labels, built apart from the package's tensor code.

    A chain's A is P^(o order), an HMM's the restricted Kronecker power.
    """
    model = load_model(FIXTURES / f"{fixture}.model")
    if epsilon is not None:
        model = bsc_hmm(model, epsilon)
    if isinstance(model, MarkovChain):
        return model.transition**order, model.states
    matrix, _, _, labels = restricted_kronecker_power(model, order)
    return matrix.to_dense(), labels


@pytest.mark.parametrize("fixture,order,epsilon", CASES)
def test_printed_digits_round_the_exact_roots(fixture, order, epsilon):
    # each printed radius is the correctly rounded Perron root of its
    # component's block of A; rho_plus is the dominant one, and value_bits
    # its log2 over 1 - order, rounded from the enclosure
    rate, comps = (
        json.loads((GOLDEN / _golden_name(command, fixture, order, epsilon)).read_text())
        for command in ("rate", "components")
    )
    a, labels = _collision_matrix(fixture, order, epsilon)
    node = {label: i for i, label in enumerate(labels)}
    enclosures = []
    for comp in comps["components"]:
        members = [node[label] for label in comp["members"]]
        enclosures.append(perron_enclosure(a[np.ix_(members, members)]))
        assert comp["radius"] == rate["component_radii"][comp["id"]] == round12(*enclosures[-1])
    lo, hi = enclosures[rate["dominant_component"]]
    assert rate["rho_plus"] == comps["rho_plus"] == round12(lo, hi)
    assert rate["value_bits"] == round12(*rate_bits(lo, hi, rate["order"]))

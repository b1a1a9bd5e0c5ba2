"""CLI JSON on the fixtures, byte for byte against the files in tests/golden/.

Each `rate` or `components` golden file is the stdout of one call, as
written by the package before the sparse-native rate path replaced the
dense one.  Each `entropy` golden file was written by the package before
finite lengths moved to the symbol-summed tuple matrix.  A change that
moves any reported digit fails here.
"""

from pathlib import Path

import pytest

from renyirates.cli import main

from conftest import FIXTURES

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

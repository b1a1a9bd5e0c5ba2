"""CLI JSON on the fixtures, byte for byte against the files in tests/golden/.

Each golden file is the stdout of one `rate` or `components` call, as
written by the package before the sparse-native rate path replaced the
dense one; a change that moves any reported digit fails here.
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


def _golden_name(command, fixture, order, epsilon):
    stem = f"{command}-{fixture}-order{order}"
    return stem + (f"-epsilon{epsilon}" if epsilon is not None else "") + ".json"


@pytest.mark.parametrize("command", ["rate", "components"])
@pytest.mark.parametrize("fixture,order,epsilon", CASES)
def test_cli_json_matches_golden(capsys, command, fixture, order, epsilon):
    argv = [command, str(FIXTURES / f"{fixture}.model"), "--order", str(order)]
    if epsilon is not None:
        argv += ["--epsilon", str(epsilon)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / _golden_name(command, fixture, order, epsilon)).read_bytes()


def test_every_golden_file_is_checked():
    expected = {
        _golden_name(command, *case)
        for command in ("rate", "components")
        for case in CASES
    }
    assert {p.name for p in GOLDEN.glob("*.json")} == expected

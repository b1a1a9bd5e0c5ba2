import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from renyirates import HiddenMarkovModel, MarkovChain, bsc_hmm, cli, entropy, markov_rate, tensor
from renyirates.cli import main
from renyirates.errors import ModelFormatError
from renyirates.modelfile import load_model, parse_model, serialize_model
from renyirates.oracle import brute_force_collision
from renyirates.random_models import random_hmm

from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out else None
    return code, doc, out.err


class TestModelFile:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fig2.model", HiddenMarkovModel),
            ("markov142.model", MarkovChain),
            ("unit.model", HiddenMarkovModel),
            ("iid-uniform-2.model", HiddenMarkovModel),
            ("bsc.model", MarkovChain),
        ],
    )
    def test_fixtures_parse(self, name, cls):
        assert isinstance(load_model(FIXTURES / name), cls)

    @pytest.mark.parametrize("name", ["fig2.model", "markov142.model", "bsc.model"])
    def test_round_trip_idempotent(self, name):
        model = load_model(FIXTURES / name)
        doc = serialize_model(model)
        again = serialize_model(parse_model(doc))
        assert doc == again

    def test_unknown_field_rejected(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["comment"] = "nope"
        with pytest.raises(ModelFormatError):
            parse_model(doc)

    def test_bad_version_rejected(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["format"] = 99
        with pytest.raises(ModelFormatError):
            parse_model(doc)

    def test_emission_on_markov_rejected(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["emission"] = [[1.0]]
        with pytest.raises(ModelFormatError):
            parse_model(doc)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_rejected(self, tmp_path, constant):
        text = (FIXTURES / "markov142.model").read_text()
        path = tmp_path / "bad.model"
        path.write_text(text.replace("[0.9", f"[{constant}", 1))
        assert path.read_text() != text
        with pytest.raises(ModelFormatError, match=constant):
            load_model(path)

    def test_non_finite_entry_in_document_rejected(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["transition"][0][0] = math.nan
        with pytest.raises(ModelFormatError, match="non-finite"):
            parse_model(doc)

    def test_hmm_needs_one_channel_spec(self):
        doc = json.loads((FIXTURES / "fig2.model").read_text())
        doc["observations"] = ["a", "b"]
        doc["emission"] = [[1, 0], [0, 1], [1, 0]]
        with pytest.raises(ModelFormatError):
            parse_model(doc)  # both map and channel given

    @pytest.mark.parametrize(
        "omap", [{"1": 0, "2": 1, "3": 0}, {"1": "a", "2": 1, "3": "a"}]
    )
    def test_non_string_observation_map_rejected(self, omap):
        doc = json.loads((FIXTURES / "fig2.model").read_text())
        doc["observation_map"] = omap
        with pytest.raises(ModelFormatError, match="observation_map"):
            parse_model(doc)


    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial", {"a": 1}),
            ("initial", ["0.3", 0.3, 0.4]),
            ("initial", [True, False, False]),
            ("initial", [None, 0.5, 0.5]),
            ("initial", 1.0),
            ("transition", [[0.9, 0.1, 0.0], [0.0, 0.4, 0.6], "row"]),
            ("transition", [[1, 0, 0], [0, True, 0], [0, 0, 1]]),
            ("transition", [0.9, 0.1, 0.0]),
            ("emission", [[0.5, "0.5"]]),
            ("emission", [[False, True]]),
            ("emission", [{"0": 0.5, "1": 0.5}]),
        ],
    )
    def test_non_number_entries_rejected(self, field, value):
        # numpy would turn "0.5" and true into numbers, and a dict into a
        # TypeError; each is refused as a format error naming its field
        name = "iid-uniform-2.model" if field == "emission" else "markov142.model"
        doc = json.loads((FIXTURES / name).read_text())
        doc[field] = value
        with pytest.raises(ModelFormatError, match=f"{field} must be a list"):
            parse_model(doc)

    def test_int_past_the_float_range_rejected(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["initial"] = [10**400, 0, 0]
        with pytest.raises(ModelFormatError, match="int too large to convert to float"):
            parse_model(doc)

    def test_int_entries_accepted(self):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["transition"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        doc["initial"] = [1, 0, 0]
        assert parse_model(doc).transition.tolist() == np.eye(3).tolist()

    def test_duplicate_observations_rejected(self):
        doc = json.loads((FIXTURES / "iid-uniform-2.model").read_text())
        doc["observations"] = ["x", "x"]
        with pytest.raises(ModelFormatError, match="'x' repeats"):
            parse_model(doc)

    @pytest.mark.parametrize("states", [["1", "2", "1"], ["1", 2, "3"], "123"])
    def test_bad_states_rejected(self, states):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["states"] = states
        with pytest.raises(ModelFormatError, match="state"):
            parse_model(doc)


class TestCmdEntropy:
    def test_fig2_matches_oracle(self, capsys):
        code, doc, _ = run_cli(
            capsys, "entropy", FIXTURES / "fig2.model", "--order", "2", "--length", "2"
        )
        assert code == 0
        hmm = load_model(FIXTURES / "fig2.model")
        expected = -math.log2(brute_force_collision(hmm, 2, 2))
        assert doc["value_bits"] == pytest.approx(expected, rel=1e-10)
        assert doc["dimension"] == 5

    def test_unit_model_zero(self, capsys):
        code, doc, _ = run_cli(
            capsys, "entropy", FIXTURES / "unit.model", "--order", "3", "--length", "100"
        )
        assert code == 0
        assert doc["value_bits"] == 0.0

    def test_long_horizon(self, capsys):
        code, doc, _ = run_cli(
            capsys,
            "entropy", FIXTURES / "fig2.model", "--order", "2", "--length", "1000000",
        )
        assert code == 0
        assert doc["finite"] is True
        assert doc["value_bits"] / 1e6 == pytest.approx(0.30401, abs=1e-4)

    def test_markov_kind_real_order(self, capsys):
        code, doc, _ = run_cli(
            capsys,
            "entropy", FIXTURES / "markov142.model",
            "--order", "2.5", "--length", "3",
        )
        assert code == 0
        assert doc["kind"] == "markov"
        assert doc["value_bits"] > 0


class TestCmdRate:
    def test_fig2(self, capsys):
        code, doc, _ = run_cli(capsys, "rate", FIXTURES / "fig2.model", "--order", "2")
        assert code == 0
        assert doc["value_bits"] == pytest.approx(0.30401, abs=1e-4)
        assert doc["rho_plus"] == pytest.approx(0.81, abs=1e-9)
        radii = sorted(doc["component_radii"])
        assert radii == pytest.approx([0.36, 0.36, 0.52, 0.81], abs=1e-9)

    def test_markov142_flags_transient_dominant(self, capsys):
        code, doc, _ = run_cli(
            capsys, "rate", FIXTURES / "markov142.model", "--order", "2"
        )
        assert code == 0
        assert doc["value_bits"] == pytest.approx(0.30401, abs=1e-4)
        assert doc["dominant_members"] == ["1"]

    def test_bsc_zero_noise_equals_markov_rate(self, capsys):
        code, doc, _ = run_cli(
            capsys, "rate", FIXTURES / "bsc.model", "--order", "2", "--epsilon", "0"
        )
        assert code == 0
        chain = load_model(FIXTURES / "bsc.model")
        assert doc["value_bits"] == pytest.approx(
            markov_rate(chain, 2).value_bits, abs=1e-12
        )


class TestCmdComponents:
    def test_fig2(self, capsys):
        code, doc, _ = run_cli(
            capsys, "components", FIXTURES / "fig2.model", "--order", "2"
        )
        assert code == 0
        assert doc["dimension"] == 5
        # four irreducible blocks: (1,1), (1,3), (3,1), and the mixing pair
        assert len(doc["components"]) == 4
        members = {frozenset(c["members"]) for c in doc["components"]}
        assert frozenset({"3,3|a", "2,2|b"}) in members

    def test_unit(self, capsys):
        code, doc, _ = run_cli(
            capsys, "components", FIXTURES / "unit.model", "--order", "2"
        )
        assert code == 0
        assert doc["dimension"] == 1
        assert len(doc["components"]) == 1
        assert doc["components"][0]["radius"] == pytest.approx(1.0)

    def test_bsc_degree_eight_polynomial(self, capsys):
        code, doc, _ = run_cli(
            capsys,
            "components", FIXTURES / "bsc.model", "--order", "2", "--epsilon", "0.1",
        )
        assert code == 0
        assert doc["dimension"] == 8
        assert len(doc["characteristic_polynomial"]) == 9

    @pytest.mark.parametrize("order,dimension", [("2", 7), ("3", 12)])
    def test_one_dimension_for_entropy_rate_and_components(self, capsys, tmp_path, order, dimension):
        # an emission of 1e-200 makes some emission products underflow to 0;
        # every command counts the nodes of A that remain
        path = tmp_path / "tiny.model"
        path.write_text(json.dumps({
            "format": 1, "kind": "hmm", "states": ["1", "2"],
            "transition": [[0.6, 0.4], [0.3, 0.7]], "initial": [0.5, 0.5],
            "observations": ["a", "b"], "emission": [[1.0, 1e-200], [0.5, 0.5]],
        }))
        dims = []
        for command, extra in [("entropy", ["--length", "5"]), ("rate", []), ("components", [])]:
            code, doc, _ = run_cli(capsys, command, path, "--order", order, *extra)
            assert code == 0
            dims.append(doc["dimension"])
        assert dims == [dimension] * 3
        assert len(doc["nodes"]) == dimension

    def test_deterministic_observation_rates_from_the_collision_system(self, capsys, tmp_path):
        # dense 44 states observed in 11 groups of 4 at order 3: A is
        # irreducible and stores 495,616 entries, and the lumped build, one
        # group's columns a pass, enumerates 154,880; both commands rate
        # from that lumped collision system and agree
        chain = random_hmm(np.random.default_rng(44), 44, 1).chain
        path = tmp_path / "groups.model"
        path.write_text(json.dumps({
            "format": 1, "kind": "hmm", "states": list(chain.states),
            "transition": chain.transition.tolist(), "initial": chain.initial.tolist(),
            "observations": [f"g{g}" for g in range(11)],
            "emission": np.repeat(np.eye(11), 4, axis=0).tolist(),
        }))
        code, rate, _ = run_cli(capsys, "rate", path, "--order", "3")
        assert code == 0
        code, comps, _ = run_cli(capsys, "components", path, "--order", "3")
        assert code == 0
        assert rate["dimension"] == comps["dimension"] == 11 * 4**3
        assert rate["rho_plus"] == max(c["radius"] for c in comps["components"])

    @pytest.mark.parametrize("nx,nz,order", [(8, 3, "4"), (16, 4, "3")])
    def test_dense_model_reports_the_rate_analysis(self, capsys, tmp_path, monkeypatch, nx, nz, order):
        # A would store 151M entries (8 x 3 at order 4) or 268M (16 x 4 at
        # order 3), past the build budget; it is irreducible, so both
        # commands take the lumped matrix and A is never built
        def refuse(*args, **kwargs):
            raise AssertionError("collision_system ran")

        for module in (tensor, entropy, cli):
            monkeypatch.setattr(module, "collision_system", refuse)
        path = tmp_path / "dense.model"
        path.write_text(json.dumps(serialize_model(random_hmm(np.random.default_rng(0), nx, nz))))
        code, rate, _ = run_cli(capsys, "rate", path, "--order", order)
        assert code == 0
        code, comps, _ = run_cli(capsys, "components", path, "--order", order)
        assert code == 0
        assert comps["rho_plus"] == rate["rho_plus"]
        assert comps["dimension"] == rate["dimension"] == nz * nx ** int(order)
        assert len(comps["components"]) == 1 and comps["characteristic_polynomial"] is None

    def test_lumped_rate_builds_a_once_for_the_polynomial(self, capsys, monkeypatch):
        # bsc at epsilon = 0.1 and order 4 rates on the lumped matrix; its
        # 32-node A is built once, only for the characteristic polynomial
        builds, inner = [], tensor.collision_system

        def spy(*args, **kwargs):
            builds.append(1)
            return inner(*args, **kwargs)

        for module in (tensor, entropy, cli):
            monkeypatch.setattr(module, "collision_system", spy)
        bsc = FIXTURES / "bsc.model"
        assert tensor.irreducible(bsc_hmm(load_model(bsc), 0.1), 4) is True
        builds.clear()
        argv = ["components", str(bsc), "--order", "4", "--epsilon", "0.1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert builds == [1]
        assert json.loads(out)["dimension"] == 32
        golden = Path(__file__).resolve().parent / "golden" / "components-bsc-order4-epsilon0.1.json"
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("order", ["1", "0", "-1", "inf"])
    def test_markov_order_checked_like_rate(self, capsys, order):
        model = FIXTURES / "markov142.model"
        code, doc, err = run_cli(capsys, "components", model, "--order", order)
        assert code == 1
        assert doc is None
        rate_code, _, rate_err = run_cli(capsys, "rate", model, "--order", order)
        assert rate_code == 1
        assert err == rate_err
        assert "order must be positive and != 1" in err


class TestCmdOracle:
    def test_fig2_matches_entropy_command(self, capsys):
        code, doc_o, _ = run_cli(
            capsys, "oracle", FIXTURES / "fig2.model", "--order", "2", "--length", "8"
        )
        assert code == 0
        code, doc_e, _ = run_cli(
            capsys, "entropy", FIXTURES / "fig2.model", "--order", "2", "--length", "8"
        )
        assert code == 0
        cp_formula = 2.0 ** doc_e["log2_collision_probability"]
        assert doc_o["collision_probability"] == pytest.approx(cp_formula, rel=1e-10)

    def test_unit_zero(self, capsys):
        code, doc, _ = run_cli(
            capsys, "oracle", FIXTURES / "unit.model", "--order", "2", "--length", "5"
        )
        assert code == 0
        assert doc["value_bits"] == 0.0

    def test_iid_uniform_closed_form(self, capsys):
        code, doc, _ = run_cli(
            capsys,
            "oracle", FIXTURES / "iid-uniform-2.model", "--order", "2", "--length", "3",
        )
        assert code == 0
        assert doc["collision_probability"] == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_non_integer_order_rejected(self, capsys):
        code, doc, err = run_cli(
            capsys, "oracle", FIXTURES / "fig2.model", "--order", "2.5", "--length", "3"
        )
        assert code == 1
        assert doc is None
        assert "integer" in err

    def test_refuses_huge_enumeration(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", FIXTURES / "fig2.model", "--order", "2", "--length", "40"
        )
        assert code == 3
        assert "cap" in err


class TestCliContract:
    def test_deterministic_output(self, capsys):
        main(["rate", str(FIXTURES / "fig2.model"), "--order", "2"])
        first = capsys.readouterr().out
        main(["rate", str(FIXTURES / "fig2.model"), "--order", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "rate", bad, "--order", "2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["rate", "components", "entropy"])
    def test_nan_model_exits_with_validation_message(self, capsys, tmp_path, command):
        text = (FIXTURES / "fig2.model").read_text()
        path = tmp_path / "nan.model"
        path.write_text(text.replace("[0.9, 0.1, 0.0]", "[NaN, 0.1, 0.0]"))
        extra = ["--length", "5"] if command == "entropy" else []
        code, doc, err = run_cli(capsys, command, path, "--order", "2", *extra)
        assert code == 1
        assert doc is None
        assert "non-finite number NaN" in err
        assert "did not reach tolerance" not in err

    @pytest.mark.parametrize("command", ["rate", "components", "entropy", "oracle"])
    @pytest.mark.parametrize(
        "omap", ['{"1": 0, "2": 1, "3": 0}', '{"1": "a", "2": 1, "3": "a"}']
    )
    def test_non_string_observation_map_exits_1(self, capsys, tmp_path, command, omap):
        text = (FIXTURES / "fig2.model").read_text()
        path = tmp_path / "map.model"
        path.write_text(text.replace('{"1": "a", "2": "b", "3": "a"}', omap))
        assert path.read_text() != text
        extra = ["--length", "3"] if command in ("entropy", "oracle") else []
        code, doc, err = run_cli(capsys, command, path, "--order", "2", *extra)
        assert code == 1
        assert doc is None
        assert "observation_map must be an object with string values" in err

    @pytest.mark.parametrize("command", ["rate", "components", "entropy"])
    def test_non_number_entry_exits_1(self, capsys, tmp_path, command):
        doc = json.loads((FIXTURES / "markov142.model").read_text())
        doc["initial"] = {"a": 1}
        path = tmp_path / "dict.model"
        path.write_text(json.dumps(doc))
        extra = ["--length", "3"] if command == "entropy" else []
        code, out, err = run_cli(capsys, command, path, "--order", "2", *extra)
        assert code == 1
        assert out is None
        assert err == "error: invalid chain: initial must be a list of numbers\n"

    @pytest.mark.parametrize(
        "command,order,extra",
        [("rate", "5000", []), ("entropy", "1000", ["--length", "50"]), ("components", "1000", [])],
    )
    def test_markov_order_that_underflows_exits_1(self, capsys, tmp_path, command, order, extra):
        # 0.1^1000 underflows to 0: P's Hadamard power would lose its
        # off-diagonal entries, and pi^5000 all of pi
        path = tmp_path / "two.model"
        path.write_text(json.dumps({
            "format": 1, "kind": "markov", "states": ["a", "b"],
            "transition": [[0.9, 0.1], [0.2, 0.8]], "initial": [0.5, 0.5],
        }))
        code, out, err = run_cli(capsys, command, path, "--order", order, *extra)
        assert code == 1
        assert out is None
        assert err == f"error: order {float(order)} underflows positive entries of P or pi0 to 0\n"

    @pytest.mark.parametrize("command", ["rate", "components", "entropy", "oracle"])
    def test_duplicate_observations_exit_1(self, capsys, tmp_path, command):
        text = (FIXTURES / "iid-uniform-2.model").read_text()
        path = tmp_path / "dup.model"
        path.write_text(text.replace('["0", "1"]', '["x", "x"]'))
        assert path.read_text() != text
        extra = ["--length", "3"] if command in ("entropy", "oracle") else []
        code, doc, err = run_cli(capsys, command, path, "--order", "2", *extra)
        assert code == 1
        assert doc is None
        assert "observation labels must be unique" in err

    @pytest.mark.parametrize(
        "model,command",
        [("fig2.model", "rate"), ("fig2.model", "components"), ("bsc.model", "rate")],
    )
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_1(self, capsys, model, command, tol):
        code, doc, err = run_cli(
            capsys, command, FIXTURES / model, "--order", "2", "--tolerance", tol
        )
        assert code == 1
        assert doc is None
        assert "radius tolerance must be finite and >= 0" in err

    def test_zero_tolerance_accepted(self, capsys):
        code, doc, _ = run_cli(
            capsys, "rate", FIXTURES / "fig2.model", "--order", "2", "--tolerance", "0"
        )
        assert code == 0
        assert doc["rho_plus"] == pytest.approx(0.81, abs=1e-9)

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "rate", "no-such-file.model", "--order", "2")
        assert code == 1

    def test_dimension_guard_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "entropy", FIXTURES / "fig2.model",
            "--order", "2", "--length", "2", "--max-dim", "3",
        )
        assert code == 3

    def test_build_budget_exit_code(self, capsys, tmp_path):
        # 16 states and 4 symbols pass --max-dim at order 3; with no way
        # into state 0, A is reducible, so `components` builds it, and A
        # would store 221M entries: refused before the build allocates
        hmm = random_hmm(np.random.default_rng(0), 16, 4)
        p = hmm.chain.transition.copy()
        p[:, 0] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        doc = serialize_model(hmm)
        doc["transition"] = p.tolist()
        path = tmp_path / "reducible.model"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "components", path, "--order", "3")
        assert code == 3
        assert "budget" in err
        # dense 12 states and 1 symbol at order 5: A is irreducible, and the
        # lumped build would enumerate 1.09e9 successor entries
        path = tmp_path / "dense12.model"
        path.write_text(json.dumps(serialize_model(random_hmm(np.random.default_rng(0), 12, 1))))
        code, _, err = run_cli(capsys, "rate", path, "--order", "5")
        assert code == 3
        assert "budget" in err and "lumped system" in err

    @pytest.mark.parametrize("order", ["65", "1e6", "1e12"])
    @pytest.mark.parametrize("fixture", ["unit", "iid-uniform-2", "fig2"])
    def test_orders_past_64_exit_3_at_once(self, capsys, fixture, order):
        for command, extra in [("rate", []), ("components", []), ("entropy", ["--length", "3"])]:
            start = time.perf_counter()
            code, doc, err = run_cli(
                capsys, command, FIXTURES / f"{fixture}.model", "--order", order, *extra
            )
            assert time.perf_counter() - start < 1.0
            assert code == 3
            assert doc is None
            assert "exceeds 64" in err

    def test_order_64_still_reports(self, capsys):
        model = FIXTURES / "iid-uniform-2.model"
        for command, extra in [("rate", []), ("components", []), ("entropy", ["--length", "3"])]:
            code, doc, _ = run_cli(capsys, command, model, "--order", "64", *extra)
            assert code == 0
            assert doc["order"] == 64

    @pytest.mark.parametrize(
        "command,option",
        [("entropy", "--tolerance"), ("oracle", "--tolerance"), ("oracle", "--max-dim")],
    )
    def test_options_a_subcommand_does_not_read_are_usage_errors(self, capsys, command, option):
        argv = [command, str(FIXTURES / "fig2.model"), "--order", "2", "--length", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        fig2 = str(FIXTURES / "fig2.model")
        calls = [
            ["rate", fig2, "--order", "2"],
            ["entropy", fig2, "--order", "2", "--length", "5", "--tolerance", "1"],
            ["components", fig2, "--order", "3"],
            ["rate", fig2, "--order", "3", "--tolerance", "1e-10"],
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")

        def alone(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "renyirates.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True,
                text=True,
                timeout=60,
            )
            return proc.returncode, proc.stdout, proc.stderr

        expected = [alone(argv) for argv in calls]
        assert [code for code, _, _ in expected] == [0, 2, 0, 0]
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv, want in zip(calls, expected):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == want
        assert built == []

    def test_non_integer_order_on_hmm_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "rate", FIXTURES / "fig2.model", "--order", "1.5"
        )
        assert code == 1
        assert "integer" in err

    def test_floats_formatted_to_12_significant_digits(self, capsys):
        _, doc, _ = run_cli(capsys, "rate", FIXTURES / "fig2.model", "--order", "2")
        assert doc["value_bits"] == float(f"{-math.log2(0.81):.12g}")

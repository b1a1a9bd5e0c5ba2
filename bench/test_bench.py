"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import renyirates as rz  # noqa: E402
import calls  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    for sub in "abc":
        (tmp_path / sub).mkdir()
    return tmp_path


def test_same_seed_same_call_list_other_seed_different(workdir):
    for workload in calls.BUILDERS:
        first = calls.digest(calls.build(workload, 7, workdir / "a"))
        again = calls.digest(calls.build(workload, 7, workdir / "b"))
        other = calls.digest(calls.build(workload, 8, workdir / "c"))
        assert first == again, workload
        assert first != other, workload


def test_reference_check_rejects_a_perturbed_value(workdir):
    call = next(c for c in calls.build("cli-sweep", 3, workdir / "a") if c.label.startswith("rate hmm0"))
    got, expected = call.run(), call.expect()
    assert ref.matches(got, expected)
    for field in ("value_bits", "rho_plus"):
        bad = dict(got, **{field: got[field] * (1 + 1e-6)})
        assert not ref.matches(bad, expected), field
    assert not ref.matches(dict(got, dimension=got["dimension"] + 1), expected)
    assert not ref.matches({k: v for k, v in got.items() if k != "rho_plus"}, expected)
    assert ref.matches(dict(got, new_field=1.0), expected)


def test_finite_reference_agrees_with_brute_force_and_rejects_perturbation():
    rng = np.random.default_rng(5)
    hmm = rz.random_models.random_hmm(rng, 3, 2)
    for n in (1, 4, 12):
        b, nu, _ = ref.collision_matrix(hmm.chain.transition, hmm.emission, hmm.chain.initial, 2)
        loop = ref.finite_fields(ref.log_power_sum(b, nu, n - 1), 2)
        brute = ref.finite_fields(math.log(rz.oracle.brute_force_collision(hmm, 2, n)), 2)
        assert ref.matches(loop, brute)
        assert not ref.matches(dict(loop, value_bits=loop["value_bits"] + 1e-6), brute)


def test_rate_reference_matches_worked_example():
    p = [[0.9, 0.1, 0.0], [0.0, 0.4, 0.6], [0.0, 0.6, 0.4]]
    e = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    b, nu, dim = ref.collision_matrix(p, e, np.full(3, 1 / 3), 2)
    rho, radii, n_comp = ref.spectrum(b, nu)
    assert dim == 5 and n_comp == 4
    assert rho == pytest.approx(0.81, abs=1e-12)
    assert radii == pytest.approx([0.36, 0.36, 0.52, 0.81], abs=1e-12)


def test_sticky_calls_that_fail_today_have_references(workdir):
    sticky = [c for c in calls.build("rate-ladder", 1, workdir / "a") if "sticky s=1e-06" in c.label]
    assert [c.label.split()[0] for c in sticky] == ["markov_rate", "rate"]
    with pytest.raises(rz.errors.NoConvergence):
        sticky[0].run()
    s = 1e-6  # Perron root of [[a, b], [c, d]], the Hadamard square of the chain
    a, b, c, d = (1 - s) ** 2, s**2, (2 * s) ** 2, (1 - 2 * s) ** 2
    rho = (a + d) / 2 + math.sqrt(((a - d) / 2) ** 2 + b * c)
    assert sticky[0].expect()["rho_plus"] == pytest.approx(rho, abs=1e-12)
    assert 0 < sticky[1].expect()["rho_plus"] < 1


def _traced_calls(tracer, call_list):
    tracer.install()
    try:
        records = run.run_pass(call_list, lambda f: tracer.wrap(tracing.ROOT_SPAN, f))
    finally:
        tracer.uninstall()
    return records


def test_self_times_add_up_to_traced_wall_time(workdir):
    call_list = calls.build("cli-sweep", 1, workdir / "a")[:20]
    tracer = tracing.Tracer()
    records = _traced_calls(tracer, call_list)
    assert all(not isinstance(r, Exception) for _, _, r in records)
    selft = tracer.self_times()
    assert {"cli.main", "modelfile.load_model", "tensor.collision_system"} <= set(selft)
    assert sum(selft.values()) == pytest.approx(tracer.wall(), rel=1e-9)
    assert tracer.wall() <= sum(t for _, t, _ in records)
    layers = tracer.layer_metrics(1)
    timed = sum(layers[m] for m in tracing.TIME_METRICS)
    assert timed == pytest.approx(tracer.wall(), rel=1e-9)


def test_uninstall_restores_every_rebound_function(workdir):
    originals = (rz.entropy_rate, rz.spectral.growth_rate, rz.entropy.growth_rate, rz.nonneg.NonnegMatrix.to_dense)
    tracer = tracing.Tracer()
    tracer.install()
    assert rz.entropy_rate is not originals[0]
    assert rz.entropy.growth_rate is not originals[2]
    tracer.uninstall()
    assert (rz.entropy_rate, rz.spectral.growth_rate, rz.entropy.growth_rate, rz.nonneg.NonnegMatrix.to_dense) == originals


def test_missing_wrapped_name_is_reported_absent(monkeypatch, workdir):
    spanned = dict(tracing.SPANNED)
    spanned["renyirates.spectral"] = spanned["renyirates.spectral"] + ["no_such_function"]
    spanned["renyirates.no_such_module"] = ["anything"]
    monkeypatch.setattr(tracing, "SPANNED", spanned)
    tracer = tracing.Tracer()
    _traced_calls(tracer, calls.build("cli-sweep", 1, workdir / "a")[:2])
    assert set(tracer.absent) == {"spectral.no_such_function", "no_such_module.anything"}
    assert tracer.layer_metrics(1)["trace.absent"] == 2


def test_radius_counters_see_failures():
    tracer = tracing.Tracer()
    chain = rz.validate_chain([[1 - 1e-5, 1e-5], [2e-5, 1 - 2e-5]], [0.5, 0.5])
    tracer.install()
    try:
        with pytest.raises(rz.errors.NoConvergence):
            tracer.wrap(tracing.ROOT_SPAN, lambda: rz.markov_rate(chain, 2))()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1)
    assert layers["spectral.radius_calls"] == 1
    assert layers["spectral.radius_fail"] == 1
    assert layers["spectral.radius_useful_frac"] == 0.0


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(90.0)


def test_exits_nonzero_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

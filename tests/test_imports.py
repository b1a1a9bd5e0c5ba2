"""Import cost: the package and its CLI load only numpy and scipy.sparse.

scipy.sparse.csgraph pulls in scipy.sparse.linalg and scipy.linalg; on a
2-core x86 box they add 0.10-0.15 s to an import that takes 0.32-0.38 s,
so every CLI start-up would pay for them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import renyirates

HEAVY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def test_import_does_not_load_heavy_scipy_modules():
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, sys; import renyirates, renyirates.cli; "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []


def test_noda_hand_over_does_not_load_heavy_scipy_modules():
    # a lazy import on the inverse-iteration path would slip past the import-time check
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, sys; import renyirates, renyirates.cli; from renyirates import spectral; "
        "solves = []; inner = spectral._noda; "
        "spectral._noda = lambda *args: solves.append(1) or inner(*args); "
        "chain = renyirates.validate_chain([[1 - 1e-6, 1e-6], [2e-6, 1 - 2e-6]], [0.5, 0.5]); "
        "rate = renyirates.entropy_rate(renyirates.bsc_hmm(chain, 0.1), 2).value_bits; "
        f"print(json.dumps([len(solves), rate, [m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    hand_overs, rate, heavy = json.loads(out.stdout)
    assert hand_overs >= 1
    assert 0.0 < rate < 1.0
    assert heavy == []


def test_symbol_summed_paths_do_not_load_heavy_scipy_modules():
    # the symbol collapse (a sparse product) and the lumped build (a sparse
    # sum of duplicates) run only on a model whose tuples emit more than one
    # symbol
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import json, sys; import numpy as np; import renyirates, renyirates.cli; "
        "chain = renyirates.validate_chain([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]], np.ones(3) / 3); "
        "hmm = renyirates.validate_hmm(chain, [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]]); "
        "finite = renyirates.finite_length_entropy(hmm, 3, 1000); "
        "rate = renyirates.entropy_rate(hmm, 3); "
        f"print(json.dumps([finite.dimension, rate.dimension, rate.value_bits, "
        f"[m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    finite_dim, rate_dim, rate, heavy = json.loads(out.stdout)
    assert finite_dim == rate_dim == 2 * 3**3
    assert 0.0 < rate < 1.0
    assert heavy == []


def test_cli_rate_and_components_do_not_load_heavy_scipy_modules():
    # each call builds a collision system, splits it into components and
    # takes their radii; a lazy import on that path would slip past the
    # import-time check
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    model = str(Path(__file__).resolve().parents[1] / "fixtures" / "fig2.model")
    probe = (
        "import contextlib, io, json, sys; import renyirates.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    codes = [renyirates.cli.main([cmd, {model!r}, '--order', '8']) for cmd in ('rate', 'components')]\n"
        f"print(json.dumps([codes, out.getvalue().count('\\n'), [m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    codes, lines, heavy = json.loads(out.stdout)
    assert codes == [0, 0]
    assert lines >= 2
    assert heavy == []

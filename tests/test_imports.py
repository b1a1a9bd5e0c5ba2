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

import numpy as np

import renyirates
from renyirates.modelfile import serialize_model
from renyirates.random_models import random_chain

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
    # the lumped build sums the symbols of each multiset's tuples (a sparse
    # sum of duplicates) only on a model whose tuples emit more than one
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


def _block_chain_model(path: Path, blocks: int) -> Path:
    """Markov model of `blocks` 2-state recurrent blocks joined by transient states."""
    nx = 3 * blocks - 1
    p = [[0.0] * nx for _ in range(nx)]
    for b in range(blocks):
        targets = [3 * b, 3 * b + 1] + ([3 * b + 2] if b < blocks - 1 else [])
        for s in (3 * b, 3 * b + 1):
            for t in targets:
                p[s][t] = 1.0 / len(targets)
        if b < blocks - 1:
            p[3 * b + 2][3 * b + 3] = p[3 * b + 2][3 * b + 4] = 0.5
    doc = {
        "format": 1, "kind": "markov", "states": [f"s{i}" for i in range(nx)],
        "transition": p, "initial": [1.0 / nx] * nx,
    }
    path.write_text(json.dumps(doc))
    return path


def test_cli_rate_and_components_do_not_load_heavy_scipy_modules(tmp_path):
    # each call builds a collision system (or, for an irreducible rate, the
    # lumped matrix), splits it into components and takes their radii; a
    # lazy import on that path would slip past the import-time check.  The
    # dense 16-state chain's Hadamard power is irreducible, so the sweep on
    # P's pattern hands it to irreducible_growth as a dense array (the BSC
    # system's rate takes the lumped matrix and never builds A); the block
    # chain's eight 2-node blocks are squared as one stack
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    dense = tmp_path / "dense16.model"
    dense.write_text(json.dumps(serialize_model(random_chain(np.random.default_rng(0), 16))))
    argvs = [
        [cmd, str(path), "--order", order, *extra]
        for path, order, extra in [
            (fixtures / "fig2.model", "8", []),
            (fixtures / "bsc.model", "4", ["--epsilon", "0.1"]),
            (_block_chain_model(tmp_path / "blocks.model", 8), "2", []),
        ]
        for cmd in ("rate", "components")
    ] + [["rate", str(dense), "--order", "2"]]
    probe = (
        "import contextlib, io, json, sys; import renyirates.cli\n"
        "from renyirates import entropy, spectral\n"
        "sweep, power, decided, stacks = entropy.irreducible, spectral._power, [], []\n"
        "entropy.irreducible = lambda *a: decided.append(sweep(*a)) or decided[-1]\n"
        "spectral._power = lambda b, rows, *rest: stacks.append(len(rows)) or power(b, rows, *rest)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    codes = [renyirates.cli.main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, out.getvalue().count('\\n'), decided[-1], max(stacks), "
        f"[m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    codes, lines, dense_decided, largest_stack, heavy = json.loads(out.stdout)
    assert codes == [0] * 7
    assert lines >= 7
    assert dense_decided is True
    assert largest_stack == 8
    assert heavy == []


def test_lumped_rate_never_builds_the_collision_system():
    # the BSC system is irreducible at order 4, so its rate comes from the
    # sweep and the lumped matrix; a lazy import there would slip past the
    # import-time check
    src = str(Path(renyirates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    bsc = Path(__file__).resolve().parents[1] / "fixtures" / "bsc.model"
    argv = ["rate", str(bsc), "--order", "4", "--epsilon", "0.1"]
    probe = (
        "import contextlib, io, json, sys; import renyirates.cli\n"
        "from renyirates import entropy, tensor\n"
        "builds, decided, inner, sweep = [], [], tensor.collision_system, tensor.irreducible\n"
        "entropy.collision_system = tensor.collision_system = lambda *a, **k: builds.append(1) or inner(*a, **k)\n"
        "entropy.irreducible = lambda *a, **k: decided.append(sweep(*a, **k)) or decided[-1]\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = renyirates.cli.main({argv!r})\n"
        "doc = json.loads(out.getvalue())\n"
        "print(json.dumps([code, len(builds), decided, doc['dimension'], "
        f"[m for m in {HEAVY!r} if m in sys.modules]]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    code, builds, decided, dimension, heavy = json.loads(out.stdout)
    assert code == 0
    assert decided == [True]
    assert builds == 0
    assert dimension == 2 * 2**4
    assert heavy == []

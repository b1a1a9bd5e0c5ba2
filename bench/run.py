"""Benchmark of renyirates: seeded, closed-loop, single-process workloads.

Run from the repository root:

    python3 bench/run.py --workload rate-ladder --seed 1 --seconds 30 --trace 0

Each run builds a fixed call list from the seed, warms up, times every
call of a fixed number of passes over the list, checks every result
against an independent reference, and prints one JSON object as the last
line of stdout.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread before numpy loads: with
# two threads on a shared two-core box, dense kernels vary far more from
# run to run.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Nominal seconds of one pass over each call list on the reference box
# (2 cores, one BLAS thread); a run makes round(seconds / this) passes, at
# least two, so the call list of a run never depends on a clock.
PASS_SECONDS = {"rate-ladder": 10.0, "finite-horizon": 4.3, "cli-sweep": 0.85}

# End-to-end times are reported in reference seconds (see DriftProbe): the
# box's speed drifts by more than a tenth within and between runs, and the
# ratio to a nearby reference kernel drifts less.
REF_KERNEL_S = 0.025
PROBE_PERIOD_S = 0.5
PROBE_WINDOW_S = 2.0

# Set-up is repeated and its median reported.
SETUP_REPEATS = 3
IMPORT_PROBE = "import renyirates, renyirates.cli"

# The tail is the slowest time with at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import renyirates from this checkout's src/, never from elsewhere."""
    if not (SRC / "renyirates" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import renyirates

    if Path(renyirates.__file__).resolve().parent != SRC / "renyirates":
        raise SystemExit(f"bench: imported renyirates from {renyirates.__file__}, not {SRC}")
    return renyirates


def pin_to_one_cpu() -> int:
    """Keep the run on one CPU, so a migration never leaves its caches behind."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tail(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the slowest sample with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def reference_kernel():
    """A fixed kernel that does not use renyirates; returns a timer for it.

    Five parts of similar length, one for each kind of work the workloads
    do: a gemv in cache, a gemv over an 18 MB matrix, a sparse matvec, a
    loop of tiny numpy operations and a pure-Python loop.
    """
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(20171)
    small, x = rng.random((500, 500)), rng.random(500)
    large, y = rng.random((1500, 1500)), rng.random(1500)
    sp, v = sparse.random_array((20000, 20000), density=2.5e-4, format="csr", rng=rng), rng.random(20000)
    m2, w0 = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5])

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(120):
            small @ x
        for _ in range(6):
            large @ y
        for _ in range(20):
            sp @ v
        w = w0
        for _ in range(400):
            u = m2 @ w
            w = u / u.sum()
        acc = 0
        for i in range(30_000):
            acc += i * i
        return time.perf_counter() - t0

    return run


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "renyirates").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
        "source_digest": source_digest(),
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def warm_up(calls) -> None:
    """Run the cheapest call of each family once; failures are expected for some."""
    cheapest = {}
    for call in calls:
        if call.family not in cheapest or call.cost < cheapest[call.family].cost:
            cheapest[call.family] = call
    for call in cheapest.values():
        try:
            call.run()
        except Exception:  # noqa: BLE001 - warm-up only; timed runs record failures
            pass


class DriftProbe:
    """Times the reference kernel between calls, at most once per period.

    Each call's time is scaled by REF_KERNEL_S over the median kernel time
    within PROBE_WINDOW_S of the call, so a stretch where the whole box
    runs slow or fast is taken out.
    """

    def __init__(self, period: float):
        self.kernel = reference_kernel()
        self.kernel()
        self.period = period
        self.at: list[float] = []
        self.took: list[float] = []
        self.due = 0.0

    def __call__(self) -> None:
        now = time.perf_counter()
        if now >= self.due:
            took = self.kernel()
            self.at.append(now + took / 2)
            self.took.append(took)
            self.due = time.perf_counter() + self.period

    def scale(self, start: float, seconds: float) -> float:
        """Factor from box seconds to reference seconds for a call."""
        lo, hi = start - PROBE_WINDOW_S, start + seconds + PROBE_WINDOW_S
        near = [k for t, k in zip(self.at, self.took) if lo <= t <= hi]
        return REF_KERNEL_S / statistics.median(near or self.took)


def run_pass(calls, root=None, between=lambda: None):
    """Time each call once; returns [(start, seconds, result or exception)]."""
    out = []
    clock = time.perf_counter
    for call in calls:
        between()
        fn = call.run if root is None else root(call.run)
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failing call is a measured outcome
            result = exc
        out.append((t0, clock() - t0, result))
    return out


def setup(workload: str, seed: int, workdir: Path):
    """(call list, setup_s): a fresh import plus building the list and warming up.

    Each part is repeated and its median taken.
    """
    import calls as workloads

    import_s = import_seconds()
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workdir.mkdir(parents=True, exist_ok=True)
        call_list = workloads.build(workload, seed, workdir)
        warm_up(call_list)
        prep.append(time.perf_counter() - t0)
    return call_list, import_s + statistics.median(prep)


def check(timed):
    """Compare every result with its call's reference, computed once per call."""
    import reference as ref

    expected = {}
    ok = failed = 0
    wrong, failures = [], {}
    for call, _, _, result in timed:
        if isinstance(result, Exception):
            failed += 1
            key = f"{call.label}: {type(result).__name__}"
            failures[key] = failures.get(key, 0) + 1
            continue
        if id(call) not in expected:
            expected[id(call)] = call.expect()
        if ref.matches(result, expected[id(call)]):
            ok += 1
        else:
            wrong.append(f"{call.label}: got {result} expected {expected[id(call)]}"[:400])
    return ok, failed, wrong, failures


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    import_package()
    import calls as workloads
    from tracing import ROOT_SPAN, Tracer

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {list(workloads.BUILDERS)}")
    cpu = pin_to_one_cpu()

    workdir = OUT / f"work-{os.getpid()}"
    try:
        call_list, setup_s = setup(args.workload, args.seed, workdir)
        passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
        probe = DriftProbe(PROBE_PERIOD_S)
        tracer = Tracer() if args.trace else None
        timed, pass_s = [], {False: [], True: []}
        for i in range(passes):
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install()
            records = run_pass(call_list, (lambda f: tracer.wrap(ROOT_SPAN, f)) if traced else None, probe)
            if traced:
                tracer.uninstall()
            pass_s[traced].append(sum(t for _, t, _ in records))
            timed += [(call, t0, t, r) for call, (t0, t, r) in zip(call_list, records)]
        probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        ok, failed, wrong, failures = check(timed)
        attempted = len(timed)
        times = [t * probe.scale(t0, t) for _, t0, t, _ in timed]
        tail_s, tail_pct = tail(times)
        info = environment(args, passes) | {
            "cpu": cpu,
            "calls_per_pass": len(call_list),
            "call_list_digest": workloads.digest(call_list),
            "tail_percentile": round(tail_pct, 2),
            "tail_samples_beyond": TAIL_BEYOND,
            "ref_kernel_s": statistics.median(probe.took),
            "ref_kernel_samples": len(probe.took),
            "failures": failures,
            "wrong": wrong[:5],
        }
        if tracer is None:
            metrics = {
                "calls_per_s": (ok / sum(times), "1/ref_s"),
                "call_s_p50": (statistics.median(times), "ref_s"),
                "call_s_tail": (tail_s, "ref_s"),
                "ok_frac": (ok / attempted, "frac"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            n_traced = len(pass_s[True])
            layers = tracer.layer_metrics(n_traced) | {
                "trace.wall_s": tracer.wall() / n_traced,
                "trace.overhead_s": statistics.mean(pass_s[True]) - statistics.mean(pass_s[False]),
                "bench.ref_kernel_s": statistics.median(probe.took),
            }
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json.gz")
            info["absent"] = tracer.absent
        print(json.dumps({"bench": info}, default=str))
        print(json.dumps({
            "correct": not wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

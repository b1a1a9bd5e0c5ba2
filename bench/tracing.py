"""Per-layer tracing by rebinding the package's public functions.

While installed, each listed function is replaced, in every
``renyirates`` module that references it, by a wrapper that records a
span (name, start, end, parent) in memory.  A few cheap, hot methods
only bump a counter.  A layer's self time is the time its spans cover
minus the time their child spans cover, so the self times of all spans
add up to the traced wall time.  A name that a later version of the
package no longer has is reported as absent and skipped.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions wrapped with a span; "Class.method" wraps a method.
SPANNED = {
    "renyirates.modelfile": ["load_model", "parse_model"],
    "renyirates.model": ["validate_chain", "validate_hmm", "bsc_hmm", "deterministic_observation"],
    "renyirates.tensor": ["collision_system", "kronecker_power", "hadamard_power"],
    "renyirates.components": [
        "strongly_connected_components",
        "associated_graph",
        "reachable_components",
    ],
    "renyirates.spectral": [
        "growth_rate",
        "spectral_radius_irreducible",
        "log_weighted_power_sum",
        "characteristic_polynomial",
    ],
    "renyirates.nonneg": ["NonnegMatrix.submatrix"],
    "renyirates.entropy": ["entropy_rate", "finite_length_entropy", "markov_rate", "markov_finite_length"],
    "renyirates.cli": ["main"],
    "renyirates.oracle": ["brute_force_collision", "brute_force_entropy", "all_sequence_probabilities"],
}

# Hot methods that only count: (module, method, counter, amount per call).
COUNTED = [
    ("renyirates.nonneg", "NonnegMatrix.to_dense", "nonneg.dense_bytes", lambda r: r.nbytes),
    ("renyirates.nonneg", "NonnegMatrix.vecmat", "nonneg.vecmat_calls", lambda r: 1),
]


def _hook_sizes(counts, result, failed):
    if not failed:
        counts["tensor.dim_sum"] += result.dim if hasattr(result, "dim") else result.dimension
        counts["tensor.nnz_sum"] += (result if hasattr(result, "nnz") else result.matrix).nnz


def _hook_components(counts, result, failed):
    if not failed:
        counts["components.count"] += result.n_components


def _hook_radius(counts, result, failed):
    counts["spectral.radius_calls"] += 1
    counts["spectral.radius_fail"] += failed


def _hook_growth(counts, result, failed):
    if not failed:
        counts["spectral.radius_useful"] += len(result.reachable)


# Counters read from results; a hook that no longer fits the result is skipped.
HOOKS = {
    "tensor.collision_system": _hook_sizes,
    "tensor.hadamard_power": _hook_sizes,
    "components.strongly_connected_components": _hook_components,
    "spectral.spectral_radius_irreducible": _hook_radius,
    "spectral.growth_rate": _hook_growth,
}

# Per-layer time metrics: span-name prefixes whose self times they sum.
TIME_METRICS = {
    "modelfile.load_s": ("modelfile.",),
    "model.validate_s": ("model.",),
    "tensor.build_s": ("tensor.",),
    "components.scc_s": ("components.strongly_connected_components", "components.associated_graph"),
    "components.reach_s": ("components.reachable_components",),
    "spectral.radii_s": ("spectral.spectral_radius_irreducible",),
    "spectral.growth_self_s": ("spectral.growth_rate",),
    "spectral.power_sum_s": ("spectral.log_weighted_power_sum",),
    "spectral.charpoly_s": ("spectral.characteristic_polynomial",),
    "nonneg.submatrix_s": ("nonneg.",),
    "entropy.self_s": ("entropy.",),
    "cli.self_s": ("cli.",),
    "oracle.enum_s": ("oracle.",),
    "bench.self_s": ("bench.",),
}

COUNT_METRICS = (
    "tensor.dim_sum",
    "tensor.nnz_sum",
    "components.count",
    "spectral.radius_calls",
    "spectral.radius_fail",
    "nonneg.dense_bytes",
    "nonneg.vecmat_calls",
)

ROOT_SPAN = "bench.call"


def _lookup(modname: str, qualname: str):
    """(owner, attribute, function) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Spans and counters of one run, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """fn with a span named `name` around each call."""
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            result, failed = None, True
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                ends[i] = clock()
                stack.pop()
                if hook is not None:
                    try:
                        hook(counts, result, failed)
                    except (AttributeError, TypeError):
                        pass

        return traced

    def _count(self, counter: str, amount, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                counts[counter] += amount(result)
            except (AttributeError, TypeError):
                pass
            return result

        return counted

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").split(".")[0] == "renyirates"
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            setattr(target, key, wrapper)
            self._installed.append((target, key, original))

    def install(self) -> None:
        self.absent = []
        for modname, qualnames in SPANNED.items():
            layer = modname.split(".")[-1]
            for qualname in qualnames:
                found = _lookup(modname, qualname)
                name = f"{layer}.{qualname}"
                if found is None:
                    self.absent.append(name)
                    continue
                owner, attr, fn = found
                self._rebind(owner, attr, fn, self.wrap(name, fn, HOOKS.get(name)))
        for modname, qualname, counter, amount in COUNTED:
            found = _lookup(modname, qualname)
            if found is None:
                self.absent.append(f"{modname.split('.')[-1]}.{qualname}")
                continue
            owner, attr, fn = found
            self._rebind(owner, attr, fn, self._count(counter, amount, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._installed):
            setattr(target, key, original)
        self._installed = []

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, dur - child):
            out[name] += float(t)
        return dict(out)

    def wall(self) -> float:
        """Total duration of root spans."""
        return float(sum(e - s for e, s, p in zip(self.ends, self.starts, self.parents) if p < 0))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer times and counts."""
        selft = self.self_times()
        out = {
            metric: sum(t for name, t in selft.items() if name.startswith(prefixes)) / passes
            for metric, prefixes in TIME_METRICS.items()
        }
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0.0) / passes
        calls = self.counts.get("spectral.radius_calls", 0.0)
        out["spectral.radius_useful_frac"] = self.counts.get("spectral.radius_useful", 0.0) / calls if calls else 0.0
        out["trace.spans"] = len(self.names) / passes
        out["trace.absent"] = float(len(self.absent))
        return out

    def write(self, path) -> None:
        """Spans as [name id, start, end, parent] rows, gzipped JSON."""
        ids: dict[str, int] = {}
        rows = [[ids.setdefault(n, len(ids)), s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        doc = {"names": list(ids), "columns": ["name", "start", "end", "parent"], "spans": rows, "absent": self.absent}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

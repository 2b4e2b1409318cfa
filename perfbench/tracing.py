"""Spans around the calls into each simplexwalk module, recorded from the
benchmark's side.

Each public function below is wrapped in every module namespace of the
package that holds it, so calls made through ``from .walk import
amplitudes`` inside ``detect`` or ``oracle`` are caught as well as direct
ones.  A span records its name, start, end and parent span; spans stay in
memory and are reduced to per-layer metrics (and written out) when the run
ends.  A span's self time is its duration minus the durations of its child
spans, which nest inside it because the library is single-threaded.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

import simplexwalk

LAYERS = ("schemes", "extension", "krawtchouk", "walk", "detect", "oracle", "cli")

# Public functions that do work, per module.  Generator functions are left
# out: a wrapper would time only the creation of the generator.
TARGETS = {
    "schemes": ("trivial_scheme_2", "directed_ngon", "ordered_word_scheme",
                "validate_scheme", "intersection_numbers"),
    "extension": ("enumerate_indices", "multinomial", "extension_scheme", "class_valency",
                  "materialize_class", "materialize_idempotent", "extension_cosine"),
    "krawtchouk": ("krawtchouk_series", "krawtchouk_genfun", "krawtchouk_table",
                   "params_from_scheme", "orthogonality_residual",
                   "bivariate_orthogonality_residual", "bivariate_recurrence_residual"),
    "walk": ("walk_spec", "canonical_ngon_weights", "site_factors", "amplitudes",
             "solve_weights", "projected_matrix", "evolve_projected", "eigenvalue_lambda"),
    "detect": ("classify", "scan", "zt_candidates", "cascade_residual",
               "ngon_mpst_scenario", "hypercube_pst_scenario", "ow_fr_scenario"),
    "oracle": ("dense_hamiltonian", "dense_evolution", "vertex_classes", "compare_amplitudes",
               "golden_bmatrix_residual", "ngon_spectrum_residual", "run_suite"),
    "cli": ("main",),
}

# Per-layer metrics that aggregate spans: metric prefix -> span names.
SPAN_GROUPS = {
    "walk.amplitudes": ("walk.amplitudes",),
    "extension.class_valency": ("extension.class_valency",),
    "extension.multinomial": ("extension.multinomial",),
    "detect.scan": ("detect.scan",),
    "detect.classify": ("detect.classify",),
    "cli.main": ("cli.main",),
    "walk.projected_matrix": ("walk.projected_matrix",),
    "walk.evolve_projected": ("walk.evolve_projected",),
    "krawtchouk.genfun": ("krawtchouk.krawtchouk_genfun",),
    "krawtchouk.series": ("krawtchouk.krawtchouk_series",),
    "schemes.build": ("schemes.trivial_scheme_2", "schemes.directed_ngon",
                      "schemes.ordered_word_scheme"),
    "schemes.validate": ("schemes.validate_scheme",),
    "oracle.compare_amplitudes": ("oracle.compare_amplitudes",),
    "oracle.dense_evolution": ("oracle.dense_evolution",),
    "oracle.run_suite": ("oracle.run_suite",),
    "extension.materialize_class": ("extension.materialize_class",),
}

_AMP = "walk.amplitudes"
_SCAN = "detect.scan"
_DET_AMP = "detect: op_p50_ms, ops_per_s; sweep: rows_per_s; evolve, verify: no change"
_DET_TAIL = "detect: op_p90_ms"
_CLI = "sweep: rows_per_s"
_EVOLVE = "evolve: ops_per_s, op_p90_ms"
_SCHEMES = "verify: ops_per_s; detect, sweep, evolve: setup_s"
_ORACLE = "verify: op_p90_ms, peak_rss_mb"

# (name, unit, better, the end-to-end metric and workload it should move).
# Counts and self times cover traced ops only.  us_per_class is the
# inclusive time of walk.amplitudes per class it returned; the two detect
# ratios count only amplitudes calls made inside detect.scan.
PER_LAYER = (
    ("walk.amplitudes.calls", "count", "lower", _DET_AMP),
    ("walk.amplitudes.self_s", "s", "lower", _DET_AMP),
    ("walk.amplitudes.classes", "count", "lower", _DET_AMP),
    ("walk.amplitudes.us_per_class", "us", "lower", _DET_AMP),
    ("extension.class_valency.calls", "count", "lower", _DET_AMP),
    ("extension.class_valency.self_s", "s", "lower", _DET_AMP),
    ("extension.multinomial.calls", "count", "lower", _DET_AMP),
    ("detect.scan.calls", "count", "lower", _DET_TAIL),
    ("detect.scan.self_s", "s", "lower", _DET_TAIL),
    ("detect.classify.calls", "count", "lower", _DET_TAIL),
    ("detect.amp_evals_per_grid_point", "evals/point", "lower", _DET_TAIL),
    ("detect.events_per_1k_amp_evals", "events/1k_evals", "higher", _DET_TAIL),
    ("cli.main.calls", "count", "lower", _CLI),
    ("cli.main.self_s", "s", "lower", _CLI),
    ("cli.bytes_written", "bytes", "lower", _CLI),
    ("walk.projected_matrix.calls", "count", "lower", _EVOLVE),
    ("walk.projected_matrix.self_s", "s", "lower", _EVOLVE),
    ("walk.projected_matrix.dim_sum", "count", "lower", _EVOLVE + ", peak_rss_mb"),
    ("walk.evolve_projected.calls", "count", "lower", _EVOLVE),
    ("walk.evolve_projected.self_s", "s", "lower", _EVOLVE),
    ("krawtchouk.genfun.calls", "count", "lower", _EVOLVE),
    ("krawtchouk.genfun.self_s", "s", "lower", _EVOLVE),
    ("krawtchouk.series.calls", "count", "lower", _EVOLVE),
    ("krawtchouk.series.self_s", "s", "lower", _EVOLVE),
    ("schemes.build.calls", "count", "lower", _SCHEMES),
    ("schemes.build.self_s", "s", "lower", _SCHEMES),
    ("schemes.validate.calls", "count", "lower", _SCHEMES),
    ("schemes.validate.self_s", "s", "lower", _SCHEMES),
    ("oracle.compare_amplitudes.calls", "count", "lower", _ORACLE),
    ("oracle.compare_amplitudes.self_s", "s", "lower", _ORACLE),
    ("oracle.dense_evolution.calls", "count", "lower", _ORACLE),
    ("oracle.dense_evolution.self_s", "s", "lower", _ORACLE),
    ("oracle.run_suite.calls", "count", "lower", _ORACLE),
    ("oracle.run_suite.self_s", "s", "lower", _ORACLE),
    ("extension.materialize_class.calls", "count", "lower", _ORACLE),
    ("extension.materialize_class.self_s", "s", "lower", _ORACLE),
) + tuple(
    (f"layer.{layer}.{what}", unit, "lower", "self time and calls of the whole layer")
    for layer in LAYERS
    for what, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("trace.overhead_frac", "fraction", "lower",
     "traced op time over untraced op time of the same ops, minus one"),
)


def _out_path(argv):
    argv = list(argv or ())
    if "--out" in argv[:-1]:
        return argv[argv.index("--out") + 1]
    return None


class Tracer:
    """Collects spans while installed; ``install`` and ``uninstall`` swap
    the wrappers in and out, so untraced ops run the library unchanged."""

    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = dict.fromkeys(
            ("walk.amplitudes.classes", "walk.projected_matrix.dim_sum",
             "detect.scan.grid_points", "detect.scan.events", "cli.bytes_written"), 0)
        self.missing = []
        self.patches = []  # (namespace, attribute, original, wrapper)
        modules = {layer: getattr(simplexwalk, layer) for layer in LAYERS}
        namespaces = [simplexwalk] + list(modules.values())
        for layer, funcs in TARGETS.items():
            for func in funcs:
                original = getattr(modules[layer], func, None)
                if original is None:
                    self.missing.append(f"{layer}.{func}")
                    continue
                wrapper = self._wrap(f"{layer}.{func}", original)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is original:
                            self.patches.append((ns, attr, original, wrapper))

    def install(self) -> None:
        for ns, attr, _, wrapper in self.patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self.patches:
            setattr(ns, attr, original)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        after = self._boundary_counter(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _boundary_counter(self, name):
        c = self.counters
        if name == _AMP:
            def after(args, kwargs, profile):
                c["walk.amplitudes.classes"] += len(profile.coefficients)
        elif name == "walk.projected_matrix":
            def after(args, kwargs, pm):
                c["walk.projected_matrix.dim_sum"] += len(pm.order)
        elif name == _SCAN:
            def after(args, kwargs, events):
                grid = args[1] if len(args) > 1 else kwargs["t_grid"]
                c["detect.scan.grid_points"] += len(grid)
                c["detect.scan.events"] += len(events)
        elif name == "cli.main":
            def after(args, kwargs, rc):
                out = _out_path(args[0] if args else kwargs.get("argv"))
                if out and os.path.exists(out):
                    c["cli.bytes_written"] += os.path.getsize(out)
        else:
            after = None
        return after

    @property
    def span_count(self) -> int:
        return len(self.start)

    def spans(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def metrics(self, overhead_frac: float) -> dict:
        s = self.spans()
        nid, parent = s["name_id"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        total_s = np.bincount(nid, weights=dur, minlength=k)
        index = {name: i for i, name in enumerate(self.names)}

        def group(names, arr):
            return float(sum(arr[index[n]] for n in names if n in index))

        out = {}
        for prefix, names in SPAN_GROUPS.items():
            out[f"{prefix}.calls"] = int(group(names, calls))
            out[f"{prefix}.self_s"] = group(names, self_s)
        for layer in LAYERS:
            names = [n for n in self.names if n.split(".")[0] == layer]
            out[f"layer.{layer}.calls"] = int(group(names, calls))
            out[f"layer.{layer}.self_s"] = group(names, self_s)

        classes = self.counters["walk.amplitudes.classes"]
        out["walk.amplitudes.classes"] = classes
        amp_total = group([_AMP], total_s)
        out["walk.amplitudes.us_per_class"] = 1e6 * amp_total / classes if classes else 0.0
        out["walk.projected_matrix.dim_sum"] = self.counters["walk.projected_matrix.dim_sum"]
        out["cli.bytes_written"] = self.counters["cli.bytes_written"]

        scan_evals = int(np.count_nonzero(self._inside(nid, parent, _AMP, _SCAN)))
        points = self.counters["detect.scan.grid_points"]
        out["detect.amp_evals_per_grid_point"] = scan_evals / points if points else 0.0
        events = self.counters["detect.scan.events"]
        out["detect.events_per_1k_amp_evals"] = 1000.0 * events / scan_evals if scan_evals else 0.0
        out["trace.overhead_frac"] = overhead_frac

        units = {name: unit for name, unit, _, _ in PER_LAYER}
        return {name: {"value": out[name], "unit": units[name]} for name, *_ in PER_LAYER}

    def _inside(self, nid, parent, inner, outer) -> np.ndarray:
        """Mask of ``inner`` spans that have an ``outer`` span as ancestor."""
        if inner not in self.names or outer not in self.names:
            return np.zeros(0, dtype=bool)
        outer_id = self.names.index(outer)
        sel = np.flatnonzero(nid == self.names.index(inner))
        found = np.zeros(len(sel), dtype=bool)
        anc = parent[sel]
        while True:
            live = anc >= 0
            if not live.any():
                return found
            found |= live & (nid[np.where(live, anc, 0)] == outer_id)
            anc = np.where(live, parent[np.where(live, anc, 0)], -1)

"""Span tracer for the benchmark's traced run.

The tracer replaces public functions of the ``vvlab`` package *as the calling
module sees them* (``vvlab.study.solve_layer``, ``vvlab.checks.solve_ns_swirl``,
...) with timing wrappers.  Each call records a span: name, start, end, the
index of the enclosing span and the operation id.  Spans stay in memory and
are reduced per operation to self times, call counts and computed work
counts.  Nothing under ``src/`` is modified; ``uninstall`` restores every
replaced attribute.

A target that no longer exists (a later refactor removed or renamed it) is
recorded as absent and skipped, so the run never crashes on it; the metrics
fed only by absent targets are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import time

import numpy as np


# ---------------------------------------------------------------------------
# computed work counts, taken from arguments and results of a wrapped call
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_layer(fn, args, kwargs, out):
    """column_steps = steps x walls x (columns per wall), where a wall marches
    2 components x collar samples columns today; distinct columns compare the
    stored ub history of each (wall, component) across the slow samples."""
    a = _bound(fn, args, kwargs)
    steps = int(round(a["t_end"] / a["dt"]))
    columns = 0
    distinct = 0
    for w in out.walls.values():
        ub = np.asarray(w.ub)                      # (n_t, 2, [n_s,] n_z)
        per_comp = int(np.prod(ub.shape[2:-1], dtype=np.int64))
        columns += ub.shape[1] * per_comp
        for c in range(ub.shape[1]):
            cols = np.moveaxis(ub[:, c], -2, 0).reshape(per_comp, -1) \
                if ub.ndim == 4 else ub[:, c].reshape(1, -1)
            distinct += len(np.unique(cols, axis=0))
    return {"column_steps": steps * columns, "columns": columns,
            "distinct_columns": distinct}


def _count_ns(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    steps = int(round(a["t_end"] / a["dt"]))
    return {"point_steps": len(out.coords) * steps}


def _count_eval(fn, args, kwargs, out):
    """Points evaluated, and the useful ones: d < min(eta, Z_max sqrt(nu))."""
    a = _bound(fn, args, kwargs)
    from vvlab import geometry as geo

    geom = a["geom"]
    coords = np.asarray(a["coords"])
    d = geo.wall_distance(geom, a["wall_id"], coords)
    lim = min(geom.eta, float(a["pf"].grid.z[-1]) * math.sqrt(a["nu"]))
    return {"points": int(coords.size), "useful": int(np.count_nonzero(d < lim))}


def _count_export(fn, args, kwargs, out):
    return {"bytes": sum(os.path.getsize(p) for p in out)}


# ---------------------------------------------------------------------------
# wrapped targets: (module, attribute, span name, kind, counter)
#   kind "stage": work the pipeline does; "container": orchestration code whose
#   self time is study.self_s
# ---------------------------------------------------------------------------

_CHECKS = ("geometry_invariants", "projector", "energy_identity_order",
           "erfc_oracle", "scaling_exponents", "hardy",
           "gronwall_dominates_rk4", "bc_residual_refinement",
           "layer_zero_data")

TARGETS = [
    ("vvlab.study", "run_convergence_study", "study.run", "container", None),
    ("vvlab.study", "solve_study_layer", "study.layer", "container", None),
    ("vvlab.study", "_solve_one_nu", "study.row", "container", None),
    ("vvlab.study", "solve_layer", "layer.solve", "stage", _count_layer),
    ("vvlab.study", "pressure_corrector_q", "layer.corrector", "stage", None),
    ("vvlab.study", "velocity_corrector_v", "layer.corrector", "stage", None),
    ("vvlab.study", "solve_ns_swirl", "ns.solve", "stage", _count_ns),
    ("vvlab.study", "solve_ns_channel", "ns.solve", "stage", _count_ns),
    ("vvlab.study", "assemble_ansatz", "expansion.ansatz", "stage", None),
    ("vvlab.study", "extract_remainder", "expansion.remainder", "stage", None),
    ("vvlab.study", "volume_norm", "spaces.norm", "stage", None),
    ("vvlab.study", "fit_rate", "study.fit", "stage", None),
    ("vvlab.study", "export_report", "study.export", "stage", _count_export),
    ("vvlab.study", "rigid_rotation", "euler.build", "stage", None),
    ("vvlab.study", "potential_vortex", "euler.build", "stage", None),
    ("vvlab.geometry", "build_collar", "geometry.collar", "stage", None),
    ("vvlab.expansion", "eval_profile_on_wall", "spaces.eval", "stage", _count_eval),
    ("vvlab.spaces", "eval_profile_on_wall", "spaces.eval", "stage", _count_eval),
    ("vvlab.spaces", "volume_norm", "spaces.norm", "stage", None),
    ("vvlab.euler", "potential_vortex", "euler.build", "stage", None),
    ("vvlab.checks", "run_all", "checks.run", "container", None),
    ("vvlab.checks", "rigid_rotation", "euler.build", "stage", None),
    ("vvlab.checks", "solve_layer", "layer.solve", "stage", _count_layer),
    ("vvlab.checks", "solve_ns_swirl", "ns.solve", "stage", _count_ns),
    ("vvlab.checks", "solve_ns_channel", "ns.solve", "stage", _count_ns),
] + [("vvlab.checks", f"check_{c}", f"checks.{c}", "stage", None)
     for c in _CHECKS]

# per-layer metric -> (unit, better, span names it is computed from)
PER_LAYER = {
    "layer.solve_s": ("s", "lower", ["layer.solve"]),
    "layer.corrector_s": ("s", "lower", ["layer.corrector"]),
    "layer.calls": ("count", "lower", ["layer.solve"]),
    "layer.column_steps": ("count", "lower", ["layer.solve"]),
    "layer.distinct_column_frac": ("ratio", "higher", ["layer.solve"]),
    "ns.solve_s": ("s", "lower", ["ns.solve"]),
    "ns.solve_s.max": ("s", "lower", ["ns.solve"]),
    "ns.calls": ("count", "lower", ["ns.solve"]),
    "ns.point_steps": ("count", "lower", ["ns.solve"]),
    "expansion.ansatz_s": ("s", "lower", ["expansion.ansatz"]),
    "expansion.remainder_s": ("s", "lower", ["expansion.remainder"]),
    "spaces.eval_s": ("s", "lower", ["spaces.eval"]),
    "spaces.eval_calls": ("count", "lower", ["spaces.eval"]),
    "spaces.eval_points": ("count", "lower", ["spaces.eval"]),
    "spaces.eval_useful_frac": ("ratio", "higher", ["spaces.eval"]),
    "spaces.norm_s": ("s", "lower", ["spaces.norm"]),
    "spaces.norm_calls": ("count", "lower", ["spaces.norm"]),
    "geometry.collar_s": ("s", "lower", ["geometry.collar"]),
    "euler.build_s": ("s", "lower", ["euler.build"]),
    "study.row_s": ("s", "lower", ["study.row"]),
    "study.fit_s": ("s", "lower", ["study.fit"]),
    "study.export_s": ("s", "lower", ["study.export"]),
    "study.export_bytes": ("B", "lower", ["study.export"]),
    "study.self_s": ("s", "lower", ["op"]),
    **{f"checks.{c}_s": ("s", "lower", [f"checks.{c}"]) for c in _CHECKS},
    "trace.wall_s": ("s", "lower", ["op"]),
    "trace.coverage": ("ratio", "higher", ["op"]),
    "trace.overhead_frac": ("ratio", "lower", ["op"]),
    "trace.absent": ("count", "lower", ["op"]),
}


class Tracer:
    """In-memory span recorder with install/uninstall of timing wrappers."""

    def __init__(self):
        self.spans = []          # dicts: name, kind, start, end, parent, op, counts
        self._stack = []
        self.op = None
        self._saved = []         # (module, attr, original)
        self.absent = []         # "module.attr" of targets that do not exist
        self.kinds = {"op": "container"}

    # -- recording ---------------------------------------------------------

    def open(self, name, kind):
        span = {"name": name, "kind": kind, "start": time.perf_counter(),
                "end": None, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "counts": None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span named ``op``."""
        self.op = op_id
        span = self.open("op", "container")
        try:
            return fn(*args)
        finally:
            self.close(span)
            self.op = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, kind, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span["counts"] = counter(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self, targets=TARGETS):
        for modname, attr, name, kind, counter in targets:
            self.kinds[name] = kind
            try:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                if f"{modname}.{attr}" not in self.absent:
                    self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, kind, counter))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def absent_metrics(self, targets=TARGETS):
        """Per-layer metrics every one of whose span names lost all targets."""
        present = {name for modname, attr, name, _, _ in targets
                   if f"{modname}.{attr}" not in self.absent}
        present.add("op")
        return sorted(m for m, (_, _, names) in PER_LAYER.items()
                      if not any(n in present for n in names))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)

    # -- reduction ---------------------------------------------------------

    def reduce_op(self, op_id):
        """Per-layer metrics of one traced operation (all ``_s`` self times)."""
        idx = [i for i, s in enumerate(self.spans) if s["op"] == op_id]
        spans = self.spans
        child_time = {i: 0.0 for i in idx}
        for i in idx:
            p = spans[i]["parent"]
            if p is not None and p in child_time:
                child_time[p] += spans[i]["end"] - spans[i]["start"]
        self_by_name = {}
        calls = {}
        durations = {}
        counts = {}
        for i in idx:
            s = spans[i]
            dur = s["end"] - s["start"]
            self_s = dur - child_time[i]
            self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + self_s
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            durations.setdefault(s["name"], []).append(dur)
            for k, v in (s["counts"] or {}).items():
                key = (s["name"], k)
                counts[key] = counts.get(key, 0) + v
        root = next(spans[i] for i in idx if spans[i]["name"] == "op")
        wall = root["end"] - root["start"]
        container_self = sum(v for n, v in self_by_name.items()
                             if self.kinds.get(n) == "container")

        def frac(num, den):
            return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

        m = {
            "layer.solve_s": self_by_name.get("layer.solve", 0.0),
            "layer.corrector_s": self_by_name.get("layer.corrector", 0.0),
            "layer.calls": calls.get("layer.solve", 0),
            "layer.column_steps": counts.get(("layer.solve", "column_steps"), 0),
            "layer.distinct_column_frac": frac(("layer.solve", "distinct_columns"),
                                               ("layer.solve", "columns")),
            "ns.solve_s": self_by_name.get("ns.solve", 0.0),
            "ns.solve_s.max": max(durations.get("ns.solve", [0.0])),
            "ns.calls": calls.get("ns.solve", 0),
            "ns.point_steps": counts.get(("ns.solve", "point_steps"), 0),
            "expansion.ansatz_s": self_by_name.get("expansion.ansatz", 0.0),
            "expansion.remainder_s": self_by_name.get("expansion.remainder", 0.0),
            "spaces.eval_s": self_by_name.get("spaces.eval", 0.0),
            "spaces.eval_calls": calls.get("spaces.eval", 0),
            "spaces.eval_points": counts.get(("spaces.eval", "points"), 0),
            "spaces.eval_useful_frac": frac(("spaces.eval", "useful"),
                                            ("spaces.eval", "points")),
            "spaces.norm_s": self_by_name.get("spaces.norm", 0.0),
            "spaces.norm_calls": calls.get("spaces.norm", 0),
            "geometry.collar_s": self_by_name.get("geometry.collar", 0.0),
            "euler.build_s": self_by_name.get("euler.build", 0.0),
            "study.row_s": (statistics.median(durations["study.row"])
                            if "study.row" in durations else 0.0),
            "study.fit_s": self_by_name.get("study.fit", 0.0),
            "study.export_s": self_by_name.get("study.export", 0.0),
            "study.export_bytes": counts.get(("study.export", "bytes"), 0),
            "study.self_s": container_self,
            "trace.wall_s": wall,
            # stage spans cover the op wall minus the containers' self time
            "trace.coverage": 1.0 - container_self / wall,
        }
        for c in _CHECKS:
            m[f"checks.{c}_s"] = self_by_name.get(f"checks.{c}", 0.0)
        return m

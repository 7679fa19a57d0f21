"""Outside-only tracer: spans around dnlslab's public layer functions.

Nothing under src/ knows about it.  In a traced operation, op.py wraps the
FFT entry points of numpy.fft (and of scipy.fft when scipy imports) before
dnlslab is imported, then wraps the layer functions listed in SPANS and
COUNTED.  Every name in a dnlslab module that refers to an original is
rebound, so ``from .solver import run`` in cli and ``from numpy.fft import
fftn`` anywhere are caught too.

A span records its name, its parent span, start and end on the shared
CLOCK_MONOTONIC, whether it raised, and the counts charged to it while it
was the innermost open span: FFT calls, FFT points, spectral-derivative
calls.  Spans stay in memory and are written out, one JSON line each, when
the process's outermost span closes.  That is the end of ``cli.main`` in
the operation's process, and the end of each ``run_pipeline`` point in a
sweep's forked pool worker.  A function that no longer exists is listed as
absent, and the metrics built on it are left out rather than reported as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# the layers that call FFTs at this commit; a transform charged to any other
# layer still counts in the fft.transforms total
TRANSFORM_LAYERS = ("solver", "field", "diagnostics")

SPANS = {
    "cli": ("run_pipeline",),
    "solver": ("run", "strang_step", "linear_substep", "nonlinear_substep_v"),
    "field": ("build_initial_data", "save_field"),
    "conformal": ("norm_bridge", "to_u_frame"),
    "asymptotics": ("correction_algebraic", "finalize_profile", "error_metric",
                    "save_profile"),
    "diagnostics": ("monitor_phi", "check_sup_limit", "check_l2_envelope",
                    "emit_report"),
}
COUNTED = {"field": ("spectral_derivative",)}
TRANSFORM_MODULES = ("numpy.fft", "scipy.fft")
TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
              "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.absent: list[str] = []
        self._serial = 0
        self._in_transform = False
        self._transforms: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def _claim(self):
        # a forked pool worker inherits its parent's buffers; it keeps its own
        if os.getpid() != self.pid:
            self.pid, self.spans, self.stack = os.getpid(), [], []

    def call(self, name, fn, *args, **kwargs):
        self._claim()
        self._serial += 1
        span = {"id": f"{self.pid}.{self._serial}",
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "error": False, "counts": {}}
        self.stack.append(span)
        span["start"] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.monotonic()
            self.stack.pop()
            self.spans.append(span)
            if not self.stack:
                self.flush()

    def count(self, key: str, n: int = 1):
        self._claim()
        if self.stack:
            counts = self.stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + n

    def flush(self):
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _count_wrapper(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    def _transform_wrapper(self, fn):
        @functools.wraps(fn)
        def transform(a, *args, **kwargs):
            if self._in_transform:  # one library entry point calling another
                return fn(a, *args, **kwargs)
            self._in_transform = True
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._in_transform = False
                self.count("fft.transforms")
                self.count("fft.points", int(getattr(a, "size", 0)))
        return transform

    def install_transforms(self):
        """Wrap the FFT entry points; call before dnlslab is imported."""
        for modname in TRANSFORM_MODULES:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for name in TRANSFORMS:
                fn = getattr(mod, name, None)
                if callable(fn):
                    wrapper = self._transform_wrapper(fn)
                    self._transforms[id(fn)] = (fn, wrapper)
                    setattr(mod, name, wrapper)

    def install_layers(self):
        """Wrap the layer functions; call after dnlslab.cli is imported."""
        replace = dict(self._transforms)
        for table, make, suffix in ((SPANS, self._span_wrapper, ""),
                                    (COUNTED, self._count_wrapper, "_calls")):
            for layer, names in table.items():
                mod = sys.modules.get(f"dnlslab.{layer}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if not callable(fn):
                        self.absent.append(f"{layer}.{name}")
                        continue
                    replace[id(fn)] = (fn, make(f"{layer}.{name}{suffix}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "dnlslab" and not modname.startswith("dnlslab."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])


def load_spans(trace_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        span["self"] = span["dur"]
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            parent["self"] -= span["dur"]
    return spans


def _covered(spans, by_id, names) -> float:
    """Time inside spans named in ``names``, counting nested ones once."""
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += span["dur"]
    return total


# per-layer time metrics: seconds inside the named spans, nesting counted once
TIMES = {
    "solver.run_s": ("solver.run",),
    "solver.strang_step_s": ("solver.strang_step",),
    "solver.linear_substep_s": ("solver.linear_substep",),
    "solver.nonlinear_substep_s": ("solver.nonlinear_substep_v",),
    "diagnostics.monitor_phi_s": ("diagnostics.monitor_phi",),
    "diagnostics.checks_s": ("diagnostics.check_sup_limit",
                             "diagnostics.check_l2_envelope"),
    "diagnostics.emit_report_s": ("diagnostics.emit_report",),
    "asymptotics.correction_algebraic_s": ("asymptotics.correction_algebraic",),
    "asymptotics.finalize_profile_s": ("asymptotics.finalize_profile",),
    "asymptotics.error_series_s": ("conformal.to_u_frame", "asymptotics.error_metric"),
    "asymptotics.save_profile_s": ("asymptotics.save_profile",),
    "conformal.norm_bridge_s": ("conformal.norm_bridge",),
    "field.initial_data_s": ("field.build_initial_data",),
    "field.save_field_s": ("field.save_field",),
}


def layer_metrics(spans, absent, jobs: int, bytes_written: int) -> dict[str, tuple]:
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    by_id = {span["id"]: span for span in spans}
    absent = set(absent)
    named = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def present(*names):
        return not absent.intersection(names)

    out = {}
    for metric, names in TIMES.items():
        if present(*names):
            out[metric] = (_covered(spans, by_id, names), "s")
    if present("solver.run", "solver.strang_step"):
        steps = len(named.get("solver.strang_step", []))
        out["solver.steps"] = (steps, "count")
        out["solver.run_self_s"] = (sum(s["self"] for s in named.get("solver.run", [])), "s")
        if steps:
            out["solver.ms_per_step"] = (1000.0 * out["solver.run_s"][0] / steps, "ms")
    for layer in TRANSFORM_LAYERS:
        out[f"fft.transforms.{layer}"] = (sum(
            s["counts"].get("fft.transforms", 0)
            for s in spans if s["name"].split(".")[0] == layer), "count")
    out["fft.transforms"] = (sum(s["counts"].get("fft.transforms", 0) for s in spans),
                             "count")
    out["fft.points"] = (sum(s["counts"].get("fft.points", 0) for s in spans), "count")
    if present("field.spectral_derivative"):
        out["field.spectral_derivative_calls"] = (sum(
            s["counts"].get("field.spectral_derivative_calls", 0) for s in spans), "count")
    if present("field.save_field"):
        out["field.save_field_calls"] = (len(named.get("field.save_field", [])), "count")
    out["field.bytes_written"] = (bytes_written, "B")
    points = named.get("cli.run_pipeline", [])
    if present("cli.run_pipeline") and points:
        pipeline_s = [s["dur"] for s in points]
        main_s = sum(s["dur"] for s in named.get(ROOT_SPAN, []))
        out["cli.pipeline_self_s"] = (sum(s["self"] for s in points), "s")
        out["sweep.point_s"] = (statistics.median(pipeline_s), "s")
        out["sweep.pool_efficiency"] = (sum(pipeline_s) / (jobs * main_s), "ratio")
    return out

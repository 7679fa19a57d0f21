"""Correctness fingerprint of an operation's artifacts, and its comparison.

A fingerprint holds, per verify-theorem run directory: the verdict string,
the step count (rows of norms.csv after the initial one), every value under
``checks`` in verdict.json, and ``monitors.f_max``.  A sweep adds every
sweep.csv row's status and verdict and fingerprints each point directory.

Strings, booleans, nulls and the step count must match exactly.  Numbers
must agree to a relative tolerance (with an ATOL floor for values near
zero).  The tolerances were set by perturbing every fftn/ifftn output by
1e-13 relative noise, far more than reordering the transform arithmetic
does (swapping numpy.fft for scipy.fft moves no number by more than 2e-14):

- most numbers moved by at most 6.4e-10, so RTOL is 1e-6;
- ``monitors.f_max`` moved by 1.6e-5 on ref2d, where the M = 256 tail sits
  at the grid's noise floor, so it gets RTOL_F_MAX = 1e-4;
- ``profile_error.slope_*`` are power-law fits to profile errors that reach
  roundoff level; they moved by 2%, so they get RTOL_SLOPE = 0.05.

A changed algorithm shows well outside these: a Lie splitting in place of
Strang moves the sup-limit deviation by 2e-3 and f_max by 1.5e-2.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
RTOL_F_MAX = 1e-4
RTOL_SLOPE = 0.05
ATOL = 1e-12


def _flatten(value, prefix: str, out: dict) -> dict:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def run_fingerprint(run_dir: Path) -> dict:
    verdict = json.loads((run_dir / "verdict.json").read_text())
    with open(run_dir / "norms.csv") as fh:
        steps = sum(1 for _ in fh) - 2  # header and the initial state
    fp = {"verdict": verdict["verdict"], "steps": steps,
          "monitors.f_max": verdict["monitors"]["f_max"]}
    return _flatten(verdict["checks"], "checks", fp)


def fingerprint(command: str, out_dir: Path) -> dict:
    if command == "verify-theorem":
        return run_fingerprint(out_dir)
    sweep_dir = out_dir / "sweep"
    with open(sweep_dir / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    fp = {}
    for row in rows:
        name = row["run"]
        fp[f"{name}.status"] = row["status"]
        fp[f"{name}.verdict"] = row["verdict"]
        if row["status"] == "ok":
            for key, value in run_fingerprint(sweep_dir / name).items():
                fp[f"{name}.{key}"] = value
    return fp


def _rtol(key: str) -> float:
    if key.endswith("monitors.f_max"):
        return RTOL_F_MAX
    if ".profile_error.slope_" in key:
        return RTOL_SLOPE
    return RTOL


def _same(ref, got, rtol: float) -> bool:
    if ref == got:
        return True
    if not (isinstance(ref, float) and isinstance(got, float)):
        return False  # strings, booleans, nulls and integer counts match exactly
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(ref - got) <= rtol * max(abs(ref), abs(got)) + ATOL


def mismatches(reference: dict, got: dict) -> list[str]:
    """Describe every key where ``got`` disagrees with ``reference``."""
    out = []
    for key in sorted(set(reference) | set(got)):
        if key not in got:
            out.append(f"{key}: missing")
        elif key not in reference:
            out.append(f"{key}: unexpected {got[key]!r}")
        elif not _same(reference[key], got[key], _rtol(key)):
            out.append(f"{key}: {got[key]!r} != reference {reference[key]!r}")
    return out

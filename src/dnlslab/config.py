"""Run configs: read a JSON config file and assemble the objects of one run.

``build_run`` gives the schema; a problem is a ``ConfigError`` at its line.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import (DEFAULT_BOUNDARY_TOL, DEFAULT_MAX_ORDER, BoundaryDecayError, Field, Grid,
                    build_initial_data, load_field)
from .params import ExponentSet, PhysParams, synthesize_exponents
from .solver import SolverConfig, snapshot_schedule

ENV_OUT = "DNLSLAB_OUT"
_REQUIRED = object()  # build_run's marker for a key without a default


class ConfigError(Exception):
    """Configuration problem, anchored to a line of the config file."""

    def __init__(self, path, line: int, msg: str):
        self.path, self.line, self.msg = str(path), int(line), msg
        super().__init__(f"{self.path}:{self.line}: {msg}")


def find_line(text: str, key: str) -> int:
    """Best-effort line anchor: first line mentioning the quoted key."""
    return next((i for i, line in enumerate(text.splitlines(), 1) if f'"{key}"' in line), 1)


@dataclass
class RunConfig:
    params: PhysParams
    exps: ExponentSet | None
    initial: Field
    solver: SolverConfig
    out: Path


def out_root(out_override, doc: dict) -> Path:
    """--out, else the config's "out", else $DNLSLAB_OUT, else ./runs."""
    return Path(out_override or doc.get("out") or os.environ.get(ENV_OUT) or "runs")


def load_config(path) -> tuple[dict, str]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(path, 1, f"cannot read config: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(path, e.lineno, e.msg) from e
    if not isinstance(doc, dict):
        raise ConfigError(path, 1, "config must be a JSON object")
    return doc, text


# What a config value of each kind must be, for the error that says so
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          complex: "a [re, im] pair", list: "a list of numbers"}


def _of_kind(value, kind) -> bool:
    # JSON of the kind: no bool is a number, and every number is finite
    if kind in (complex, list):
        return (isinstance(value, list) and (kind is list or len(value) == 2)
                and all(_of_kind(x, float) for x in value))
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _bump_builder(bumps, seed: int):
    # bumps: (amp, center, width, scale), amp a complex or "random"
    rng = np.random.default_rng(seed)
    drawn = []
    for amp, center, width, scale in bumps:
        if amp == "random":
            draw = rng.standard_normal(2) * scale
            amp = complex(draw[0], draw[1])
        drawn.append((amp, center, width))

    def bump(*meshes):
        total = np.zeros(meshes[0].shape, dtype=complex)
        for amp_c, center, width in drawn:
            r2 = sum((mesh - (center[ax] if ax < len(center) else 0.0)) ** 2
                     for ax, mesh in enumerate(meshes))
            total = total + amp_c * np.exp(-r2 / width**2)
        return total

    return bump


def build_run(doc: dict, path, text: str, out_override=None,
              max_order: int = DEFAULT_MAX_ORDER) -> RunConfig:
    """Validate a parsed config document and assemble the run objects.

    Schema (JSON object):
      phys:      {N, alpha, lam: [re, im], b}
      grid:      {L, M, boundary_tol?}            (optional with snapshot data)
      solver:    {frame, dt0?, c_adapt?, horizon_floor?, t_end?, snapshot_count?}
      data:      {c?, n?, bump?: [{amp|"random", center, width, scale?}, ...],
                  snapshot?: series base path, index?: field of the series (0)}
      exponents: {strict?, n?, fallback_sigma?}   (optional; defaults to the
                  relaxed set at the data weight with the strict-window rate)
      out:       directory (optional; --out flag and DNLSLAB_OUT override)
      seed:      integer for randomized bumps (default 0)

    A null value reads as absent, and one not of its kind is a ConfigError at
    its key.  ``snapshot_schedule`` alone judges the solver section; its
    errors anchor at "solver".  ``max_order``, the monitors' derivative
    order (``--max-order``), must lie in [0, J] of the exponent set.
    """

    def err(key, msg):
        raise ConfigError(path, find_line(text, key), msg)

    def read(section, key, kind, default=_REQUIRED):
        # section: a section's name, or a mapping within the config
        value = (doc[section] if isinstance(section, str) else section).get(key)
        if value is None:
            if default is _REQUIRED:
                err(section, f'{section} section needs "{key}"')
            return default
        if not _of_kind(value, kind):
            err(key, f"{key} must be {_KINDS[kind]}, not {json.dumps(value)}")
        return complex(*value) if kind is complex else float(value) if kind is float else value

    for section in ("phys", "grid", "solver", "data", "exponents"):
        if section not in doc and section not in ("grid", "exponents"):
            raise ConfigError(path, 1, f'missing section "{section}"')
        if not isinstance(doc.get(section, {}), dict):
            err(section, f'section "{section}" must be an object')

    N, alpha = read("phys", "N", int), read("phys", "alpha", float)
    lam, b = read("phys", "lam", complex), read("phys", "b", float)
    if lam.imag > 0:
        err("lam", "Im(lam) > 0 amplifies mass; only dissipative or zero allowed")
    if N not in (1, 2):  # before a grid of N axes is built
        err("N", "dimension must be 1 or 2")
    if alpha <= 0:
        err("alpha", "alpha must be positive")
    params = PhysParams(N, alpha, lam, b)

    kinds = {"frame": str, "dt0": float, "c_adapt": float, "t_end": float,
             "horizon_floor": float, "snapshot_count": int}
    solver = SolverConfig(**{k: read("solver", k, kind, getattr(SolverConfig, k))
                             for k, kind in kinds.items()})

    data_n = read("data", "n", int, None)
    snapshot = read("data", "snapshot", str, None)
    c = read("data", "c", float, None)
    if snapshot is None:
        if "grid" not in doc:
            err("data", "grid section required unless data comes from a snapshot")
        if data_n is None:
            err("data", 'constructed data needs a weight order "n"')
        if c is None:
            err("data", 'constructed data needs a leading coefficient "c"')

    grid = None
    if "grid" in doc:
        dim = read("grid", "dim", int, N)
        if dim != N:
            err("grid", f"grid dimension {dim} does not match N = {N}")
        try:
            grid = Grid.box(read("grid", "L", float), read("grid", "M", int), dim,
                            boundary_tol=read("grid", "boundary_tol", float, DEFAULT_BOUNDARY_TOL))
        except ValueError as e:
            err("grid", str(e))

    exps = None
    ex = doc.get("exponents")
    if ex is None and data_n is not None:
        ex = {"strict": False, "n": data_n, "fallback_sigma": True}
    if ex is not None:
        choice = {"strict": read(ex, "strict", bool, True), "n": read(ex, "n", int, None),
                  "fallback_sigma": read(ex, "fallback_sigma", bool, False)}
        if lam.imag < 0:
            try:
                exps = synthesize_exponents(params, **choice)
            except ValueError as e:
                err("exponents" if "exponents" in doc else "data", str(e))
            if data_n is not None and exps.n != data_n:
                err("exponents", f"exponent weight n = {exps.n} does not match data n = {data_n}")
    if max_order < 0:
        raise ConfigError(path, 1, f"--max-order {max_order} is negative")
    if exps is not None and max_order > exps.J:
        err("exponents" if "exponents" in doc else "data",
            f"--max-order {max_order} exceeds the exponent set's J = {exps.J}")

    if snapshot is not None:
        try:
            initial = load_field(snapshot, read("data", "index", int, 0))
        except IndexError as e:
            err("index", str(e))
        except (TypeError, ValueError) as e:  # an unknown or malformed sidecar, a short payload
            err("snapshot", str(e))
        if initial.grid.dim != N:
            err("snapshot", f"snapshot grid dimension {initial.grid.dim} does not match N = {N}")
        if grid is not None and (
            tuple(initial.grid.points) != tuple(grid.points)
            or not np.allclose(initial.grid.extents, grid.extents)
        ):
            err("grid", "snapshot grid does not match the grid section")
    else:
        if c == 0:
            err("c", "leading coefficient c must be nonzero")
        specs = doc["data"].get("bump") or []
        if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
            err("bump", "bump must be a list of objects")
        bumps = [("random" if spec.get("amp") == "random" else read(spec, "amp", complex, 0.1 + 0j),
                  read(spec, "center", list, [0.0]), read(spec, "width", float, 1.0),
                  read(spec, "scale", float, 0.1)) for spec in specs]
        if any(width <= 0 for _, _, width, _ in bumps):
            err("width", "a bump's width must be positive")
        bump = _bump_builder(bumps, read(doc, "seed", int, 0)) if bumps else None
        try:
            initial = build_initial_data(grid, c, data_n, bump)
        except BoundaryDecayError as e:
            err("grid", str(e))
        except ValueError as e:
            err("data", str(e))
    try:
        snapshot_schedule(solver, params, initial.t)
    except ValueError as e:
        err("solver", str(e))
    if initial.frame != solver.frame:  # the lens between the frames is the identity only at t = 0
        if initial.t != 0.0:
            err("snapshot", f"a {initial.frame}-frame snapshot at t = {initial.t:g} cannot start "
                f"a {solver.frame}-frame run; only t = 0 is the same state in both frames")
        initial = Field(initial.grid, initial.values, solver.frame, initial.t)

    return RunConfig(params=params, exps=exps, initial=initial, solver=solver,
                     out=out_root(out_override, doc))

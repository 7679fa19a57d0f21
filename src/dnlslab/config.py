"""Run configs: read a JSON config file and assemble the objects of one run.

``build_run`` gives the schema; a problem is a ``ConfigError`` at the line of
the key that holds it, found by the key's path (``key_line``).
"""

from __future__ import annotations

import functools
import json
import operator
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import (DEFAULT_BOUNDARY_TOL, BoundaryDecayError, Field, Grid, build_initial_data,
                    load_field)
from .params import PhysParams, validate_phys
from .solver import SolverConfig, snapshot_schedule

_REQUIRED = object()  # build_run's marker for a key without a default


class ConfigError(Exception):
    """Configuration problem, anchored to a line of the config file."""

    def __init__(self, path, line: int, msg: str):
        super().__init__(f"{path}:{line}: {msg}")


def key_line(text: str, *path) -> int:
    """Line of the key at ``path`` in a JSON text, else 1; an int in ``path`` is a list index."""
    at = [None]  # the key or index read at each depth, from outside the root on
    for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}\[\],]', text):
        if m[2]:
            at[-1] = json.loads(m[1])
            if at[1:] == list(path):
                return text.count("\n", 0, m.start()) + 1
        elif m[0] in "{[]}":
            at = at + [0 if m[0] == "[" else None] if m[0] in "{[" else at[:-1]
        elif m[0] == "," and isinstance(at[-1], int):  # the next entry of a list
            at[-1] += 1
    return 1


@dataclass
class RunConfig:
    params: PhysParams
    n: int | None  # the data's weight order
    initial: Field
    solver: SolverConfig
    out: Path


def out_root(out_override, doc: dict) -> Path:
    """--out, else the config's "out", else $DNLSLAB_OUT, else ./runs."""
    return Path(out_override or doc.get("out") or os.environ.get("DNLSLAB_OUT") or "runs")


def load_config(path) -> tuple[dict, str]:
    try:
        text = Path(path).read_text()
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
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          complex: "a [re, im] pair", list: "a list of numbers"}


def _of_kind(value, kind) -> bool:
    # JSON of the kind: no key is boolean, no bool is a number, and every number is finite
    if kind in (complex, list):
        return (isinstance(value, list) and (kind is list or len(value) == 2)
                and all(_of_kind(x, float) for x in value))
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def build_run(doc: dict, path, text: str, out_override=None) -> RunConfig:
    """Validate a parsed config document and assemble the run objects.

    Schema (JSON object):
      phys:      {N, alpha, lam: [re, im], b}
      grid:      {L, M, boundary_tol?}            (optional with snapshot data)
      solver:    {frame, dt0?, c_adapt?, horizon_floor?, t_end?, snapshot_count?}
      data:      {c?, n?, bump?: [{amp?, center?, width?}, ...],
                  snapshot?: series base path, index?: field of the series (0)}
      out:       directory (optional; --out flag and DNLSLAB_OUT override)

    A null value reads as absent, and one not of its kind is a ConfigError at
    its key, a bump's at its own bump.  ``data.n``, the weight order, must be
    a positive integer; the monitors and the verdict read it, for snapshot
    data too, and an "exponents" section is refused in its favour.  A
    dissipative config (Im lam < 0) must pass ``validate_phys``.
    ``snapshot_schedule`` alone judges the solver section; its errors anchor
    at "solver".
    """

    def err(msg, *at):
        # at: the path of the key that holds the bad value; an empty path anchors at line 1
        raise ConfigError(path, key_line(text, *at), msg)

    def read(kind, *at, default=_REQUIRED):
        # at: the key's path, through a section and, for a bump, its index
        value = functools.reduce(operator.getitem, at[:-1], doc).get(at[-1])
        if value is None:
            if default is _REQUIRED:
                err(f'{at[0]} section needs "{at[-1]}"', at[0])
            return default
        if not _of_kind(value, kind):
            err(f"{at[-1]} must be {_KINDS[kind]}, not {json.dumps(value)}", *at)
        return complex(*value) if kind is complex else float(value) if kind is float else value

    if doc.get("exponents") is not None:
        err('"exponents" is not a config section; the weight order is data.n', "exponents")
    for section in ("phys", "grid", "solver", "data"):
        if section not in doc and section != "grid":
            err(f'missing section "{section}"')
        if not isinstance(doc.get(section, {}), dict):
            err(f'section "{section}" must be an object', section)

    N, alpha = read(int, "phys", "N"), read(float, "phys", "alpha")
    lam, b = read(complex, "phys", "lam"), read(float, "phys", "b")
    if lam.imag > 0:
        err("Im(lam) > 0 amplifies mass; only dissipative or zero allowed", "phys", "lam")
    if N not in (1, 2):  # before a grid of N axes is built
        err("dimension must be 1 or 2", "phys", "N")
    if alpha <= 0:
        err("alpha must be positive", "phys", "alpha")
    params = PhysParams(N, alpha, lam, b)
    bad = validate_phys(params) if lam.imag < 0 else []
    if bad:
        err("invalid physical parameters: " + "; ".join(bad), "phys")

    kinds = {"frame": str, "dt0": float, "c_adapt": float, "t_end": float,
             "horizon_floor": float, "snapshot_count": int}
    solver = SolverConfig(**{k: read(kind, "solver", k, default=getattr(SolverConfig, k))
                             for k, kind in kinds.items()})

    data_n = read(int, "data", "n", default=None)
    if data_n is not None and data_n < 1:
        err("n must be a positive integer", "data", "n")
    snapshot = read(str, "data", "snapshot", default=None)
    c = read(float, "data", "c", default=None)
    if snapshot is None:
        if "grid" not in doc:
            err("grid section required unless data comes from a snapshot", "data")
        if data_n is None:
            err('constructed data needs a weight order "n"', "data")
        if c is None:
            err('constructed data needs a leading coefficient "c"', "data")

    grid = None
    if "grid" in doc:
        try:
            grid = Grid.box(read(float, "grid", "L"), read(int, "grid", "M"), N,
                            read(float, "grid", "boundary_tol", default=DEFAULT_BOUNDARY_TOL))
        except ValueError as e:
            err(str(e), "grid")

    if snapshot is not None:
        try:
            initial = load_field(snapshot, read(int, "data", "index", default=0))
        except IndexError as e:
            err(str(e), "data", "index")
        except (TypeError, ValueError) as e:  # an unknown or malformed sidecar, a short payload
            err(str(e), "data", "snapshot")
        if initial.grid.dim != N:
            err(f"snapshot grid dimension {initial.grid.dim} does not match N = {N}",
                "data", "snapshot")
        if grid is not None and (
            initial.grid.points != grid.points
            or not np.allclose(initial.grid.extents, grid.extents)
        ):
            err("snapshot grid does not match the grid section", "grid")
    else:
        if c == 0:
            err("leading coefficient c must be nonzero", "data", "c")
        specs = doc["data"].get("bump") or []
        if not (isinstance(specs, list) and all(isinstance(spec, dict) for spec in specs)):
            err("bump must be a list of objects", "data", "bump")
        bumps = [(read(complex, "data", "bump", i, "amp", default=0.1 + 0j),
                  read(list, "data", "bump", i, "center", default=[0.0]),
                  read(float, "data", "bump", i, "width", default=1.0))
                 for i in range(len(specs))]
        for i, (_, _, width) in enumerate(bumps):
            if width <= 0:
                err("a bump's width must be positive", "data", "bump", i, "width")

        def bump(*meshes):  # a center's missing axes read 0
            total = 0
            for amp, center, width in bumps:
                r2 = sum((mesh - x0) ** 2 for mesh, x0 in zip(meshes, center + [0.0] * len(meshes)))
                total = total + amp * np.exp(-r2 / width**2)
            return total

        try:
            initial = build_initial_data(grid, c, data_n, bump if bumps else None)
        except BoundaryDecayError as e:
            err(str(e), "grid")
        except ValueError as e:
            err(str(e), "data")
    try:
        snapshot_schedule(solver, params, initial.t)
    except ValueError as e:
        err(str(e), "solver")
    if initial.frame != solver.frame:  # the lens between the frames is the identity only at t = 0
        if initial.t != 0.0:
            err(f"a {initial.frame}-frame snapshot at t = {initial.t:g} cannot start "
                f"a {solver.frame}-frame run; only t = 0 is the same state in both frames",
                "data", "snapshot")
        initial = Field(initial.grid, initial.values, solver.frame, initial.t)

    return RunConfig(params=params, n=data_n, initial=initial, solver=solver,
                     out=out_root(out_override, doc))

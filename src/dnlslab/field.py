"""Uniform periodic grids, complex fields, spectral derivatives, weighted norms.

The continuum problem lives on R^N; we truncate to a periodic box [-L, L)^N
chosen large enough that the data and its dispersive tail are negligible at
the boundary.  Derivatives are Fourier-collocation (exact for band-limited
data), quadrature is the rectangle rule (= trapezoid on a periodic grid).

Supports N = 1 and N = 2.
"""

from __future__ import annotations

import contextlib
import functools
import json
import shutil
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

DEFAULT_BOUNDARY_TOL = 1e-8
DEFAULT_MAX_ORDER = 4

SNAPSHOT_SCHEMA = 1


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class BoundaryDecayError(ValueError):
    """Field is not negligible at the box boundary; the domain is too small."""


def _per_grid(build):
    """Cache a geometry method's arrays on the grid, per argument, read-only.

    Only the arrays a run reads again after setup are cached; the rest of the
    geometry is built per call and dropped with its caller's temporaries.  The
    cache sits outside the dataclass fields, so equality, hashing and
    ``replace`` ignore it; a scaled grid builds its own.
    """

    @functools.wraps(build)
    def cached(self, *args):
        cache = self.__dict__.setdefault("_geometry", {})
        key = (build.__name__, *args)
        if key not in cache:
            value = build(self, *args)
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            cache[key] = value
        return cache[key]

    return cached


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L0, L0) x ... with per-axis point counts.

    Parameters
    ----------
    extents : tuple of float
        Half-extent of each axis.
    points : tuple of int
        Points per axis; must be even so the Nyquist mode is unambiguous.
    boundary_tol : float
        Relative magnitude allowed at the box boundary before spectral
        derivatives refuse the field.
    """

    extents: tuple[float, ...]
    points: tuple[int, ...]
    boundary_tol: float = DEFAULT_BOUNDARY_TOL

    def __post_init__(self):
        if len(self.extents) != len(self.points):
            raise ValueError("extents and points must have equal length")
        if self.dim not in (1, 2):
            raise ValueError("only 1 and 2 spatial dimensions are supported")
        for L, M in zip(self.extents, self.points):
            if L <= 0:
                raise ValueError("half-extent must be positive")
            if M < 2 or M % 2:
                raise ValueError("point count must be a positive even integer")

    @classmethod
    def line(cls, L: float, M: int, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> "Grid":
        return cls((float(L),), (int(M),), boundary_tol)

    @classmethod
    def box(cls, L, M, dim: int, boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> "Grid":
        return cls((float(L),) * dim, (int(M),) * dim, boundary_tol)

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2 * L / M for L, M in zip(self.extents, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> list[np.ndarray]:
        return [
            -L + (2 * L / M) * np.arange(M)
            for L, M in zip(self.extents, self.points)
        ]

    def meshes(self) -> tuple[np.ndarray, ...]:
        if self.dim == 1:
            return tuple(self.axes())
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def radius_sq(self) -> np.ndarray:
        return sum(np.ix_(*(x**2 for x in self.axes())))

    def bracket(self) -> np.ndarray:
        """The weight <x> = (1 + |x|^2)^(1/2); equals 1 at the origin."""
        return np.sqrt(1.0 + self.radius_sq())

    @_per_grid
    def bracket_pow(self, p: float) -> np.ndarray:
        """The weight <x>^p; cached, as the records and monitors read <x>^n each step and row."""
        return self.bracket() ** p

    @_per_grid
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        return tuple(
            2 * np.pi * np.fft.fftfreq(M, d=2 * L / M)
            for L, M in zip(self.extents, self.points)
        )

    def wavenumber_sq(self) -> np.ndarray:
        return sum(np.ix_(*(k**2 for k in self.wavenumbers())))

    @_per_grid
    def wavenumber_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct values of |k|^2, and per point the index of its own.

        A radial multiplier evaluated on the levels and gathered through the
        index equals the one evaluated on ``wavenumber_sq`` bit for bit, at a
        fraction of the cost: a 256^2 grid has 7,446 levels.
        """
        levels, index = np.unique(self.wavenumber_sq(), return_inverse=True)
        return levels, index.reshape(self.shape)

    def scaled(self, factor: float) -> "Grid":
        """Grid with every coordinate multiplied by ``factor`` (same points)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, extents=tuple(L * factor for L in self.extents))


@dataclass(frozen=True)
class Field:
    """Complex samples on a grid, tagged with frame ('u' or 'v') and time.

    ``spectrum``, when set, is the array that ``values`` is the inverse
    transform of; the stepper carries it from one step to the next instead
    of transforming ``values`` again.  ``with_values`` drops it.
    """

    grid: Grid
    values: np.ndarray
    frame: str
    t: float
    spectrum: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"value shape {self.values.shape} != grid {self.grid.shape}")
        if self.frame not in ("u", "v"):
            raise ValueError("frame must be 'u' or 'v'")
        if not np.isfinite(self.t):
            raise ValueError("time stamp must be finite")

    def with_values(self, values: np.ndarray, t: float | None = None) -> "Field":
        return Field(self.grid, values, self.frame, self.t if t is None else t)


def _normalize_order(beta, dim: int) -> tuple[int, ...]:
    if np.isscalar(beta):
        if dim != 1:
            raise ValueError("multi-index required for dim > 1")
        beta = (int(beta),)
    beta = tuple(int(b) for b in beta)
    if len(beta) != dim or any(b < 0 for b in beta):
        raise ValueError(f"bad multi-index {beta} for dim {dim}")
    return beta


def boundary_magnitude(f: Field) -> float:
    """Largest |value| on the outermost cell shell of the box."""
    v = f.values
    edge = 0.0
    for ax in range(v.ndim):
        first = np.take(v, 0, axis=ax)
        last = np.take(v, -1, axis=ax)
        edge = max(edge, float(np.max(np.abs(first))), float(np.max(np.abs(last))))
    return edge


def check_boundary_decay(f: Field, tol: float | None = None) -> None:
    tol = f.grid.boundary_tol if tol is None else tol
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return
    edge = boundary_magnitude(f)
    if edge > tol * peak:
        raise BoundaryDecayError(
            f"boundary magnitude {edge:.3e} exceeds {tol:.1e} x peak {peak:.3e}; "
            "domain too small for spectral differentiation"
        )


def spectral_derivative(
    f: Field,
    beta,
    max_order: int = DEFAULT_MAX_ORDER,
    check: bool = True,
) -> Field:
    """Fourier-collocation derivative D^beta f; exact for band-limited data.

    ``beta`` is an int in 1-D or a multi-index matching the grid dimension.
    Refuses orders above ``max_order`` and fields that have not decayed at
    the box boundary (wraparound would contaminate the derivative).
    """
    beta = _normalize_order(beta, f.grid.dim)
    if sum(beta) > max_order:
        raise DerivativeOrderError(f"|beta|={sum(beta)} exceeds max order {max_order}")
    if sum(beta) == 0:
        return f.with_values(f.values.copy())
    if check:
        check_boundary_decay(f)
    return f.with_values(np.fft.ifftn(_apply_symbol(np.fft.fftn(f.values), beta, f.grid)))


def _axis_symbol(k: np.ndarray, b: int, ax: int, dim: int) -> np.ndarray:
    """(ik)^b along axis ``ax``, shaped to broadcast over a dim-D spectrum."""
    shape = [1] * dim
    shape[ax] = k.size
    return (1j * k.reshape(shape)) ** b


def _apply_symbol(spec: np.ndarray, beta: tuple[int, ...], grid: Grid) -> np.ndarray:
    # multiply by (ik)^beta one axis at a time
    for ax, (b, k) in enumerate(zip(beta, grid.wavenumbers())):
        if b:
            spec = spec * _axis_symbol(k, b, ax, grid.dim)
    return spec


class LadderWorkspace(threading.local):
    """The arrays the derivative ladder of one grid writes into, call after call.

    A spectrum, a partial derivative per axis, and a real modulus (3.5 MiB at
    256^2); each thread that uses it gets its own.  ``scratch``, a real array
    over the last partial, is free while a yielded modulus is current.
    """

    def __init__(self, grid: Grid):
        self.spectrum = np.empty(grid.shape, dtype=complex)
        self.partials = [np.empty(grid.shape, dtype=complex) for _ in range(grid.dim)]
        self.modulus = np.empty(grid.shape)
        self.scratch = np.ndarray(grid.shape, buffer=self.partials[-1])


def derivative_moduli(f: Field, orders, workspace: LadderWorkspace | None = None):
    """Yield ``(beta, |D^beta f|)`` for each multi-index in ``orders``.

    D^beta is applied one axis at a time with 1-D transforms, so a partial
    derivative shared by several multi-indices is transformed once: at maximum
    order 4 that is 5 single-axis passes in 1-D and 19 in 2-D, all written into
    ``workspace`` (built if none is given).  A yielded modulus is a view the
    next yield overwrites: use it before advancing.  Pairs come grouped by their
    leading components, zeros first: for :func:`derivative_orders`, the listed
    order.  Unlike :func:`spectral_derivative` there are no order or boundary checks.
    """
    return _ladder(f.values, list(orders), 0, f.grid, workspace or LadderWorkspace(f.grid))


def _ladder(part: np.ndarray, orders: list, ax: int, grid: Grid, ws: LadderWorkspace):
    # ``part`` carries the derivatives along the axes before ``ax``; its spectrum is
    # taken once the zero order is done with it, on axis 1 into axis 0's partial
    k = grid.wavenumbers()[ax]
    spec = None
    for b in sorted(dict.fromkeys(beta[ax] for beta in orders), key=bool):
        if b == 0:
            d = part
        else:
            if spec is None:
                spec = np.fft.fft(part, axis=ax, out=ws.partials[ax - 1] if ax else ws.spectrum)
            d = np.multiply(spec, _axis_symbol(k, b, ax, grid.dim), out=ws.partials[ax])
            np.fft.ifft(d, axis=ax, out=d)
        rest = [beta for beta in orders if beta[ax] == b]
        if ax + 1 == grid.dim:
            mod = np.abs(d, out=ws.modulus)
            for beta in rest:
                yield beta, mod
        else:
            yield from _ladder(d, rest, ax + 1, grid, ws)


def sup_norm(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2)))


def weighted_inf(f: Field, p: float) -> tuple[float, tuple[float, ...]]:
    """inf over the grid of <x>^p |f(x)|, with the location where it is attained."""
    vals = f.grid.bracket_pow(p) * np.abs(f.values)
    flat = int(np.argmin(vals))
    idx = np.unravel_index(flat, vals.shape)
    loc = tuple(float(x[i]) for x, i in zip(f.grid.axes(), idx))
    return float(vals[idx]), loc


def derivative_orders(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """Every multi-index beta with |beta| <= max_order, in a fixed order."""
    if dim == 1:
        return [(j,) for j in range(max_order + 1)]
    return [
        (i, j)
        for i in range(max_order + 1)
        for j in range(max_order + 1 - i)
    ]


def data_bound(v0: Field, n: int, max_order: int = DEFAULT_MAX_ORDER, workspace=None) -> float:
    """Weighted-norm-plus-margin constant of the initial data.

    Sum of sup_{|beta|<=max_order} ||<x>^n D^beta v0||_inf and the reciprocal
    of inf <x>^n |v0|; enters the pointwise decay bound monitored along runs.
    The high-order L2 ladder of the full norm starts above the truncation
    order, so it does not contribute here.
    """
    if n < 0:
        raise ValueError("weight power must be nonnegative")
    if max_order > 0:
        check_boundary_decay(v0)
    weight = v0.grid.bracket_pow(n)
    worst = 0.0
    for _, mod in derivative_moduli(v0, derivative_orders(v0.grid.dim, max_order), workspace):
        worst = max(worst, float(np.max(weight * mod)))  # before the next modulus
    low, _ = weighted_inf(v0, n)
    if low <= 0:
        raise ValueError("initial data vanishes on the grid")
    return worst + 1.0 / low


def build_initial_data(grid: Grid, c: complex, n: int, bump=None) -> Field:
    """Admissible initial data c <x>^{-n} + bump, as the v-frame field at t = 0.

    ``bump`` is an optional callable taking the coordinate meshes and
    returning a complex perturbation; it must keep <x>^n |v0| bounded away
    from zero (checked on the grid).  Data that has not decayed at the box
    boundary is refused too.  Its norm constant is :func:`data_bound`.
    """
    if c == 0:
        raise ValueError("leading coefficient c must be nonzero")
    base = complex(c) * grid.bracket() ** float(-n)
    if bump is not None:
        base = base + np.asarray(bump(*grid.meshes()), dtype=complex)
    v0 = Field(grid, np.asarray(base, dtype=complex), "v", 0.0)
    low, loc = weighted_inf(v0, n)
    if low <= 0:
        raise ValueError(f"initial data vanishes near x = {loc}")
    check_boundary_decay(v0)
    return v0


def save_field(f: Field, path_base) -> tuple[Path, Path]:
    """Write a field snapshot: raw values plus a JSON descriptor.

    Binary layout: little-endian complex128 ("<c16"), that is float64 (re, im)
    per sample, row-major over the grid.  The descriptor carries the grid
    extents and point counts, the frame tag, and the time stamp.
    """
    base = Path(path_base)
    bin_path = base.with_suffix(".bin")
    meta_path = base.with_suffix(".json")
    base.parent.mkdir(parents=True, exist_ok=True)
    np.ascontiguousarray(f.values, dtype="<c16").tofile(bin_path)
    meta = {
        "schema_version": SNAPSHOT_SCHEMA,
        "extents": list(f.grid.extents),
        "points": list(f.grid.points),
        "boundary_tol": f.grid.boundary_tol,
        "frame": f.frame,
        "time": f.t,
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return bin_path, meta_path


def load_field(path_base) -> Field:
    base = Path(path_base)
    meta = json.loads(base.with_suffix(".json").read_text())
    if meta.get("schema_version") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unsupported snapshot schema {meta.get('schema_version')}")
    missing = [key for key in ("time", "frame", "extents", "points") if key not in meta]
    if missing:
        raise ValueError(f"snapshot sidecar lacks {', '.join(map(repr, missing))}")
    grid = Grid(
        tuple(float(L) for L in meta["extents"]),
        tuple(int(M) for M in meta["points"]),
        float(meta.get("boundary_tol", DEFAULT_BOUNDARY_TOL)),
    )
    raw = np.fromfile(base.with_suffix(".bin"), dtype="<c16")
    if raw.size != np.prod(grid.shape):
        raise ValueError("snapshot payload does not match grid size")
    return Field(grid, raw.reshape(grid.shape), meta["frame"], float(meta["time"]))


class SnapshotStore(Sequence):
    """A run's snapshots on disk, ``snap_{i:04d}.{bin,json}`` in ``directory``.

    ``run`` appends to it as to a list.  It keeps in memory only the times,
    the first field and the latest; each snapshot reaches disk when ``save``
    is called for it, once whatever reads it in memory is done with it.  Any
    other index is read back from its ``.bin`` on the first field's grid and
    frame, one array per read.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.times: list[float] = []
        self._first = self._last = None

    @classmethod
    @contextlib.contextmanager
    def staged(cls, out: Path):
        """A store in ``.NAME.partial/snapshots`` beside a run's directory ``out``.

        The run writes its other files into the staging directory too
        (``directory.parent``); ``publish`` moves them all into ``out``.  The
        staging directory goes on the way out, published or not, and one that
        a killed run left goes on the way in.
        """
        stage = out.parent / f".{out.name}.partial"
        shutil.rmtree(stage, ignore_errors=True)
        (stage / "snapshots").mkdir(parents=True)
        try:
            yield cls(stage / "snapshots")
        finally:
            shutil.rmtree(stage, ignore_errors=True)

    def publish(self, out: Path) -> None:
        """Move a ``staged`` store's files into ``out``, where it reads from then on.

        Each staged entry replaces its namesake in ``out``, ``snapshots/`` as
        a whole; every other file in ``out`` stays.
        """
        out.mkdir(parents=True, exist_ok=True)
        for entry in self.directory.parent.iterdir():
            target = out / entry.name
            if entry.is_dir() and target.is_dir():
                shutil.rmtree(target)
            entry.replace(target)
        self.directory = out / "snapshots"

    def append(self, f: Field) -> None:
        if not self.times:
            self._first = f
        self.times.append(f.t)
        self._last = f

    def save(self, f: Field, i: int = -1) -> None:
        """Write ``f`` as snapshot i, by default the latest appended."""
        save_field(f, self.directory / f"snap_{i % len(self.times):04d}")

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> Field:
        n = len(self.times)
        if not -n <= i < n:
            raise IndexError("snapshot index out of range")
        i %= n
        if i == 0:
            return self._first
        if i == n - 1:
            return self._last
        first = self._first
        raw = np.fromfile(self.directory / f"snap_{i:04d}.bin", dtype="<c16")
        return Field(first.grid, raw.reshape(first.grid.shape), first.frame, self.times[i])

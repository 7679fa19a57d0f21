"""Complex fields on a grid, spectral derivatives, weighted norms, stored series.

Derivatives are Fourier-collocation (exact for band-limited data),
quadrature is the rectangle rule (= trapezoid on a periodic grid).  The grid
itself is :class:`dnlslab.grid.Grid`.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .grid import DEFAULT_BOUNDARY_TOL, Grid

DEFAULT_MAX_ORDER = 4

SNAPSHOT_SCHEMA = 2


class DerivativeOrderError(ValueError):
    """Requested derivative order exceeds the configured maximum."""


class BoundaryDecayError(ValueError):
    """Field is not negligible at the box boundary; the domain is too small."""


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
    return max(0.0, *(float(np.max(np.abs(np.take(v, end, axis=ax))))
                      for ax in range(v.ndim) for end in (0, -1)))


def check_boundary_decay(f: Field) -> None:
    tol = f.grid.boundary_tol
    peak, edge = float(np.max(np.abs(f.values))), boundary_magnitude(f)
    if peak > 0.0 and edge > tol * peak:
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
    spec = np.fft.fftn(f.values)
    for ax, (b, k) in enumerate(zip(beta, f.grid.wavenumbers())):
        if b:  # multiply by (ik)^b one axis at a time
            spec = spec * _axis_symbol(k, b, ax, f.grid.dim)
    return f.with_values(np.fft.ifftn(spec))


def _axis_symbol(k: np.ndarray, b: int, ax: int, dim: int) -> np.ndarray:
    """(ik)^b along axis ``ax``, shaped to broadcast over a dim-D spectrum."""
    shape = [1] * dim
    shape[ax] = k.size
    return (1j * k.reshape(shape)) ** b


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
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    loc = tuple(float(x[i]) for x, i in zip(f.grid.axes(), idx))
    return float(vals[idx]), loc


def derivative_orders(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """Every multi-index beta with |beta| <= max_order, in a fixed order."""
    if dim == 1:
        return [(j,) for j in range(max_order + 1)]
    return [(i, j) for i in range(max_order + 1) for j in range(max_order + 1 - i)]


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


def _write_sidecar(base: Path, f: Field, times: list) -> Path:
    meta = {"schema_version": SNAPSHOT_SCHEMA, "extents": list(f.grid.extents),
            "points": list(f.grid.points), "boundary_tol": f.grid.boundary_tol,
            "frame": f.frame, "times": times}
    base.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return base.with_suffix(".json")


def save_field(f: Field, path_base) -> tuple[Path, Path]:
    """Write a field as a series of one: raw values plus a JSON descriptor.

    A series is ``<base>.bin``, k fields back to back (field i at byte offset
    i * 16 * points), each little-endian complex128 ("<c16"), row-major over
    the grid; its descriptor ``<base>.json`` carries the grid extents and
    point counts, the frame tag, and the k time stamps ``times``.
    """
    base = Path(path_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    np.ascontiguousarray(f.values, dtype="<c16").tofile(base.with_suffix(".bin"))
    return base.with_suffix(".bin"), _write_sidecar(base, f, [f.t])


def load_field(path_base, index: int = 0) -> Field:
    """Field ``index`` of the series at ``path_base``; IndexError where it has none."""
    base = Path(path_base)
    meta = json.loads(base.with_suffix(".json").read_text())
    if meta.get("schema_version") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unsupported snapshot schema {meta.get('schema_version')}")
    missing = [key for key in ("times", "frame", "extents", "points") if key not in meta]
    if missing:
        raise ValueError(f"snapshot sidecar lacks {', '.join(map(repr, missing))}")
    grid = Grid(tuple(float(L) for L in meta["extents"]), tuple(int(M) for M in meta["points"]),
                float(meta.get("boundary_tol", DEFAULT_BOUNDARY_TOL)))
    times, size = meta["times"], int(np.prod(grid.shape))
    if not isinstance(times, list):
        raise ValueError(f"snapshot sidecar 'times' must be a list, not {json.dumps(times)}")
    if not 0 <= index < len(times):
        raise IndexError(f"snapshot index {index} is outside the series' {len(times)} fields")
    if base.with_suffix(".bin").stat().st_size != 16 * size * len(times):
        raise ValueError(f"snapshot payload does not match grid size x {len(times)} fields")
    raw = np.fromfile(base.with_suffix(".bin"), "<c16", size, offset=16 * size * index)
    return Field(grid, raw.reshape(grid.shape), meta["frame"], float(times[index]))


class SnapshotStore(Sequence):
    """A run's snapshots on disk: the series ``series.{bin,json}`` in ``directory``.

    ``run`` appends to it as to a list.  It keeps in memory only the times,
    the first field and the latest; each snapshot reaches disk when ``save``
    is called for it, once whatever reads it in memory is done with it.  Any
    other index is read back from the series on the first field's grid and
    frame, one array per read.  ``publish`` writes the sidecar.
    """

    def __init__(self, directory, fd: int):
        self.directory = Path(directory)
        self.times: list[float] = []
        self._first = self._last = None
        self._fd = fd  # series.bin, open for writing

    @classmethod
    @contextlib.contextmanager
    def staged(cls, out: Path):
        """A store in ``.NAME.partial/snapshots`` beside a run's directory ``out``.

        The run writes its other files into the staging directory too
        (``directory.parent``); ``publish`` moves them all into ``out``.  On
        the way out the series file is closed and the staging directory goes,
        published or not; one that a killed run left goes on the way in.
        """
        stage = out.parent / f".{out.name}.partial"
        shutil.rmtree(stage, ignore_errors=True)
        (stage / "snapshots").mkdir(parents=True)
        try:
            with open(stage / "snapshots" / "series.bin", "wb", buffering=0) as fh:
                yield cls(stage / "snapshots", fh.fileno())
        finally:
            shutil.rmtree(stage, ignore_errors=True)

    def publish(self, out: Path) -> None:
        """Write the sidecar and move a ``staged`` store's files into ``out``.

        Each staged entry replaces its namesake in ``out``, ``snapshots/`` as
        a whole; every other file in ``out`` stays.  The store reads from
        ``out`` from then on.
        """
        _write_sidecar(self.directory / "series", self._first, self.times)
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
        """Write ``f`` as snapshot i, by default the latest appended: one positional
        write of its own buffer, so no copy and no file offset the threads share."""
        values = np.ascontiguousarray(f.values, dtype="<c16")
        data, offset = memoryview(values).cast("B"), (i % len(self.times)) * values.nbytes
        while data:  # a write cut short leaves the rest; the next one raises what stopped it
            written = os.pwrite(self._fd, data, offset)
            data, offset = data[written:], offset + written

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> Field:
        i = range(len(self.times))[i]  # IndexError outside; a negative i counts from the end
        if i == 0:
            return self._first
        if i == len(self.times) - 1:
            return self._last
        first, size = self._first, self._first.values.size
        raw = np.fromfile(self.directory / "series.bin", "<c16", size, offset=16 * size * i)
        return Field(first.grid, raw.reshape(first.grid.shape), first.frame, self.times[i])

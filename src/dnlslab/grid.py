"""Uniform periodic grids in 1 and 2 dimensions, and the geometry a run reads again.

The continuum problem lives on R^N; we truncate to a periodic box [-L, L)^N
chosen large enough that the data and its dispersive tail are negligible at
the boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_BOUNDARY_TOL = 1e-8


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

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axes(self) -> list[np.ndarray]:
        return [
            -L + (2 * L / M) * np.arange(M)
            for L, M in zip(self.extents, self.points)
        ]

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def radius_sq(self) -> np.ndarray:
        return sum(np.ix_(*(x**2 for x in self.axes())))

    def bracket(self) -> np.ndarray:
        """The weight <x> = (1 + |x|^2)^(1/2); equals 1 at the origin."""
        return np.sqrt(1.0 + self.radius_sq())

    @_per_grid
    def bracket_pow(self, p: float) -> np.ndarray:
        """The weight <x>^p; cached, as weighted_inf, data_bound and the monitor read <x>^n."""
        return self.bracket() ** p

    @_per_grid
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        return tuple(2 * np.pi * np.fft.fftfreq(M, d=2 * L / M)
                     for L, M in zip(self.extents, self.points))

    def scaled(self, factor: float) -> "Grid":
        """Grid with every coordinate multiplied by ``factor`` (same points)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, extents=tuple(L * factor for L in self.extents))

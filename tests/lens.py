"""The inverse lens, for tests: maps a physical-frame field back to the rescaled frame.

The package only ever goes from v to u (``to_u_frame``); the tests use this
inverse to check the round trip and the chirp.
"""

import numpy as np

from dnlslab.conformal import rescaled_time
from dnlslab.field import Field, Grid


def to_v_frame(u: Field, b: float, reference: Grid | None = None) -> Field:
    """Inverse of :func:`to_u_frame`; optionally checks the unstretched grid.

    ``reference`` is the v-frame grid the caller expects back; a mismatch
    means the u-frame field does not live on the co-moving stretch of it.
    """
    if u.frame != "u":
        raise ValueError("expected a u-frame field")
    t = u.t
    if t < 0:
        raise ValueError("physical time must be nonnegative")
    if b == 0.0:
        grid_v = u.grid
        vals = u.values.copy()
        s = t
    else:
        scale = 1.0 + b * t
        s = rescaled_time(t, b)
        grid_v = u.grid.scaled(1.0 / scale)
        chirp = np.exp(-1j * b * u.grid.radius_sq() / (4.0 * scale))
        vals = scale ** (u.grid.dim / 2.0) * chirp * u.values
    if reference is not None:
        if grid_v.points != reference.points or not np.allclose(
            grid_v.extents, reference.extents, rtol=1e-9, atol=0.0
        ):
            raise ValueError(
                f"grid mismatch: unstretched extents {grid_v.extents} vs "
                f"reference {reference.extents}"
            )
        grid_v = reference  # adopt the exact reference floats
    return Field(grid_v, vals, "v", s)

"""Reference formulas that only tests read, kept out of the package.

``weighted_sup_norm`` is the per-derivative weighted sup the monitor reference
route compares against; ``phase_drift`` is the drift ``predicted_field_v``
applies, from the same psi^alpha, bit for bit.
"""

import numpy as np

from dnlslab.asymptotics import ProfileData, _drift, _psi_pow_alpha
from dnlslab.field import Field


def weighted_sup_norm(f: Field, p: float) -> float:
    """sup over the grid of <x>^p |f(x)|."""
    return float(np.max(f.grid.bracket_pow(p) * np.abs(f.values)))


def phase_drift(t: float, profile: ProfileData) -> np.ndarray:
    """Accumulated nonlinear phase; identically zero for purely imaginary lam."""
    p = profile.params
    if p.lam.real == 0.0:
        return np.zeros(profile.reference.grid.shape)
    return _drift(_psi_pow_alpha(t, profile.correction, profile.reference_power, p), p)

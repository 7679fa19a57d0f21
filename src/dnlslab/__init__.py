"""Pseudospectral lab for the dissipative nonlinear Schrodinger equation.

Simulates i u_t + Lap u = lam |u|^alpha u with Im(lam) < 0 in the
mass-subcritical window 2/(N+2) < alpha < 2/N, in the physical frame and in
the lens-transformed frame, and verifies the predicted long-time behaviour:
the universal sup-norm decay limit, the initial-data-dependent L2 decay
envelope, and convergence to an explicit asymptotic profile.
"""

__version__ = "0.1.0"

from .params import PhysParams, ExponentSet, validate_phys, synthesize_exponents
from .field import Grid, Field, build_initial_data, l2_norm, sup_norm
from .solver import SolverConfig, Trajectory, run
from .conformal import to_u_frame, norm_bridge
from .asymptotics import (
    correction_algebraic,
    finalize_profile,
    predicted_field,
)
from .diagnostics import check_l2_envelope, check_sup_limit, monitor_phi

__all__ = [
    "PhysParams",
    "ExponentSet",
    "validate_phys",
    "synthesize_exponents",
    "Grid",
    "Field",
    "build_initial_data",
    "l2_norm",
    "sup_norm",
    "SolverConfig",
    "Trajectory",
    "run",
    "to_u_frame",
    "norm_bridge",
    "correction_algebraic",
    "finalize_profile",
    "predicted_field",
    "check_l2_envelope",
    "check_sup_limit",
    "monitor_phi",
    "__version__",
]

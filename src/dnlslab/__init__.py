"""Pseudospectral lab for the dissipative nonlinear Schrodinger equation.

Simulates i u_t + Lap u = lam |u|^alpha u with Im(lam) < 0 in the
mass-subcritical window 2/(N+2) < alpha < 2/N, in the physical frame and in
the lens-transformed frame, and verifies the predicted long-time behaviour:
the universal sup-norm decay limit, the initial-data-dependent L2 decay
envelope, and convergence to an explicit asymptotic profile.
"""

__version__ = "0.1.0"

from .params import PhysParams
from .field import Grid, build_initial_data
from .solver import SolverConfig, run
from .conformal import norm_bridge
from .asymptotics import correction_algebraic
from .diagnostics import check_sup_limit, monitor_phi

__all__ = ["PhysParams", "Grid", "build_initial_data", "SolverConfig", "run", "norm_bridge",
           "check_sup_limit", "correction_algebraic", "monitor_phi", "__version__"]

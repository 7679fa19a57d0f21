"""FFT budget of the stepper and the monitors: counted calls, no timing.

Pins the transforms each stage may spend, so a change that brings back a
transform pair per multi-index, or a coupling pass nothing reads, fails here.
"""

import numpy as np
import pytest

from dnlslab.diagnostics import monitor_phi
from dnlslab.field import Grid, build_initial_data, derivative_orders
from dnlslab.params import PhysParams, synthesize_exponents
from dnlslab.solver import SolverConfig, run

TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
CFG = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=9)


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    for name in TRANSFORMS:
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def tiny_setup(dim):
    grid = Grid.box(30.0, 64 if dim == 1 else 16, dim, boundary_tol=1e-2)
    v0, _ = build_initial_data(grid, 1.0, 5)
    params = PhysParams(dim, 1.0 if dim == 1 else 0.8, -1j, 20.0)
    return v0, params


@pytest.mark.parametrize("dim", [1, 2])
def test_run_spends_four_transforms_per_step(fft_calls, dim):
    v0, params = tiny_setup(dim)
    fft_calls.clear()
    traj = run(v0, CFG, params)
    steps = len(traj.times) - 1
    assert steps > 10
    assert len(fft_calls) == 4 * steps
    fft_calls.clear()
    run(v0, CFG, params, track_coupling=True)
    # one Laplacian pair per step and one for the initial state
    assert len(fft_calls) == 6 * steps + 2


@pytest.mark.parametrize("dim", [1, 2])
def test_monitor_spends_one_transform_per_order_and_snapshot(fft_calls, dim):
    v0, params = tiny_setup(dim)
    exps = synthesize_exponents(params, strict=False, n=5, fallback_sigma=True)
    traj = run(v0, CFG, params)
    orders = len(derivative_orders(dim, 4))
    fft_calls.clear()
    monitor_phi(traj, v0, exps)
    # one forward and one inverse per nonzero order for each snapshot, plus
    # data_bound's transform pair per nonzero order
    assert len(fft_calls) == orders * len(traj.snapshots) + 2 * (orders - 1)

"""FFT budget of the stepper and the monitor: counted passes, no timing.

A pass is one axis transformed once, so an N-D ``fftn`` counts N passes and
a 1-D ``fft(axis=...)`` one.  Pins the passes each stage may spend, so a
change that brings back a transform pair per multi-index, or a coupling
pass nothing reads, fails here.
"""

import dataclasses

import numpy as np
import pytest

from dnlslab.diagnostics import monitor_phi
from dnlslab.field import Grid, build_initial_data
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, run
from oracles import correction_integral

TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
CFG = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=9)
# passes of the derivative ladder up to order 4.  1-D: one forward, one
# inverse per nonzero order.  2-D: along x one forward and 4 inverses; along
# y one forward for each x-derivative that has a y-partner (orders 0..3) and
# one inverse per multi-index with a y-component (4 + 3 + 2 + 1).
LADDER_PASSES = {1: 1 + 4, 2: (1 + 4) + (4 + 10)}


def _passes(name, a, args, kwargs):
    # the axes one numpy.fft call transforms
    if name[-1] not in "2n":
        return 1
    s, axes = (list(args) + [None, None])[:2]
    s, axes = kwargs.get("s", s), kwargs.get("axes", axes)
    if axes is not None:
        return len(axes)
    if s is not None:
        return len(s)
    return 2 if name[-1] == "2" else np.ndim(a)


@pytest.fixture
def fft_passes(monkeypatch):
    passes = []
    for name in TRANSFORMS:
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            passes.append(_passes(_name, a, args, kwargs))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return passes


def tiny_setup(dim):
    grid = Grid.box(30.0, 64 if dim == 1 else 16, dim, boundary_tol=1e-2)
    v0 = build_initial_data(grid, 1.0, 5)
    params = PhysParams(dim, 1.0 if dim == 1 else 0.8, -1j, 20.0)
    return v0, params


@pytest.mark.parametrize("dim", [1, 2])
def test_initial_data_spends_no_transform(fft_passes, dim):
    # its norm constant is data_bound's, which the monitor computes once
    tiny_setup(dim)
    assert fft_passes == []


@pytest.mark.parametrize("dim", [1, 2])
def test_run_spends_three_transforms_per_step(fft_passes, dim):
    v0, params = tiny_setup(dim)
    fft_passes.clear()
    traj = run(v0, CFG, params)
    steps = len(traj.times) - 1
    assert steps > 10
    # the spectrum is carried: one forward transform of the initial state,
    # then per step into and out of the nonlinear substep and back for the
    # records
    assert len(fft_passes) == 3 * steps + 1
    assert sum(fft_passes) == (3 * steps + 1) * dim
    fft_passes.clear()
    correction_integral(v0, CFG, params)
    # the coupling oracle consumes the same stream, plus one inverse
    # transform of the carried spectrum per Laplacian: one per step and one
    # for the initial state
    assert sum(fft_passes) == (4 * steps + 2) * dim


@pytest.mark.parametrize("dim", [1, 2])
def test_monitor_spends_one_ladder(fft_passes, dim):
    # data_bound's on v0, whatever the snapshot count: a row spends no transform
    v0, params = tiny_setup(dim)
    for count in (5, 17):
        traj = run(v0, dataclasses.replace(CFG, snapshot_count=count), params)
        assert len(traj.snapshots) == count
        fft_passes.clear()
        monitor_phi(traj, v0, 5)
        assert sum(fft_passes) == LADDER_PASSES[dim]
        assert set(fft_passes) == {1}

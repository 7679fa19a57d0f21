"""Peak allocations of a verify's stages, in grid arrays, from tracemalloc.

A grid array is one complex field's values.  The run and the error series
write into arrays they already own, so their peaks stay within a fixed number
of grid arrays above where they start; an array per operation raised the
run's peak by 3 and the error series' by 0.5 to 1.
"""

import tracemalloc

import pytest

from dnlslab.asymptotics import error_series, finalize_profile
from dnlslab.diagnostics import SnapshotMonitor
from dnlslab.field import Grid, SnapshotStore, build_initial_data
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, run

# lambda: (run, error series) bound; an array per operation peaked at
# 8.6 / 9.6 and 5.0 / 5.5 grid arrays
BOUNDS = {-1j: (6.1, 4.5), 2 - 1j: (7.1, 5.3)}


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=list(BOUNDS), ids=["damped", "phase"])
def peaks(request, tmp_path_factory):
    """A 128^2 run into a store with a monitor attached, then its error series.

    Returns lambda and the two peaks in grid arrays, each above its own start.
    """
    lam = request.param
    g = Grid.box(30.0, 128, 2, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(2, 0.8, lam, 20.0)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=9)
    monitor = SnapshotMonitor(v0, 5, p)
    out = tmp_path_factory.mktemp("alloc") / "run"
    with SnapshotStore.staged(out) as store:
        traj, run_peak = _traced_peak(run, v0, cfg, p, on_snapshot=monitor, snapshots=store)
        store.publish(out)
    monitor.report()
    profile = finalize_profile(traj)
    (t, _, _), errors_peak = _traced_peak(error_series, traj, profile)
    assert t.size > 0
    grid_array = v0.values.nbytes
    return lam, run_peak / grid_array, errors_peak / grid_array


def test_run_into_a_store_holds_few_grid_arrays(peaks):
    lam, run_peak, _ = peaks
    print(f"run peak {run_peak:.2f} grid arrays")
    assert run_peak < BOUNDS[lam][0]


def test_error_series_holds_few_grid_arrays(peaks):
    lam, _, errors_peak = peaks
    print(f"error series peak {errors_peak:.2f} grid arrays")
    assert errors_peak < BOUNDS[lam][1]

"""Peak allocations of a verify's stages, in grid arrays, from tracemalloc.

A grid array is one complex field's values.  The run, the error series and
the data constant's derivative ladder write into arrays they already own, so
their peaks stay within a fixed number of grid arrays above where they start;
an array per operation raised the run's peak by 3, the error series' by 0.5
to 1 and the ladder's by 1.
"""

import tracemalloc

import pytest

from dnlslab.asymptotics import error_series, finalize_profile
from dnlslab.diagnostics import SnapshotMonitor
from dnlslab.field import Grid, SnapshotStore, build_initial_data, data_bound
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, run

# lambda: (run, error series) bound; an array per operation peaked at
# 8.6 / 9.6 and 5.0 / 5.5 grid arrays, and the run at 5.6 / 6.6 with a
# gathered half-step multiplier and a new |v|^alpha per monitor row
BOUNDS = {-1j: (4.1, 4.5), 2 - 1j: (5.6, 5.3)}


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


def test_data_bound_holds_few_grid_arrays():
    # each axis' ladder holds its spectrum and one buffer that every order is
    # written into; a new array per order peaked at 6.03 grid arrays
    g = Grid.box(30.0, 128, 2, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    data_bound(v0, 5)  # caches the weight and numpy's transform plans, as setup does
    _, peak = _traced_peak(data_bound, v0, 5)
    print(f"data_bound peak {peak / v0.values.nbytes:.2f} grid arrays")
    assert peak < 5.5 * v0.values.nbytes

"""Power-law fits, decay-limit checks, monitors, and report artifacts."""

import csv
import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnlslab.asymptotics import ExtractionError, correction_algebraic, horizon_gauge
from dnlslab.conformal import NormSeries
from dnlslab.diagnostics import (
    MonitorReport,
    SnapshotMonitor,
    check_l2_envelope,
    check_profile_error,
    check_sup_limit,
    emit_report,
    fit_power_law,
    l2_envelope_exponent,
    mass_dissipation_ok,
    monitor_phi,
)
from dnlslab.field import (
    Field,
    Grid,
    SnapshotStore,
    build_initial_data,
    data_bound,
    spectral_derivative,
    weighted_inf,
)
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, run
from oracles import derivative_orders, weighted_sup_norm


@pytest.fixture(scope="module")
def clean_setup():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(1, 1.0, -1j, 20.0)
    cfg = SolverConfig(frame="v", dt0=5e-4, c_adapt=0.02, horizon_floor=1e-4,
                       snapshot_count=25)
    return run(v0, cfg, p), v0, 5


# --- power-law fitting ---


def test_fit_exact_power_law():
    t = np.geomspace(0.1, 100.0, 40)
    fit = fit_power_law(t, 3.0 * t**-0.5)
    assert abs(fit.exponent + 0.5) < 1e-13
    assert abs(fit.prefactor - 3.0) < 1e-12
    assert fit.residual < 1e-12
    assert fit.samples == 40


def test_fit_constant_series():
    t = np.geomspace(1.0, 50.0, 16)
    fit = fit_power_law(t, np.full_like(t, 2.5))
    assert abs(fit.exponent) < 1e-14


def test_fit_drifting_series_converges_with_window():
    # v = t^{-1/2}(1 + 0.1/t): the late window sees the clean rate
    t = np.geomspace(1.0, 1000.0, 200)
    v = t**-0.5 * (1.0 + 0.1 / t)
    early = fit_power_law(t, v, window=(1.0, 10.0))
    late = fit_power_law(t, v, window=(100.0, 1000.0))
    assert abs(late.exponent + 0.5) < abs(early.exponent + 0.5)
    assert abs(late.exponent + 0.5) < 1e-3


def test_fit_rejects_nonpositive_values():
    t = np.geomspace(1.0, 10.0, 10)
    v = np.ones_like(t)
    v[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        fit_power_law(t, v)


def test_fit_rejects_short_series():
    t = np.geomspace(1.0, 10.0, 7)
    with pytest.raises(ValueError, match="at least 8"):
        fit_power_law(t, t)


def test_fit_window_outside_range():
    t = np.geomspace(1.0, 10.0, 30)
    with pytest.raises(ValueError, match="at least 8"):
        fit_power_law(t, t, window=(100.0, 200.0))


def _lstsq_fit(t, v):
    # the fit as a least-squares solve, the reference for the closed form
    lt, lv = np.log(t), np.log(v)
    design = np.column_stack([lt, np.ones_like(lt)])
    coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
    resid = lv - design @ coef
    return coef[0], np.exp(coef[1]), np.sqrt(np.mean(resid**2))


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_fit_matches_a_least_squares_solve(noise):
    rng = np.random.default_rng(3)
    t = np.geomspace(1.2e3, 1.0e4, 37)
    v = 4.3 * t**-0.45 * np.exp(noise * rng.standard_normal(t.size))
    fit = fit_power_law(t, v)
    exponent, prefactor, residual = _lstsq_fit(t, v)
    assert fit.exponent == pytest.approx(exponent, rel=1e-12)
    assert fit.prefactor == pytest.approx(prefactor, rel=1e-12)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=1e-15)


def test_fit_rejects_a_single_time():
    with pytest.raises(ValueError, match="two distinct times"):
        fit_power_law(np.full(10, 3.0), np.geomspace(1.0, 2.0, 10))


@settings(max_examples=60, deadline=None)
@given(
    e=st.floats(min_value=-3.0, max_value=3.0),
    amp=st.floats(min_value=1e-3, max_value=1e3),
)
def test_fit_recovers_synthetic_rates(e, amp):
    t = np.geomspace(0.5, 200.0, 24)
    fit = fit_power_law(t, amp * t**e)
    assert abs(fit.exponent - e) < 1e-9
    assert fit.residual < 1e-10


# --- limit checks ---


@pytest.mark.parametrize(
    "params,target",
    [
        (PhysParams(1, 1.0, -1j, 4.0), 0.5),
        (PhysParams(1, 1.0, 2.0 - 1j, 4.0), 0.5),
        (PhysParams(2, 0.8, -0.5j, 2.0), 0.5),
    ],
)
def test_sup_limit_targets(params, target):
    assert params.sup_limit == pytest.approx(target, rel=1e-15)


def test_sup_limit_on_exact_series():
    p = PhysParams(1, 1.0, -1j, 4.0)
    t = np.geomspace(1.0, 1e4, 60)
    linf = (0.5 / t) ** (1.0 / p.alpha)
    series = NormSeries(s=t / (1 + p.b * t), t=t, l2=np.ones_like(t), linf=linf)
    rep = check_sup_limit(series, p)
    assert rep["target_u"] == 0.5
    assert rep["target_v"] == 2.0
    assert rep["deviation_u"] < 1e-14
    # the rescaled form carries a 1/(bt) finite-time factor
    assert rep["deviation_v"] == pytest.approx(1.0 / (p.b * t[-5]), rel=1e-6)
    assert rep["decades"] == pytest.approx(4.0)
    assert rep["warnings"] == []


def test_sup_limit_short_series_warns():
    p = PhysParams(1, 1.0, -1j, 4.0)
    t = np.geomspace(1.0, 5.0, 10)
    series = NormSeries(s=t, t=t, l2=np.ones_like(t), linf=1.0 / t)
    rep = check_sup_limit(series, p)
    assert rep["warnings"]


def test_l2_envelope_exponents():
    assert l2_envelope_exponent(PhysParams(1, 1.0, -1j, 4.0), 5) == pytest.approx(0.45)
    assert l2_envelope_exponent(PhysParams(1, 1.0, -1j, 4.0), 21) == pytest.approx(41.0 / 84.0)


def test_l2_envelope_on_exact_series():
    p = PhysParams(1, 1.0, -1j, 4.0)
    t = np.geomspace(0.5, 500.0, 80)
    l2 = 7.0 * (1.0 + p.b * t) ** -0.45
    series = NormSeries(s=t, t=t, l2=l2, linf=l2)
    rep = check_l2_envelope(series, p, n=5)
    assert rep["target_exponent"] == pytest.approx(-0.45)
    assert abs(rep["fitted"]["exponent"] + 0.45) < 1e-12
    # constant compensated series: the band degenerates
    assert rep["band_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep["empirical_a"] == pytest.approx(7.0)


def test_profile_error_on_an_exact_law():
    t = np.geomspace(1.0, 1e4, 41)  # 11 samples in the last decade
    rep = check_profile_error(t, 3.0 * t**-2.0, 0.5 * t**-2.0)
    assert list(rep) == ["slope_l2", "slope_sup"]
    assert rep["slope_l2"] == pytest.approx(-2.0, abs=1e-12)
    assert rep["slope_sup"] == pytest.approx(-2.0, abs=1e-12)
    # only the last decade is fitted: a steeper law before t_max/10 moves no slope
    err = np.where(t >= 1e3, t**-2.0, 1e9 * t**-5.0)
    assert check_profile_error(t, err, err)["slope_l2"] == pytest.approx(-2.0, abs=1e-12)


def test_profile_error_without_a_sample_past_t_one():
    empty = np.array([])
    assert check_profile_error(empty, empty, empty) == {"slope_l2": None, "slope_sup": None}


def test_profile_error_with_seven_samples_in_the_last_decade():
    t = np.geomspace(1.0, 1e4, 25)  # 7 samples in [1e3, 1e4]
    assert np.count_nonzero(t >= 1e3) == 7
    rep = check_profile_error(t, t**-2.0, t**-2.0)
    assert rep == {"slope_l2": None, "slope_sup": None}


def test_profile_error_with_a_vanishing_sup_error():
    # the profile's own snapshot can match it exactly: only that fit fails
    t = np.geomspace(1.0, 1e4, 41)
    sup = t**-2.0
    sup[-1] = 0.0
    rep = check_profile_error(t, t**-2.0, sup)
    assert rep["slope_l2"] == pytest.approx(-2.0, abs=1e-12)
    assert rep["slope_sup"] is None


# --- monitors ---


def test_monitor_running_sups_and_flags(clean_setup):
    traj, v0, n = clean_setup
    rep = monitor_phi(traj, v0, n)
    assert isinstance(rep, MonitorReport)
    assert np.all(np.diff(rep.phi3) >= 0)
    assert np.isfinite(rep.phi3[0]) and rep.phi3[0] > 0
    assert rep.psi_ratio == rep.phi3[-1] / rep.phi3[0]
    # the data constant is the order-4 ladder of v0 plus its weighted floor's reciprocal
    assert rep.data_constant == data_bound(v0, n, 4) and rep.max_order == 4
    assert rep.f_within_quarter
    assert rep.decay_pointwise
    assert rep.label == "truncated"


def test_monitor_phi3_tail_pinned(clean_setup):
    # the data equals the weight's reciprocal, so the weighted floor starts
    # at one and the undamped far tail keeps it there
    traj, v0, n = clean_setup
    rep = monitor_phi(traj, v0, n)
    assert rep.phi3[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(rep.phi3 <= 1.0 + 1e-9)


def _monitor_per_beta(traj, v0, n, max_order=4):
    """Reference monitor: K from one spectral_derivative transform pair per beta of v0."""
    p = traj.params
    floor0, _ = weighted_inf(v0, n)
    K = max(weighted_sup_norm(spectral_derivative(v0, beta, max_order), n)
            for beta in derivative_orders(v0.grid.dim, max_order)) + 1.0 / floor0
    tail_bound = 2.0 * K**p.alpha * v0.grid.bracket() ** (-n * p.alpha)
    r3 = 0.0
    out = {"phi3": [], "f_sup": []}
    decay_ok = True
    for snap, f_fld in zip(traj.snapshots, correction_algebraic(traj)):
        g = 1.0 - p.b * snap.t
        mod = np.abs(snap.values)
        floor, _ = weighted_inf(snap, n)
        r3 = max(r3, np.inf if floor == 0.0 else g ** (p.gauge_exponent / p.alpha) / floor)
        out["phi3"].append(r3)
        out["f_sup"].append(float(np.max(np.abs(f_fld.values))))
        cap = (1.0 + p.sup_limit) * np.minimum(tail_bound, p.b * horizon_gauge(snap.t, p))
        if np.any(mod**p.alpha > cap * (1.0 + 1e-12)):
            decay_ok = False
    out = {key: np.array(vals) for key, vals in out.items()}
    out["data_constant"] = K
    out["flags"] = (bool(np.max(out["f_sup"]) <= 0.25), decay_ok)
    return out


@pytest.mark.parametrize("N,alpha,b,M", [(1, 1.0, 20.0, 512), (1, 1.0, 4.0, 256),
                                         (2, 0.8, 20.0, 32)])
def test_monitor_matches_per_beta_route(N, alpha, b, M):
    g = Grid.box(30.0, M, N, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(N, alpha, -1j, b)
    n = 5
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.05 * 4.0 / b, horizon_floor=1e-3,
                       snapshot_count=13)
    traj = run(v0, cfg, p)
    ref = _monitor_per_beta(traj, v0, n)
    rep = monitor_phi(traj, v0, n)
    for key in ("phi3", "f_sup", "data_constant"):
        np.testing.assert_allclose(getattr(rep, key), ref[key], rtol=1e-12, atol=0.0)
    assert (rep.f_within_quarter, rep.decay_pointwise) == ref["flags"]
    print(f"N={N} b={b:g}: flags {ref['flags']}")


def test_monitor_row_after_the_first_holds_under_three_grid_arrays():
    # a row holds |v| and the balance temporaries: |v|, |v|^alpha and two
    # real arrays, 2.00 grid arrays at most, where new arrays for each
    # operation peaked at 2.50.  The weighted floor is taken in |v|'s array
    g = Grid.box(30.0, 128, 2, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(2, 0.8, -1j, 20.0)
    n = 5
    later = Field(g, 0.7 * v0.values * np.exp(0.2j * sum(g.meshes())), "v", 0.01)
    monitor = SnapshotMonitor(v0, n, p)
    monitor(v0)
    tracemalloc.start()
    try:
        monitor(later)  # the new row only: row 0 is done
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = monitor.report()
    assert rep.times.tolist() == [0.0, 0.01]
    print(f"row peak {peak / v0.values.nbytes:.2f} grid arrays")
    assert peak < 2.1 * v0.values.nbytes


def test_second_report_computes_no_row(monkeypatch):
    # each row is computed once, as its snapshot is fed
    g = Grid.line(30.0, 256, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(1, 1.0, -1j, 20.0)
    n = 5
    later = Field(g, 0.7 * v0.values, "v", 0.01)
    rows, row = [], SnapshotMonitor._row

    def counted_row(self, snap):
        rows.append(snap.t)
        return row(self, snap)

    monkeypatch.setattr(SnapshotMonitor, "_row", counted_row)
    monitor = SnapshotMonitor(v0, n, p)
    monitor(v0)
    monitor(later)
    first = monitor.report()
    second = monitor.report()
    assert rows == [0.0, 0.01]
    assert second.as_dict() == first.as_dict()


def test_serial_monitor_saves_each_snapshot_as_it_is_fed(monkeypatch, tmp_path):
    # the run appends a snapshot to the store, which writes it, and then feeds
    # the monitor, which computes the row before the feed returns; a row's
    # error waits for report(), and later snapshots are still written and fed
    g = Grid.line(30.0, 256, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(1, 1.0, -1j, 20.0)
    n = 5
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    row, written = SnapshotMonitor._row, []

    def failing_row(self, snap):
        written.append((store.directory / "series.bin").stat().st_size)
        if len(written) in (2, 3):
            raise ExtractionError(f"modulus vanishes on the grid at t = {snap.t!r}")
        return row(self, snap)

    monkeypatch.setattr(SnapshotMonitor, "_row", failing_row)
    with SnapshotStore.staged(tmp_path / "out") as store:
        monitor = SnapshotMonitor(v0, n, p)
        run(v0, cfg, p, on_snapshot=monitor, snapshots=store)
        assert written == [(i + 1) * v0.values.nbytes for i in range(5)]
    with pytest.raises(ExtractionError, match=re.escape(f"t = {store.times[1]!r}") + "$"):
        monitor.report()  # the first failed row's


def test_monitor_phi_leaves_no_reference_cycle(clean_setup, monkeypatch):
    # with the cycle collector off, the monitor, its rows and its arrays go
    # as soon as monitor_phi returns
    traj, v0, n = clean_setup
    monitors, init = [], SnapshotMonitor.__init__

    def weakly_kept(self, *args, **kwargs):
        monitors.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(SnapshotMonitor, "__init__", weakly_kept)
    gc.disable()
    try:
        monitor_phi(traj, v0, n)
        assert len(monitors) == 1 and monitors[0]() is None
    finally:
        gc.enable()


def test_monitor_rejects_wrong_frame(clean_setup):
    traj, v0, n = clean_setup
    bad = type(traj)("u", traj.params, traj.times, traj.dts, traj.l2,
                     traj.linf, traj.snapshots, traj.snapshot_times, traj.snapshot_steps)
    with pytest.raises(ValueError, match="rescaled-frame"):
        monitor_phi(bad, v0, n)


def test_monitor_needs_snapshots(clean_setup):
    traj, v0, n = clean_setup
    bare = type(traj)("v", traj.params, traj.times, traj.dts, traj.l2,
                      traj.linf, [], np.array([]), np.array([], dtype=int))
    with pytest.raises(ValueError, match="no snapshots"):
        monitor_phi(bare, v0, n)


def test_mass_dissipation_check(clean_setup):
    traj, _, _ = clean_setup
    ok, worst = mass_dissipation_ok(traj)
    assert ok
    assert worst <= 1e-12
    doctored = type(traj)(traj.frame, traj.params, traj.times, traj.dts,
                          np.linspace(1.0, 2.0, len(traj.times)), traj.linf,
                          traj.snapshots, traj.snapshot_times, traj.snapshot_steps)
    ok2, worst2 = mass_dissipation_ok(doctored)
    assert not ok2 and worst2 > 0


# --- report artifacts ---


def test_emit_report_row_count_and_round_trip(tmp_path, clean_setup):
    traj, v0, n = clean_setup
    rep = monitor_phi(traj, v0, n)
    jp, cp = emit_report(tmp_path, traj, monitor=rep)
    with open(cp) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(traj.snapshots)
    assert rows[0] == ["t", "gauge", "l2", "linf", "phi3", "f_sup"]

    doc = json.loads(jp.read_text())
    assert doc["schema_version"] == 6
    # the checks and the profile meta are the verdict's, in verdict.json only
    assert list(doc) == ["schema_version", "frame", "params", "snapshots", "monitor"]
    assert doc["params"] == traj.params.to_dict()
    assert doc["monitor"]["phi3"] == rep.phi3.tolist()
    assert not {"phi1", "phi4", "psi"} & set(doc["monitor"])
    assert doc["monitor"]["max_order"] == 4
    assert "fits" not in doc and "extras" not in doc["monitor"]
    # serialization is stable: a second pass reproduces the document
    jp2, _ = emit_report(tmp_path / "again", traj, monitor=rep)
    again = json.loads(jp2.read_text())
    assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_emit_report_requires_snapshots(tmp_path, clean_setup):
    traj, _, _ = clean_setup
    bare = type(traj)("v", traj.params, traj.times, traj.dts, traj.l2,
                      traj.linf, [], np.array([]), np.array([], dtype=int))
    with pytest.raises(ValueError, match="no snapshots"):
        emit_report(tmp_path, bare)

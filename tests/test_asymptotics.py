"""Gauge function, correction extraction, frozen profile, prediction errors."""

import dataclasses

import numpy as np
import pytest

from dnlslab import conformal
from dnlslab.asymptotics import (
    ExtractionError,
    ProfileData,
    correction_algebraic,
    crossover_time,
    error_metric,
    error_series,
    finalize_profile,
    horizon_gauge,
    load_profile,
    modulus_envelope,
    predicted_field,
    predicted_field_v,
    save_profile,
)
from dnlslab.diagnostics import monitor_phi
from dnlslab.field import Field, Grid, build_initial_data, l2_norm, sup_norm
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, Trajectory, nonlinear_substep_v, run
from oracles import correction_integral, phase_drift

REF = PhysParams(1, 1.0, -1j, 4.0)


@pytest.fixture(scope="module")
def ref_setup():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=1e-3, c_adapt=0.05, horizon_floor=1e-4,
                       snapshot_count=25)
    return v0, cfg, REF


@pytest.fixture(scope="module")
def ref_run(ref_setup):
    return run(*ref_setup)


@pytest.fixture(scope="module")
def ref_profile(ref_run):
    return finalize_profile(ref_run)


@pytest.fixture(scope="module")
def clean_setup():
    # b = 20 keeps the modulus bounded away from zero everywhere, so the
    # integral route's quadrature constant stays small
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-4, c_adapt=0.02, horizon_floor=1e-4,
                       snapshot_count=25)
    return v0, cfg, PhysParams(1, 1.0, -1j, 20.0)


# --- gauge function ---


def test_gauge_reference_value():
    # 1 - bt = 1/4, exponent 1/2: (1/2)/(1 - 1/2) = 1
    assert horizon_gauge(3.0 / 16.0, REF) == pytest.approx(1.0, rel=1e-14)


def test_gauge_endpoints_and_monotonicity():
    assert horizon_gauge(0.0, REF) == np.inf
    ts = np.linspace(1e-6, 0.2499999, 400)
    gs = horizon_gauge(ts, REF)
    assert np.all(np.diff(gs) < 0)
    assert gs[-1] < 1e-3


@pytest.mark.parametrize("b,alpha,N", [(4.0, 1.0, 1), (2.0, 0.8, 2), (0.5, 1.0, 1)])
def test_crossover_against_closed_form(b, alpha, N):
    p = PhysParams(N, alpha, -1j, b)
    T = crossover_time(p)
    closed = (1.0 - (1.0 + b) ** (-2.0 / (2.0 - N * alpha))) / b
    assert abs(T - closed) < 1e-11
    assert b * horizon_gauge(T, p) == pytest.approx(1.0, abs=1e-8)


# --- correction extraction ---


def test_correction_zero_at_start(ref_run):
    series = correction_algebraic(ref_run)
    assert np.max(np.abs(series[0].values)) < 1e-15


def pure_nonlinear_trajectory():
    g = Grid.line(30.0, 256, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    snaps, f, t = [v0], v0, 0.0
    for t_next in (0.05, 0.1, 0.2, 0.24):
        f = f.with_values(nonlinear_substep_v(f.values, t, t_next - t, REF), t=t_next)
        snaps.append(f)
        t = t_next
    times = np.array([s.t for s in snaps])
    return Trajectory("v", REF, times, np.diff(times, prepend=0.0),
                      np.ones_like(times), np.ones_like(times),
                      snaps, times, np.arange(len(times)))


def test_balance_at_n_alpha_two_is_the_limit_of_its_neighbour():
    # at alpha = 2/N the bracket is -log g: the profile and the monitors
    # complete, and the terminal correction matches that of alpha just below 2/N
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=9)
    sups = []
    for alpha in (2.0, 1.99999):
        traj = run(v0, cfg, PhysParams(1, alpha, -1j, 20.0))
        report = monitor_phi(traj, v0, 5)
        assert len(report.f_sup) == 9 and np.all(np.isfinite(report.f_sup))
        sups.append(finalize_profile(traj).correction_sup)
    assert sups[0] == pytest.approx(sups[1], rel=1e-8, abs=0.0)


def test_correction_vanishes_without_dispersion():
    # with the free flow switched off the modulus balance is exact, so the
    # inversion must return zero however close the run gets to the horizon
    traj = pure_nonlinear_trajectory()
    for fld in correction_algebraic(traj):
        assert np.max(np.abs(fld.values)) < 1e-12


def test_correction_rejects_vanishing_modulus():
    traj = pure_nonlinear_trajectory()
    poked = traj.snapshots[1].values.copy()
    poked[10] = 0.0
    traj.snapshots[1] = traj.snapshots[1].with_values(poked)
    with pytest.raises(ExtractionError, match="vanishes"):
        correction_algebraic(traj)


def test_correction_integral_starts_at_zero_and_certifies(clean_setup):
    series, residual = correction_integral(*clean_setup)
    assert np.max(np.abs(series[0].values)) == 0.0
    assert residual < 5e-4  # measured 2.9e-5 at this resolution


def test_correction_routes_disagree_near_modulus_dips(ref_setup):
    # at b = 4 dispersion drives |v| to ~1e-3 at isolated points around
    # gauge 0.3; the integrand ~1/|v|^3 there wrecks the quadrature while
    # the algebraic route stays conditioned.  The gap is physics, not a bug.
    series, residual = correction_integral(*ref_setup)
    assert np.max(np.abs(series[0].values)) == 0.0
    assert residual > 1.0


def test_correction_routes_agree_at_second_order():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(1, 1.0, -1j, 20.0)
    residuals = []
    for dt0 in (1.5e-3, 7.5e-4, 3.75e-4):
        cfg = SolverConfig(frame="v", dt0=dt0, c_adapt=0.05, horizon_floor=0.25,
                           snapshot_count=8)
        _, r = correction_integral(v0, cfg, p)
        residuals.append(r)
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.3)


# --- frozen profile ---


def test_profile_defining_relation(ref_profile):
    v0 = ref_profile.reference
    lhs = np.abs(ref_profile.amplitude) ** REF.alpha * (1.0 + ref_profile.correction)
    rhs = np.abs(v0.values) ** REF.alpha
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_profile_without_dispersion_keeps_data():
    traj = pure_nonlinear_trajectory()
    prof = finalize_profile(traj)
    assert np.max(np.abs(prof.correction)) < 1e-12
    assert np.max(np.abs(prof.amplitude - traj.snapshots[0].values)) < 1e-12


def test_profile_needs_a_run_from_t_zero():
    # the balance counts its bracket from g = 1: a run restarted at t0 > 0 has no profile
    g = Grid.line(30.0, 256, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    traj = run(v0.with_values(v0.values, t=0.05), cfg, REF)
    for extract in (finalize_profile, correction_algebraic):
        with pytest.raises(ValueError, match="run from t = 0, not t = 0.05"):
            extract(traj)


def test_profile_reports_sup(ref_profile):
    assert ref_profile.meta["correction_sup"] == pytest.approx(ref_profile.correction_sup)
    assert ref_profile.meta["final_gauge"] == pytest.approx(1e-4, rel=1e-6)


def test_profile_rejects_broken_balance():
    # a terminal modulus far above the balance drives 1 + correction below 0
    traj = pure_nonlinear_trajectory()
    last = traj.snapshots[-1]
    traj.snapshots[-1] = last.with_values(10.0 * last.values)
    with pytest.raises(ExtractionError, match="asymptotic regime|unresolved"):
        finalize_profile(traj)


# --- envelope and drift ---


def test_envelope_at_time_zero(ref_profile):
    assert np.max(np.abs(modulus_envelope(0.0, ref_profile) - 1.0)) == 0.0
    assert np.max(np.abs(phase_drift(0.0, ref_profile))) == 0.0


def test_envelope_stays_in_unit_interval(ref_profile):
    for t in (0.01, 0.1, 0.2, 0.24, 0.2499):
        psi = modulus_envelope(t, ref_profile)
        assert np.all(psi > 0) and np.all(psi <= 1.0)


def test_drift_zero_for_pure_dissipation(ref_profile):
    # Re(lam) = 0: modulus shrinks but no phase is generated
    for t in (0.1, 0.24):
        assert np.max(np.abs(phase_drift(t, ref_profile))) == 0.0


def test_drift_sign_with_rotation():
    traj = pure_nonlinear_trajectory()
    prof = finalize_profile(traj)
    rotated = PhysParams(REF.N, REF.alpha, 1.0 - 1.0j, REF.b)
    prof2 = type(prof)(prof.correction, prof.amplitude, prof.reference, rotated, prof.meta)
    th = phase_drift(0.2, prof2)
    # log psi < 0 and Re/Im = -1 gives positive drift where the data is large
    assert th[len(th) // 2] > 0


def test_envelope_squeeze_limit(ref_profile):
    # with k = c/q = 1/2 for c the balance coefficient and q the gauge exponent,
    # the finite-gauge deviation at gauge g is (1+f0-k|v0|^a)/(1+f0+(g^{-1/2}-1)k|v0|^a);
    # with f0(0) = 0.68 at b = 4 that is 2.3% at g = 1e-4
    t = (1.0 - 1e-4) / 4.0
    psi = modulus_envelope(t, ref_profile)
    center = ref_profile.reference.grid.points[0] // 2
    lhs = psi[center] ** REF.alpha * 1e-4 ** -0.5
    k = 2 * REF.alpha * abs(REF.lam.imag) / (REF.b * (2 - REF.N * REF.alpha))
    mod0a = np.abs(ref_profile.reference.values[center]) ** REF.alpha
    limit = (1.0 + ref_profile.correction[center]) / (k * mod0a)
    assert abs(lhs / limit - 1.0) < 0.03


# --- prediction and error metric ---


def test_prediction_initial_chirp(ref_profile):
    z0 = predicted_field(0.0, ref_profile)
    x = z0.grid.axes()[0]
    expect = np.exp(1j * x**2) * ref_profile.amplitude  # b/4 = 1
    assert np.max(np.abs(z0.values - expect)) < 1e-13


def test_prediction_modulus_identity(ref_profile):
    t = 2.0
    z = predicted_field(t, ref_profile)
    s = t / (1 + REF.b * t)
    psi = modulus_envelope(s, ref_profile)
    expect = (1 + REF.b * t) ** -0.5 * psi * np.abs(ref_profile.amplitude)
    assert np.max(np.abs(np.abs(z.values) - expect)) < 1e-14


def test_prediction_sup_decay_limit(ref_profile):
    t = 1e8
    z = predicted_field(t, ref_profile)
    target = (2 - REF.N * REF.alpha) / (2 * REF.alpha * abs(REF.lam.imag))
    assert t ** (1 / REF.alpha) * sup_norm(z) == pytest.approx(target, rel=1e-3)


def test_error_metric_zero_on_prediction(ref_profile):
    u = predicted_field(2.0, ref_profile)
    e2, einf = error_metric(u, ref_profile)
    assert e2 < 1e-15 and einf < 1e-15


def test_error_metric_perturbation_scaling(ref_profile):
    t, eps = 4.0, 1e-3
    z = predicted_field(t, ref_profile)
    scale = 1 + REF.b * t
    y = ref_profile.reference.grid.axes()[0]
    bump = np.exp(-(y**2))
    u = z.with_values(z.values + eps * scale**-0.5 * bump)
    e2, einf = error_metric(u, ref_profile)
    assert einf == pytest.approx(eps * t * scale**-0.5, rel=1e-12)
    bump_l2 = l2_norm(Field(ref_profile.reference.grid, bump.astype(complex), "v", 0.0))
    assert e2 == pytest.approx(t**0.5 * eps * bump_l2, rel=1e-10)


def test_error_metric_rejects_early_time(ref_profile):
    u = predicted_field(2.0, ref_profile)
    with pytest.raises(ValueError, match="t >= 1"):
        error_metric(u.with_values(u.values, t=0.5), ref_profile)


def test_error_series_leaves_the_chirp_cache_empty(ref_run, ref_profile):
    # the lens keeps one chirp (1 MiB at 256^2) for the error series' pairs;
    # nothing after the series reads it, so the series empties the cache
    conformal.to_u_frame(ref_run.snapshots[-1], REF.b)
    assert len(conformal._chirp_slot) == 1
    t, _, _ = error_series(ref_run, ref_profile)
    assert t.size > 0
    assert not conformal._chirp_slot


def test_a_failing_error_series_leaves_the_chirp_cache_empty(ref_run, ref_profile):
    # a profile on a grid off the run's co-moving stretch: the first row moves
    # the snapshot and the prediction through the lens, then raises
    ref = ref_profile.reference
    off = dataclasses.replace(ref_profile, reference=Field(ref.grid.scaled(1.5), ref.values,
                                                           "v", ref.t))
    with pytest.raises(ExtractionError, match="co-moving stretch"):
        error_series(ref_run, off)
    assert not conformal._chirp_slot


def test_profile_round_trip(tmp_path, ref_profile):
    save_profile(ref_profile, tmp_path / "prof")
    back = load_profile(tmp_path / "prof")
    assert np.array_equal(back.correction, ref_profile.correction)
    assert np.array_equal(back.amplitude, ref_profile.amplitude)
    assert np.array_equal(back.reference.values, ref_profile.reference.values)
    assert back.params == ref_profile.params
    assert back.meta == ref_profile.meta


def test_predicted_field_v_matches_components(ref_profile):
    s = 0.2
    pv = predicted_field_v(s, ref_profile)
    manual = ref_profile.amplitude * modulus_envelope(s, ref_profile)
    assert np.max(np.abs(pv.values - manual)) == 0.0  # drift is zero here
    assert pv.t == s and pv.frame == "v"
    # with Re(lam) != 0 the envelope and the drift share one psi^alpha, bit for bit
    rotated = PhysParams(REF.N, REF.alpha, 1.0 - 1.0j, REF.b)
    prof2 = type(ref_profile)(ref_profile.correction, ref_profile.amplitude,
                              ref_profile.reference, rotated, ref_profile.meta)
    manual2 = prof2.amplitude * modulus_envelope(s, prof2) * np.exp(-1j * phase_drift(s, prof2))
    assert predicted_field_v(s, prof2).values.tobytes() == manual2.tobytes()


def test_predicted_field_v_multiplies_in_the_stated_order_on_a_large_grid():
    # from 256 KiB up numpy may reuse a temporary operand, which computed the
    # rotation times the values; at 128^2 with lam = 2 - i that moved the last
    # bit of about a quarter of the points
    g = Grid.box(30.0, 128, 2, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    x, y = g.meshes()
    amplitude = v0.values * np.exp(0.3j * x - 0.1j * y)
    prof = ProfileData(0.05 * np.cos(x) * np.exp(-(x**2 + y**2) / 50.0), amplitude, v0,
                       PhysParams(2, 0.8, 2.0 - 1.0j, 20.0), {})
    s = 0.03
    vals = prof.amplitude * modulus_envelope(s, prof)
    expected = np.multiply(vals, np.exp(-1j * phase_drift(s, prof)))
    assert predicted_field_v(s, prof).values.tobytes() == expected.tobytes()

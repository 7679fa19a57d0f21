"""Gauge function, correction extraction, frozen profile, prediction errors."""

import numpy as np
import pytest

from dnlslab.asymptotics import (
    ExtractionError,
    correction_algebraic,
    correction_integral,
    crossover_time,
    error_metric,
    finalize_profile,
    horizon_gauge,
    load_profile,
    modulus_envelope,
    predicted_field,
    predicted_field_v,
    save_profile,
)
from dnlslab.field import Field, Grid, build_initial_data, l2_norm, sup_norm
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, Trajectory, nonlinear_substep_v, run
from oracles import phase_drift

REF = PhysParams(1, 1.0, -1j, 4.0)


@pytest.fixture(scope="module")
def ref_run():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=1e-3, c_adapt=0.05, horizon_floor=1e-4,
                       snapshot_count=25)
    return run(v0, cfg, REF, track_coupling=True)


@pytest.fixture(scope="module")
def ref_profile(ref_run):
    return finalize_profile(ref_run)


@pytest.fixture(scope="module")
def clean_run():
    # b = 20 keeps the modulus bounded away from zero everywhere, so the
    # integral route's quadrature constant stays small
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-4, c_adapt=0.02, horizon_floor=1e-4,
                       snapshot_count=25)
    return run(v0, cfg, PhysParams(1, 1.0, -1j, 20.0), track_coupling=True)


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
        f = nonlinear_substep_v(f, t, t_next - t, REF)
        f = f.with_values(f.values, t=t_next)
        snaps.append(f)
        t = t_next
    times = np.array([s.t for s in snaps])
    return Trajectory("v", REF, times, np.diff(times, prepend=0.0),
                      np.ones_like(times), np.ones_like(times), None, None,
                      snaps, None)


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


def test_correction_integral_starts_at_zero_and_certifies(clean_run):
    series, residual = correction_integral(clean_run)
    assert np.max(np.abs(series[0].values)) == 0.0
    assert residual < 5e-4  # measured 2.9e-5 at this resolution


def test_correction_integral_names_the_coupling_flag():
    g = Grid.line(30.0, 128, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, horizon_floor=0.05, snapshot_count=6)
    with pytest.raises(ValueError, match=r"run\(\.\.\., track_coupling=True\)"):
        correction_integral(run(v0, cfg, REF))


def test_correction_routes_disagree_near_modulus_dips(ref_run):
    # at b = 4 dispersion drives |v| to ~1e-3 at isolated points around
    # gauge 0.3; the integrand ~1/|v|^3 there wrecks the quadrature while
    # the algebraic route stays conditioned.  The gap is physics, not a bug.
    series, residual = correction_integral(ref_run)
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
        _, r = correction_integral(run(v0, cfg, p, track_coupling=True))
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
    # finite-gauge deviation at gauge g is (1+f0-c|v0|^a)/(1+f0+(g^{-1/2}-1)c|v0|^a);
    # with f0(0) = 0.68 at b = 4 that is 2.3% at g = 1e-4
    t = (1.0 - 1e-4) / 4.0
    psi = modulus_envelope(t, ref_profile)
    center = ref_profile.reference.grid.points[0] // 2
    lhs = psi[center] ** REF.alpha * 1e-4 ** -0.5
    c = 2 * REF.alpha * abs(REF.lam.imag) / (REF.b * (2 - REF.N * REF.alpha))
    mod0a = np.abs(ref_profile.reference.values[center]) ** REF.alpha
    limit = (1.0 + ref_profile.correction[center]) / (c * mod0a)
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

"""Splitting integrator: exact substeps, convergence order, run bookkeeping."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dnlslab import solver
from dnlslab.field import Field, Grid, build_initial_data, l2_norm
from dnlslab.params import PhysParams
from dnlslab.solver import (
    SolverConfig,
    _free_multiplier,
    StepUnderflowError,
    UnstableSolutionError,
    coefficient_integral,
    linear_substep,
    nonlinear_substep_u,
    nonlinear_substep_v,
    run,
    snapshot_schedule,
    strang_step,
)


def free_gaussian(a, tau, x):
    # i u_t + u_xx = 0 with u0 = exp(-a x^2)
    beta = 1 + 4j * a * tau
    return np.exp(-a * x**2 / beta) / np.sqrt(beta)


def scalar_field(w):
    g = Grid.line(1.0, 2)
    return Field(g, np.full(2, w, dtype=complex), "u", 0.0)


# --- linear substep ---


def test_linear_tau_zero_identity():
    g = Grid.line(10.0, 64)
    f = Field(g, np.exp(-g.axes()[0] ** 2).astype(complex), "u", 0.0)
    assert linear_substep(f, 0.0) is f


def test_linear_plane_wave_phase():
    g = Grid.line(np.pi, 64)
    x = g.axes()[0]
    f = Field(g, np.exp(3j * x), "u", 0.0)
    out = linear_substep(f, 0.7)
    assert np.max(np.abs(out.values - np.exp(-9j * 0.7) * f.values)) < 1e-13


def test_linear_gaussian_oracle():
    g = Grid.line(20.0, 512)
    x = g.axes()[0]
    f = Field(g, np.exp(-(x**2) / 2).astype(complex), "u", 0.0)
    out = linear_substep(f, 0.3)
    exact = free_gaussian(0.5, 0.3, x)
    assert np.max(np.abs(out.values - exact)) / np.max(np.abs(exact)) < 1e-8


def test_linear_isometry():
    rng = np.random.default_rng(3)
    g = Grid.line(8.0, 128)
    f = Field(g, rng.standard_normal(128) + 1j * rng.standard_normal(128), "u", 0.0)
    out = linear_substep(f, 1.7)
    assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-14)


# --- nonlinear substeps ---


def test_nonlinear_pure_dissipation():
    out = nonlinear_substep_u(scalar_field(2.0), 0.25, -1j, 1.0)
    assert np.allclose(out.values, 4.0 / 3.0, rtol=1e-14)


def test_nonlinear_dissipation_with_rotation():
    out = nonlinear_substep_u(scalar_field(2.0), 0.25, 1.0 - 1j, 1.0)
    w = out.values[0]
    assert abs(w) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert np.angle(w) == pytest.approx(-np.log(1.5), rel=1e-12)


def test_nonlinear_conservative_keeps_modulus():
    out = nonlinear_substep_u(scalar_field(1.3 - 0.4j), 0.6, 2.0 + 0j, 0.7)
    assert np.abs(out.values[0]) == pytest.approx(abs(1.3 - 0.4j), rel=1e-14)


def test_nonlinear_zero_stays_zero():
    for lam in (-1j, 2.0 + 0j, 1 - 0.5j):
        out = nonlinear_substep_u(scalar_field(0.0), 0.5, lam, 0.8)
        assert np.all(out.values == 0)


def test_nonlinear_rejects_amplifying_lambda():
    with pytest.raises(ValueError, match="Im"):
        nonlinear_substep_u(scalar_field(1.0), 0.1, 1j, 1.0)


def _ode_oracle(w0, lam, alpha, tau, coeff=lambda s: 1.0):
    def rhs(s, y):
        z = y[0] + 1j * y[1]
        dz = -1j * lam * coeff(s) * abs(z) ** alpha * z
        return [dz.real, dz.imag]

    sol = solve_ivp(rhs, (0.0, tau), [w0.real, w0.imag], method="DOP853",
                    rtol=1e-13, atol=1e-13)
    return sol.y[0, -1] + 1j * sol.y[1, -1]


@pytest.mark.parametrize("w0", [0.3 + 0.4j, 1.2 - 0.7j, -2.0 + 0.1j, 0.05j, 2.0 + 0j])
def test_nonlinear_u_against_ode_integrator(w0):
    lam, alpha, tau = 0.7 - 0.8j, 0.8, 0.37
    out = nonlinear_substep_u(scalar_field(w0), tau, lam, alpha)
    assert abs(out.values[0] - _ode_oracle(w0, lam, alpha, tau)) < 1e-10


def test_nonlinear_v_against_ode_integrator():
    lam, alpha, b, N, t, tau = 1.0 - 0.5j, 1.0, 2.0, 1, 0.1, 0.05
    w0 = 1.1 - 0.3j
    f = Field(Grid.line(1.0, 2), np.full(2, w0, dtype=complex), "v", t)
    out = nonlinear_substep_v(f, t, tau, PhysParams(N, alpha, lam, b))
    exact = _ode_oracle(w0, lam, alpha, tau,
                        coeff=lambda s: (1 - b * (t + s)) ** (-(4 - N * alpha) / 2))
    assert abs(out.values[0] - exact) < 1e-10


def test_coefficient_integral_closed_form():
    # N=1, alpha=1, b=4 over [0, 3/16]: (2/4) * ((1/4)^{-1/2} - 1) = 1/2
    p = PhysParams(1, 1.0, -1j, 4.0)
    assert coefficient_integral(0.0, 3.0 / 16.0, p) == pytest.approx(0.5, rel=1e-14)


def test_coefficient_integral_b_zero_reduces_to_tau():
    assert coefficient_integral(0.2, 0.37, PhysParams(2, 0.9, -1j, 0.0)) == 0.37


def test_nonlinear_v_b_zero_matches_u():
    w0 = 0.8 + 0.6j
    f = Field(Grid.line(1.0, 2), np.full(2, w0, dtype=complex), "v", 0.0)
    a = nonlinear_substep_v(f, 0.0, 0.3, PhysParams(1, 1.0, -1j, 0.0))
    b = nonlinear_substep_u(f, 0.3, -1j, 1.0)
    assert np.allclose(a.values, b.values, rtol=1e-15)


def test_nonlinear_v_refuses_horizon_touch():
    f = Field(Grid.line(1.0, 2), np.ones(2, dtype=complex), "v", 0.0)
    with pytest.raises(ValueError, match="horizon"):
        nonlinear_substep_v(f, 0.2, 0.05, PhysParams(1, 1.0, -1j, 4.0))


# --- strang step and run ---


REF = PhysParams(1, 1.0, -1j, 4.0)


def test_strang_lambda_zero_is_linear():
    g = Grid.line(15.0, 128)
    x = g.axes()[0]
    f = Field(g, np.exp(-(x**2)).astype(complex), "u", 0.0)
    cfg = SolverConfig(frame="u", t_end=1.0)
    out = strang_step(f, 0.0, 0.02, cfg, PhysParams(1, 1.0, 0j, 0.0))
    lin = linear_substep(f, 0.02)
    assert np.max(np.abs(out.values - lin.values)) < 1e-14
    assert out.t == 0.02


def test_strang_small_step_near_identity():
    g = Grid.line(15.0, 128)
    x = g.axes()[0]
    f = Field(g, np.exp(-(x**2)).astype(complex), "v", 0.0)
    cfg = SolverConfig(frame="v")
    out = strang_step(f, 0.0, 1e-6, cfg, REF)
    assert np.max(np.abs(out.values - f.values)) < 1e-4


def test_strang_self_convergence_order_two():
    g = Grid.line(15.0, 256, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    T = 0.125
    finals = {}
    for dt0 in (4e-3, 2e-3, 1e-3, 2.5e-4):
        cfg = SolverConfig(frame="v", dt0=dt0, c_adapt=0.05, t_end=T, snapshot_times=(T,))
        finals[dt0] = run(v0, cfg, REF).snapshots[-1].values
    errs = [np.max(np.abs(finals[dt] - finals[2.5e-4])) for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_run_free_gaussian_oracle():
    g = Grid.line(20.0, 512)
    x = g.axes()[0]
    u0 = Field(g, np.exp(-(x**2) / 2).astype(complex), "u", 0.0)
    cfg = SolverConfig(frame="u", dt0=5e-3, t_end=1.0, snapshot_times=(0.25, 0.5, 1.0))
    traj = run(u0, cfg, PhysParams(1, 1.0, 0j, 0.0))
    for snap in traj.snapshots[1:]:
        exact = free_gaussian(0.5, snap.t, x)
        assert np.max(np.abs(snap.values - exact)) < 1e-7


def test_run_mass_nonincreasing():
    g = Grid.line(30.0, 256, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=2e-3, horizon_floor=1e-2, snapshot_count=9)
    traj = run(v0, cfg, REF)
    assert np.all(np.diff(traj.l2) <= 1e-12)
    assert traj.l2[-1] < traj.l2[0]  # strict dissipation overall


def test_run_snapshot_times_and_coupling_alignment():
    g = Grid.line(30.0, 128, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, horizon_floor=0.05, snapshot_count=6)
    traj = run(v0, cfg, REF, track_coupling=True)
    ts = np.array([s.t for s in traj.snapshots])
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx((1 - 0.05) / 4.0)
    assert np.all(np.diff(ts) > 0)
    assert len(traj.coupling) == len(traj.snapshots)
    assert np.all(traj.coupling[0].values == 0)
    for c, s in zip(traj.coupling, traj.snapshots):
        assert c.t == s.t


def test_run_frame_mismatch():
    g = Grid.line(10.0, 64)
    f = Field(g, np.exp(-g.axes()[0] ** 2).astype(complex), "u", 0.0)
    with pytest.raises(ValueError, match="frame"):
        run(f, SolverConfig(frame="v"), REF)


def test_run_rejects_t_end_past_horizon():
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    with pytest.raises(ValueError, match="horizon"):
        run(v0, SolverConfig(frame="v", t_end=0.3), REF)  # 1/b = 0.25


def test_run_step_underflow():
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, dt_min=1e-3, c_adapt=0.05, horizon_floor=1e-4)
    with pytest.raises(StepUnderflowError):
        run(v0, cfg, REF)


def test_run_flags_non_finite():
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    vals = g.bracket() ** -5.0 + 0j
    vals[3] = np.nan
    v0 = Field(g, vals, "v", 0.0)
    with pytest.raises(UnstableSolutionError):
        run(v0, SolverConfig(frame="v", dt0=5e-3, horizon_floor=0.5), REF)


def test_schedule_geometric_in_gauge():
    cfg = SolverConfig(frame="v", snapshot_count=13)
    ts = snapshot_schedule(cfg, REF, 0.0)
    gauge = 1.0 - 4.0 * ts
    ratios = gauge[1:] / gauge[:-1]
    assert ts[0] == 0.0
    assert np.allclose(ratios, ratios[0], rtol=1e-9)
    assert gauge[-1] == pytest.approx(1e-4)


# --- stepper against a test-local Strang composition ---


def _local_free_flow(vals, grid, tau):
    # exp(-i tau |k|^2) built here from the wavenumbers, not from any cache
    ks = grid.wavenumbers()
    ksq = ks[0] ** 2 if grid.dim == 1 else ks[0][:, None] ** 2 + ks[1][None, :] ** 2
    return np.fft.ifftn(np.exp(-1j * tau * ksq) * np.fft.fftn(vals))


def _replay_strang(v0, traj, params):
    """States after each recorded step of ``traj``, by a local composition."""
    states = [v0.values]
    vals = v0.values
    for t_new, dt in zip(traj.times[1:], traj.dts[1:]):
        t = t_new - dt
        vals = _local_free_flow(vals, v0.grid, 0.5 * dt)
        vals = nonlinear_substep_v(v0.with_values(vals, t), t, dt, params).values
        vals = _local_free_flow(vals, v0.grid, 0.5 * dt)
        states.append(vals)
    return states


@pytest.mark.parametrize("lam", [-1j, 2.0 - 1j])
@pytest.mark.parametrize("N,alpha,M", [(1, 1.0, 512), (2, 0.8, 64)])
def test_run_matches_local_strang_composition(N, alpha, M, lam):
    g = Grid.box(30.0, M, N, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(N, alpha, lam, 20.0)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.02, horizon_floor=1e-2,
                       snapshot_count=9)
    traj = run(v0, cfg, p)
    # landing and adaptive steps change dt many times, so the multiplier
    # cache is refilled and revisited along the run
    assert np.unique(traj.dts[1:]).size > 5
    states = _replay_strang(v0, traj, p)
    for snap in traj.snapshots:
        i = int(np.argmin(np.abs(traj.times - snap.t)))
        assert abs(traj.times[i] - snap.t) <= 1e-12
        ref = states[i]
        assert np.max(np.abs(snap.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_free_multiplier_cache_is_never_stale():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    wide, narrow = Grid.line(30.0, 64), Grid.line(20.0, 64)

    def check(grid, tau):
        out = linear_substep(Field(grid, vals, "u", 0.0), tau).values
        ref = _local_free_flow(vals, grid, tau)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    for tau in (0.1, 0.3, 0.1, 0.7, 0.3, 0.1):  # alternating taus on one grid
        check(wide, tau)
    for tau in (0.2, 0.5):  # two grids, same tau
        check(wide, tau)
        check(narrow, tau)
        check(wide, tau)


def test_run_keeps_no_coupling_by_default():
    g = Grid.line(30.0, 128, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, horizon_floor=0.05, snapshot_count=6)
    traj = run(v0, cfg, REF)
    assert traj.coupling is None
    tracked = run(v0, cfg, REF, track_coupling=True)
    for a, b in zip(traj.snapshots, tracked.snapshots):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("grid", [Grid.line(30.0, 2048), Grid.line(20.0, 512),
                                  Grid.box(30.0, 256, 2), Grid.box(20.0, 64, 2)],
                         ids=["1d-2048", "1d-512", "2d-256", "2d-64"])
def test_free_multiplier_from_levels_is_the_direct_exponential(grid):
    # evaluated on the distinct |k|^2 and gathered, the same bits as on every point
    for tau in (1e-9, 3.3e-6, 2.5e-4, 1e-3, 0.0123, 0.37, 3.1):
        direct = np.exp(-1j * tau * grid.wavenumber_sq())
        assert _free_multiplier(grid, tau).tobytes() == direct.tobytes()


def _strang_composed(f0, traj, cfg, params):
    """States after each recorded step of ``traj``, composed from strang_step.

    Each step starts from a state without its spectrum, so it transforms
    the values afresh: 4 transforms a step, none carried.
    """
    f, states = f0, [f0.values]
    for t_new, dt in zip(traj.times[1:], traj.dts[1:]):
        f = strang_step(f.with_values(f.values), t_new - dt, dt, cfg, params)
        assert f.spectrum is not None
        states.append(f.values)
    return states


@pytest.mark.parametrize("N,alpha,M,lam", [(1, 1.0, 512, -1j), (2, 0.8, 64, 0j)])
def test_run_matches_strang_step_without_the_spectrum_in_the_u_frame(N, alpha, M, lam):
    # the v-frame cases are test_run_matches_local_strang_composition's
    g = Grid.box(30.0, M, N, boundary_tol=1e-3)
    f0 = Field(g, build_initial_data(g, 1.0, 5).values, "u", 0.0)
    p = PhysParams(N, alpha, lam, 20.0)
    cfg = SolverConfig(frame="u", dt0=2e-3, t_end=0.5, snapshot_count=9)
    traj = run(f0, cfg, p)
    assert len(traj.times) > 30
    states = _strang_composed(f0, traj, cfg, p)
    for snap in traj.snapshots:
        i = int(np.argmin(np.abs(traj.times - snap.t)))
        ref = states[i]
        assert np.max(np.abs(snap.values - ref)) <= 1e-12 * np.max(np.abs(ref)), snap.t


def test_run_takes_every_step_through_strang_step(monkeypatch):
    # one implementation of the step: run composes strang_step on a state
    # that carries its spectrum, so a profile of strang_step counts the steps
    carried = []
    step = solver.strang_step

    def counted(f, *args):
        carried.append(f.spectrum is not None)
        return step(f, *args)

    monkeypatch.setattr(solver, "strang_step", counted)
    g = Grid.box(30.0, 32, 2, boundary_tol=1e-2)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    traj = run(build_initial_data(g, 1.0, 5), cfg, PhysParams(2, 0.8, -1j, 20.0))
    assert len(carried) == len(traj.times) - 1 > 10 and all(carried)
    # snapshots are taken without the spectrum
    assert all(snap.spectrum is None for snap in traj.snapshots)

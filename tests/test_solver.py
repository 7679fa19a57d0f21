"""Splitting integrator: exact substeps, convergence order, run bookkeeping."""

import logging
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from dnlslab import solver
from dnlslab.field import Field, Grid, boundary_magnitude, build_initial_data, l2_norm
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
    steps,
    strang_step,
)
from oracles import free_flow, fresh_strang_step, update_by_formula, wavenumber_sq


def free_gaussian(a, tau, x):
    # i u_t + u_xx = 0 with u0 = exp(-a x^2)
    beta = 1 + 4j * a * tau
    return np.exp(-a * x**2 / beta) / np.sqrt(beta)


def scalar_values(w):
    return np.full(2, w, dtype=complex)


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
    out = nonlinear_substep_u(scalar_values(2.0), 0.25, -1j, 1.0)
    assert np.allclose(out, 4.0 / 3.0, rtol=1e-14)


def test_nonlinear_dissipation_with_rotation():
    w = nonlinear_substep_u(scalar_values(2.0), 0.25, 1.0 - 1j, 1.0)[0]
    assert abs(w) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert np.angle(w) == pytest.approx(-np.log(1.5), rel=1e-12)


def test_nonlinear_conservative_keeps_modulus():
    out = nonlinear_substep_u(scalar_values(1.3 - 0.4j), 0.6, 2.0 + 0j, 0.7)
    assert np.abs(out[0]) == pytest.approx(abs(1.3 - 0.4j), rel=1e-14)


def test_nonlinear_zero_stays_zero():
    for lam in (-1j, 2.0 + 0j, 1 - 0.5j):
        out = nonlinear_substep_u(scalar_values(0.0), 0.5, lam, 0.8)
        assert np.all(out == 0)


def test_nonlinear_rejects_amplifying_lambda():
    with pytest.raises(ValueError, match="Im"):
        nonlinear_substep_u(scalar_values(1.0), 0.1, 1j, 1.0)


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
    out = nonlinear_substep_u(scalar_values(w0), tau, lam, alpha)
    assert abs(out[0] - _ode_oracle(w0, lam, alpha, tau)) < 1e-10


def test_nonlinear_v_against_ode_integrator():
    lam, alpha, b, N, t, tau = 1.0 - 0.5j, 1.0, 2.0, 1, 0.1, 0.05
    w0 = 1.1 - 0.3j
    out = nonlinear_substep_v(scalar_values(w0), t, tau, PhysParams(N, alpha, lam, b))
    exact = _ode_oracle(w0, lam, alpha, tau,
                        coeff=lambda s: (1 - b * (t + s)) ** (-(4 - N * alpha) / 2))
    assert abs(out[0] - exact) < 1e-10


def test_coefficient_integral_closed_form():
    # N=1, alpha=1, b=4 over [0, 3/16]: (2/4) * ((1/4)^{-1/2} - 1) = 1/2
    p = PhysParams(1, 1.0, -1j, 4.0)
    assert coefficient_integral(0.0, 3.0 / 16.0, p) == pytest.approx(0.5, rel=1e-14)


def test_coefficient_integral_b_zero_reduces_to_tau():
    assert coefficient_integral(0.2, 0.37, PhysParams(2, 0.9, -1j, 0.0)) == 0.37


def test_coefficient_integral_on_short_steps():
    # at q = 1/2 the integral is 2 tau / (sqrt(head tail) (sqrt(head) + sqrt(tail))),
    # free of cancellation however short the step is against the gauge head
    p = PhysParams(1, 1.0, -1j, 20.0)
    checked = 0
    for gauge in np.geomspace(1e-2, 1e-8, 7):
        t = (1.0 - gauge) / p.b
        head = 1.0 - p.b * t
        for ratio in (1e-1, 1e-2, 1e-3):
            tau = ratio * head / p.b
            if tau < 1e-12:
                continue
            tail = head * (1.0 - p.b * tau / head)
            exact = 2.0 * tau / (np.sqrt(head * tail) * (np.sqrt(head) + np.sqrt(tail)))
            assert coefficient_integral(t, tau, p) == pytest.approx(exact, rel=1e-14, abs=0.0)
            checked += 1
    assert checked == 20


@pytest.mark.parametrize("N,alpha", [(1, 2.0), (2, 1.0)])
def test_coefficient_integral_at_n_alpha_two_is_the_logarithm(N, alpha):
    # q = 0: the integrand is 1/(1 - b s), and the power-law form divides by 2 - N alpha
    p = PhysParams(N, alpha, 1.0 + 0j, 20.0)
    for t, tau in ((0.0, 5e-4), (0.01, 1e-3), (0.03, 2e-3), (0.049, 9e-4)):
        exact, _ = quad(lambda s: 1.0 / (1.0 - p.b * s), t, t + tau, epsabs=0.0, epsrel=1e-13)
        assert coefficient_integral(t, tau, p) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_nonlinear_v_b_zero_matches_u():
    w0 = 0.8 + 0.6j
    w = scalar_values(w0)
    a = nonlinear_substep_v(w, 0.0, 0.3, PhysParams(1, 1.0, -1j, 0.0))
    b = nonlinear_substep_u(w, 0.3, -1j, 1.0)
    assert np.allclose(a, b, rtol=1e-15)


def test_nonlinear_v_refuses_horizon_touch():
    with pytest.raises(ValueError, match="horizon"):
        nonlinear_substep_v(scalar_values(1.0), 0.2, 0.05, PhysParams(1, 1.0, -1j, 4.0))


# --- strang step and run ---


REF = PhysParams(1, 1.0, -1j, 4.0)


def test_strang_lambda_zero_is_linear():
    g = Grid.line(15.0, 128)
    x = g.axes()[0]
    f = Field(g, np.exp(-(x**2)).astype(complex), "u", 0.0)
    cfg = SolverConfig(frame="u", t_end=1.0)
    spec = np.fft.fftn(f.values)
    out = strang_step(spec, 0.0, 0.02, cfg, PhysParams(1, 1.0, 0j, 0.0), _free_multiplier(g, 0.01))
    lin = linear_substep(f, 0.02)
    assert np.max(np.abs(out - lin.values)) < 1e-14
    # the spectrum is transformed in place into the new state's
    assert np.max(np.abs(np.fft.ifftn(spec) - out)) < 1e-14


def test_strang_small_step_near_identity():
    g = Grid.line(15.0, 128)
    x = g.axes()[0]
    vals = np.exp(-(x**2)).astype(complex)
    cfg = SolverConfig(frame="v")
    out = strang_step(np.fft.fftn(vals), 0.0, 1e-6, cfg, REF, _free_multiplier(g, 5e-7))
    assert np.max(np.abs(out - vals)) < 1e-4


def test_strang_self_convergence_order_two():
    g = Grid.line(15.0, 256, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    T = 0.125
    finals = {}
    for dt0 in (4e-3, 2e-3, 1e-3, 2.5e-4):
        cfg = SolverConfig(frame="v", dt0=dt0, c_adapt=0.05, t_end=T, snapshot_count=2)
        finals[dt0] = run(v0, cfg, REF).snapshots[-1].values
    errs = [np.max(np.abs(finals[dt] - finals[2.5e-4])) for dt in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_run_free_gaussian_oracle():
    g = Grid.line(20.0, 512)
    x = g.axes()[0]
    u0 = Field(g, np.exp(-(x**2) / 2).astype(complex), "u", 0.0)
    cfg = SolverConfig(frame="u", dt0=5e-3, t_end=1.0, snapshot_count=4)
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
    # run is the fold over the steps stream: the stream's first item is f0,
    # its snapshots land on the schedule, and its steps are run's records
    g = Grid.line(30.0, 128, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, horizon_floor=0.05, snapshot_count=6)
    stream = [(t, dt, stamp) for _, _, t, dt, stamp in steps(v0, cfg, REF)]
    values, spec, *first = next(steps(v0, cfg, REF))
    assert values is v0.values and spec.tobytes() == np.fft.fftn(v0.values).tobytes()
    assert first == [0.0, 0.0, 0.0]
    stamps = np.array([stamp for _, _, stamp in stream if stamp is not None])
    assert np.array_equal(stamps, snapshot_schedule(cfg, REF, 0.0))
    traj = run(v0, cfg, REF)
    ts = np.array([s.t for s in traj.snapshots])
    assert np.array_equal(ts, stamps)
    assert ts[-1] == pytest.approx((1 - 0.05) / 4.0)
    assert np.all(np.diff(ts) > 0)
    taken = [(t, dt) for t, dt, _ in stream[1:] if dt > 0.0]
    assert traj.times.tolist() == [0.0] + [t for t, _ in taken]
    assert traj.dts.tolist() == [0.0] + [dt for _, dt in taken]


def test_run_frame_mismatch():
    g = Grid.line(10.0, 64)
    f = Field(g, np.exp(-g.axes()[0] ** 2).astype(complex), "u", 0.0)
    with pytest.raises(ValueError, match="frame"):
        run(f, SolverConfig(frame="v"), REF)


def test_run_dimension_mismatch():
    # N = 1 physics on a 2-D grid would scale every formula by the wrong N
    g = Grid.box(30.0, 32, 2, boundary_tol=1e-2)
    with pytest.raises(ValueError, match="dimension 2 != N = 1"):
        run(build_initial_data(g, 1.0, 5), SolverConfig(frame="v", snapshot_count=5), REF)


def test_run_rejects_t_end_past_horizon():
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    with pytest.raises(ValueError, match="horizon"):
        run(v0, SolverConfig(frame="v", t_end=0.3), REF)  # 1/b = 0.25


def test_run_step_underflow():
    g = Grid.line(30.0, 64, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    # c_adapt * (1 - b t) lies below DT_MIN from the first step on
    cfg = SolverConfig(frame="v", dt0=5e-3, c_adapt=1e-13, horizon_floor=1e-4)
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
        vals = nonlinear_substep_v(vals, t, dt, params)
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


def test_run_keeps_no_free_multiplier(monkeypatch):
    # the loop drops its half-step factors before it builds the next ones,
    # and none outlives the run, so the monitor rows and post-processing after
    # it do not sit beside them
    built, alive_at_build = [], []
    make = solver._free_multiplier

    def alive():
        return sum(any(ref() is not None for ref in refs) for refs in built)

    def tracked(grid, tau):
        alive_at_build.append(alive())
        half = make(grid, tau)
        built.append([weakref.ref(factor) for factor in half])
        return half

    monkeypatch.setattr(solver, "_free_multiplier", tracked)
    g = Grid.line(30.0, 256, boundary_tol=1e-3)
    p = PhysParams(1, 1.0, -1j, 20.0)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    seen = []
    run(build_initial_data(g, 1.0, 5), cfg, p, on_snapshot=lambda snap: seen.append(alive()))
    assert len(built) > 2 and max(alive_at_build) == 0
    assert seen[0] == 0 and max(seen) == 1 and alive() == 0


@pytest.mark.parametrize("grid", [Grid.line(30.0, 2048), Grid.line(20.0, 512),
                                  Grid.box(30.0, 256, 2), Grid.box(20.0, 64, 2)],
                         ids=["1d-2048", "1d-512", "2d-256", "2d-64"])
def test_free_multiplier_from_levels_is_the_direct_exponential(grid):
    # one factor per axis: in 1-D the same bits as the direct exponential on
    # every point; in 2-D the factors' product is within 4 eps (1 + tau |k|^2)
    # of it, a bound set from the dtype: the factors and their product each
    # round, and the phase tau |k|^2 carries its own rounding into the exp
    eps, worst = np.finfo(float).eps, 0.0
    for tau in (1e-9, 3.3e-6, 2.5e-4, 1e-3, 0.0123, 0.37, 3.1):
        phase = tau * wavenumber_sq(grid)
        direct = np.exp(-1j * tau * wavenumber_sq(grid))
        half = _free_multiplier(grid, tau)
        if grid.dim == 1:
            assert half[0].tobytes() == direct.tobytes()
        else:
            gap = np.abs(np.multiply(*half) - direct) / (eps * (1.0 + phase))
            worst = max(worst, float(np.max(gap)))
    if grid.dim == 2:
        print(f"largest product gap {worst:.2f} eps (1 + tau |k|^2)")
        assert worst <= 4.0


def _strang_composed(f0, traj, cfg, params):
    """States after each recorded step of ``traj``, composed from strang_step.

    Each step starts from a fresh transform of the values: 4 transforms a
    step, none carried.
    """
    states = [f0.values]
    for t_new, dt in zip(traj.times[1:], traj.dts[1:]):
        half = _free_multiplier(f0.grid, 0.5 * dt)
        states.append(strang_step(np.fft.fftn(states[-1]), t_new - dt, dt, cfg, params, half))
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
    # one implementation of the step: run composes strang_step on the one
    # spectrum it carries, so a profile of strang_step counts the steps
    carried = []
    step = solver.strang_step

    def counted(spec, *args):
        carried.append(spec)
        return step(spec, *args)

    monkeypatch.setattr(solver, "strang_step", counted)
    g = Grid.box(30.0, 32, 2, boundary_tol=1e-2)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    traj = run(build_initial_data(g, 1.0, 5), cfg, PhysParams(2, 0.8, -1j, 20.0))
    assert len(carried) == len(traj.times) - 1 > 10
    assert all(spec is carried[0] for spec in carried)
    # snapshots are taken apart from the spectrum
    assert not any(np.shares_memory(snap.values, carried[0]) for snap in traj.snapshots)


def _warm_2d_state(lam):
    # a 2-D state's values and spectrum after two steps
    g = Grid.box(30.0, 128, 2, boundary_tol=1e-3)
    p = PhysParams(2, 0.8, lam, 20.0)
    cfg = SolverConfig(frame="v")
    spec, half = np.fft.fftn(build_initial_data(g, 1.0, 5).values), _free_multiplier(g, 5e-4)
    strang_step(spec, 0.0, 1e-3, cfg, p, half)
    return strang_step(spec, 1e-3, 1e-3, cfg, p, half), spec, g, cfg, p


@pytest.mark.parametrize("frame", ["u", "v"])
@pytest.mark.parametrize("lam", [-1j, 2 - 1j, 1.0], ids=["damped", "phase", "real"])
def test_in_place_nonlinear_substep_is_the_out_of_place_update_bitwise(frame, lam):
    # the real lambda is an oracle-mode run: strang_step takes it as it is
    _, carried, grid, cfg, p = _warm_2d_state(lam)
    cfg = SolverConfig(frame=frame, t_end=1.0) if frame == "u" else cfg
    t, dt = 2e-3, 1e-3
    # the step's transforms as strang_step writes them, around a new array
    half = _free_multiplier(grid, 0.5 * dt)
    w = free_flow(carried, grid, 0.5 * dt)
    np.fft.ifftn(w, out=w)
    tau = dt if frame == "u" else coefficient_integral(t, dt, p)
    g = nonlinear_substep_u(w, tau, p.lam, p.alpha)
    assert not np.shares_memory(g, w)
    assert g.tobytes() == update_by_formula(w, tau, p.lam, p.alpha).tobytes()
    spec = free_flow(np.fft.fftn(g, out=g), grid, 0.5 * dt)
    out = strang_step(carried, t, dt, cfg, p, half)
    assert carried.tobytes() == spec.tobytes()
    assert out.tobytes() == np.fft.ifftn(spec, out=np.empty_like(spec)).tobytes()


@pytest.mark.parametrize("lam", [-1j, 2 - 1j, 1.0], ids=["damped", "phase", "real"])
def test_substeps_leave_a_read_only_input_as_it_is(lam):
    g = Grid.box(30.0, 32, 2, boundary_tol=1e-2)
    v0 = build_initial_data(g, 1.0, 5)
    p = PhysParams(2, 0.8, lam, 20.0)
    frozen = Field(g, v0.values.copy(), "v", 0.01)
    frozen.values.flags.writeable = False
    before = frozen.values.tobytes()
    for substep in (lambda f: nonlinear_substep_u(f.values, 0.01, p.lam, p.alpha),
                    lambda f: nonlinear_substep_v(f.values, 0.01, 0.01, p),
                    lambda f: linear_substep(f, 0.01).values):
        sub = substep(frozen)
        assert not np.shares_memory(sub, frozen.values)
        assert sub.tobytes() == substep(v0).tobytes()
    assert frozen.values.tobytes() == before


@pytest.mark.parametrize("lam,fresh,bound", [(-1j, 4.01, 1.5), (2 - 1j, 6.00, 3.0)],
                         ids=["damped", "phase"])
def test_warmed_2d_step_holds_few_grid_arrays(lam, fresh, bound):
    # the step transforms the carried spectrum in place, applies the
    # half-step factors in place axis by axis, and the nonlinear substep
    # writes into it, so one step allocates the next state's values and the
    # substep's real temporaries; a new array per operation peaked at
    # ``fresh`` grid arrays, and a gathered multiplier at 2.01 / 3.51
    values, spec, grid, cfg, p = _warm_2d_state(lam)
    tracemalloc.start()
    try:
        out = strang_step(spec, 2e-3, 1e-3, cfg, p, _free_multiplier(grid, 5e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == grid.shape and not np.shares_memory(out, values)
    print(f"step peak {peak / values.nbytes:.2f} grid arrays (fresh arrays: {fresh})")
    assert peak < bound * values.nbytes


@pytest.mark.parametrize("side", [0.5, 2.0], ids=["inside", "outside"])
def test_run_warns_on_the_end_state_boundary_against_the_grid_tolerance(caplog, side):
    # the end state's boundary ratio is 4.6e-5 here; the warning fires only
    # where it exceeds the grid's boundary_tol
    p = PhysParams(1, 1.0, -1j, 20.0)
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    loose = run(build_initial_data(Grid.line(30.0, 128, boundary_tol=1e-3), 1.0, 5), cfg, p)
    ratio = boundary_magnitude(loose.snapshots[-1]) / loose.linf[-1]
    assert 1e-5 < ratio < 1e-4
    g = Grid.line(30.0, 128, boundary_tol=side * ratio)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dnlslab.solver"):
        run(build_initial_data(g, 1.0, 5), cfg, p)
    warned = [r.getMessage() for r in caplog.records if "boundary ratio" in r.getMessage()]
    assert len(warned) == (side < 1.0)


def _assert_stream_is_the_fresh_composition(f0, cfg, p):
    # every state the stream yields, read before the next draw, and every
    # stamped state, read after the run, equal the states of fresh_strang_step
    # composed from f0's spectrum, bit for bit
    ref, ref_spec = f0.values, np.fft.fftn(f0.values)
    t_prev, dts, taken, expected = None, [], [], []
    for values, spec, t, dt, stamp in steps(f0, cfg, p):
        if dt > 0.0:
            ref, ref_spec = fresh_strang_step(ref_spec, f0.grid, t_prev, dt, cfg, p)
        assert values.tobytes() == ref.tobytes()
        assert spec.tobytes() == ref_spec.tobytes()
        if stamp is not None:
            taken.append((stamp, values))
            expected.append(ref)
        # a dust landing moves the clock to the snapshot time without a step
        assert dt > 0.0 or t == stamp
        t_prev = t
        dts.append(dt)
    assert [v.tobytes() for _, v in taken] == [v.tobytes() for v in expected]
    traj = run(f0, cfg, p)
    assert [s.t for s in traj.snapshots] == [stamp for stamp, _ in taken]
    assert [s.values.tobytes() for s in traj.snapshots] == [v.tobytes() for v in expected]
    return np.array(dts)


DIMS = [(1, 1.0, 256), (2, 0.8, 128), (2, 1.0, 64)]
LAMS = [-1j, 2 - 1j, 1.0]


def _start(N, M, frame, t0=0.0):
    g = Grid.box(30.0, M, N, boundary_tol=1e-3)
    return Field(g, build_initial_data(g, 1.0, 5).values, frame, t0)


@pytest.mark.parametrize("frame", ["u", "v"])
@pytest.mark.parametrize("lam", LAMS, ids=["damped", "phase", "real"])
@pytest.mark.parametrize("N,alpha,M", DIMS, ids=["1d", "2d", "2d-alpha1"])
def test_stream_reusing_its_arrays_is_the_fresh_step_bitwise(N, alpha, M, lam, frame):
    p = PhysParams(N, alpha, lam, 20.0)
    if frame == "v":
        cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=9)
    else:
        cfg = SolverConfig(frame="u", dt0=2e-3, t_end=0.05, snapshot_count=9)
    dts = _assert_stream_is_the_fresh_composition(_start(N, M, frame), cfg, p)
    # landing steps and, in the v-frame, adaptive ones change dt along the run
    assert np.unique(dts[dts > 0]).size > 5


@pytest.mark.parametrize("lam", LAMS, ids=["damped", "phase", "real"])
@pytest.mark.parametrize("N,alpha,M", DIMS, ids=["1d", "2d", "2d-alpha1"])
def test_stream_through_a_dust_landing_is_the_fresh_step_bitwise(N, alpha, M, lam):
    # steps that land from below half the snapshot time round past it: the
    # step to 87283.4 overshoots by more than the landing tolerance, so the
    # next item lands on it as dust, with dt 0.0 and no step
    p = PhysParams(N, alpha, lam, 20.0)
    cfg = SolverConfig(frame="u", dt0=1e9, t_end=1500274.0, snapshot_count=6)
    dts = _assert_stream_is_the_fresh_composition(_start(N, M, "u"), cfg, p)
    assert dts.tolist().count(0.0) == 2 and dts.size == 7  # f0 and the dust landing


def test_step_rounding_past_the_end_time_still_lands_on_it():
    # the step from 926.4 onto 9457.6 rounds past it by 1.8e-12, more than
    # the landing tolerance: a dust landing follows and stamps the end state
    p = PhysParams(1, 1.0, -1j, 20.0)
    t0, t_end = 926.3777806557837, 9457.641595017014
    cfg = SolverConfig(frame="u", dt0=1e9, t_end=t_end, snapshot_count=2)
    stream = [(t, dt, stamp) for _, _, t, dt, stamp in steps(_start(1, 64, "u", t0), cfg, p)]
    assert stream[1][0] - t_end > solver._LANDING_EPS and stream[1][2] is None
    assert stream[2] == (t_end, 0.0, t_end)
    traj = run(_start(1, 64, "u", t0), cfg, p)
    assert [s.t for s in traj.snapshots] == [t0, t_end]
    assert traj.snapshot_steps.tolist() == [0, 1]


def test_run_builds_one_field_per_snapshot_and_none_per_step(monkeypatch):
    built = []
    check = Field.__post_init__

    def counted(self):
        built.append(self.t)
        check(self)

    f0 = _start(2, 32, "v")
    cfg = SolverConfig(frame="v", dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=5)
    monkeypatch.setattr(Field, "__post_init__", counted)
    traj = run(f0, cfg, PhysParams(2, 0.8, 2 - 1j, 20.0))
    assert len(traj.times) > 20
    assert built == [s.t for s in traj.snapshots] == traj.snapshot_times.tolist()

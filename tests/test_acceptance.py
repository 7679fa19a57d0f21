"""Desk-scale verification ladder: one test per numbered criterion.

Run with -v to get a pass/fail line per criterion. Most criteria share one
module-scoped run of the reference configuration (N=1, alpha=1, lam=-i,
b=4, data <x>^-5 with relaxed n=5, L=30, M=2048, rescaled frame down to
gauge 1e-4) so the whole ladder stays far below a two-minute budget.

The theorem makes two kinds of claim. The sup limit is a t -> oo statement,
i.e. gauge -> 0 in the rescaled frame: criterion 9 reads it off the b=4
reference run by extrapolating the last decade of gauge to 0, because at a
finite gauge g the modulus balance misses the limit by O(g^{1/2}) (about 2.3%
at g=1e-4). The bounds of criteria 4 and 10 hold only for data inside the
large-coefficient regime, and b=4 is below it: dispersion drives |v| close
to zero in the bulk, which pushes the correction sup to a converged ~20 and
leaves the integral route's quadrature unresolved. Those gates therefore
run on a regime companion (same data, solver config and lam, alpha, N, with
b=20 on the M=512 grid of the unit tests' regime fixtures); criterion 10
also checks that the monitor classifies the b=4 run as outside the regime,
and criterion 4 prints the b=4 residual without a gate.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dnlslab.asymptotics import (
    error_series,
    finalize_profile,
    modulus_envelope,
)
from dnlslab.conformal import norm_bridge, to_u_frame
from dnlslab.diagnostics import (
    check_l2_envelope,
    check_profile_error,
    check_sup_limit,
    mass_dissipation_ok,
    monitor_phi,
)
from dnlslab.field import Field, Grid, build_initial_data, data_bound, l2_norm, sup_norm
from dnlslab.params import PhysParams, sigma_window, synthesize_exponents
from dnlslab.solver import SolverConfig, nonlinear_substep_u, run
from lens import to_v_frame
from oracles import correction_integral, derived_inequalities

REF_PARAMS = PhysParams(1, 1.0, -1j, 4.0)
REF_CFG = SolverConfig(
    frame="v", dt0=5e-4, c_adapt=0.05, horizon_floor=1e-4, snapshot_count=49
)
# joint halvings keep every step's dt in lockstep, including the adaptive tail
DT_LADDER = ((2e-3, 0.2), (1e-3, 0.1), (5e-4, 0.05))


def reference_grid():
    # <30>^-5 sits at 4.1e-8 relative at the edge; the default wall tolerance
    # is meant for Schwartz-class tails
    return Grid.line(30.0, 2048, boundary_tol=1e-4)


@pytest.fixture(scope="module")
def reference():
    grid = reference_grid()
    v0 = build_initial_data(grid, 1.0, 5)
    traj = run(v0, REF_CFG, REF_PARAMS)
    return traj, v0, data_bound(v0, 5)


@pytest.fixture(scope="module")
def regime_companion():
    # M=512, not reference_grid(): at b=20 the 2048-point grid puts dt0*|k|^2
    # of the far tail (|v| ~ 1e-8 of the peak) outside Strang's asymptotic
    # range, and the integral-route residual there depends on dx
    params = PhysParams(1, 1.0, -1j, 20.0)
    v0 = build_initial_data(Grid.line(30.0, 512, boundary_tol=1e-4), 1.0, 5)
    return run(v0, REF_CFG, params), v0, params


@pytest.fixture(scope="module")
def reference_profile(reference):
    traj, _, _ = reference
    return finalize_profile(traj)


def test_criterion_01_nonlinear_substep_matches_ode_oracle():
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(10):
        tau = float(rng.uniform(0.01, 0.6))
        alpha = float(rng.uniform(0.4, 1.9))
        lam = complex(rng.uniform(-2.5, 2.5), rng.uniform(-3.0, -0.1))
        w0 = rng.normal(size=100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        w0 *= rng.uniform(0.05, 2.5, 100) / np.abs(w0)

        vals = np.ones(128, dtype=complex)
        vals[:100] = w0
        out = nonlinear_substep_u(vals, tau, lam, alpha)

        sol = solve_ivp(
            lambda _, y: -1j * lam * np.abs(y) ** alpha * y,
            (0.0, tau),
            w0,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
        )
        worst = max(worst, float(np.max(np.abs(out[:100] - sol.y[:, -1]))))
    print(f"substep vs ODE oracle, 1000 samples: max abs error {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_02_free_evolution_matches_analytic_gaussian():
    grid = Grid.line(20.0, 512)
    x = grid.axes()[0]
    u0 = Field(grid, np.exp(-(x**2) / 2).astype(complex), "u", 0.0)
    cfg = SolverConfig(frame="u", dt0=5e-3, t_end=1.0, snapshot_count=9)
    traj = run(u0, cfg, PhysParams(1, 1.0, 0j, 0.0))
    worst = 0.0
    for snap in traj.snapshots:
        beta = 1 + 4j * 0.5 * snap.t
        exact = np.exp(-0.5 * x**2 / beta) / np.sqrt(beta)
        rel = np.max(np.abs(snap.values - exact)) / np.max(np.abs(exact))
        worst = max(worst, float(rel))
    print(f"free Gaussian, {len(traj.snapshots)} snapshots: max rel error {worst:.3e}")
    assert worst <= 1e-7


def test_criterion_03_splitting_self_convergence_is_second_order(reference):
    _, v0, _ = reference
    finals = []
    for dt0, c_adapt in DT_LADDER + ((2.5e-4, 0.025),):
        cfg = SolverConfig(
            frame="v", dt0=dt0, c_adapt=c_adapt, horizon_floor=1e-2, snapshot_count=2
        )
        finals.append(run(v0, cfg, REF_PARAMS).snapshots[-1].values)
    errs = np.array([np.max(np.abs(f - finals[-1])) for f in finals[:-1]])
    orders = np.log2(errs[:-1] / errs[1:])
    print(f"self-convergence errors {errs}, orders {orders}")
    assert np.all(np.abs(orders - 2.0) <= 0.2)


def test_criterion_04_correction_routes_agree(reference, regime_companion):
    # the integrand ~|v|^-(alpha+1) near modulus near-zeros leaves the b=4
    # residual unresolved at any step size, so the gate runs inside the regime
    _, v0, params = regime_companion
    resids = []
    for dt0, c_adapt in DT_LADDER:
        cfg = SolverConfig(
            frame="v", dt0=dt0, c_adapt=c_adapt, horizon_floor=1e-4, snapshot_count=25
        )
        _, resid = correction_integral(v0, cfg, params)
        resids.append(resid)
    orders = np.log2(np.array(resids[:-1]) / np.array(resids[1:]))
    _, resid_ref = correction_integral(v0, REF_CFG, params)
    _, resid_b4 = correction_integral(reference[1], REF_CFG, REF_PARAMS)
    print(
        f"b={params.b:g}: residual ladder {resids}, orders {orders},"
        f" at reference resolution {resid_ref:.3e}; b={REF_PARAMS.b:g} reference"
        f" {resid_b4:.3e} (below the regime, no gate)"
    )
    # same +-0.2 convention as the splitting study, read one-sided
    assert np.all(orders >= 1.8), f"refinement orders {orders} fall short of 2"
    assert resid_ref <= 1e-4, f"reference-resolution residual {resid_ref:.3e} exceeds 1e-4"


def test_criterion_05_conformal_bridge_is_exact(reference):
    traj, _, _ = reference
    b = REF_PARAMS.b
    worst_norm, worst_rt = 0.0, 0.0
    for snap in traj.snapshots[:: len(traj.snapshots) // 7]:
        u = to_u_frame(snap, b)
        worst_norm = max(worst_norm, abs(l2_norm(u) - l2_norm(snap)))
        back = to_v_frame(u, b)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - snap.values))))
    print(f"bridge L2 gap {worst_norm:.3e}, round trip {worst_rt:.3e}")
    assert worst_norm <= 1e-12
    assert worst_rt <= 1e-13


def test_criterion_06_sup_limit_is_half_for_both_couplings(reference):
    traj, v0, _ = reference
    chk = check_sup_limit(norm_bridge(traj), REF_PARAMS)
    print(f"t*sup tail {chk['u_values']}, target {chk['target_u']}, dev {chk['deviation_u']:.4f}")
    assert chk["target_u"] == 0.5
    assert chk["deviation_u"] <= 0.05

    # the limit only sees |Im lam|; a real part must not move it
    shifted = PhysParams(1, 1.0, 2.0 - 1j, 4.0)
    chk2 = check_sup_limit(norm_bridge(run(v0, REF_CFG, shifted)), shifted)
    print(f"Re lam = 2: target {chk2['target_u']}, dev {chk2['deviation_u']:.4f}")
    assert chk2["target_u"] == chk["target_u"]
    assert chk2["deviation_u"] <= 0.05


def test_criterion_07_l2_envelope_exponent_and_band(reference):
    traj, _, _ = reference
    chk = check_l2_envelope(norm_bridge(traj), REF_PARAMS, 5)
    print(
        f"fitted exponent {chk['fitted']['exponent']:.4f} vs {chk['target_exponent']},"
        f" dev {chk['exponent_deviation']:.4f}, band ratio {chk['band_ratio']:.3f}"
    )
    assert chk["target_exponent"] == -0.45
    assert chk["exponent_deviation"] <= 0.10
    assert chk["band_ratio"] <= 2.0


def test_criterion_08_compensated_profile_errors_decay(reference, reference_profile):
    # the verdict's own series and fits: error_series, then check_profile_error
    traj, _, _ = reference
    ts, e2s, einfs = error_series(traj, reference_profile)
    chk = check_profile_error(ts, e2s, einfs)
    last = ts >= ts[-1] / 10.0
    assert last.sum() >= 8
    slopes = (chk["slope_l2"], chk["slope_sup"])
    print(f"{last.sum()} points in the last decade, slopes {slopes}")
    for series in (e2s[last], einfs[last]):
        assert np.all(series[1:] <= 1.05 * series[:-1])
    assert slopes[0] <= -0.05
    assert slopes[1] <= -0.05


def test_criterion_09_profile_identities_and_limit(reference, reference_profile):
    traj, v0, _ = reference
    prof = reference_profile
    alpha, b = REF_PARAMS.alpha, REF_PARAMS.b

    gap = np.max(
        np.abs(
            np.abs(prof.amplitude) ** alpha * (1.0 + prof.correction)
            - np.abs(v0.values) ** alpha
        )
    )
    print(f"amplitude identity gap {gap:.3e}")
    assert gap <= 1e-12

    for snap in traj.snapshots:
        psi = modulus_envelope(snap.t, prof)
        assert np.all(psi > 0.0) and np.all(psi <= 1.0)

    # modulus balance at the peak, where |v0| = 1: with c the balance coefficient
    # and q the gauge exponent, 1/scaled = c/q + (1 + f0 - c/q) g^q, so c/q is
    # the intercept of 1/scaled against g^q, and scaled tends to target = q/c
    q = (2.0 - alpha) / 2.0
    gauges = np.array([1.0 - b * snap.t for snap in traj.snapshots])
    scaled = np.array(
        [g ** (-q) * sup_norm(snap) ** alpha for g, snap in zip(gauges, traj.snapshots)]
    )
    target = b * (2.0 - alpha) / (2.0 * alpha * abs(REF_PARAMS.lam.imag))
    last = gauges <= 10.0 * gauges[-1]
    assert last.sum() >= 8
    slope, intercept = np.polyfit(gauges[last] ** q, 1.0 / scaled[last], 1)
    center = tuple(m // 2 for m in v0.grid.points)
    slope_theory = (
        1.0 + prof.correction[center] - np.abs(v0.values[center]) ** alpha / target
    )
    print(
        f"limit check: {scaled[-1]:.5f} at gauge {gauges[-1]:.1e}, {1.0 / intercept:.5f}"
        f" extrapolated from {last.sum()} points to gauge 0, vs {target};"
        f" slope {slope:.4f} vs {slope_theory:.4f}"
    )
    assert target == 2.0
    miss = abs(1.0 / (intercept * target) - 1.0)
    assert miss <= 0.02, (
        f"extrapolated sup limit {1.0 / intercept:.5f} misses {target} by {miss:.4f}"
    )
    assert abs(slope / slope_theory - 1.0) <= 0.02, (
        f"approach slope {slope:.4f} misses the balance's {slope_theory:.4f}"
    )


def test_criterion_10_monitor_flags(reference, regime_companion):
    def flags(traj, v0, params):
        ok, worst = mass_dissipation_ok(traj)
        report = monitor_phi(traj, v0, 5)
        f_max = float(np.max(report.f_sup))
        print(
            f"b={params.b:g}: mass dissipation ok={ok}, worst step growth {worst:.2e},"
            f" decay flag {report.decay_pointwise}, f sup {f_max:.4f},"
            f" running-sup ratio {report.psi_ratio:.3f} (reported, no threshold)"
        )
        assert ok
        assert report.decay_pointwise
        assert np.all(np.isfinite(report.phi3))
        return report, f_max

    # below the regime the quarter bound breaks legitimately (a converged ~20);
    # the monitor must classify that rather than pass it
    traj, v0, _ = reference
    report, f_max = flags(traj, v0, REF_PARAMS)
    assert report.f_within_quarter is False and f_max > 0.25

    _, f_max = flags(*regime_companion)
    assert f_max <= 0.25, f"correction sup {f_max:.3f} exceeds 1/4"


def test_criterion_11_strict_exponent_synthesis():
    exps = synthesize_exponents(REF_PARAMS)
    print(f"k={exps.k} n={exps.n} m={exps.m} J={exps.J} sigma window "
          f"{sigma_window(REF_PARAMS, exps.k, exps.n)}")
    assert (exps.k, exps.n, exps.m, exps.J) == (5, 21, 211, 450)
    lo, hi = sigma_window(REF_PARAMS, exps.k, exps.n)
    assert abs(lo - 1 / 21) < 1e-15 and abs(hi - 1 / 14) < 1e-15
    assert lo < hi
    checks = derived_inequalities(REF_PARAMS, exps)
    print(f"derived inequalities {checks}")
    assert all(checks.values())

"""Reference formulas that only tests read, kept out of the package.

``derivative_orders`` lists the multi-indices of the data constant, and
``weighted_sup_norm`` is the per-derivative weighted sup the monitor reference
route compares against; ``phase_drift`` is the drift ``predicted_field_v``
applies, from the same psi^alpha, bit for bit; ``correction_integral`` is the
second route to the correction, checked against the balance inversion.
``fresh_strang_step`` is the splitting step with a new array for every
transform and substep, the reference for the stepper's reuse of its arrays;
``free_flow`` is its half-step multiplier.  ``wavenumber_sq`` is |k|^2 on a
grid, and ``derived_inequalities`` the consequences of the sigma window that
acceptance criterion 11 checks on the strict exponent set.
"""

import numpy as np

from dnlslab.asymptotics import ProfileData, _drift, _psi_pow_alpha, correction_field
from dnlslab.field import Field
from dnlslab.params import ExponentSet, PhysParams
from dnlslab.solver import SolverConfig, coefficient_integral, steps


def derivative_orders(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """Every multi-index beta with |beta| <= max_order, in a fixed order."""
    if dim == 1:
        return [(j,) for j in range(max_order + 1)]
    return [(i, j) for i in range(max_order + 1) for j in range(max_order + 1 - i)]


def weighted_sup_norm(f: Field, p: float) -> float:
    """sup over the grid of <x>^p |f(x)|."""
    return float(np.max(f.grid.bracket_pow(p) * np.abs(f.values)))


def phase_drift(t: float, profile: ProfileData) -> np.ndarray:
    """Accumulated nonlinear phase; identically zero for purely imaginary lam."""
    p = profile.params
    if p.lam.real == 0.0:
        return np.zeros(profile.reference.grid.shape)
    return _drift(_psi_pow_alpha(t, profile.correction, profile.reference_power, p), p)


def wavenumber_sq(grid) -> np.ndarray:
    """|k|^2 on the grid, the sum of its per-axis k_a^2."""
    return sum(np.ix_(*(k**2 for k in grid.wavenumbers())))


def derived_inequalities(params: PhysParams, exps: ExponentSet) -> dict[str, bool]:
    """Consequences of the sigma window that downstream estimates rely on."""
    N, a = params.N, params.alpha
    s = exps.sigma
    return {
        "weight_beats_dimension": exps.n * a * s / (2 - N * a) > N,
        "gauge_exponent_in_unit_interval": 0 < 1 - 2 * s / (2 - N * a) < 1,
        "integrable_correction_rate": 1 - (2 - N * a) / 2 - 5 * s > 0,
    }


def _coupling_integrand(values: np.ndarray, spec: np.ndarray, grid, alpha: float) -> np.ndarray:
    # Im(conj(v) Lap v) / |v|^{alpha+2}, the Laplacian taken from the carried
    # spectrum; a b below the regime drives |v| near zero, where this is
    # ill-conditioned; underflowed points contribute nothing
    lap = np.fft.ifftn(-wavenumber_sq(grid) * spec)
    mod = np.abs(values)
    dens = np.imag(np.conj(values) * lap)
    out = np.zeros_like(mod)
    ok = mod > 1e-300
    out[ok] = dens[ok] / mod[ok] ** (alpha + 2.0)
    return out


def correction_integral(v0: Field, cfg: SolverConfig,
                        params: PhysParams) -> tuple[list[Field], float]:
    """Correction by time-integrating the dispersive coupling; plus a residual.

    Runs the v-frame ``steps`` stream from v0 and integrates the coupling
    with the trapezoid rule over each step, one inverse transform of the
    carried spectrum per state.  At each snapshot the correction is
    alpha |v0|^alpha times the running integral.  The residual is the largest
    sup-distance to ``correction_field`` over all snapshots.  The two routes
    agree exactly for the continuum flow, so the residual certifies the
    quadrature, not the run: the integrand scales like |v|^-(alpha+1), and
    a run whose modulus passes near zero (a b below the regime) reads a
    large residual.
    """
    mod0a = np.abs(v0.values) ** params.alpha
    accum = np.zeros(v0.grid.shape)
    fields, residual, g_prev = [], 0.0, None
    for values, spec, _, dt, stamp in steps(v0, cfg, params):
        if g_prev is None:  # f0
            g_prev = _coupling_integrand(values, spec, v0.grid, params.alpha)
        elif dt > 0.0:  # a dust landing brings no new state
            g_new = _coupling_integrand(values, spec, v0.grid, params.alpha)
            accum += 0.5 * dt * (g_prev + g_new)
            g_prev = g_new
        if stamp is not None:
            fields.append(Field(v0.grid, params.alpha * mod0a * accum, "v", stamp))
            snap = Field(v0.grid, values, "v", stamp)
            gap = fields[-1].values - correction_field(snap, mod0a, params).values
            residual = max(residual, float(np.max(np.abs(gap))))
    return fields, residual


def update_by_formula(w, tau, lam, alpha):
    """The exact nonlinear flow in its closed form, one new array per operation.

    A complex product rounds by its operand order; for Im(lambda) = 0 the
    phase factor comes first, the order numpy's temporary elision gives
    w * exp(...) on arrays from 256 KiB.
    """
    damp = -lam.imag
    mod_a = np.abs(w) ** alpha
    if damp == 0.0:
        return np.exp(-1j * lam.real * tau * mod_a) * w
    kappa = alpha * damp * tau * mod_a
    scale = (1.0 + kappa) ** (-1.0 / alpha)
    if lam.real == 0.0:
        return w * scale
    return w * scale * np.exp(1j * (-(lam.real / (alpha * damp)) * np.log1p(kappa)))


def free_flow(spec: np.ndarray, grid, tau: float) -> np.ndarray:
    """exp(-i tau |k|^2) spec, one new array per axis factor exp(-i tau k_a^2).

    The stepper's half-step multiplier is this per-axis product, each factor
    the first operand, so the two agree bit for bit.
    """
    for factor in np.ix_(*(np.exp(-1j * tau * k**2) for k in grid.wavenumbers())):
        spec = np.multiply(factor, spec)
    return spec


def fresh_strang_step(spec: np.ndarray, grid, t: float, dt: float, cfg: SolverConfig,
                      params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """One splitting step that only reads ``spec`` and makes a new array per operation.

    ``spec`` is the spectrum of the state at t on ``grid``; returns the
    values and the spectrum of the state at t + dt.  The half-step
    multiplier is ``free_flow``'s per-axis product for dt/2.
    """
    w = np.fft.ifftn(free_flow(spec, grid, 0.5 * dt))
    if params.lam != 0:
        tau_eff = dt if cfg.frame == "u" else coefficient_integral(t, dt, params)
        w = update_by_formula(w, tau_eff, params.lam, params.alpha)
    spec = free_flow(np.fft.fftn(w), grid, 0.5 * dt)
    return np.fft.ifftn(spec), spec

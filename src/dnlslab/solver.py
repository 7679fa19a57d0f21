"""Strang-splitting integrator for the dissipative nonlinear Schrodinger flow.

Two frames share one stepper.  The physical frame ('u') evolves

    i u_t + Lap u = lam |u|^alpha u,      Im lam <= 0,

and the rescaled frame ('v') evolves the same equation with the nonlinear
coefficient multiplied by (1 - b t)^{-(4 - N alpha)/2}, which blows up as t
approaches the horizon 1/b.  The splitting is linear half-step, full
nonlinear step, linear half-step.  Both substeps are exact: the free group
is a Fourier multiplier, and the nonlinear flow has a closed form because
modulus and phase decouple pointwise.  In the v-frame the time-dependent
coefficient is absorbed by integrating it exactly across the substep, so
the only error is the splitting commutator.

Near the horizon the step size shrinks like c_adapt * (1 - b t); a run
stops once 1 - b t reaches a configured floor.

``run`` carries the state's spectrum from step to step (``Field.spectrum``):
a step is w = ifftn(H S), the nonlinear substep on w, S = H fftn(w), and
v = ifftn(S) for the per-step records and the snapshots, with H the
half-step multiplier.  That is 3 N-D transforms per step, plus one forward
transform of the initial state; a state without its spectrum costs 4.  The
Laplacian of the coupling record comes from the carried spectrum too.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .field import Field, Grid, boundary_magnitude
from .params import ExponentSet, PhysParams, validate_phys

log = logging.getLogger(__name__)

_LANDING_EPS = 1e-12
# Largest relative per-step growth of the mass that still counts as dissipation.
MASS_SLACK = 1e-12


class NumericalError(RuntimeError):
    """Base class for failures of the time integration itself."""


class StepUnderflowError(NumericalError):
    """Adaptive step fell below dt_min: the horizon is not being resolved."""


class UnstableSolutionError(NumericalError):
    """Non-finite values or mass growth: resolution too low for the data."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepper numerics: frame, step-size rule, stop rule, snapshot schedule.

    ``snapshot_times`` wins over ``snapshot_count``; the count requests a
    schedule geometric in (1 - b t) for v-frame runs (log-equidistant
    approach to the horizon) and geometric in 1 + (t - t0) otherwise.
    Start and end times are always included.
    """

    frame: str = "v"
    dt0: float = 5e-4
    c_adapt: float = 0.05
    dt_min: float = 1e-12
    t_end: float | None = None
    horizon_floor: float = 1e-4
    snapshot_times: tuple[float, ...] | None = None
    snapshot_count: int = 0

    def __post_init__(self):
        if self.frame not in ("u", "v"):
            raise ValueError("frame must be 'u' or 'v'")
        if self.dt0 <= 0 or self.dt_min <= 0 or self.c_adapt <= 0:
            raise ValueError("dt0, dt_min, c_adapt must be positive")
        if not 0 < self.horizon_floor < 1:
            raise ValueError("horizon_floor must lie in (0, 1)")


@dataclass
class Trajectory:
    """Run output: per-step scalar records plus full fields on the schedule.

    ``coupling`` holds the running time integral of
    Im(conj(v) Lap v) / |v|^{alpha+2} at each snapshot time; it is the raw
    material for reconstructing the dissipative phase/modulus correction
    without re-walking the trajectory.  It is filled only by
    ``run(..., track_coupling=True)`` on a v-frame run with lam != 0, which
    costs one more FFT pair per step; it is None otherwise.
    """

    frame: str
    params: PhysParams
    times: np.ndarray
    dts: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    wsup: np.ndarray | None
    winf: np.ndarray | None
    snapshots: list[Field]
    coupling: list[Field] | None


@functools.lru_cache(maxsize=2)
def _free_multiplier(grid: Grid, tau: float) -> np.ndarray:
    # two entries cover a run: the dt0 half-step and the one landing or
    # adaptive half-step before dt0 returns; a cache per distinct dt would
    # hold one grid-sized array per landing step
    levels, index = grid.wavenumber_levels()
    phase = np.exp(-1j * tau * levels)[index]
    phase.flags.writeable = False
    return phase


def linear_substep(f: Field, tau: float) -> Field:
    """Free-group multiplier exp(-i tau |k|^2); an exact L2 isometry."""
    if tau == 0.0:
        return f
    spec = np.fft.fftn(f.values)
    return f.with_values(np.fft.ifftn(_free_multiplier(f.grid, tau) * spec))


def _nonlinear_update(w: np.ndarray, tau_eff: float, lam: complex, alpha: float) -> np.ndarray:
    # exact flow of i w_t = lam |w|^alpha w over effective time tau_eff;
    # written so w = 0 needs no special case and nothing is divided by |w|
    damp = -lam.imag
    if damp < 0:
        raise ValueError("Im(lambda) must be <= 0")
    mod_a = np.abs(w) ** alpha
    if damp == 0.0:
        return w * np.exp(-1j * lam.real * tau_eff * mod_a)
    kappa = alpha * damp * tau_eff * mod_a
    scale = (1.0 + kappa) ** (-1.0 / alpha)
    if lam.real == 0.0:
        return w * scale
    phase = -(lam.real / (alpha * damp)) * np.log1p(kappa)
    return w * scale * np.exp(1j * phase)


def nonlinear_substep_u(f: Field, tau: float, lam: complex, alpha: float) -> Field:
    """Exact pointwise solution of i w_t = lam |w|^alpha w for time tau >= 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return f.with_values(_nonlinear_update(f.values, tau, lam, alpha))


def coefficient_integral(t: float, tau: float, params: PhysParams) -> float:
    """Integral of (1 - b s)^{-(4 - N alpha)/2} over [t, t + tau], closed form."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    b = params.b
    if b == 0.0:
        return tau
    head = 1.0 - b * t
    tail = 1.0 - b * (t + tau)
    if head <= 0 or tail <= 0:
        raise ValueError("substep interval touches the horizon 1/b")
    q = params.gauge_exponent
    # the prefactor is not written as 1/(b q), which rounds differently
    return (2.0 / (b * (2.0 - params.N * params.alpha))) * (tail**-q - head**-q)


def nonlinear_substep_v(f: Field, t: float, tau: float, params: PhysParams) -> Field:
    """Exact nonlinear flow in the rescaled frame across [t, t + tau].

    The time-dependent coefficient is integrated in closed form, so this
    substep is exact however close the interval sits to the horizon.
    """
    tau_eff = coefficient_integral(t, tau, params)
    return f.with_values(_nonlinear_update(f.values, tau_eff, params.lam, params.alpha))


def strang_step(f: Field, t: float, dt: float, cfg: SolverConfig, params: PhysParams) -> Field:
    """One splitting step [t, t + dt]: half linear, full nonlinear, half linear.

    The half-steps are ``linear_substep``'s multiplier applied to spectra:
    the step starts from ``f.spectrum`` when ``f`` carries one, and the
    result carries its own, so composed steps spend 3 transforms each.
    """
    half = _free_multiplier(f.grid, 0.5 * dt)
    spec = np.fft.fftn(f.values) if f.spectrum is None else f.spectrum
    # every transform writes into an array this step made (``out``): an N-D
    # transform otherwise allocates one array per axis.  Without ``out`` here
    # and in the derivative ladder, a 256^2 verify run's peak RSS was 3.8 MiB
    # higher (2-CPU Xeon, numpy 2.4)
    w = half * spec
    g = f.with_values(np.fft.ifftn(w, out=w))
    if params.lam != 0:
        if cfg.frame == "u":
            g = nonlinear_substep_u(g, dt, params.lam, params.alpha)
        else:
            g = nonlinear_substep_v(g, t, dt, params)
    # g's values are this step's own array either way
    spec = np.multiply(half, np.fft.fftn(g.values, out=g.values), out=g.values)
    return Field(f.grid, np.fft.ifftn(spec, out=np.empty_like(spec)), f.frame, t + dt, spec)


def snapshot_schedule(cfg: SolverConfig, params: PhysParams, t0: float) -> np.ndarray:
    """The run's snapshot times from t0 to its end time, which comes last.

    The one home of the rules on when a run stops: a u-frame run needs
    ``cfg.t_end``; a v-frame run needs b > 0 and stops at ``cfg.t_end`` below
    the horizon 1/b, else where 1 - b t reaches ``cfg.horizon_floor``; the end
    time must exceed t0.
    """
    if cfg.frame == "u":
        if cfg.t_end is None:
            raise ValueError("t_end is required for u-frame runs")
        t_end = float(cfg.t_end)
    else:
        if params.b <= 0:
            raise ValueError("v-frame runs need b > 0")
        horizon = 1.0 / params.b
        t_end = (1.0 - cfg.horizon_floor) / params.b if cfg.t_end is None else float(cfg.t_end)
        if t_end >= horizon:
            raise ValueError(f"t_end = {t_end} must be strictly below the horizon {horizon}")
    if t_end <= t0:
        raise ValueError("t_end must exceed the initial time")
    if cfg.snapshot_times is not None:
        times = np.array(sorted({float(s) for s in cfg.snapshot_times} | {t0, t_end}))
        if times[0] < t0 or times[-1] > t_end:
            raise ValueError("snapshot times must lie within [t0, t_end]")
        return times
    count = cfg.snapshot_count
    if count < 2:
        return np.array([t0, t_end])
    if cfg.frame == "v":
        gauge = np.geomspace(1.0 - params.b * t0, 1.0 - params.b * t_end, count)
        times = (1.0 - gauge) / params.b
    else:
        times = t0 + np.geomspace(1.0, 1.0 + (t_end - t0), count) - 1.0
    times[0], times[-1] = t0, t_end
    return times


def _records(f: Field, weight: np.ndarray | None) -> tuple[float, ...]:
    # l2, sup and, with a weight, weighted sup and inf of a state from one
    # |v| pass; the same arithmetic as l2_norm, sup_norm and weighted_inf
    mod = np.abs(f.values)
    norms = (float(np.sqrt(f.grid.cell_volume * np.sum(mod**2))), float(np.max(mod)))
    if weight is None:
        return norms
    weighted = weight * mod
    return (*norms, float(np.max(weighted)), float(np.min(weighted)))


def _coupling_integrand(f: Field, alpha: float) -> np.ndarray:
    # Im(conj(v) Lap v) / |v|^{alpha+2}, the Laplacian taken from the carried
    # spectrum; admissible data start nonvanishing, but a b below the regime
    # drives |v| near zero, where this is ill-conditioned; guard underflowed
    # points — they contribute nothing downstream
    lap = np.fft.ifftn(-f.grid.wavenumber_sq() * f.spectrum)
    mod = np.abs(f.values)
    dens = np.imag(np.conj(f.values) * lap)
    out = np.zeros_like(mod)
    ok = mod > 1e-300
    out[ok] = dens[ok] / mod[ok] ** (alpha + 2.0)
    return out


def run(
    f0: Field,
    cfg: SolverConfig,
    params: PhysParams,
    exps: ExponentSet | None = None,
    track_coupling: bool = False,
    on_snapshot: Callable[[Field], object] | None = None,
) -> Trajectory:
    """Integrate from f0 to the configured end time.

    Parameters
    ----------
    f0 : Field
        Initial state; its frame must match ``cfg.frame``.
    cfg : SolverConfig
        Stepping and snapshot rules.
    params : PhysParams
        Physical parameters.  Im(lambda) > 0 is rejected; other admissibility
        violations (lambda = 0 oracle runs, alpha outside the mass-subcritical
        window) are logged and allowed so linear and conservative references
        can reuse the stepper.
    exps : ExponentSet, optional
        When given, per-step weighted sup/inf records with weight <x>^n are
        kept alongside the plain norms.
    track_coupling : bool
        Accumulate ``Trajectory.coupling`` (v-frame runs with lam != 0
        only), which ``correction_integral`` reads.  Costs one more inverse
        transform per step.
    on_snapshot : callable, optional
        Called with each snapshot as it is taken, so a consumer can start
        on it while the run goes on.  Snapshot values are never written to.

    Returns
    -------
    Trajectory

    Raises
    ------
    StepUnderflowError
        If the adaptive step falls below ``cfg.dt_min``.
    UnstableSolutionError
        If the field stops being finite or the mass record increases beyond
        roundoff (dissipation must be monotone for Im(lambda) <= 0).
    """
    if f0.frame != cfg.frame:
        raise ValueError(f"initial field frame {f0.frame!r} != configured {cfg.frame!r}")
    if params.lam.imag > 0:
        raise ValueError("Im(lambda) must be <= 0; amplifying nonlinearity is out of scope")
    bad = validate_phys(params)
    if bad:
        log.warning("non-admissible parameters (oracle mode): %s", "; ".join(bad))

    t0 = f0.t
    snaps_due = snapshot_schedule(cfg, params, t0)
    t_end = snaps_due[-1]

    tracking = track_coupling and cfg.frame == "v" and params.lam != 0
    weight = None if exps is None else f0.grid.bracket_pow(exps.n)

    f = replace(f0, spectrum=np.fft.fftn(f0.values))
    t = t0
    times, dts = [t], [0.0]
    records = [_records(f, weight)]

    snapshots: list[Field] = []
    coupling: list[Field] | None = [] if tracking else None
    accum = np.zeros(f.grid.shape) if tracking else None
    g_prev = _coupling_integrand(f, params.alpha) if tracking else None

    due_idx = 0

    def take_snapshot(state: Field):
        nonlocal due_idx
        snapshots.append(state)
        if tracking:
            coupling.append(Field(state.grid, accum.astype(complex), cfg.frame, state.t))
        if on_snapshot is not None:
            on_snapshot(state)
        due_idx += 1

    take_snapshot(f0)

    nsteps = 0
    log.info("run start: frame=%s t0=%g t_end=%g dt0=%g", cfg.frame, t0, t_end, cfg.dt0)
    while t < t_end - _LANDING_EPS:
        if cfg.frame == "v":
            dt_cap = min(cfg.dt0, cfg.c_adapt * (1.0 - params.b * t))
        else:
            dt_cap = cfg.dt0
        if dt_cap < cfg.dt_min:
            raise StepUnderflowError(
                f"step {dt_cap:.3e} below dt_min {cfg.dt_min:.3e} at t = {t:.6g}"
            )
        t_next = snaps_due[due_idx]
        dt = min(dt_cap, t_next - t)
        if dt <= _LANDING_EPS:  # float dust from landing arithmetic
            t = t_next
        else:
            f = strang_step(f, t, dt, cfg, params)
            t = t + dt
            nsteps += 1
            rec = _records(f, weight)
            # a NaN or inf anywhere makes the sum of squares non-finite
            if not np.isfinite(rec[0]):
                raise UnstableSolutionError(f"non-finite values at t = {t:.6g}")
            l2_prev = records[-1][0]
            if rec[0] > l2_prev * (1.0 + MASS_SLACK) + MASS_SLACK:
                raise UnstableSolutionError(
                    f"mass grew from {l2_prev:.12e} to {rec[0]:.12e} at t = {t:.6g}"
                )
            times.append(t)
            dts.append(dt)
            records.append(rec)
            if tracking:
                g_new = _coupling_integrand(f, params.alpha)
                accum += 0.5 * dt * (g_prev + g_new)
                g_prev = g_new
        if abs(t - snaps_due[due_idx]) <= _LANDING_EPS:
            take_snapshot(f.with_values(f.values, t=snaps_due[due_idx]))

    edge = boundary_magnitude(f)
    peak = records[-1][1]
    if peak > 0 and edge > 1e-6 * peak:
        log.warning("final state boundary ratio %.2e; box may be too small", edge / peak)
    log.info("run done: %d steps, %d snapshots", nsteps, len(snapshots))

    columns = [np.array(col) for col in zip(*records)]
    return Trajectory(
        frame=cfg.frame,
        params=params,
        times=np.array(times),
        dts=np.array(dts),
        l2=columns[0],
        linf=columns[1],
        wsup=columns[2] if weight is not None else None,
        winf=columns[3] if weight is not None else None,
        snapshots=snapshots,
        coupling=coupling,
    )

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

``steps`` is the stream of states a run passes through, and the only code
that steps and lands on the snapshot schedule; ``run`` folds it into a
``Trajectory``.  The stream works on plain arrays: it carries the state's
spectrum S from step to step, and a step is w = ifftn(H S), the nonlinear
substep on w, S = H fftn(w), and v = ifftn(S) for the per-step records and
the snapshots, with H the half-step multiplier.  That is 3 N-D transforms
per step, plus one forward transform of the initial state.  ``run`` builds
a ``Field`` only for a snapshot.

The loop reuses its grid arrays.  The carried spectrum is one buffer that
each step transforms and multiplies in place, and a new state's values go
into the previous state's array unless that state went out as a snapshot;
the initial state's values are never written.  So the arrays that ``steps``
yields are valid until the next item is drawn, and snapshots are never
written to.  The loop holds one half-step multiplier, one factor per axis.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, MutableSequence, Sequence
from dataclasses import dataclass

import numpy as np

from .field import Field, Grid, boundary_magnitude
from .params import PhysParams, validate_phys

log = logging.getLogger(__name__)

_LANDING_EPS = 1e-12
DT_MIN = 1e-12  # smallest adaptive step; below it the horizon is not resolved
# Largest relative per-step growth of the mass that still counts as dissipation.
MASS_SLACK = 1e-12


class NumericalError(RuntimeError):
    """Base class for failures of the time integration itself."""


class StepUnderflowError(NumericalError):
    """Adaptive step fell below DT_MIN: the horizon is not being resolved."""


class UnstableSolutionError(NumericalError):
    """Non-finite values or mass growth: resolution too low for the data."""


@dataclass(frozen=True)
class SolverConfig:
    """Stepper numerics, one field per key of a config's solver section.

    ``snapshot_schedule`` judges them.  ``snapshot_count`` requests a schedule
    geometric in (1 - b t) for v-frame runs (log-equidistant approach to the
    horizon) and geometric in 1 + (t - t0) otherwise; start and end times are
    always included.
    """

    frame: str = "v"
    dt0: float = 5e-4
    c_adapt: float = 0.05
    t_end: float | None = None
    horizon_floor: float = 1e-4
    snapshot_count: int = 49


@dataclass
class Trajectory:
    """Run output: per-step scalar records plus full fields on the schedule.

    Snapshot i is stamped ``snapshot_times[i]`` and holds the state of step
    ``snapshot_steps[i]``, so its norms are ``l2`` and ``linf`` there.
    """

    frame: str
    params: PhysParams
    times: np.ndarray
    dts: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    snapshots: Sequence[Field]
    snapshot_times: np.ndarray
    snapshot_steps: np.ndarray


def _free_multiplier(grid: Grid, tau: float) -> tuple[np.ndarray, ...]:
    # exp(-i tau |k|^2) as read-only factors exp(-i tau k_a^2) along each axis, in 1-D the
    # direct exponential bit for bit; k_a^2 is even, so exp reads the first M/2 + 1 only
    halves = (np.exp(-1j * tau * k[: k.size // 2 + 1] ** 2) for k in grid.wavenumbers())
    factors = np.ix_(*(np.concatenate([h, h[-2:0:-1]]) for h in halves))
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _apply(factors: tuple[np.ndarray, ...], spec: np.ndarray) -> np.ndarray:
    for factor in factors:  # in place, one axis at a time, each factor the first operand
        np.multiply(factor, spec, out=spec)
    return spec


def linear_substep(f: Field, tau: float) -> Field:
    """Free-group multiplier exp(-i tau |k|^2); an exact L2 isometry."""
    if tau == 0.0:
        return f
    spec = _apply(_free_multiplier(f.grid, tau), np.fft.fftn(f.values))
    return f.with_values(np.fft.ifftn(spec, out=spec))


def nonlinear_substep_u(w: np.ndarray, tau: float, lam: complex, alpha: float,
                        out=None) -> np.ndarray:
    """Exact pointwise solution of i w_t = lam |w|^alpha w for time tau >= 0.

    Returns the new values: a new array, or ``out`` when given, which may be
    ``w`` itself.
    """
    # w = 0 needs no special case and nothing is divided by |w|.  |w|^alpha and
    # the damping factor share one real array; the in-place **= keeps numpy's
    # fast paths for the exponents 1, -1, 0.5 and 2, as ** does
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    damp = -lam.imag
    if damp < 0:
        raise ValueError("Im(lambda) must be <= 0")
    mod_a = np.abs(w)
    mod_a **= alpha
    if damp == 0.0:
        rot = -1j * lam.real * tau * mod_a
        return np.multiply(np.exp(rot, out=rot), w, out=out)
    kappa = np.multiply(alpha * damp * tau, mod_a, out=mod_a)
    if lam.real == 0.0:
        kappa += 1.0
        kappa **= -1.0 / alpha
        return np.multiply(w, kappa, out=out)
    scale = kappa + 1.0
    scale **= -1.0 / alpha
    rot = 1j * np.multiply(-(lam.real / (alpha * damp)), np.log1p(kappa, out=kappa), out=kappa)
    out = np.multiply(w, scale, out=out)
    return np.multiply(out, np.exp(rot, out=rot), out=out)


def coefficient_integral(t: float, tau: float, params: PhysParams) -> float:
    """Integral of (1 - b s)^{-(1 + q)} over [t, t + tau]: head^{-q} bracket / b, head = 1 - b t.

    The bracket's gauge ratio 1 - b tau / head is formed from tau, so a short step keeps its digits.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    b = params.b
    if b == 0.0:
        return tau
    head = 1.0 - b * t
    if head <= 0 or 1.0 - b * (t + tau) <= 0:
        raise ValueError("substep interval touches the horizon 1/b")
    return head**-params.gauge_exponent * params.bracket(np.log1p(-b * tau / head)) / b


def nonlinear_substep_v(w: np.ndarray, t: float, tau: float, params: PhysParams,
                        out=None) -> np.ndarray:
    """Exact nonlinear flow in the rescaled frame across [t, t + tau].

    It is ``nonlinear_substep_u`` over the closed-form integral of the
    time-dependent coefficient, so it is exact however close the interval
    sits to the horizon.
    """
    return nonlinear_substep_u(w, coefficient_integral(t, tau, params), params.lam,
                               params.alpha, out)


def strang_step(spec: np.ndarray, t: float, dt: float, cfg: SolverConfig, params: PhysParams,
                half: tuple[np.ndarray, ...], out: np.ndarray | None = None) -> np.ndarray:
    """One splitting step [t, t + dt]: half linear, full nonlinear, half linear.

    ``spec`` is the spectrum of the state at t, and ``half`` is
    ``linear_substep``'s per-axis factors for 0.5 dt, applied to spectra.  The step
    transforms ``spec`` in place into the spectrum of the state at t + dt
    and returns that state's values, in ``out`` when given, else in a new
    array: 3 transforms.
    """
    # every transform writes into the spectrum's own array (numpy's out=): an
    # N-D transform otherwise allocates one array per axis
    w = np.fft.ifftn(_apply(half, spec), out=spec)
    if params.lam != 0 and cfg.frame == "u":  # in place: w is the spectrum's array
        nonlinear_substep_u(w, dt, params.lam, params.alpha, w)
    elif params.lam != 0:
        nonlinear_substep_v(w, t, dt, params, w)
    _apply(half, np.fft.fftn(w, out=w))
    return np.fft.ifftn(spec, out=np.empty_like(spec) if out is None else out)


def snapshot_schedule(cfg: SolverConfig, params: PhysParams, t0: float) -> np.ndarray:
    """The run's snapshot times from t0 to its end time, which comes last.

    The one judge of a solver section.  A u-frame run needs ``cfg.t_end``; a
    v-frame run needs b > 0 and stops at ``cfg.t_end`` below the horizon 1/b,
    else where 1 - b t reaches ``cfg.horizon_floor``; the end time must exceed
    t0, and no two times may lie within the landing tolerance.
    """
    if cfg.frame not in ("u", "v"):
        raise ValueError("frame must be 'u' or 'v'")
    if cfg.dt0 <= 0 or cfg.c_adapt <= 0:
        raise ValueError("dt0 and c_adapt must be positive")
    if not 0 < cfg.horizon_floor < 1:
        raise ValueError("horizon_floor must lie in (0, 1)")
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
    count = max(cfg.snapshot_count, 2)
    if cfg.frame == "v":
        gauge = np.geomspace(1.0 - params.b * t0, 1.0 - params.b * t_end, count)
        times = (1.0 - gauge) / params.b
    else:
        times = t0 + np.geomspace(1.0, 1.0 + (t_end - t0), count) - 1.0
    times[0], times[-1] = t0, t_end
    if np.min(np.diff(times)) <= _LANDING_EPS:  # the stepper cannot land on both
        raise ValueError(f"snapshot_count {count} puts two times within {_LANDING_EPS:g}")
    return times


def _records(values: np.ndarray, grid: Grid) -> tuple[float, float]:
    # l2 and sup of a state from one |v|, squared in place last; the same
    # arithmetic as l2_norm and sup_norm
    mod = np.abs(values)
    sup = float(np.max(mod))
    return float(np.sqrt(grid.cell_volume * np.sum(np.square(mod, out=mod)))), sup


def steps(
    f0: Field, cfg: SolverConfig, params: PhysParams
) -> Iterator[tuple[np.ndarray, np.ndarray, float, float, float | None]]:
    """The run's states from f0 to the end of ``snapshot_schedule``, as arrays.

    Yields ``(values, spectrum, t, dt, stamp)``: first f0's values and
    spectrum at f0.t, with dt 0.0 and stamp f0.t; then one item per step,
    stamped with the schedule time it lands on, else None.  A landing within
    float dust of a scheduled time takes no step, comes with dt 0.0 and
    moves t to that time; a step that rounds past a scheduled time is
    followed by one.  The arrays are valid until the next item is drawn:
    the next step transforms the spectrum in place and, unless the values
    are f0's or were stamped, writes the new values over them.

    Raises
    ------
    StepUnderflowError
        If the adaptive step falls below ``DT_MIN``.
    """
    if f0.frame != cfg.frame:
        raise ValueError(f"initial field frame {f0.frame!r} != configured {cfg.frame!r}")
    if f0.grid.dim != params.N:
        raise ValueError(f"initial field dimension {f0.grid.dim} != N = {params.N}")
    if params.lam.imag > 0:
        raise ValueError("Im(lambda) must be <= 0; amplifying nonlinearity is out of scope")
    bad = validate_phys(params)
    if bad:
        log.warning("non-admissible parameters (oracle mode): %s", "; ".join(bad))

    due = snapshot_schedule(cfg, params, f0.t)
    t, values, spec = f0.t, f0.values, np.fft.fftn(f0.values)
    log.info("run start: frame=%s t0=%g t_end=%g dt0=%g", cfg.frame, t, due[-1], cfg.dt0)
    yield values, spec, t, 0.0, t
    i = 1  # the schedule starts at f0.t; due[i] is the next time to land on
    kept = True  # values are f0's or a snapshot's, which no step writes
    half = tau = None  # the one half-step multiplier the loop holds, for 0.5 dt = tau
    while i < len(due):
        if cfg.frame == "v":
            dt_cap = min(cfg.dt0, cfg.c_adapt * (1.0 - params.b * t))
        else:
            dt_cap = cfg.dt0
        if dt_cap < DT_MIN:
            raise StepUnderflowError(f"step {dt_cap:.3e} below DT_MIN {DT_MIN:.0e} at t = {t:.6g}")
        dt = min(dt_cap, due[i] - t)
        if dt <= _LANDING_EPS:  # float dust from landing arithmetic
            t, dt = due[i], 0.0
        else:
            if 0.5 * dt != tau:
                half = None  # dropped before the next one is built
                half, tau = _free_multiplier(f0.grid, 0.5 * dt), 0.5 * dt
            values = strang_step(spec, t, dt, cfg, params, half, None if kept else values)
            t, kept = t + dt, False
        stamp = None
        if abs(t - due[i]) <= _LANDING_EPS:
            stamp, i, kept = due[i], i + 1, True
        yield values, spec, t, dt, stamp


def run(
    f0: Field,
    cfg: SolverConfig,
    params: PhysParams,
    on_snapshot: Callable[[Field], object] | None = None,
    snapshots: MutableSequence[Field] | None = None,
) -> Trajectory:
    """Integrate from f0 to the configured end time: the fold over ``steps``.

    It builds a ``Field`` only where a snapshot lands, on f0's grid and
    frame, stamped with the schedule time.

    Parameters
    ----------
    f0 : Field
        Initial state; its frame must match ``cfg.frame``, its grid dimension
        ``params.N``.
    cfg : SolverConfig
        Stepping and snapshot rules.
    params : PhysParams
        Physical parameters.  Im(lambda) > 0 is rejected; other admissibility
        violations (lambda = 0 oracle runs, alpha outside the mass-subcritical
        window) are logged and allowed so linear and conservative references
        can reuse the stepper.
    on_snapshot : callable, optional
        Called with each snapshot as it is taken, once it is appended to
        ``snapshots``, so a consumer can start on it while the run goes on.
        Snapshot values are never written to.
    snapshots : mutable sequence, optional
        Where the snapshots are appended, in schedule order, and what the
        trajectory's ``snapshots`` is; a new list by default.  The CLI passes
        a ``SnapshotStore``, which keeps them on disk.

    Returns
    -------
    Trajectory

    Raises
    ------
    StepUnderflowError
        If the adaptive step falls below ``DT_MIN``.
    UnstableSolutionError
        If the field stops being finite or the mass record increases beyond
        roundoff (dissipation must be monotone for Im(lambda) <= 0).
    """
    snapshots = [] if snapshots is None else snapshots
    times, dts, records, snapshot_times, snapshot_steps = [], [], [], [], []
    for values, _, t, dt, stamp in steps(f0, cfg, params):
        if dt > 0.0 or not records:  # a dust landing brings no new state
            rec = _records(values, f0.grid)
            # a NaN or inf anywhere makes the sum of squares non-finite
            if not np.isfinite(rec[0]):
                raise UnstableSolutionError(f"non-finite values at t = {t:.6g}")
            l2_prev = records[-1][0] if records else rec[0]
            if rec[0] > l2_prev * (1.0 + MASS_SLACK) + MASS_SLACK:
                raise UnstableSolutionError(
                    f"mass grew from {l2_prev:.12e} to {rec[0]:.12e} at t = {t:.6g}"
                )
            times.append(t)
            dts.append(dt)
            records.append(rec)
        if stamp is not None:
            snapshot = Field(f0.grid, values, f0.frame, stamp)
            edge = boundary_magnitude(snapshot)  # the last one's is the end state's
            snapshot_times.append(stamp)
            snapshot_steps.append(len(records) - 1)
            snapshots.append(snapshot)
            if on_snapshot is not None:
                on_snapshot(snapshot)
            del snapshot
        # the step after a landing writes a new array, as the snapshot keeps
        # the state's; neither is held here across it
        del values

    peak, tol = records[-1][1], f0.grid.boundary_tol
    if peak > 0 and edge > tol * peak:
        log.warning("final state boundary ratio %.2e exceeds boundary_tol %.1e; "
                    "box may be too small", edge / peak, tol)
    log.info("run done: %d steps, %d snapshots", len(times) - 1, len(snapshots))

    l2, linf = (np.array(col) for col in zip(*records))
    return Trajectory(
        frame=cfg.frame,
        params=params,
        times=np.array(times),
        dts=np.array(dts),
        l2=l2,
        linf=linf,
        snapshots=snapshots,
        snapshot_times=np.array(snapshot_times),
        snapshot_steps=np.array(snapshot_steps),
    )

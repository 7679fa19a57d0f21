"""Rate fitting, decay-limit checks, and truncated weighted monitors.

Everything here is read-only over trajectories.  The monitors classify a
run (compliant / non-compliant with the large-coefficient regime); they
never raise on a broken bound.  Fits and limit checks return plain report
structures for the verdict; ``emit_report`` writes the run's report.json
and per-snapshot CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .asymptotics import (
    CORRECTION_BOUND,
    ExtractionError,
    balance_correction,
    error_series,
    finalize_profile,
    horizon_gauge,
    nonvanishing_modulus,
)
from .conformal import NormSeries, norm_bridge
from .field import DEFAULT_MAX_ORDER, Field, data_bound
from .params import PhysParams
from .solver import MASS_SLACK, Trajectory

MIN_FIT_SAMPLES = 8
REPORT_SCHEMA = 6


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of a positive series in log-log."""

    exponent: float
    prefactor: float
    window: tuple[float, float]
    residual: float
    samples: int

    def as_dict(self) -> dict:
        return asdict(self)


def fit_power_law(times, values, window: tuple[float, float] | None = None) -> RateFit:
    """Fit value = prefactor * t^exponent over the window (default: all samples)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError("times and values must have matching shapes")
    if window is None:
        mask = np.ones_like(t, dtype=bool)
    else:
        mask = (t >= window[0]) & (t <= window[1])
    t, v = t[mask], v[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"power-law fit needs at least {MIN_FIT_SAMPLES} samples, got {t.size}"
        )
    if np.any(t <= 0) or np.any(v <= 0):
        raise ValueError("power-law fit requires positive times and values")
    # the least-squares line in closed form, on centred logs: lstsq and @ map
    # about 1.6 MiB of LAPACK and BLAS pages, which set a 1-D run's peak RSS
    lt, lv = np.log(t), np.log(v)
    if lt.min() == lt.max():
        raise ValueError("power-law fit needs at least two distinct times")
    dt, dv = lt - lt.mean(), lv - lv.mean()
    slope = np.sum(dt * dv) / np.sum(dt * dt)
    resid = dv - slope * dt
    return RateFit(
        exponent=float(slope),
        prefactor=float(np.exp(lv.mean() - slope * lt.mean())),
        window=(float(t.min()), float(t.max())),
        residual=float(np.sqrt(np.mean(resid**2))),
        samples=int(t.size),
    )


def check_sup_limit(series: NormSeries, params: PhysParams) -> dict:
    """Compare late-time sup-norm growth against its closed-form limit.

    Evaluates t * ||u||_inf^alpha (physical frame) and its rescaled-frame
    companion (1 + bt) * ||u||_inf^alpha at the five latest times; both
    converge to targets fixed by (N, alpha, Im lambda, b) alone.
    """
    target_u = params.sup_limit
    target_v = params.b * target_u
    t = np.asarray(series.t, dtype=float)
    linf = np.asarray(series.linf, dtype=float)
    pos = t > 0
    decades = 0.0
    if np.count_nonzero(pos) >= 2:
        decades = float(np.log10(t[pos].max() / t[pos].min()))
    warnings = []
    if decades < 2.0:
        warnings.append(f"series spans {decades:.2f} decades, below the advised 2")
    k = max(1, min(5, t.size))
    tt, ss = t[-k:], linf[-k:]
    u_vals = tt * ss**params.alpha
    v_vals = (1.0 + params.b * tt) * ss**params.alpha
    return {
        "target_u": target_u,
        "target_v": target_v,
        "tail_times": tt.tolist(),
        "u_values": u_vals.tolist(),
        "v_values": v_vals.tolist(),
        "deviation_u": float(np.max(np.abs(u_vals / target_u - 1.0))),
        "deviation_v": float(np.max(np.abs(v_vals / target_v - 1.0))),
        "decades": decades,
        "warnings": warnings,
    }


def l2_envelope_exponent(params: PhysParams, n: int) -> float:
    """Decay rate of ||u||_L2 forced by an order-n spatial weight on the data."""
    return (1.0 / params.alpha - params.N / 2.0) * (1.0 - params.N / (2.0 * n))


def check_l2_envelope(series: NormSeries, params: PhysParams, n: int) -> dict:
    """Fit the mass decay rate and squeeze the compensated series.

    The compensated quantity (1+bt)^e * ||u||_L2 with e the predicted rate
    should stay inside a fixed band [a, A]; the report carries the band
    observed over the fit window, the last decade of t.
    """
    e = l2_envelope_exponent(params, n)
    t = np.asarray(series.t, dtype=float)
    l2 = np.asarray(series.l2, dtype=float)
    hi = float(t.max())
    window = (hi / 10.0, hi)
    mask = (t >= window[0]) & (t <= window[1]) & (t > 0)
    tw, lw = t[mask], l2[mask]
    comp = (1.0 + params.b * tw) ** e * lw
    fit = fit_power_law(1.0 + params.b * tw, lw)
    return {
        "target_exponent": -e,
        "fitted": fit.as_dict(),
        "exponent_deviation": float(abs((fit.exponent + e) / e)),
        "empirical_a": float(comp.min()),
        "empirical_A": float(comp.max()),
        "band_ratio": float(comp.max() / comp.min()),
        "window": [float(window[0]), float(window[1])],
    }


def check_profile_error(t, err_l2, err_sup) -> dict:
    """Decay rates of the profile errors over [t_max/10, t_max]; None where a fit raises."""
    slopes = {}
    for key, err in (("slope_l2", err_l2), ("slope_sup", err_sup)):
        try:  # max() raises on a run that never reaches t = 1
            hi = float(np.max(t))
            slopes[key] = fit_power_law(t, err, (hi / 10.0, hi)).exponent
        except ValueError:
            slopes[key] = None
    return slopes


@dataclass
class MonitorReport:
    """The weighted modulus floor's running sup and pointwise-decay classification.

    ``data_constant`` is K, read off the order-``max_order`` derivative
    ladder of the initial data ("truncated": the theorem's norm goes to J).
    """

    times: np.ndarray
    phi3: np.ndarray
    f_sup: np.ndarray
    max_order: int
    data_constant: float
    psi_ratio: float
    f_within_quarter: bool
    decay_pointwise: bool
    label: str = "truncated"

    def as_dict(self) -> dict:
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items}


class SnapshotMonitor:
    """The weighted running-sup monitors of a rescaled-frame run, fed snapshot by snapshot.

    ``n`` is the data's weight order (the config's ``data.n``): the modulus
    floor is weighted by <x>^n.  The data constant K is computed once, from
    the initial data at that weight, when the monitor is built.  Call the
    monitor with each snapshot in schedule order, the initial state first
    (``run``'s ``on_snapshot`` does), then take ``report()``.  Each row is computed before the feed returns; a row's
    ``ExtractionError`` waits for ``report()``, and later snapshots are
    still fed.
    """

    def __init__(self, v0: Field, n: int, params: PhysParams):
        self._params = params
        self._weight = v0.grid.bracket_pow(n)
        self._K = data_bound(v0, n, DEFAULT_MAX_ORDER)
        # the tail of the pointwise decay bound
        self._tail = 2.0 * self._K**params.alpha * v0.grid.bracket() ** (-n * params.alpha)
        self._moda = np.empty(v0.grid.shape)  # every row's |v|^alpha, so rows map no new pages
        self._mod0a = None
        self._times: list[float] = []
        self._rows: list[tuple[float, float, bool]] = []
        self._error: ExtractionError | None = None  # the first row's error

    def __call__(self, snap: Field) -> None:
        if self._mod0a is None:
            self._mod0a = np.abs(snap.values) ** self._params.alpha
        self._times.append(snap.t)
        try:
            self._rows.append(self._row(snap))
        except ExtractionError as e:
            self._error = self._error or e

    def _row(self, snap: Field) -> tuple[float, float, bool]:
        # |v| comes first: it raises where it vanishes, so |v| > 0 below.  The
        # floor is read from |v|, and then |v|^alpha is taken in its array
        p = self._params
        moda = nonvanishing_modulus(snap, out=self._moda)
        low = float(np.min(self._weight * moda))
        moda **= p.alpha
        f_sup, decays = self._balance(snap.t, moda)
        return (1.0 - p.b * snap.t) ** (p.gauge_exponent / p.alpha) / low, f_sup, decays

    def _balance(self, t: float, moda: np.ndarray) -> tuple[float, bool]:
        # the correction sup and the pointwise decay check, both from |v|^alpha
        p = self._params
        f = balance_correction(t, moda, self._mod0a, p)
        f_sup = float(np.max(np.abs(f, out=f)))
        cap = np.minimum(self._tail, p.b * horizon_gauge(t, p), out=f)
        cap *= 1.0 + p.sup_limit
        return f_sup, not np.any(moda > np.multiply(cap, 1.0 + 1e-12, out=cap))

    def report(self) -> MonitorReport:
        """The monitors over every snapshot fed so far.

        Raises ``ExtractionError`` for the first snapshot whose modulus vanishes.
        """
        if self._error is not None:
            raise self._error
        now3, f_sup, decays = zip(*self._rows)
        phi3, f_sup = np.maximum.accumulate(now3), np.array(f_sup)  # the running sup
        return MonitorReport(
            times=np.array(self._times),
            phi3=phi3,
            f_sup=f_sup,
            max_order=DEFAULT_MAX_ORDER,
            data_constant=self._K,
            psi_ratio=float(phi3[-1] / phi3[0]),
            f_within_quarter=bool(np.max(f_sup) <= CORRECTION_BOUND),
            decay_pointwise=all(decays),
        )


def monitor_phi(traj: Trajectory, v0: Field, n: int) -> MonitorReport:
    """Evaluate the weighted running-sup monitors over a rescaled-frame run.

    Per snapshot: the compensated reciprocal of the floor of <x>^n |v|, ``n``
    the data's weight order, whose running sup is ``phi3``, and the sup of
    the ``correction_algebraic`` field; and the pointwise two-sided decay
    check against the data constant K of ``v0``.  Flags classify; nothing raises on a broken bound since a
    coefficient below the regime threshold breaks them legitimately.  A
    vanishing modulus raises ``ExtractionError`` for the first such snapshot.

    This is the library route: a :class:`SnapshotMonitor` fed the
    trajectory's snapshots after the run.  ``simulate`` and
    ``verify-theorem`` feed one during the run instead, through ``run``'s
    ``on_snapshot``; the report is the same bit for bit.
    """
    if traj.frame != "v":
        raise ValueError("monitors are defined on rescaled-frame trajectories")
    if not traj.snapshots:
        raise ValueError("no snapshots")
    monitor = SnapshotMonitor(v0, n, traj.params)
    for snap in traj.snapshots:
        monitor(snap)
    return monitor.report()


def mass_dissipation_ok(traj: Trajectory) -> tuple[bool, float]:
    """Check per-step mass monotonicity; returns (ok, worst relative growth)."""
    l2 = np.asarray(traj.l2, dtype=float)
    if l2.size < 2:
        return True, 0.0
    growth = (l2[1:] - l2[:-1]) / np.where(l2[:-1] > 0, l2[:-1], 1.0)
    worst = float(np.max(growth))
    return bool(np.all(growth <= MASS_SLACK)), worst


def verify_checks(traj: Trajectory, n: int) -> tuple:
    """A run's profile, bridge series, profile-error series and the verdict's checks.

    The profile and error series are None where the profile cannot be
    extracted; the profile check then carries the error.
    """
    profile = errors = None
    try:
        profile = finalize_profile(traj)
    except ExtractionError as e:
        # far below the regime the horizon limit does not exist; classify,
        # do not crash
        profile_check = {"slope_l2": None, "slope_sup": None, "error": str(e)}
    else:
        errors = error_series(traj, profile)
        profile_check = check_profile_error(*errors)
    series = norm_bridge(traj)
    try:
        l2_check = check_l2_envelope(series, traj.params, n)
    except ValueError as e:  # too few samples in the last decade to fit
        l2_check = {"error": str(e)}
    mass_ok, mass_worst = mass_dissipation_ok(traj)
    checks = {
        "sup_limit": check_sup_limit(series, traj.params),
        "l2_envelope": l2_check,
        "profile_error": profile_check,
        "mass_dissipation": {"ok": mass_ok, "worst_growth": mass_worst},
    }
    return profile, series, errors, checks


def write_csv(path: Path, header, rows) -> None:
    """Write one CSV table: the header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit_report(out_dir, traj: Trajectory,
                monitor: MonitorReport | None = None) -> tuple[Path, Path]:
    """Write report.json (reports) and report.csv (per-snapshot series).

    CSV columns: t, gauge (rescaled frame; empty otherwise), l2, linf, then
    phi3/f_sup when a monitor report is attached.  One row per
    snapshot, from the norms the run recorded at its step: no snapshot is
    read.
    """
    if not len(traj.snapshot_times):
        raise ValueError("no snapshots")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times, steps = traj.snapshot_times, traj.snapshot_steps
    gauge = 1.0 - traj.params.b * times if traj.frame == "v" else np.full(times.shape, "")
    cols = {"t": times, "gauge": gauge, "l2": traj.l2[steps], "linf": traj.linf[steps]}
    if monitor is not None:
        cols.update(phi3=monitor.phi3, f_sup=monitor.f_sup)
    csv_path = out / "report.csv"
    write_csv(csv_path, list(cols), zip(*(c.tolist() for c in cols.values())))

    doc = {
        "schema_version": REPORT_SCHEMA,
        "frame": traj.frame,
        "params": traj.params.to_dict(),
        "snapshots": len(traj.snapshot_times),
        "monitor": monitor.as_dict() if monitor is not None else None,
    }
    json_path = out / "report.json"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return json_path, csv_path

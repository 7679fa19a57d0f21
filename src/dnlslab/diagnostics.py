"""Rate fitting, decay-limit checks, and truncated weighted monitors.

Everything here is read-only over trajectories.  The monitors classify a
run (compliant / non-compliant with the large-coefficient regime); they
never raise on a broken bound.  Fits and limit checks return plain report
structures that ``emit_report`` serializes to JSON plus a per-snapshot CSV.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from collections.abc import Callable, Sequence
from concurrent.futures import Future, wait
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
from .field import (
    DEFAULT_MAX_ORDER,
    Field,
    Grid,
    LadderWorkspace,
    data_bound,
    derivative_moduli,
    derivative_orders,
)
from .params import ExponentSet, PhysParams
from .solver import MASS_SLACK, Trajectory

MIN_FIT_SAMPLES = 8
REPORT_SCHEMA = 3
# Grid points from which SnapshotMonitor computes its rows on one thread beside
# the caller; numpy's FFT releases the GIL.  verify-theorem with that thread
# against without, on 2 CPUs (Xeon, Python 3.11, numpy 2.4; the ref2d config,
# 49 snapshots, medians of 10 alternating rounds): 2-D M = 64 took 1.07x as
# long, M = 128 0.77x, M = 256 0.61x, and the 1-D ref1d config (M = 2048)
# 1.09x.  So 2-D grids from 128^2 up use the thread.  Each monitor has one,
# also in every `sweep --jobs K` worker process: 4-point 2-D sweeps on 2
# workers took as long with it as without (10 alternating pairs, medians:
# M = 128 0.57 against 0.54 s, M = 256 2.01 against 2.00 s).
THREAD_FLOOR = 128 * 128


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit of a positive series in log-log."""

    exponent: float
    prefactor: float
    window: tuple[float, float]
    residual: float
    samples: int

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise ValueError("fit window is empty")
        if self.samples < MIN_FIT_SAMPLES:
            raise ValueError(
                f"power-law fit needs at least {MIN_FIT_SAMPLES} samples, got {self.samples}"
            )

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
    """Truncated weighted running suprema and pointwise-decay classification."""

    times: np.ndarray
    phi1: np.ndarray
    phi3: np.ndarray
    phi4: np.ndarray
    psi: np.ndarray
    f_sup: np.ndarray
    max_order: int
    data_constant: float
    psi_bounded: bool
    psi_ratio: float
    f_within_quarter: bool
    decay_pointwise: bool
    label: str = "truncated"

    def as_dict(self) -> dict:
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items}


def _cpu_count() -> int:
    # the CPUs this process may run on; os.cpu_count where affinity is unknown
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _now(fn, *args) -> Future:
    # fn(*args) run on the calling thread, its result or error in a done future
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as e:
        future.set_exception(e)
    return future


class SnapshotMonitor:
    """The weighted running-sup monitors of a rescaled-frame run, fed snapshot by snapshot.

    Call the monitor with each snapshot in schedule order, the initial state
    first (``run``'s ``on_snapshot`` does), then take ``report()``.  With
    ``save``, snapshot i goes to ``save(snap, i)`` as it is fed, on the
    calling thread, and a failed save raises there.  Each row is then
    computed on the calling thread before the feed returns, except on a grid
    of at least ``THREAD_FLOOR`` points, with more than one CPU and the
    sequence ``snapshots`` the fed snapshots are appended to: there the row
    is queued for one thread, holding only its index, and reads
    ``snapshots[i]`` when it starts, so a feed never waits.  ``report()``
    computes every queued row that thread has not started on the calling
    thread, beside it.  Either way each row is computed once and the running
    maxima are reduced in snapshot order, so the report is the same bit for
    bit.  A row's error waits for ``report()``, and later snapshots are
    still fed and saved.  Use it as a context manager: leaving the block
    cancels the rows that have not started, so a failing run does not wait
    for them.
    """

    def __init__(self, v0: Field, exps: ExponentSet, params: PhysParams,
                 max_order: int = DEFAULT_MAX_ORDER, snapshots: Sequence[Field] | None = None,
                 save: Callable[[Field, int], object] | None = None):
        self._v0, self._exps, self._params, self._max_order = v0, exps, params, max_order
        self._snapshots, self._save = snapshots, save
        self._orders = derivative_orders(v0.grid.dim, max_order)
        self._weight = v0.grid.bracket_pow(exps.n)
        self._mod0a = None
        self._times: list[float] = []
        self._fed: list[Future] = []  # each snapshot's row, in snapshot order
        self._pool, submit = None, _now
        if snapshots is not None and np.prod(v0.grid.shape) >= THREAD_FLOOR and _cpu_count() > 1:
            # imported here, so a process that never threads never loads it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1)
            submit = self._pool.submit
        self._bound = submit(self._data_bound)  # the data constant and the decay tail

    def __enter__(self) -> "SnapshotMonitor":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
        self.__dict__.pop("_workspace", None)  # a monitor kept past its block holds no ladder

    def __call__(self, snap: Field) -> None:
        if self._mod0a is None:
            self._mod0a = np.abs(snap.values) ** self._params.alpha
        i = len(self._times)
        if self._save is not None:
            self._save(snap, i)
        self._times.append(snap.t)
        self._fed.append(_now(self._row, snap) if self._pool is None
                         else self._pool.submit(self._queued_row, i))

    @functools.cached_property
    def _workspace(self) -> LadderWorkspace:
        # built on the first thread that needs it, never on an idle one
        return LadderWorkspace(self._v0.grid)

    def _data_bound(self) -> tuple[float, np.ndarray]:
        # the data constant K and the tail of the pointwise decay bound
        p, n = self._params, self._exps.n
        K = data_bound(self._v0, n, self._max_order, self._workspace)
        return K, 2.0 * K**p.alpha * self._v0.grid.bracket() ** (-n * p.alpha)

    def _queued_row(self, i: int) -> tuple:
        return self._row(self._snapshots[i])

    def _row(self, snap: Field) -> tuple[float, float, float, float, bool]:
        # reads only its argument, the arrays fixed before the first row and
        # its thread's workspace, each modulus before the ladder advances.  |v|
        # comes first: it raises where it vanishes, so |v| > 0 below
        p, exps = self._params, self._exps
        mod = nonvanishing_modulus(snap)
        f_sup, decays = self._balance(snap.t, mod)
        g = 1.0 - p.b * snap.t
        scratch, weight = self._workspace.scratch, self._weight
        now1 = now4 = 0.0
        for beta, mod_d in derivative_moduli(snap, self._orders, self._workspace):
            sig = exps.sigma_j(sum(beta))
            now1 = max(now1, g**sig * float(np.max(np.multiply(weight, mod_d, out=scratch))))
            now4 = max(now4, g**sig * float(np.max(np.divide(mod_d, mod, out=scratch))))
        low = float(np.min(np.multiply(weight, mod, out=scratch)))
        now3 = g ** (p.gauge_exponent / p.alpha) / low
        return now1, now3, now4, f_sup, decays

    def _balance(self, t: float, mod: np.ndarray) -> tuple[float, bool]:
        # the correction sup and the pointwise decay check, both from |v|^alpha;
        # its temporaries are gone before the derivative ladder starts
        p = self._params
        moda = mod**p.alpha
        f = balance_correction(t, moda, self._mod0a, p)
        f_sup = float(np.max(np.abs(f, out=f)))
        cap = np.minimum(self._bound.result()[1], p.b * horizon_gauge(t, p), out=f)
        cap *= 1.0 + p.sup_limit
        return f_sup, not np.any(moda > np.multiply(cap, 1.0 + 1e-12, out=cap))

    def report(self) -> MonitorReport:
        """The monitors over every snapshot fed so far.

        Computes each queued row that no thread has started on the calling
        thread.  Raises the first error of the data constant, then of the rows
        in snapshot order: ``ExtractionError`` for the first snapshot whose
        modulus vanishes.  Every row is done first.
        """
        for i, row in enumerate(self._fed):
            if row.cancel():  # not started: its thread is busy with earlier rows
                self._fed[i] = _now(self._queued_row, i)
        wait(self._fed)  # so that no row is running when one raises
        K = self._bound.result()[0]
        now1, now3, now4, f_sup, decays = zip(*(row.result() for row in self._fed))
        phi = np.maximum.accumulate([now1, now3, now4], axis=1)  # the running maxima
        psi, f_sup = phi.max(axis=0), np.array(f_sup)
        return MonitorReport(
            times=np.array(self._times),
            phi1=phi[0],
            phi3=phi[1],
            phi4=phi[2],
            psi=psi,
            f_sup=f_sup,
            max_order=self._max_order,
            data_constant=K,
            psi_bounded=bool(np.isfinite(psi[-1])),
            psi_ratio=float(psi[-1] / psi[0]),
            f_within_quarter=bool(np.max(f_sup) <= CORRECTION_BOUND),
            decay_pointwise=all(decays),
        )


def monitor_phi(
    traj: Trajectory,
    v0: Field,
    exps: ExponentSet,
    max_order: int = DEFAULT_MAX_ORDER,
) -> MonitorReport:
    """Evaluate the weighted running-sup monitors over a rescaled-frame run.

    Per snapshot: the weighted derivative sup ladder (orders <= max_order,
    compensated by gauge^{sigma_j}), the compensated reciprocal of the
    weighted modulus floor, the logarithmic-derivative ladder, and the sup
    of the ``correction_algebraic`` field; their running maxima, and the
    pointwise two-sided decay check against the constructed-data constant.
    Flags classify; nothing raises on a broken bound since a coefficient
    below the regime threshold breaks them legitimately.  A vanishing
    modulus raises ``ExtractionError`` for the first such snapshot.

    This is the library route: a :class:`SnapshotMonitor` fed the
    trajectory's snapshots after the run.  ``simulate`` and
    ``verify-theorem`` feed one during the run instead, through ``run``'s
    ``on_snapshot``; the report is the same bit for bit.
    """
    if traj.frame != "v":
        raise ValueError("monitors are defined on rescaled-frame trajectories")
    if not traj.snapshots:
        raise ValueError("no snapshots")
    with SnapshotMonitor(v0, exps, traj.params, max_order, traj.snapshots) as monitor:
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


def emit_report(
    out_dir,
    traj: Trajectory,
    monitor: MonitorReport | None = None,
    checks: dict[str, dict] | None = None,
    profile_meta: dict | None = None,
) -> tuple[Path, Path]:
    """Write report.json (reports) and report.csv (per-snapshot series).

    CSV columns: t, gauge (rescaled frame; empty otherwise), l2, linf, then
    phi1/phi3/phi4/psi/f_sup when a monitor report is attached.  One row per
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
        cols.update(phi1=monitor.phi1, phi3=monitor.phi3, phi4=monitor.phi4, psi=monitor.psi,
                    f_sup=monitor.f_sup)
    csv_path = out / "report.csv"
    write_csv(csv_path, list(cols), zip(*(c.tolist() for c in cols.values())))

    doc = {
        "schema_version": REPORT_SCHEMA,
        "frame": traj.frame,
        "params": traj.params.to_dict(),
        "snapshots": len(traj.snapshot_times),
        "monitor": monitor.as_dict() if monitor is not None else None,
        "checks": checks or {},
        "profile": profile_meta,
    }
    json_path = out / "report.json"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return json_path, csv_path

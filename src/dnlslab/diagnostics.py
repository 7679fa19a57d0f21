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
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .asymptotics import (
    CORRECTION_BOUND,
    balance_correction,
    horizon_gauge,
    nonvanishing_modulus,
)
from .conformal import NormSeries
from .field import (
    DEFAULT_MAX_ORDER,
    Field,
    Grid,
    LadderWorkspace,
    data_bound,
    derivative_moduli,
    derivative_orders,
    l2_norm,
    sup_norm,
)
from .params import ExponentSet, PhysParams
from .solver import MASS_SLACK, Trajectory

MIN_FIT_SAMPLES = 8
REPORT_SCHEMA = 2
# Grid points from which SnapshotMonitor computes its rows on one thread per
# CPU, up to MAX_THREADS; numpy's FFT releases the GIL.  Two threads against one
# on 2 CPUs (Xeon, Python 3.11, numpy 2.4; 49 snapshots, medians of 10
# alternating rounds): 2-D M = 64 took 1.3-1.4x as long, M = 128 0.85-0.95x,
# M = 256 0.77-0.84x, and 1-D M = 2048 1.1-1.6x.  So 2-D grids from 128^2
# up use the threads.
THREAD_FLOOR = 128 * 128
# Only two threads were measured.  Each keeps a ladder workspace (4.5 MiB at
# 256^2, plus up to 2.1 MiB a row), and every `sweep --jobs K` worker process runs
# its own monitor, so the cap bounds both peak RSS and the thread count.  On
# the same 2 CPUs, 4-point 2-D sweeps on 2 workers took no longer with the
# worker monitors on two threads than on one (10 alternating pairs, medians:
# M = 128 1.40 against 1.49 s, M = 256 5.56 against 5.86 s).
MAX_THREADS = 2


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
    lt, lv = np.log(t), np.log(v)
    design = np.column_stack([lt, np.ones_like(lt)])
    coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
    resid = lv - design @ coef
    return RateFit(
        exponent=float(coef[0]),
        prefactor=float(np.exp(coef[1])),
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
    f_within_quarter: bool
    decay_pointwise: bool
    label: str = "truncated"
    extras: dict = dc_field(default_factory=dict)

    @property
    def psi_ratio(self) -> float:
        return float(self.psi[-1] / self.psi[0])

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "phi1": self.phi1.tolist(),
            "phi3": self.phi3.tolist(),
            "phi4": self.phi4.tolist(),
            "psi": self.psi.tolist(),
            "f_sup": self.f_sup.tolist(),
            "max_order": self.max_order,
            "data_constant": self.data_constant,
            "psi_bounded": self.psi_bounded,
            "psi_ratio": self.psi_ratio,
            "f_within_quarter": self.f_within_quarter,
            "decay_pointwise": self.decay_pointwise,
            "label": self.label,
            "extras": self.extras,
        }


def _cpu_count() -> int:
    # the CPUs this process may run on; os.cpu_count where affinity is unknown
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SnapshotMonitor:
    """The weighted running-sup monitors of a rescaled-frame run, fed snapshot by snapshot.

    Call the monitor with each snapshot in schedule order, the initial state
    first (``run``'s ``on_snapshot`` does), then take ``report()``.  On a
    grid of at least ``THREAD_FLOOR`` points, with more than one CPU, each
    snapshot's row starts on a pool of one thread per CPU, at most
    ``MAX_THREADS``, as soon as the snapshot arrives, so the rows overlap
    whatever the caller does next.  Otherwise ``report()`` computes the rows
    fed since the last report on the calling thread, so their arrays never
    sit beside a running solve's.  Either way each row is computed once and
    the running maxima are reduced in snapshot order, so the report is the
    same bit for bit.  Use it as a context manager: leaving the block
    cancels the rows that have not started, so a failing run does not wait
    for them.
    """

    def __init__(self, v0: Field, exps: ExponentSet, params: PhysParams,
                 max_order: int = DEFAULT_MAX_ORDER):
        self._v0, self._exps, self._params, self._max_order = v0, exps, params, max_order
        self._orders = derivative_orders(v0.grid.dim, max_order)
        self._weight = v0.grid.bracket_pow(exps.n)
        self._mod0a = None
        self._times: list[float] = []
        self._rows: list[tuple] = []  # the rows report() has collected, in snapshot order
        self._fed = []  # the rest: each one's future on the threads, else its snapshot
        self._pool = None
        self._bound = Future()  # the data constant and the decay tail
        workers = min(_cpu_count(), MAX_THREADS) if np.prod(v0.grid.shape) >= THREAD_FLOOR else 1
        if workers > 1:
            # imported here, so a process that never threads never loads it
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=workers)
            self._bound = self._pool.submit(self._data_bound)

    def __enter__(self) -> "SnapshotMonitor":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
        self.__dict__.pop("_workspace", None)  # a monitor kept past its block holds no ladder

    def __call__(self, snap: Field) -> None:
        if self._mod0a is None:
            self._mod0a = np.abs(snap.values) ** self._params.alpha
        self._times.append(snap.t)
        self._fed.append(snap if self._pool is None else self._pool.submit(self._row, snap))

    @functools.cached_property
    def _workspace(self) -> LadderWorkspace:
        # built on the first thread that needs it, never on an idle one
        return LadderWorkspace(self._v0.grid)

    def _data_bound(self) -> tuple[float, np.ndarray]:
        # the data constant K and the tail of the pointwise decay bound
        p, n = self._params, self._exps.n
        K = data_bound(self._v0, n, self._max_order, self._workspace)
        return K, 2.0 * K**p.alpha * self._v0.grid.bracket_pow(-n * p.alpha)

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
        now3 = g ** (p.gauge_exponent / p.alpha) / float(np.min(weight * mod))
        return now1, now3, now4, f_sup, decays

    def _balance(self, t: float, mod: np.ndarray) -> tuple[float, bool]:
        # the correction sup and the pointwise decay check, both from |v|^alpha;
        # its temporaries are gone before the derivative ladder starts
        p = self._params
        moda = mod**p.alpha
        f_sup = float(np.max(np.abs(balance_correction(t, moda, self._mod0a, p))))
        cap = (1.0 + p.sup_limit) * np.minimum(self._bound.result()[1], p.b * horizon_gauge(t, p))
        return f_sup, not np.any(moda > cap * (1.0 + 1e-12))

    def report(self) -> MonitorReport:
        """The monitors over every snapshot fed so far.

        Raises the first error of the data constant, then of the rows in
        snapshot order: ``ExtractionError`` for the first snapshot whose
        modulus vanishes.
        """
        if self._pool is None and not self._bound.done():
            self._bound.set_result(self._data_bound())
        K = self._bound.result()[0]
        # each row fed since the last report, once: computed here, or awaited
        collect = self._row if self._pool is None else Future.result
        self._rows += [collect(item) for item in self._fed]
        self._fed.clear()
        rows = self._rows
        phi1, phi3, phi4, psi = [], [], [], []
        r1 = r3 = r4 = 0.0
        for now1, now3, now4, _, _ in rows:
            r1, r3, r4 = max(r1, now1), max(r3, now3), max(r4, now4)
            phi1.append(r1)
            phi3.append(r3)
            phi4.append(r4)
            psi.append(max(r1, r3, r4))
        psi = np.array(psi)
        f_arr = np.array([row[3] for row in rows])
        return MonitorReport(
            times=np.array(self._times),
            phi1=np.array(phi1),
            phi3=np.array(phi3),
            phi4=np.array(phi4),
            psi=psi,
            f_sup=f_arr,
            max_order=self._max_order,
            data_constant=K,
            psi_bounded=bool(np.isfinite(psi[-1])),
            f_within_quarter=bool(np.max(f_arr) <= CORRECTION_BOUND),
            decay_pointwise=all(row[4] for row in rows),
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
    with SnapshotMonitor(v0, exps, traj.params, max_order) as monitor:
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


def emit_report(
    out_dir,
    traj: Trajectory,
    monitor: MonitorReport | None = None,
    fits: dict[str, RateFit] | None = None,
    checks: dict[str, dict] | None = None,
    profile_meta: dict | None = None,
) -> tuple[Path, Path]:
    """Write report.json (reports) and report.csv (per-snapshot series).

    CSV columns: t, gauge (rescaled frame; empty otherwise), l2, linf, then
    phi1/phi3/phi4/psi/f_sup when a monitor report is attached.  One row per
    snapshot.
    """
    if not traj.snapshots:
        raise ValueError("no snapshots")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = traj.params

    rows = []
    for i, snap in enumerate(traj.snapshots):
        row = {
            "t": snap.t,
            "gauge": 1.0 - p.b * snap.t if traj.frame == "v" else "",
            "l2": l2_norm(snap),
            "linf": sup_norm(snap),
        }
        if monitor is not None:
            row.update(
                phi1=monitor.phi1[i],
                phi3=monitor.phi3[i],
                phi4=monitor.phi4[i],
                psi=monitor.psi[i],
                f_sup=monitor.f_sup[i],
            )
        rows.append(row)

    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)

    doc = {
        "schema_version": REPORT_SCHEMA,
        "frame": traj.frame,
        "params": p.to_dict(),
        "snapshots": len(traj.snapshots),
        "monitor": monitor.as_dict() if monitor is not None else None,
        "fits": {k: v.as_dict() for k, v in (fits or {}).items()},
        "checks": checks or {},
        "profile": profile_meta,
    }
    json_path = out / "report.json"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return json_path, csv_path

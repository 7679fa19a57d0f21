"""Command-line orchestration: single runs, verdicts, sweeps, plot tables.

Config files are JSON with explicit fields (no positional physics), see
``config.build_run`` for the schema.  Exit codes: 0 success, 2 configuration,
3 numerical failure, 4 I/O.  The output root is --out, else the config's
"out", else the DNLSLAB_OUT environment variable, else ./runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .asymptotics import (
    CORRECTION_BOUND,
    ExtractionError,
    crossover_time,
    error_metric,
    finalize_profile,
    load_profile,
    modulus_envelope,
    save_profile,
)
from .config import ConfigError, RunConfig, build_run, find_line, load_config, out_root
from .conformal import norm_bridge, physical_time, to_u_frame
from .diagnostics import (
    SnapshotMonitor,
    check_l2_envelope,
    check_sup_limit,
    emit_report,
    fit_power_law,
    l2_envelope_exponent,
    mass_dissipation_ok,
)
from .field import DEFAULT_MAX_ORDER, save_field
from .params import synthesize_exponents
from .solver import MASS_SLACK, NumericalError, run

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 2, 3, 4
VERDICT_SCHEMA = 2
# The verdict's gates: (check, quantity, bound), each holding while value <= bound.
GATES = (
    ("sup_limit", "deviation_u", 0.05),
    ("l2_envelope", "exponent_deviation", 0.10),
    ("l2_envelope", "band_ratio", 2.0),
    ("profile_error", "slope_l2", -0.05),
    ("profile_error", "slope_sup", -0.05),
)


def decide(checks: dict, monitors: dict) -> tuple[str, list[dict]]:
    """The verdict on a run's checks and regime flags, with every reason against it.

    Sets each gated check's "ok".  The verdict is "pass" when every gate
    holds, else "not in theorem regime" when a regime flag is broken, else
    "fail".  ``reasons`` lists each broken gate with its value and bound, one
    entry per check that carries an "error", and each broken flag, whatever
    the verdict.
    """
    reasons = []
    for name in dict.fromkeys(check for check, _, _ in GATES):
        check = checks[name]
        if "error" in check:
            reasons.append({"check": name, "error": check["error"]})
            check["ok"] = False
            check["error"] = check.pop("error")  # "ok" precedes "error" in report.json
            continue
        broken = [{"check": name, "quantity": q, "value": check[q], "bound": bound}
                  for c, q, bound in GATES
                  if c == name and (check[q] is None or not check[q] <= bound)]
        check["ok"] = not broken
        reasons += broken
    mass = checks["mass_dissipation"]
    flags = (
        ("mass_dissipation", mass["ok"], {"value": mass["worst_growth"], "bound": MASS_SLACK}),
        ("f_within_quarter", monitors["f_within_quarter"],
         {"value": monitors["f_max"], "bound": CORRECTION_BOUND}),
        ("decay_pointwise", monitors["decay_pointwise"], {}),
        ("psi_bounded", monitors["psi_bounded"], {}),
    )
    broken_flags = [{"flag": flag, **detail} for flag, ok, detail in flags if not ok]
    if not reasons:
        verdict = "pass"
    elif broken_flags:
        verdict = "not in theorem regime"
    else:
        verdict = "fail"
    return verdict, reasons + broken_flags


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_norms(out: Path, traj) -> None:
    cols = {"t": traj.times, "dt": traj.dts, "l2": traj.l2, "linf": traj.linf}
    if traj.wsup is not None:
        cols.update(wsup=traj.wsup, winf=traj.winf)
    _write_csv(out / "norms.csv", list(cols), zip(*(c.tolist() for c in cols.values())))


def _write_snapshots(out: Path, traj) -> None:
    for i, snap in enumerate(traj.snapshots):
        save_field(snap, out / "snapshots" / f"snap_{i:04d}")


def _echo_config(out: Path, doc: dict) -> None:
    echo = {k: v for k, v in doc.items() if k != "out"}
    (out / "run_config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def _simulate_and_dump(rc: RunConfig, doc: dict, on_snapshot=None):
    """Run the configured simulation and write config echo, norms and snapshots.

    ``on_snapshot`` is handed to ``run``: the monitor, fed each snapshot as
    the solver takes it.
    """
    traj = run(rc.initial, rc.solver, rc.params, exps=rc.exps, on_snapshot=on_snapshot)
    rc.out.mkdir(parents=True, exist_ok=True)
    _echo_config(rc.out, doc)
    _write_norms(rc.out, traj)
    _write_snapshots(rc.out, traj)
    return traj


def _simulate_monitored(rc: RunConfig, doc: dict, max_order: int):
    """``_simulate_and_dump`` feeding a ``SnapshotMonitor``, then the monitor report.

    Each snapshot goes to the monitor as the solver takes it.  Where the
    monitor runs on threads its rows overlap the solve, and a solver error
    cancels those not started; elsewhere ``report()`` computes them once
    the run is dumped.  Either way a vanishing modulus raises
    ExtractionError once the run is dumped, before anything else is written.
    """
    with SnapshotMonitor(rc.initial, rc.exps, rc.params, max_order) as monitoring:
        traj = _simulate_and_dump(rc, doc, monitoring)
        return traj, monitoring.report()


def cmd_simulate(cfg_path, out_override, max_order: int) -> int:
    doc, text = load_config(cfg_path)
    rc = build_run(doc, cfg_path, text, out_override)
    if rc.solver.frame == "v" and rc.exps is not None:  # exps exist only for Im(lam) < 0
        traj, monitor = _simulate_monitored(rc, doc, max_order)
    else:
        traj, monitor = _simulate_and_dump(rc, doc), None
    emit_report(rc.out, traj, monitor=monitor)
    print(f"simulate: {len(traj.times) - 1} steps, artifacts in {rc.out}")
    return EXIT_OK


def _profile_error_series(traj, profile):
    # t, L2 error and sup error at each snapshot from t = 1 on
    b = traj.params.b
    rows = [(t, *error_metric(to_u_frame(snap, b), profile)) for snap in traj.snapshots
            if (t := physical_time(snap.t, b)) >= 1.0]
    return np.array(rows, dtype=float).reshape(-1, 3).T


def run_pipeline(doc: dict, text: str, cfg_path, out_override, max_order: int) -> dict:
    """simulate -> monitors -> profile -> bridge -> checks -> verdict; writes all artifacts."""
    rc = build_run(doc, cfg_path, text, out_override)
    if rc.solver.frame != "v" or rc.params.lam.imag >= 0:
        raise ConfigError(cfg_path, find_line(text, "frame"),
                          "theorem verification needs a rescaled-frame dissipative run")
    if rc.exps is None:
        raise ConfigError(cfg_path, find_line(text, "data"),
                          'theorem verification needs a weight order: data "n" '
                          'or an "exponents" section')
    # a vanishing modulus exits 3 before any profile or bridge artifact
    traj, monitor = _simulate_monitored(rc, doc, max_order)
    out = rc.out
    profile = None
    extraction_error = None
    try:
        profile = finalize_profile(traj)
        save_profile(profile, out / "profile")
    except ExtractionError as e:
        # far below the regime the horizon limit does not exist; classify,
        # do not crash
        extraction_error = str(e)

    series = norm_bridge(traj)
    _write_csv(out / "bridge.csv", ["s", "t", "l2", "linf"],
               zip(series.s.tolist(), series.t.tolist(), series.l2.tolist(), series.linf.tolist()))

    sup_check = check_sup_limit(series, rc.params)
    try:
        l2_check = check_l2_envelope(series, rc.params, rc.exps.n)
    except ValueError as e:  # too few samples in the last decade to fit
        l2_check = {"error": str(e)}

    slope_l2 = slope_sup = None
    if profile is not None:
        ts, e2s, einfs = _profile_error_series(traj, profile)
        _write_csv(out / "error_metric.csv", ["t", "err_l2_compensated", "err_sup_compensated"],
                   zip(ts.tolist(), e2s.tolist(), einfs.tolist()))
        try:  # ts.max() raises ValueError too, on a run that never reaches t = 1
            window = (float(ts.max() / 10.0), float(ts.max()))
            slope_l2 = fit_power_law(ts, e2s, window).exponent
            slope_sup = fit_power_law(ts, einfs, window).exponent
        except ValueError:
            pass  # too few samples, or degenerate errors (exact profile); leave unset

    mass_ok, mass_worst = mass_dissipation_ok(traj)
    profile_check = {"slope_l2": slope_l2, "slope_sup": slope_sup}
    if extraction_error is not None:
        profile_check["error"] = extraction_error
    checks = {
        "sup_limit": sup_check,
        "l2_envelope": l2_check,
        "profile_error": profile_check,
        "mass_dissipation": {"ok": mass_ok, "worst_growth": mass_worst},
    }
    monitors = {
        "f_max": float(np.max(monitor.f_sup)),
        "f_within_quarter": monitor.f_within_quarter,
        "decay_pointwise": monitor.decay_pointwise,
        "psi_bounded": monitor.psi_bounded,
        "psi_ratio": monitor.psi_ratio,
    }
    verdict, reasons = decide(checks, monitors)
    strict_ref = synthesize_exponents(rc.params)
    doc_out = {
        "schema_version": VERDICT_SCHEMA,
        "verdict": verdict,
        "reasons": reasons,
        "compliant_regime": not any("flag" in r for r in reasons),
        "crossover_time": crossover_time(rc.params),
        "checks": checks,
        "monitors": monitors,
        "exponents": {
            **asdict(rc.exps),
            "strict_reference": {k: getattr(strict_ref, k) for k in ("k", "n", "m", "J")},
        },
        "profile_meta": profile.meta if profile is not None
        else {"extraction_error": extraction_error},
    }
    (out / "verdict.json").write_text(json.dumps(doc_out, indent=2, sort_keys=True) + "\n")
    emit_report(out, traj, monitor=monitor, checks=checks,
                profile_meta=doc_out["profile_meta"])
    return doc_out


def cmd_verify_theorem(cfg_path, out_override, max_order: int) -> int:
    doc, text = load_config(cfg_path)
    result = run_pipeline(doc, text, cfg_path, out_override, max_order)
    print(f"verdict: {result['verdict']}")
    return EXIT_OK


SWEEP_AXES = ("alpha", "lam", "b", "n")
# sweep.csv result columns, each with its dotted key path into the verdict
SWEEP_RESULTS = (
    ("verdict", "verdict"),
    ("sup_target", "checks.sup_limit.target_u"),
    ("sup_deviation", "checks.sup_limit.deviation_u"),
    ("l2_target", "checks.l2_envelope.target_exponent"),
    ("l2_fitted", "checks.l2_envelope.fitted.exponent"),
    ("band_ratio", "checks.l2_envelope.band_ratio"),
    ("slope_l2", "checks.profile_error.slope_l2"),
    ("slope_sup", "checks.profile_error.slope_sup"),
    ("f_max", "monitors.f_max"),
    ("f_within_quarter", "monitors.f_within_quarter"),
    ("decay_pointwise", "monitors.decay_pointwise"),
)


def _render_sweep(base: dict, combo: dict) -> dict:
    doc = json.loads(json.dumps(base))  # deep copy
    for key in ("alpha", "lam", "b"):
        if key in combo:
            doc["phys"][key] = combo[key]
    if "n" in combo:
        doc.setdefault("data", {})["n"] = combo["n"]
        if "exponents" in doc and doc["exponents"].get("n") is not None:
            doc["exponents"]["n"] = combo["n"]
    return doc


def _sweep_worker(task):
    index, doc, out_dir, max_order = task
    row = {
        "run": f"run_{index:03d}",
        "alpha": doc["phys"]["alpha"],
        "lam_re": doc["phys"]["lam"][0],
        "lam_im": doc["phys"]["lam"][1],
        "b": doc["phys"]["b"],
        "n": doc.get("data", {}).get("n"),
    }
    try:
        text = json.dumps(doc, indent=2)
        result = run_pipeline(doc, text, f"<sweep:{index}>",
                              Path(out_dir) / row["run"], max_order)
        # a key an errored check lacks reads None, an empty cell
        row.update({col: functools.reduce(lambda d, k: (d or {}).get(k), path.split("."), result)
                    for col, path in SWEEP_RESULTS}, status="ok")
    except Exception as e:  # per-run failures must not kill the sweep
        row.update({col: "" for col, _ in SWEEP_RESULTS}, status=f"error: {type(e).__name__}: {e}")
    return index, row


def cmd_sweep(cfg_path, out_override, jobs: int, max_order: int) -> int:
    doc, text = load_config(cfg_path)
    if "base" not in doc or "grid" not in doc:
        raise ConfigError(cfg_path, 1, 'sweep config needs "base" and "grid" sections')
    base, grid = doc["base"], doc["grid"]
    axes = [(k, grid[k]) for k in SWEEP_AXES if k in grid]
    if not axes or any(len(vals) == 0 for _, vals in axes):
        raise ConfigError(cfg_path, find_line(text, "grid"), "sweep grid is empty")
    combos = [dict(zip([k for k, _ in axes], values))
              for values in itertools.product(*[vals for _, vals in axes])]

    out = out_root(out_override, doc) / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(i, _render_sweep(base, combo), str(out), max_order)
             for i, combo in enumerate(combos)]
    if jobs <= 1:
        results = [_sweep_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    results.sort(key=lambda pair: pair[0])

    rows = [row for _, row in results]
    agg = out / "sweep.csv"
    with open(agg, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} runs, {failures} failed, table in {agg}")
    return EXIT_OK


PSI_SLICE_GAUGES = (1e-1, 1e-2, 1e-3, 1e-4)


def cmd_plot_data(run_dir, out_override=None) -> int:
    """Emit long-format CSV tables from a verify run's artifacts.

    plots/compensated.csv: t, series in {sup_compensated, l2_compensated}, value
    plots/errors.csv:      t, series in {err_l2_compensated, err_sup_compensated}, value
    plots/psi_slices.csv:  gauge, x, psi  (slices of the modulus envelope)
    """
    root = Path(run_dir)
    verdict_path = root / "verdict.json"
    bridge_path = root / "bridge.csv"
    err_path = root / "error_metric.csv"
    prof_dir = root / "profile"
    for needed in (verdict_path, bridge_path, err_path, prof_dir):
        if not needed.exists():
            raise FileNotFoundError(f"missing run artifact: {needed}")
    profile = load_profile(prof_dir)
    params = profile.params
    n_weight = json.loads(verdict_path.read_text())["exponents"]["n"]
    e = l2_envelope_exponent(params, n_weight)

    out = Path(out_override) if out_override else root / "plots"
    out.mkdir(parents=True, exist_ok=True)

    with open(bridge_path) as fh:
        bridge = [(float(r["t"]), float(r["l2"]), float(r["linf"])) for r in csv.DictReader(fh)]
    _write_csv(out / "compensated.csv", ["t", "series", "value"], [
        row for t, l2v, linfv in bridge if t > 0
        for row in ((t, "sup_compensated", t * linfv**params.alpha),
                    (t, "l2_compensated", (1.0 + params.b * t) ** e * l2v))])

    with open(err_path) as fh:
        err_rows = list(csv.DictReader(fh))
    _write_csv(out / "errors.csv", ["t", "series", "value"], [
        (float(r["t"]), series, float(r[series])) for r in err_rows
        for series in ("err_l2_compensated", "err_sup_compensated")])

    grid = profile.reference.grid
    axis = grid.axes()[0]
    slices = []
    for gauge in PSI_SLICE_GAUGES:
        psi = modulus_envelope((1.0 - gauge) / params.b, profile)
        if grid.dim > 1:
            centre = tuple(m // 2 for m in grid.points[1:])
            psi = psi[(slice(None),) + centre]
        slices += [(float(gauge), float(x), float(val)) for x, val in zip(axis, psi)]
    _write_csv(out / "psi_slices.csv", ["gauge", "x", "psi"], slices)
    print(f"plot-data: tables in {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dnlslab",
        description="Dissipative NLS laboratory: simulate, verify, sweep, plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--config", required=True)
    run_args.add_argument("--out", default=None)
    run_args.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)

    sub.add_parser("simulate", parents=[run_args],
                   help="run one simulation and dump artifacts")
    sub.add_parser("verify-theorem", parents=[run_args], help="full pipeline with a verdict")
    p_swp = sub.add_parser("sweep", parents=[run_args], help="grid of runs, aggregated CSV")
    p_swp.add_argument("--jobs", type=int, default=1)

    p_plt = sub.add_parser("plot-data", help="plot-ready tables from run artifacts")
    p_plt.add_argument("run_dir")
    p_plt.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.max_order)
        if args.command == "verify-theorem":
            return cmd_verify_theorem(args.config, args.out, args.max_order)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.jobs, args.max_order)
        if args.command == "plot-data":
            return cmd_plot_data(args.run_dir, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ExtractionError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

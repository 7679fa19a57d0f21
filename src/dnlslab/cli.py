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
import shutil
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (
    CORRECTION_BOUND,
    ExtractionError,
    crossover_time,
    load_profile,
    modulus_envelope,
    save_profile,
)
from .config import ConfigError, RunConfig, build_run, key_line, load_config, out_root
from .diagnostics import (
    SnapshotMonitor,
    emit_report,
    l2_envelope_exponent,
    verify_checks,
    write_csv,
)
from .field import SnapshotStore
from .params import hypotheses, synthesize_exponents
from .solver import MASS_SLACK, NumericalError, run

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 2, 3, 4
VERDICT_SCHEMA = 5
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
    )
    broken_flags = [{"flag": flag, **detail} for flag, ok, detail in flags if not ok]
    if not reasons:
        verdict = "pass"
    elif broken_flags:
        verdict = "not in theorem regime"
    else:
        verdict = "fail"
    return verdict, reasons + broken_flags


def _write_norms(out: Path, traj) -> None:
    cols = {"t": traj.times, "dt": traj.dts, "l2": traj.l2, "linf": traj.linf}
    write_csv(out / "norms.csv", list(cols), zip(*(c.tolist() for c in cols.values())))


def _echo_config(out: Path, doc: dict) -> None:
    echo = {k: v for k, v in doc.items() if k != "out"}
    (out / "run_config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def _simulate(rc: RunConfig, doc: dict):
    """Run the configured simulation, dump it into ``rc.out``; the trajectory and monitor report.

    Each snapshot is written as the solver appends it.  A run that
    ``build_run`` found monitored (``rc.unmonitored`` is None) feeds each
    snapshot to a ``SnapshotMonitor`` too, which computes its row there.
    Any other run's report is None.  The dump (config echo, norms,
    snapshots) is staged and reaches ``rc.out`` once the run is over, so a
    solver or I/O error leaves no ``rc.out``.  Then the report is taken: a
    vanishing modulus raises ExtractionError.
    """
    monitored = rc.unmonitored is None
    with SnapshotStore.staged(rc.out) as store:
        monitor = SnapshotMonitor(rc.initial, rc.n, rc.params) if monitored else None
        traj = run(rc.initial, rc.solver, rc.params, on_snapshot=monitor, snapshots=store)
        _echo_config(store.directory.parent, doc)
        _write_norms(store.directory.parent, traj)
        store.publish(rc.out)
    return traj, monitor.report() if monitored else None


def cmd_simulate(cfg_path, out_override) -> int:
    doc, text = load_config(cfg_path)
    rc = build_run(doc, cfg_path, text, out_override)
    traj, monitor = _simulate(rc, doc)
    emit_report(rc.out, traj, monitor=monitor)
    print(f"simulate: {len(traj.times) - 1} steps, artifacts in {rc.out}")
    return EXIT_OK


def run_pipeline(doc: dict, text: str, cfg_path, out_override) -> dict:
    """simulate -> monitors -> profile -> bridge -> checks -> verdict; writes all artifacts.

    The run is published first.  Its profile, bridge series, checks and error
    series are computed once the monitor's report is in: a vanishing modulus
    exits 3 before any of them exists.  A run without a profile removes the
    one an earlier run left in ``rc.out``.
    """
    rc = build_run(doc, cfg_path, text, out_override)
    if rc.unmonitored is not None:
        raise ConfigError(cfg_path, key_line(text, *rc.unmonitored), "theorem verification needs "
                          'a v-frame, dissipative (Im(lam) < 0) run from t = 0 with a weight '
                          'order, data "n"')
    traj, monitor = _simulate(rc, doc)
    profile, series, errors, checks = verify_checks(traj, rc.n)
    out = rc.out
    if profile is not None:
        save_profile(profile, out / "profile")
        write_csv(out / "error_metric.csv", ["t", "err_l2_compensated", "err_sup_compensated"],
                  zip(*(e.tolist() for e in errors)))
    else:
        shutil.rmtree(out / "profile", ignore_errors=True)
        (out / "error_metric.csv").unlink(missing_ok=True)
    write_csv(out / "bridge.csv", ["s", "t", "l2", "linf"],
              zip(series.s.tolist(), series.t.tolist(), series.l2.tolist(), series.linf.tolist()))
    monitors = {
        "f_max": float(np.max(monitor.f_sup)),
        "f_within_quarter": monitor.f_within_quarter,
        "decay_pointwise": monitor.decay_pointwise,
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
        "hypotheses": hypotheses(rc.params, rc.n),
        "exponents": {
            "n": rc.n,
            "strict_reference": {k: getattr(strict_ref, k) for k in ("k", "n", "m", "J")},
        },
        "profile_meta": profile.meta if profile is not None
        else {"extraction_error": checks["profile_error"]["error"]},
    }
    (out / "verdict.json").write_text(json.dumps(doc_out, indent=2, sort_keys=True) + "\n")
    emit_report(out, traj, monitor=monitor)
    return doc_out


def cmd_verify_theorem(cfg_path, out_override) -> int:
    doc, text = load_config(cfg_path)
    result = run_pipeline(doc, text, cfg_path, out_override)
    print(f"verdict: {result['verdict']}")
    return EXIT_OK


# each sweep axis, with the config section it sets
SWEEP_AXES = {"alpha": "phys", "lam": "phys", "b": "phys", "n": "data"}
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


def _sweep_worker(task):
    """Verify one sweep point; its row, each axis value as JSON, or an error row."""
    index, base, combo, out_dir = task
    row = {"run": f"run_{index:03d}", **{axis: json.dumps(v) for axis, v in combo.items()}}
    try:
        doc = json.loads(json.dumps(base))  # deep copy
        for axis, value in combo.items():
            section = SWEEP_AXES[axis]
            if doc.get(section) is None:  # a null section reads as absent
                doc[section] = {}
            if isinstance(doc[section], dict):  # build_run refuses any other
                doc[section][axis] = value
        text = json.dumps(doc, indent=2)
        result = run_pipeline(doc, text, f"<sweep:{index}>", Path(out_dir) / row["run"])
        # a key an errored check lacks reads None, an empty cell
        row.update({col: functools.reduce(lambda d, k: (d or {}).get(k), path.split("."), result)
                    for col, path in SWEEP_RESULTS}, status="ok")
    except Exception as e:  # per-run failures must not kill the sweep
        row.update({col: "" for col, _ in SWEEP_RESULTS}, status=f"error: {type(e).__name__}: {e}")
    return row


def cmd_sweep(cfg_path, out_override, jobs: int) -> int:
    doc, text = load_config(cfg_path)
    for section in ("base", "grid"):
        if not (isinstance(doc.get(section), dict) and doc[section]):
            raise ConfigError(cfg_path, key_line(text, section),
                              f'sweep config needs a non-empty "{section}" object')
    base, grid = doc["base"], doc["grid"]
    for axis, values in grid.items():
        if axis not in SWEEP_AXES or not (isinstance(values, list) and values):
            raise ConfigError(cfg_path, key_line(text, "grid", axis),
                              f'grid "{axis}" must be a non-empty list on an axis of '
                              f'{list(SWEEP_AXES)}')
    # the table's order, whatever the grid's, numbers the points
    axes = [axis for axis in SWEEP_AXES if axis in grid]
    combos = [dict(zip(axes, values)) for values in itertools.product(*(grid[a] for a in axes))]

    out = out_root(out_override, doc) / "sweep"
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(i, base, combo, str(out)) for i, combo in enumerate(combos)]
    if jobs <= 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        # imported here, so a process that never pools never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))  # in the tasks' order
    agg = out / "sweep.csv"
    write_csv(agg, list(rows[0]), [row.values() for row in rows])
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {len(rows)} runs, {failures} failed, table in {agg}")
    return EXIT_OK


PSI_SLICE_GAUGES = (1e-1, 1e-2, 1e-3, 1e-4)


def _read_artifact(path: Path, read):
    """``read(path)``; a missing or malformed run artifact is an OSError that names it."""
    if not path.exists():
        raise FileNotFoundError(f"missing run artifact: {path}")
    try:
        return read(path)
    except (ArithmeticError, LookupError, TypeError, ValueError) as e:
        raise OSError(f"malformed run artifact {path}: {e!r}") from e


def cmd_plot_data(run_dir, out_override=None) -> int:
    """Emit long-format CSV tables from a verify run's artifacts.

    plots/compensated.csv: t, series in {sup_compensated, l2_compensated}, value
    plots/errors.csv:      t, series in {err_l2_compensated, err_sup_compensated}, value
    plots/psi_slices.csv:  gauge, x, psi  (slices of the modulus envelope)
    """
    root = Path(run_dir)
    profile = _read_artifact(root / "profile", load_profile)
    params = profile.params
    e = _read_artifact(root / "verdict.json", lambda p: l2_envelope_exponent(
        params, json.loads(p.read_text())["exponents"]["n"]))
    bridge = _read_artifact(root / "bridge.csv", lambda p: [
        (float(r["t"]), float(r["l2"]), float(r["linf"]))
        for r in csv.DictReader(p.read_text().splitlines())])
    errors = _read_artifact(root / "error_metric.csv", lambda p: [
        (float(r["t"]), series, float(r[series]))
        for r in csv.DictReader(p.read_text().splitlines())
        for series in ("err_l2_compensated", "err_sup_compensated")])

    out = Path(out_override) if out_override else root / "plots"
    out.mkdir(parents=True, exist_ok=True)

    write_csv(out / "compensated.csv", ["t", "series", "value"], [
        row for t, l2v, linfv in bridge if t > 0
        for row in ((t, "sup_compensated", t * linfv**params.alpha),
                    (t, "l2_compensated", (1.0 + params.b * t) ** e * l2v))])
    write_csv(out / "errors.csv", ["t", "series", "value"], errors)

    grid = profile.reference.grid
    axis = grid.axes()[0]
    slices = []
    for gauge in PSI_SLICE_GAUGES:
        psi = modulus_envelope((1.0 - gauge) / params.b, profile)
        if grid.dim > 1:
            centre = tuple(m // 2 for m in grid.points[1:])
            psi = psi[(slice(None),) + centre]
        slices += [(float(gauge), float(x), float(val)) for x, val in zip(axis, psi)]
    write_csv(out / "psi_slices.csv", ["gauge", "x", "psi"], slices)
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
    run_args.add_argument("--out")

    sub.add_parser("simulate", parents=[run_args],
                   help="run one simulation and dump artifacts")
    sub.add_parser("verify-theorem", parents=[run_args], help="full pipeline with a verdict")
    p_swp = sub.add_parser("sweep", parents=[run_args], help="grid of runs, aggregated CSV")
    p_swp.add_argument("--jobs", type=int, default=1)

    p_plt = sub.add_parser("plot-data", help="plot-ready tables from run artifacts")
    p_plt.add_argument("run_dir")
    p_plt.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "verify-theorem":
            return cmd_verify_theorem(args.config, args.out)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.jobs)
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

"""End-to-end command-line coverage: configs, verdicts, sweeps, plot tables."""

import concurrent.futures
import contextlib
import csv
import functools
import io
import json
import operator
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dnlslab import cli, diagnostics, solver
from dnlslab.asymptotics import ExtractionError
from dnlslab.cli import main
from dnlslab.diagnostics import SnapshotMonitor, monitor_phi
from dnlslab.field import Field, Grid, load_field, save_field
from dnlslab.solver import UnstableSolutionError

PASS_CONFIG = {
    "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, -1.0], "b": 20.0},
    "grid": {"L": 30.0, "M": 512, "boundary_tol": 1e-4},
    "solver": {"frame": "v", "dt0": 5e-4, "c_adapt": 0.02,
               "horizon_floor": 3e-6, "snapshot_count": 49},
    "data": {"c": 1.0, "n": 5},
}


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def anchor(cfg, key):
    """The path:line prefix a ConfigError about ``key`` carries."""
    needle = '"' + key + '"'
    line = next(i for i, s in enumerate(cfg.read_text().splitlines(), 1) if needle in s)
    return f"{cfg}:{line}:"


@pytest.fixture(scope="module")
def pass_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify_pass")
    cfg = write_config(root / "cfg.json", PASS_CONFIG)
    out = root / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
    return out


# --- config validation ---


def test_malformed_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "phys": {"N": 1,,}\n}\n')
    assert main(["simulate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2" in err


def test_missing_section_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"phys": PASS_CONFIG["phys"]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert 'missing section "solver"' in capsys.readouterr().err


def test_horizon_t_end_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["phys"]["b"] = 4.0
    doc["solver"]["t_end"] = 0.3
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "horizon" in capsys.readouterr().err


def test_amplifying_lambda_rejected(tmp_path, capsys):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["phys"]["lam"] = [0.0, 1.0]
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["verify-theorem", "--config", str(cfg)]) == 2
    assert "Im(lam)" in capsys.readouterr().err


def test_snapshot_data_without_weight_rejected(tmp_path, capsys):
    g = Grid.line(30.0, 64)
    save_field(Field(g, g.bracket() ** -5.0 + 0j, "v", 0.0), tmp_path / "v0")
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"snapshot": str(tmp_path / "v0")}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "data") in err and "weight order" in err
    assert not out.exists()


def _schema_99(base):
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**meta, "schema_version": 99}))


def _short_payload(base):
    raw = base.with_suffix(".bin").read_bytes()
    base.with_suffix(".bin").write_bytes(raw[:-16])  # one sample short of the grid


@pytest.mark.parametrize("spoil,message", [(_schema_99, "unsupported snapshot schema 99"),
                                           (_short_payload, "does not match grid size")])
def test_unreadable_snapshot_data_exit_2(tmp_path, capsys, spoil, message):
    g = Grid.line(30.0, 64)
    save_field(Field(g, g.bracket() ** -5.0 + 0j, "v", 0.0), tmp_path / "v0")
    spoil(tmp_path / "v0")
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"n": 5, "snapshot": str(tmp_path / "v0")}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "snapshot") in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value,anchored", [
    ("grid", "boundary_tol", 1e-8, "grid"),  # the default: <30>^-5 is 4.1e-8 of the peak
    ("data", "c", 0.0, "c"),
    # cancels c <x>^-5 at the grid point x = 0
    ("data", "bump", [{"amp": [-1.0, 0.0], "center": [0.0], "width": 1.0}], "data"),
])
def test_unusable_initial_data_exit_2(tmp_path, capsys, section, key, value, anchored):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"]["M"] = 64
    doc[section][key] = value
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, anchored) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("dt0", -1.0), ("c_adapt", 0.0), ("horizon_floor", 1.5)])
def test_invalid_solver_value_exit_2(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["solver"][key] = value
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert anchor(cfg, "solver") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["strict", "fallback_sigma"])
def test_exponent_flags_must_be_json_booleans(tmp_path, capsys, key):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"]["M"] = 64
    doc["exponents"] = {"strict": False, "n": 5, "fallback_sigma": True, key: "no"}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, key) in err and f'{key} must be true or false, not "no"' in err
    assert not out.exists()


# --- the exit-code contract: 0, 2, 3 or 4 for every config, never a traceback ---

CONTRACT_CONFIG = {
    "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, -1.0], "b": 20.0},
    "grid": {"L": 30.0, "M": 64, "boundary_tol": 1e-2},
    "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2, "horizon_floor": 1e-2,
               "snapshot_count": 17},
    "data": {"c": 1.0, "n": 5, "bump": [{"amp": [0.01, 0.0], "center": [1.0], "width": 2.0}]},
}
# every scalar the config may set, as a path of keys into it
CONTRACT_PATHS = [
    *[("phys", key) for key in ("N", "alpha", "lam", "b")],
    *[("grid", key) for key in ("L", "M", "boundary_tol")],
    *[("solver", key) for key in ("frame", "dt0", "c_adapt", "horizon_floor", "t_end",
                                  "snapshot_count")],
    *[("data", key) for key in ("c", "n")],
    *[("data", "bump", 0, key) for key in ("amp", "center", "width")],
]
WRONG_TYPED = ["x", None, [1, 2], {"a": 1}]
BOUNDARY = [0, -1, -0.5]
PAST_HORIZON = [0.05, 0.1]  # t_end at 1/b and beyond it
# malformed configs pinned as explicit examples: each must exit 2 at a key
MALFORMED = [
    ((("phys", "N"), "x"),),
    ((("phys", "alpha"), "x"),),
    ((("phys", "b"), None),),
    ((("data", "n"), "x"),),
    ((("data", "c"), "abc"),),
    ((("data", "c"), [1, 2]),),
    ((("solver", "t_end"), "abc"),),
    ((("data", "bump", 0, "amp"), "zz"),),
    ((("solver", "t_end"), 0),),
    ((("solver", "t_end"), -1),),
    ((("solver", "frame"), "u"), (("solver", "t_end"), 0)),
    ((("solver", "frame"), "u"), (("solver", "t_end"), -1)),
]
COMMANDS = ("simulate", "verify-theorem")


def _with_malformed(test):
    for command in COMMANDS:
        for case in MALFORMED:
            test = example(command=command, case=case)(test)
    return test


@_with_malformed
@given(command=st.sampled_from(COMMANDS), case=st.one_of(
    st.tuples(st.tuples(st.sampled_from(CONTRACT_PATHS), st.sampled_from(WRONG_TYPED + BOUNDARY))),
    st.tuples(st.tuples(st.just(("solver", "t_end")), st.sampled_from(PAST_HORIZON))),
))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_config_exits_with_a_documented_code(tmp_path_factory, command, case):
    doc = json.loads(json.dumps(CONTRACT_CONFIG))
    for (*parents, key), value in case:
        functools.reduce(operator.getitem, parents, doc)[key] = value
    root = tmp_path_factory.mktemp("contract")
    cfg = write_config(root / "c.json", doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(root / "out")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert re.search(re.escape(str(cfg)) + r":\d+: ", err.getvalue())
    if case in MALFORMED:
        assert code == 2


# --- simulate ---


def test_free_gaussian_simulate_matches_oracle(tmp_path):
    g = Grid.line(20.0, 256)
    x = g.axes()[0]
    save_field(Field(g, np.exp(-(x**2)).astype(complex), "u", 0.0), tmp_path / "gauss0")
    doc = {
        "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, 0.0], "b": 0.0},
        "solver": {"frame": "u", "dt0": 0.005, "t_end": 1.0, "snapshot_count": 5},
        "data": {"snapshot": str(tmp_path / "gauss0")},
    }
    cfg = write_config(tmp_path / "free.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    with open(out / "norms.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 200
    assert abs(float(rows[0]["l2"]) - float(rows[-1]["l2"])) < 1e-12  # free flow conserves mass

    f = load_field(out / "snapshots" / "snap_0004")
    beta = 1.0 + 4.0j * f.t
    exact = np.exp(-(x**2) / beta) / np.sqrt(beta)
    assert np.max(np.abs(f.values - exact)) < 1e-9

    report = json.loads((out / "report.json").read_text())
    assert report["monitor"] is None
    assert report["snapshots"] == 5


def test_env_var_output_root(tmp_path, monkeypatch):
    g = Grid.line(20.0, 128)
    x = g.axes()[0]
    save_field(Field(g, np.exp(-(x**2)).astype(complex), "u", 0.0), tmp_path / "g0")
    doc = {
        "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, 0.0], "b": 0.0},
        "solver": {"frame": "u", "dt0": 0.01, "t_end": 0.1, "snapshot_count": 2},
        "data": {"snapshot": str(tmp_path / "g0")},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    monkeypatch.setenv("DNLSLAB_OUT", str(tmp_path / "envroot"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "norms.csv").exists()


# --- verify-theorem ---


def test_verify_pass_verdict(pass_run):
    doc = json.loads((pass_run / "verdict.json").read_text())
    assert doc["schema_version"] == 2
    assert doc["verdict"] == "pass"
    assert doc["reasons"] == []
    assert doc["compliant_regime"] is True
    for check in doc["checks"].values():
        assert check["ok"]
    assert doc["monitors"]["f_within_quarter"]
    # relaxed n = 5 run carries the strict reference synthesis alongside
    assert doc["exponents"]["n"] == 5
    assert doc["exponents"]["violations"]
    assert doc["exponents"]["strict_reference"] == {"k": 5, "n": 21, "m": 211, "J": 450}


def test_verify_artifacts_on_disk(pass_run):
    assert (pass_run / "profile" / "profile.json").exists()
    with open(pass_run / "bridge.csv") as fh:
        header = fh.readline().strip()
    assert header == "s,t,l2,linf"
    with open(pass_run / "error_metric.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 8
    snaps = sorted((pass_run / "snapshots").glob("snap_*.bin"))
    assert len(snaps) == 49


def test_tiny_b_classified_not_failed(tmp_path):
    doc = {
        "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, -1.0], "b": 0.01},
        "grid": {"L": 15.0, "M": 128, "boundary_tol": 1e-3},
        "solver": {"frame": "v", "dt0": 0.02, "c_adapt": 0.05,
                   "horizon_floor": 0.05, "snapshot_count": 25},
        "data": {"c": 1.0, "n": 5},
    }
    cfg = write_config(tmp_path / "tiny.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "not in theorem regime"
    assert verdict["compliant_regime"] is False
    assert not verdict["monitors"]["f_within_quarter"]


def short_decade_config(snapshots):
    # with few snapshots the step count of the last decade of t, where the
    # L2 envelope is fitted, falls below the fit's 8 samples
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"].update(M=64, boundary_tol=1e-2)
    doc["solver"].update(dt0=2e-3, c_adapt=0.2, horizon_floor=1e-2, snapshot_count=snapshots)
    return doc


@pytest.mark.parametrize("snapshots", [1, 3])
def test_short_last_decade_is_a_failed_check(tmp_path, snapshots):
    cfg = write_config(tmp_path / "c.json", short_decade_config(snapshots))
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    error = verdict["checks"]["l2_envelope"]["error"]
    assert "at least 8 samples" in error
    assert verdict["checks"]["l2_envelope"]["ok"] is False
    assert {"check": "l2_envelope", "error": error} in verdict["reasons"]
    assert verdict["verdict"] != "pass"


def test_verify_post_processing_holds_no_correction_series(tmp_path, monkeypatch):
    # everything after the simulation: monitor rows (below THREAD_FLOOR
    # report() computes them after the dump), profile, bridge, errors, report
    M, snapshots = 64, 65
    doc = {
        "phys": {"N": 2, "alpha": 0.8, "lam": [0.0, -1.0], "b": 20.0},
        "grid": {"L": 30.0, "M": M, "boundary_tol": 1e-2},
        "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2,
                   "horizon_floor": 1e-2, "snapshot_count": snapshots},
        "data": {"c": 1.0, "n": 5},
    }
    simulate = cli._simulate_and_dump

    def simulate_then_trace(rc, doc, monitoring):
        done = simulate(rc, doc, monitoring)
        tracemalloc.start()
        return done

    monkeypatch.setattr(cli, "_simulate_and_dump", simulate_then_trace)
    cfg = write_config(tmp_path / "c.json", doc)
    try:
        assert main(["verify-theorem", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    correction_bytes = 8 * M * M  # one real field per snapshot
    print(f"post-processing peak {peak / 1024:.0f} KiB; "
          f"a correction series would be {snapshots * correction_bytes / 1024:.0f} KiB")
    assert peak < snapshots * correction_bytes


# 2-D, 128^2 points: at THREAD_FLOOR, so the monitor rows run on a pool
THREADED_CONFIG = {
    "phys": {"N": 2, "alpha": 0.8, "lam": [0.0, -1.0], "b": 20.0},
    "grid": {"L": 30.0, "M": 128, "boundary_tol": 1e-2},
    "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2,
               "horizon_floor": 1e-2, "snapshot_count": 17},
    "data": {"c": 1.0, "n": 5},
}


def test_monitor_beside_the_solve_equals_monitor_phi(tmp_path, monkeypatch):
    pools, submitted, fed, at_run_end, kept = [], [], [], [], []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            submitted.append(args[0])
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    solve, simulate, feed = cli.run, cli._simulate_and_dump, SnapshotMonitor.__call__

    def counted_feed(self, snap):
        fed.append(snap.t)
        feed(self, snap)

    def counted_solve(*args, **kwargs):
        traj = solve(*args, **kwargs)
        at_run_end.append((len(submitted), len(fed)))
        return traj

    def keep(rc, *args):
        kept.append((rc, simulate(rc, *args)))
        return kept[-1][1]

    def library_route(*args, **kwargs):
        raise AssertionError("the CLI called monitor_phi")

    monkeypatch.setattr(SnapshotMonitor, "__call__", counted_feed)
    monkeypatch.setattr(cli, "run", counted_solve)
    monkeypatch.setattr(cli, "_simulate_and_dump", keep)
    monkeypatch.setattr(diagnostics, "monitor_phi", library_route)
    cfg = write_config(tmp_path / "c.json", THREADED_CONFIG)
    # two CPUs: the rows run on a pool; one CPU: no pool, report() computes them
    for cpus in ({0, 1}, {0}):
        for log in (pools, submitted, fed, at_run_end, kept):
            log.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / f"out{len(cpus)}"
        assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
        rc, traj = kept[0]
        # every snapshot was fed during the run, and none after it
        assert at_run_end[0][1] == len(traj.snapshots) == len(fed)
        if len(cpus) > 1:
            # the data constant and every row were handed to the pool during the run
            assert at_run_end[0][0] == 1 + len(traj.snapshots) == len(submitted)
        else:
            assert pools == [] and submitted == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        after = monitor_phi(traj, rc.initial, rc.exps)
        block = json.loads((out / "report.json").read_text())["monitor"]
        assert block == json.loads(json.dumps(after.as_dict()))


def test_solver_error_beside_a_busy_monitor_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fed, started = [], []
    feed, row, update = SnapshotMonitor.__call__, SnapshotMonitor._row, solver._nonlinear_update

    def counted_feed(self, snap):
        fed.append(snap.t)
        feed(self, snap)

    def slow_row(self, snap):
        started.append(snap.t)
        time.sleep(0.2)
        return row(self, snap)

    def failing_update(*args):
        if len(fed) >= 6:
            raise UnstableSolutionError("injected blow-up")
        return update(*args)

    monkeypatch.setattr(SnapshotMonitor, "__call__", counted_feed)
    monkeypatch.setattr(SnapshotMonitor, "_row", slow_row)
    monkeypatch.setattr(solver, "_nonlinear_update", failing_update)
    cfg = write_config(tmp_path / "c.json", THREADED_CONFIG)
    out = tmp_path / "out"
    codes = []
    verify = threading.Thread(daemon=True, target=lambda: codes.append(
        main(["verify-theorem", "--config", str(cfg), "--out", str(out)])))
    verify.start()
    verify.join(timeout=60)
    assert not verify.is_alive() and codes == [3]
    err = capsys.readouterr().err
    assert "numerical failure: injected blow-up" in err
    assert "Traceback" not in err
    # rows that had not started were cancelled, not waited for
    assert len(fed) == 6 and len(started) < len(fed)
    assert not out.exists()


def test_vanishing_modulus_beside_the_solve_exits_3_after_the_run(tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    check = diagnostics.nonvanishing_modulus

    def vanishing(snap):
        if snap.t > 0:
            raise ExtractionError(f"modulus vanishes on the grid at t = {snap.t:.6g}")
        return check(snap)

    monkeypatch.setattr(diagnostics, "nonvanishing_modulus", vanishing)
    cfg = write_config(tmp_path / "c.json", THREADED_CONFIG)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    # the first snapshot after the initial one, reported once the run is dumped
    first = json.loads((out / "snapshots" / "snap_0001.json").read_text())["time"]
    assert f"numerical failure: modulus vanishes on the grid at t = {first:.6g}\n" in err
    assert "Traceback" not in err
    assert (out / "norms.csv").exists() and len(list((out / "snapshots").glob("*.bin"))) == 17
    assert not (out / "profile").exists() and not (out / "bridge.csv").exists()


def test_verify_deterministic(tmp_path, pass_run):
    cfg = write_config(tmp_path / "cfg.json", PASS_CONFIG)
    out2 = tmp_path / "out2"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("verdict.json", "bridge.csv", "error_metric.csv", "norms.csv"):
        assert (out2 / name).read_bytes() == (pass_run / name).read_bytes()


# --- plot-data ---


def test_plot_data_tables(pass_run):
    assert main(["plot-data", str(pass_run)]) == 0
    plots = pass_run / "plots"
    with open(plots / "compensated.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(r["series"] for r in rows) == {"sup_compensated", "l2_compensated"}
    with open(plots / "errors.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(r["series"] for r in rows) == {
        "err_l2_compensated", "err_sup_compensated"
    }
    with open(plots / "psi_slices.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["gauge", "x", "psi"]
        gauges = sorted(set(float(r["gauge"]) for r in reader))
    assert gauges == [1e-4, 1e-3, 1e-2, 1e-1]


def test_plot_data_deterministic(pass_run, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["plot-data", str(pass_run), "--out", str(out_a)]) == 0
    assert main(["plot-data", str(pass_run), "--out", str(out_b)]) == 0
    for name in ("compensated.csv", "errors.csv", "psi_slices.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_plot_data_on_snapshot_run(pass_run, tmp_path):
    # verify from the stored initial snapshot, weight from "exponents": the
    # run repeats pass_run, so its plot tables must match byte for byte
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"snapshot": str(pass_run / "snapshots" / "snap_0000")}
    doc["exponents"] = {"strict": False, "n": 5, "fallback_sigma": True}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["plot-data", str(out)]) == 0
    assert main(["plot-data", str(pass_run), "--out", str(tmp_path / "ref")]) == 0
    for name in ("compensated.csv", "errors.csv", "psi_slices.csv"):
        assert (out / "plots" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_plot_data_missing_artifacts(tmp_path, capsys):
    assert main(["plot-data", str(tmp_path / "nowhere")]) == 4
    assert "missing run artifact" in capsys.readouterr().err


# --- sweep ---


def sweep_base():
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"]["M"] = 256
    doc["grid"]["boundary_tol"] = 1e-3
    doc["solver"]["dt0"] = 1e-3
    return doc


def test_sweep_re_lambda_targets_and_failure_tolerance(tmp_path):
    doc = {
        "base": sweep_base(),
        "grid": {"lam": [[-2.0, -1.0], [0.0, -1.0], [2.0, 1.0]]},
    }
    cfg = write_config(tmp_path / "sweep.json", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    with open(out / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    ok = [r for r in rows if r["status"] == "ok"]
    bad = [r for r in rows if r["status"].startswith("error:")]
    assert len(ok) == 2 and len(bad) == 1
    # the row names the exception class before its message
    assert bad[0]["status"].startswith("error: ConfigError: <sweep:2>:")
    assert "Im(lam) > 0" in bad[0]["status"]
    # the sup-norm limit ignores the real part of lambda
    assert set(r["sup_target"] for r in ok) == {"0.5"}
    assert all(r["verdict"] == "pass" for r in ok)


def test_one_point_sweep_matches_verify(tmp_path):
    base = sweep_base()
    cfg_v = write_config(tmp_path / "v.json", base)
    out_v = tmp_path / "out_v"
    assert main(["verify-theorem", "--config", str(cfg_v), "--out", str(out_v)]) == 0
    verdict = json.loads((out_v / "verdict.json").read_text())

    cfg_s = write_config(tmp_path / "s.json", {"base": base, "grid": {"b": [20.0]}})
    out_s = tmp_path / "out_s"
    assert main(["sweep", "--config", str(cfg_s), "--out", str(out_s)]) == 0
    with open(out_s / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["verdict"] == verdict["verdict"]
    assert float(rows[0]["sup_deviation"]) == verdict["checks"]["sup_limit"]["deviation_u"]


def test_sweep_row_with_an_errored_check(tmp_path):
    doc = {"base": short_decade_config(3), "grid": {"b": [20.0]}}
    cfg = write_config(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "sweep" / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "ok"
    assert row["verdict"] == "not in theorem regime"
    assert row["l2_target"] == row["l2_fitted"] == row["band_ratio"] == ""
    assert row["sup_deviation"] != ""


def test_empty_sweep_grid_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", {"base": sweep_base(), "grid": {"b": []}})
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "empty" in capsys.readouterr().err

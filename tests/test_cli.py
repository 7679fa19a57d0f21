"""End-to-end command-line coverage: configs, verdicts, sweeps, plot tables."""

import contextlib
import csv
import functools
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dnlslab import cli, diagnostics, field, solver
from dnlslab.asymptotics import ExtractionError
from dnlslab.cli import main
from dnlslab.config import ConfigError, build_run, key_line
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


def anchor(cfg, *path):
    """The path:line prefix a ConfigError about the key at ``path`` carries."""
    return f"{cfg}:{key_line(cfg.read_text(), *path)}:"


def written_key_lines(doc, *paths):
    """The lines of the keys at ``paths``, and of each key enclosing one, in ``doc`` as written.

    A key's value is swapped for a marker and the marker's line read: with
    write_config's indent the key and its value share that line.
    """
    lines = set()
    for path in paths:
        for depth in range(1, len(path) + 1):
            *parents, key = path[:depth]
            if isinstance(key, str):
                marked = json.loads(json.dumps(doc))
                functools.reduce(operator.getitem, parents, marked)[key] = "<anchor>"
                text = json.dumps(marked, indent=2)
                lines.add(next(i for i, s in enumerate(text.splitlines(), 1) if '"<anchor>"' in s))
    return lines


def series_times(out):
    """A run's snapshot times; loading field 0 checks that the payload holds every one."""
    load_field(out / "snapshots" / "series")
    return json.loads((out / "snapshots" / "series.json").read_text())["times"]


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


def _schema_1(base):
    # the sidecar of one snapshot file as it was before series: a single "time"
    meta = json.loads(base.with_suffix(".json").read_text())
    del meta["times"]
    base.with_suffix(".json").write_text(json.dumps({**meta, "schema_version": 1, "time": 0.0}))


def _short_of_three_fields(base):
    # the sidecar lists three fields, the payload holds two
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**meta, "times": [0.0, 0.01, 0.02]}))
    base.with_suffix(".bin").write_bytes(2 * base.with_suffix(".bin").read_bytes())


def _times_not_a_list(base):
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**meta, "times": 0.0}))


def _extents_not_a_list(base):
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**meta, "extents": 30.0}))


def _no_times(base):
    meta = json.loads(base.with_suffix(".json").read_text())
    del meta["times"]
    base.with_suffix(".json").write_text(json.dumps(meta))


def _u_frame_later(base):
    # a later u-frame state: only at t = 0 is it also the v-frame state
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(json.dumps({**meta, "frame": "u", "times": [0.01]}))


def _relabelled_2d(base):
    # the 64 samples read as an 8 x 8 grid, under the config's N = 1
    meta = json.loads(base.with_suffix(".json").read_text())
    base.with_suffix(".json").write_text(
        json.dumps({**meta, "points": [8, 8], "extents": [30.0, 30.0]}))


@pytest.mark.parametrize("spoil,message", [(_schema_99, "unsupported snapshot schema 99"),
                                           (_short_payload, "does not match grid size"),
                                           (_no_times, "snapshot sidecar lacks 'times'"),
                                           (_u_frame_later, "cannot start a v-frame run"),
                                           (_relabelled_2d, "dimension 2 does not match N = 1"),
                                           (_schema_1, "unsupported snapshot schema 1"),
                                           (_short_of_three_fields,
                                            "does not match grid size x 3 fields"),
                                           (_times_not_a_list, "'times' must be a list, not 0.0"),
                                           (_extents_not_a_list, "object is not iterable")])
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
    assert anchor(cfg, "data", "snapshot") in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("index", [1, -1])
def test_snapshot_index_out_of_range_exit_2(tmp_path, capsys, index):
    g = Grid.line(30.0, 64)
    save_field(Field(g, g.bracket() ** -5.0 + 0j, "v", 0.0), tmp_path / "v0")
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"n": 5, "snapshot": str(tmp_path / "v0"), "index": index}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "data", "index") in err
    assert f"snapshot index {index} is outside the series' 1 fields" in err
    assert "Traceback" not in err and not out.exists()


# anchored: the section, or the key in it, that the error names
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
    assert anchor(cfg, *((section,) if anchored == section else (section, anchored))) in err
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


def test_deep_2d_error_series_is_a_numerical_failure(tmp_path, capsys):
    # at gauge 1e-8 the rounding of t moves the lens grid off the profile's
    # co-moving stretch: a numerical failure, not a traceback
    doc = {
        "phys": {"N": 2, "alpha": 0.8, "lam": [0.0, -1.0], "b": 20.0},
        "grid": {"L": 30.0, "M": 32, "boundary_tol": 1e-3},
        "solver": {"frame": "v", "dt0": 5e-4, "c_adapt": 0.05,
                   "horizon_floor": 1e-8, "snapshot_count": 97},
        "data": {"c": 1.0, "n": 5},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: t = " in err and "co-moving stretch" in err
    assert "Traceback" not in err


def test_an_exponents_section_exits_2_naming_data_n(tmp_path, capsys):
    # the weight order is data.n alone; a section that still sets one is refused
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"]["M"] = 64
    doc["exponents"] = {"strict": False, "n": 5, "fallback_sigma": True}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "exponents") in err and "data.n" in err
    assert not out.exists()


def test_the_grid_has_n_axes_whatever_its_dim_says():
    # grid.dim is not a schema key: the grid is built with phys.N axes
    doc = json.loads(json.dumps(CONTRACT_CONFIG))
    doc["grid"]["dim"] = 2
    rc = build_run(doc, "c.json", json.dumps(doc, indent=2))
    assert rc.initial.grid.points == (64,)


@pytest.mark.parametrize("key", ["strict", "fallback_sigma"])
def test_exponent_flags_must_be_json_booleans(tmp_path, capsys, key):
    # a flag that is no JSON boolean is refused with the whole section
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["grid"]["M"] = 64
    doc["exponents"] = {"strict": False, "n": 5, "fallback_sigma": True, key: "no"}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "exponents") in err and "data.n" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("n", [0, -1])
def test_snapshot_data_needs_a_positive_weight(tmp_path, capsys, pass_run, n):
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"snapshot": str(pass_run / "snapshots" / "series"), "n": n}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "data", "n") in err and "n must be a positive integer" in err
    assert "Traceback" not in err and not out.exists()


def test_dissipative_config_outside_the_window_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(PASS_CONFIG))
    doc["phys"]["alpha"] = 2.5
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert anchor(cfg, "phys") in err and "alpha >= 2/N = 2" in err
    assert "Traceback" not in err and not out.exists()


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
# every section, and the bump list and its first entry: objects or a list of objects
CONTAINER_PATHS = [*[(section,) for section in ("phys", "grid", "solver", "data", "exponents")],
                   ("data", "bump"), ("data", "bump", 0)]
WRONG_TYPED = ["x", None, [1, 2], {"a": 1}]
BOUNDARY = [0, -1, -0.5]
PAST_HORIZON = [0.05, 0.1]  # t_end at 1/b and beyond it
# the contract config's bump and a second one beside it
BOTH_BUMPS = (("data", "bump"), [*CONTRACT_CONFIG["data"]["bump"],
                                 {"amp": [0.02, 0.0], "center": [-1.0], "width": 1.5}])
# malformed configs pinned as explicit examples: each must exit 2 at a key
MALFORMED = [
    ((("phys", "N"), "x"),),
    ((("phys", "N"), 10**400),),  # a grid of that many axes cannot be built
    ((("phys", "alpha"), "x"),),
    ((("phys", "b"), None),),
    ((("data", "n"), "x"),),
    ((("data", "c"), "abc"),),
    ((("data", "c"), [1, 2]),),
    ((("solver", "t_end"), "abc"),),
    ((("data", "bump", 0, "amp"), "zz"),),
    ((("data", "bump", 0, "amp"), "random"),),  # a bump's amp is a pair, never a draw
    ((("exponents",), {"n": 5}),),  # the weight order is data.n
    ((("solver", "t_end"), 0),),
    ((("solver", "t_end"), -1),),
    ((("solver", "frame"), "u"), (("solver", "t_end"), 0)),
    ((("solver", "frame"), "u"), (("solver", "t_end"), -1)),
    # 145 snapshots down to gauge 1e-12: the last lie closer than the stepper can land
    ((("solver", "horizon_floor"), 1e-12), (("solver", "snapshot_count"), 145)),
    # a bad key of a second bump exits 2 at that bump's key, not the first bump's
    *((BOTH_BUMPS, (("data", "bump", 1, key), value))
      for key, value in (("width", -1.0), ("amp", "zz"), ("center", 0))),
]
# configs a simulate runs but a theorem verification refuses: a run it cannot monitor
UNVERIFIABLE = [
    ((("phys", "lam"), [0.0, 0.0]),),
]
COMMANDS = ("simulate", "verify-theorem")


@pytest.mark.parametrize("path", CONTRACT_PATHS)
def test_no_config_value_is_a_json_boolean(path):
    # no key is boolean, and no boolean is a number
    doc = json.loads(json.dumps(CONTRACT_CONFIG))
    *parents, key = path
    functools.reduce(operator.getitem, parents, doc)[key] = True
    with pytest.raises(ConfigError, match=f"{key} must be .*, not true"):
        build_run(doc, "c.json", json.dumps(doc, indent=2))


def _with_malformed(test):
    for command in COMMANDS:
        for case in MALFORMED + UNVERIFIABLE:
            test = example(command=command, case=case)(test)
    return test


@_with_malformed
@given(command=st.sampled_from(COMMANDS), case=st.one_of(
    st.tuples(st.tuples(st.sampled_from(CONTRACT_PATHS), st.sampled_from(WRONG_TYPED + BOUNDARY))),
    st.tuples(st.tuples(st.just(("solver", "t_end")), st.sampled_from(PAST_HORIZON))),
    st.tuples(st.tuples(st.sampled_from(CONTAINER_PATHS),
                        st.sampled_from(WRONG_TYPED + [3, True, [{"a": 1}]]))),
))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_config_exits_with_a_documented_code(tmp_path_factory, command, case):
    doc = json.loads(json.dumps(CONTRACT_CONFIG))
    for (*parents, key), value in case:
        functools.reduce(operator.getitem, parents, doc)[key] = json.loads(json.dumps(value))
    root = tmp_path_factory.mktemp("contract")
    cfg = write_config(root / "c.json", doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(root / "out")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        # the line of an edited key, or of a key that encloses one
        line = re.search(re.escape(str(cfg)) + r":(\d+): ", err.getvalue())
        assert line and int(line[1]) in written_key_lines(doc, *(path for path, _ in case))
    if case in MALFORMED or (command == "verify-theorem" and case in UNVERIFIABLE):
        assert code == 2


# a sweep config's base and grid, each case's edits on a valid one-point sweep: each exits 2
# at a key, or 0 with one row per point, an error row where the point cannot run
SWEEP_CONTRACT = {
    "axis not a list": ({"grid": {"b": 20.0}}, 2, 'grid "b" must be a non-empty list'),
    "base without phys": ({"base": {k: v for k, v in CONTRACT_CONFIG.items() if k != "phys"}},
                          0, 'phys section needs "N"'),
    "lam not a pair": ({"grid": {"lam": [5]}}, 0, "lam must be a [re, im] pair, not 5"),
    "base not an object": ({"base": 3}, 2, 'sweep config needs a non-empty "base" object'),
    "null data, n axis": ({"base": {**CONTRACT_CONFIG, "data": None}, "grid": {"n": [5]}},
                          0, 'constructed data needs a leading coefficient "c"'),
    "grid not an object": ({"grid": [1]}, 2, 'sweep config needs a non-empty "grid" object'),
    "b not a number": ({"grid": {"b": ["x"]}}, 0, 'b must be a finite number, not "x"'),
    "unknown axis": ({"grid": {"b": [20.0], "B": [10.0]}}, 2,
                     'grid "B" must be a non-empty list on an axis of'),
    "empty axis": ({"grid": {"b": [20.0], "n": []}}, 2, 'grid "n" must be a non-empty list'),
    # the base's data.n follows its "grid" key; the error is the sweep grid's "n"
    "empty axis after the base's data": (
        {"base": {k: CONTRACT_CONFIG[k] for k in ("phys", "grid", "solver", "data")},
         "grid": {"n": []}}, 2, 'grid "n" must be a non-empty list'),
}


def test_key_line_finds_a_key_by_its_nesting():
    text = '{\n "out": "x\\"{[",\n "base": {"grid": {"n": 1}},\n "grid":\n {"n": [2]}\n}'
    assert key_line(text, "grid") == 4 and key_line(text, "grid", "n") == 5
    assert key_line(text, "base", "grid", "n") == 3 and key_line(text, "n") == 1
    # a list index counts the entries before it; the commas of a number list
    # before the list, of one inside an entry, and inside a string do not count
    text = ('{"data": {"lam": [0, -1], "bump": ["a,b",\n {"width": 1, "center": [1, 2]},\n'
            ' {"width": 2,\n  "amp": [0.1, 0]}]}}')
    assert key_line(text, "data", "bump", 1, "width") == 2
    assert key_line(text, "data", "bump", 2, "width") == 3
    assert key_line(text, "data", "bump", 2, "amp") == 4
    assert key_line(text, "data", "lam") == 1 and key_line(text, "data", "bump", 3, "width") == 1


@pytest.mark.parametrize("case", list(SWEEP_CONTRACT))
def test_every_sweep_config_exits_with_a_documented_code(tmp_path, capsys, case):
    edits, expected, message = SWEEP_CONTRACT[case]
    cfg = write_config(tmp_path / "s.json",
                       {"base": CONTRACT_CONFIG, "grid": {"b": [20.0]}, **edits})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == 2:
        line = re.search(re.escape(str(cfg)) + r":(\d+): ", err)
        assert line and message in err
        # the anchor is the sweep's own key: "base" or "grid" at the top, an axis in its grid
        key = re.search(r'"(\w+)"', message)[1]
        depth = 1 if key in ("base", "grid") else 2
        anchored = cfg.read_text().splitlines()[int(line[1]) - 1]
        assert anchored.startswith("  " * depth + f'"{key}": ')
    else:
        with open(out / "sweep" / "sweep.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"].startswith("error: ConfigError: <sweep:0>:")
        assert message in row["status"]


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

    f = load_field(out / "snapshots" / "series", 4)
    beta = 1.0 + 4.0j * f.t
    exact = np.exp(-(x**2) / beta) / np.sqrt(beta)
    assert np.max(np.abs(f.values - exact)) < 1e-9

    report = json.loads((out / "report.json").read_text())
    assert report["monitor"] is None
    assert report["snapshots"] == 5


def test_restart_from_a_series_index(tmp_path):
    # the free flow is exact: a run restarted from snapshot 2 of a series
    # ends where the run it came from ended
    g = Grid.line(20.0, 256)
    x = g.axes()[0]
    save_field(Field(g, np.exp(-(x**2)).astype(complex), "u", 0.0), tmp_path / "gauss0")
    doc = {
        "phys": {"N": 1, "alpha": 1.0, "lam": [0.0, 0.0], "b": 0.0},
        "solver": {"frame": "u", "dt0": 0.005, "t_end": 1.0, "snapshot_count": 5},
        "data": {"snapshot": str(tmp_path / "gauss0")},
    }
    first = tmp_path / "first"
    assert main(["simulate", "--config", str(write_config(tmp_path / "a.json", doc)),
                 "--out", str(first)]) == 0
    doc["data"] = {"snapshot": str(first / "snapshots" / "series"), "index": 2}
    doc["solver"]["snapshot_count"] = 3
    again = tmp_path / "again"
    assert main(["simulate", "--config", str(write_config(tmp_path / "b.json", doc)),
                 "--out", str(again)]) == 0
    restarted = series_times(again)
    assert len(restarted) == 3 and restarted[0] == series_times(first)[2] and restarted[-1] == 1.0
    start = load_field(again / "snapshots" / "series")
    assert start.values.tobytes() == load_field(first / "snapshots" / "series", 2).values.tobytes()
    end, expected = (load_field(out / "snapshots" / "series", 2 if out is again else 4)
                     for out in (again, first))
    assert end.t == expected.t == 1.0
    assert np.max(np.abs(end.values - expected.values)) < 1e-12


@pytest.mark.parametrize("N,alpha,M", [(1, 2.0, 64), (2, 1.0, 32)])
def test_simulate_at_n_alpha_two_in_oracle_mode(tmp_path, N, alpha, M):
    # N alpha = 2 makes the gauge exponent 0: the coefficient integrates to a logarithm
    doc = {
        "phys": {"N": N, "alpha": alpha, "lam": [1.0, 0.0], "b": 20.0},
        "grid": {"L": 30.0, "M": M, "boundary_tol": 1e-2},
        "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2, "horizon_floor": 1e-2,
                   "snapshot_count": 9},
        "data": {"c": 1.0, "n": 5},
    }
    cfg = write_config(tmp_path / "q0.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "norms.csv") as fh:
        l2 = [float(r["l2"]) for r in csv.DictReader(fh)]
    assert len(l2) > 10
    assert abs(l2[-1] / l2[0] - 1.0) < 1e-12  # Im lam = 0 conserves mass


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
    assert doc["schema_version"] == 5
    assert doc["verdict"] == "pass"
    assert doc["reasons"] == []
    assert doc["compliant_regime"] is True
    for check in doc["checks"].values():
        assert check["ok"]
    assert doc["monitors"]["f_within_quarter"]
    # the n = 5 run carries the strict reference synthesis alongside, and
    # lists the two weight hypotheses it breaks
    assert doc["exponents"] == {"n": 5, "strict_reference": {"k": 5, "n": 21, "m": 211, "J": 450}}
    assert [h["condition"] for h in doc["hypotheses"] if not h["holds"]] == [
        "n >= the strict bound", "sigma window at n is nonempty"]
    assert len(doc["hypotheses"]) == 5


def test_verify_artifacts_on_disk(pass_run):
    assert (pass_run / "profile" / "profile.json").exists()
    with open(pass_run / "bridge.csv") as fh:
        header = fh.readline().strip()
    assert header == "s,t,l2,linf"
    with open(pass_run / "error_metric.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 8
    assert sorted(p.name for p in (pass_run / "snapshots").iterdir()) == [
        "series.bin", "series.json"]
    assert len(json.loads((pass_run / "snapshots" / "series.json").read_text())["times"]) == 49
    # the profile's reference state is the run's initial snapshot, field 0 of the series
    payload = (pass_run / "snapshots" / "series.bin").read_bytes()
    assert payload[:len(payload) // 49] == (pass_run / "profile" / "reference.bin").read_bytes()
    # the checks and the profile meta are the verdict's, in verdict.json only
    report = json.loads((pass_run / "report.json").read_text())
    assert report["schema_version"] == 6 and not {"checks", "profile"} & set(report)


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


# 2-D, 64^2 points, 65 snapshots; the monitor rows run on the solve's thread
# as each snapshot is taken
VERIFY_2D_M, VERIFY_2D_SNAPSHOTS = 64, 65


@pytest.fixture(scope="module")
def verify_2d(tmp_path_factory):
    """A 2-D verify run, and the traced peak of everything from the start of its solve."""
    root = tmp_path_factory.mktemp("verify_2d")
    doc = {
        "phys": {"N": 2, "alpha": 0.8, "lam": [0.0, -1.0], "b": 20.0},
        "grid": {"L": 30.0, "M": VERIFY_2D_M, "boundary_tol": 1e-2},
        "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2,
                   "horizon_floor": 1e-2, "snapshot_count": VERIFY_2D_SNAPSHOTS},
        "data": {"c": 1.0, "n": 5},
    }
    # traced from the start of the solve, where the serial monitor rows run
    solve = cli.run

    def trace_then_solve(*args, **kwargs):
        tracemalloc.start()
        return solve(*args, **kwargs)

    cfg = write_config(root / "c.json", doc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "run", trace_then_solve)
        try:
            code = main(["verify-theorem", "--config", str(cfg), "--out", str(root / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, root / "o", peak


def test_verify_post_processing_holds_no_correction_series(verify_2d):
    # the solve with its monitor rows, then profile, bridge, errors, report
    code, _, peak = verify_2d
    assert code == 0
    correction_bytes = 8 * VERIFY_2D_M**2  # one real field per snapshot
    print(f"peak from the solve on {peak / 1024:.0f} KiB; a correction series would be "
          f"{VERIFY_2D_SNAPSHOTS * correction_bytes / 1024:.0f} KiB")
    assert peak < VERIFY_2D_SNAPSHOTS * correction_bytes


def test_verify_2d_reaches_a_verdict_then_plot_tables(verify_2d):
    code, out, _ = verify_2d
    assert code == 0
    doc = json.loads((out / "verdict.json").read_text())
    assert doc["verdict"] in ("pass", "fail", "not in theorem regime")
    assert (doc["verdict"] == "pass") == (doc["reasons"] == [])
    assert main(["plot-data", str(out)]) == 0
    for name in ("compensated.csv", "errors.csv", "psi_slices.csv"):
        with open(out / "plots" / name) as fh:
            assert len(list(csv.DictReader(fh))) > 0, name


# 2-D, 128^2 points
CONFIG_2D = {
    "phys": {"N": 2, "alpha": 0.8, "lam": [0.0, -1.0], "b": 20.0},
    "grid": {"L": 30.0, "M": 128, "boundary_tol": 1e-2},
    "solver": {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2,
               "horizon_floor": 1e-2, "snapshot_count": 17},
    "data": {"c": 1.0, "n": 5},
}


def test_a_monitored_run_leaves_only_the_reread_geometry_on_its_grid(tmp_path):
    # setup builds |x|^2, <x>, |k|^2 and the data's and decay tail's powers;
    # what stays cached is what the steps, records and rows read again
    doc = json.loads(json.dumps(CONFIG_2D))
    doc["solver"]["snapshot_count"] = 5
    rc = build_run(doc, "c.json", json.dumps(doc), tmp_path / "out")
    traj, report = cli._simulate(rc, doc)
    assert len(traj.snapshots) == 5 and report.times.size == 5
    assert set(rc.initial.grid.__dict__["_geometry"]) == {
        ("bracket_pow", 5), ("wavenumbers",)}


def test_monitor_fed_during_the_run_equals_monitor_phi(tmp_path, monkeypatch):
    fed, at_run_end, kept = [], [], []
    solve, simulate, feed = cli.run, cli._simulate, SnapshotMonitor.__call__

    def counted_feed(self, snap):
        fed.append(snap.t)
        feed(self, snap)

    def counted_solve(*args, **kwargs):
        traj = solve(*args, **kwargs)
        at_run_end.append(len(fed))
        return traj

    def keep(rc, *args):
        traj, report = simulate(rc, *args)
        kept.append((rc, traj))
        return traj, report

    def library_route(*args, **kwargs):
        raise AssertionError("the CLI called monitor_phi")

    monkeypatch.setattr(SnapshotMonitor, "__call__", counted_feed)
    monkeypatch.setattr(cli, "run", counted_solve)
    monkeypatch.setattr(cli, "_simulate", keep)
    monkeypatch.setattr(diagnostics, "monitor_phi", library_route)
    cfg = write_config(tmp_path / "c.json", CONFIG_2D)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
    rc, traj = kept[0]
    # every snapshot was fed during the run, and none after it
    assert at_run_end == [len(traj.snapshots)] == [len(fed)]
    after = monitor_phi(traj, rc.initial, rc.n)
    block = json.loads((out / "report.json").read_text())["monitor"]
    assert block == json.loads(json.dumps(after.as_dict()))


def test_solver_error_after_the_fed_rows_are_done_exits_3(tmp_path, monkeypatch, capsys):
    # each fed snapshot's row is done before the solve goes on, so the
    # failing step finds no row left to wait for
    fed, done = [], []
    feed, row, update = SnapshotMonitor.__call__, SnapshotMonitor._row, solver.nonlinear_substep_u

    def counted_feed(self, snap):
        fed.append(snap.t)
        feed(self, snap)

    def counted_row(self, snap):
        result = row(self, snap)
        done.append(snap.t)
        return result

    def failing_update(*args):
        if len(fed) >= 6:
            assert done == fed
            raise UnstableSolutionError("injected blow-up")
        return update(*args)

    monkeypatch.setattr(SnapshotMonitor, "__call__", counted_feed)
    monkeypatch.setattr(SnapshotMonitor, "_row", counted_row)
    monkeypatch.setattr(solver, "nonlinear_substep_u", failing_update)
    cfg = write_config(tmp_path / "c.json", CONFIG_2D)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: injected blow-up" in err
    assert "Traceback" not in err
    assert len(fed) == len(done) == 6
    assert not out.exists()


def _vanishing_modulus(monkeypatch):
    check = diagnostics.nonvanishing_modulus

    def vanishing(snap, out=None):
        if snap.t > 0:
            raise ExtractionError(f"modulus vanishes on the grid at t = {snap.t:.6g}")
        return check(snap, out)

    monkeypatch.setattr(diagnostics, "nonvanishing_modulus", vanishing)


def test_vanishing_modulus_beside_the_solve_exits_3_after_the_run(tmp_path, monkeypatch,
                                                                   capsys):
    _vanishing_modulus(monkeypatch)
    cfg = write_config(tmp_path / "c.json", CONFIG_2D)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    # the first snapshot after the initial one, reported once the run is dumped
    times = series_times(out)
    assert f"numerical failure: modulus vanishes on the grid at t = {times[1]:.6g}\n" in err
    assert "Traceback" not in err
    assert (out / "norms.csv").exists() and len(times) == 17
    # the profile, bridge and error series are computed only once the
    # monitor's report is in
    for name in ("profile", "bridge.csv", "error_metric.csv", "verdict.json"):
        assert not (out / name).exists(), name


def test_vanishing_modulus_after_a_serial_run_exits_3_with_the_run_on_disk(tmp_path,
                                                                        monkeypatch, capsys):
    # each feed computes its row, whose error waits for report(), and saves
    # its snapshot, so every snapshot is on disk when the error surfaces
    _vanishing_modulus(monkeypatch)
    cfg = write_config(tmp_path / "c.json", CONFIG_2D)
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: modulus vanishes" in err and "Traceback" not in err
    assert (out / "norms.csv").exists() and len(series_times(out)) == 17
    assert not (out / "report.json").exists() and not (out / "bridge.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "out"]


def traced_verify(tmp_path, doc):
    """Exit code, out directory and tracemalloc peak of one whole verify-theorem call."""
    tmp_path.mkdir()
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["verify-theorem", "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


def test_verify_memory_does_not_grow_with_the_schedule(tmp_path):
    # snapshots go to disk as their rows are done, and come back one at a
    # time: doubling the schedule adds no snapshot arrays to the peak
    snapshot_bytes = 16 * CONFIG_2D["grid"]["M"] ** 2
    peaks = {}
    for count in (17, 33):
        doc = json.loads(json.dumps(CONFIG_2D))
        doc["solver"]["snapshot_count"] = count
        code, out, peaks[count] = traced_verify(tmp_path / str(count), doc)
        assert code == 0
        rc = build_run(doc, "c.json", json.dumps(doc))
        library = solver.run(rc.initial, rc.solver, rc.params)
        assert isinstance(library.snapshots, list) and len(library.snapshots) == count
        assert series_times(out) == [snap.t for snap in library.snapshots]
        payload = (out / "snapshots" / "series.bin").read_bytes()
        assert payload == b"".join(snap.values.astype("<c16").tobytes()
                                   for snap in library.snapshots)
    print(f"peaks {peaks[17] / 2**20:.2f} and {peaks[33] / 2**20:.2f} MiB; "
          f"one snapshot {snapshot_bytes / 2**20:.2f} MiB")
    assert abs(peaks[33] - peaks[17]) < 4 * snapshot_bytes


def test_verify_writes_the_same_files_at_any_schedule(tmp_path):
    # a run's snapshots are one series: the file count does not follow the schedule
    listed = {}
    for count in (17, 33):
        doc = json.loads(json.dumps(CONFIG_2D))
        doc["solver"]["snapshot_count"] = count
        cfg = write_config(tmp_path / f"{count}.json", doc)
        out = tmp_path / f"out{count}"
        assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 0
        listed[count] = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert len(series_times(out)) == count
    assert listed[17] == listed[33]
    assert len(listed[17]) <= 16


def fail_after_six_snapshots(monkeypatch):
    """Make the solve raise UnstableSolutionError once it has taken six snapshots."""
    taken, append, update = [], field.SnapshotStore.append, solver.nonlinear_substep_u

    def counted_append(self, snap):
        taken.append(snap.t)
        append(self, snap)

    def failing_update(*args):
        if len(taken) >= 6:
            raise UnstableSolutionError("injected blow-up")
        return update(*args)

    monkeypatch.setattr(field.SnapshotStore, "append", counted_append)
    monkeypatch.setattr(solver, "nonlinear_substep_u", failing_update)


def test_serial_solver_error_leaves_no_out(tmp_path, monkeypatch, capsys):
    # each monitor row runs on the solve's thread as its snapshot is fed, so
    # nothing else was running when the solve raised
    fail_after_six_snapshots(monkeypatch)
    cfg = write_config(tmp_path / "c.json", short_decade_config(17))
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: injected blow-up" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("frame", ["u", "v"])
def test_simulate_solver_error_leaves_no_out(tmp_path, monkeypatch, capsys, frame):
    # the u-frame run saves each snapshot as the solver takes it; the
    # v-frame run feeds the monitor, which saves them
    fed, feed = [], SnapshotMonitor.__call__

    def counted_feed(self, snap):
        fed.append(snap.t)
        feed(self, snap)

    monkeypatch.setattr(SnapshotMonitor, "__call__", counted_feed)
    fail_after_six_snapshots(monkeypatch)
    doc = short_decade_config(17)
    if frame == "u":
        doc["solver"] = {"frame": "u", "dt0": 2e-3, "t_end": 0.5, "snapshot_count": 17}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: injected blow-up" in err and "Traceback" not in err
    assert len(fed) == (6 if frame == "v" else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_cli_import_loads_no_process_pool():
    # only sweep --jobs K > 1 starts processes; a fresh interpreter shows what the import loads
    probe = ("import sys, dnlslab.cli; print([m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_rerun_into_an_existing_out(tmp_path, monkeypatch, capsys):
    # README: a rerun replaces snapshots/ as a whole and every file it
    # writes, and leaves the rest; a rerun that fails leaves out as it was
    out = tmp_path / "out"
    first = write_config(tmp_path / "first.json", short_decade_config(17))
    assert main(["verify-theorem", "--config", str(first), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    (out / "snapshots" / "stray.txt").write_text("dropped\n")
    second = write_config(tmp_path / "second.json", short_decade_config(9))
    assert main(["verify-theorem", "--config", str(second), "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["series.bin", "series.json"]
    assert len(series_times(out)) == 9
    assert (out / "notes.txt").read_text() == "kept\n"
    assert json.loads((out / "run_config.json").read_text())["solver"]["snapshot_count"] == 9
    assert json.loads((out / "report.json").read_text())["snapshots"] == 9
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    fail_after_six_snapshots(monkeypatch)
    assert main(["verify-theorem", "--config", str(first), "--out", str(out)]) == 3
    assert "numerical failure: injected blow-up" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "out", "second.json"]


def test_failed_snapshot_write_at_the_feed_exits_4(tmp_path, monkeypatch, capsys):
    # each snapshot is written as the run appends it, on the solve's thread,
    # so the failed write stops the run at once
    pwrite, writers = os.pwrite, []
    snapshot_bytes = 16 * CONFIG_2D["grid"]["M"] ** 2

    def failing_pwrite(fd, data, offset):
        writers.append(threading.current_thread())
        if offset == 5 * snapshot_bytes:  # the write of snapshot 5
            raise OSError(28, "No space left on device")
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", failing_pwrite)
    cfg = write_config(tmp_path / "c.json", CONFIG_2D)
    out = tmp_path / "out"
    codes = []
    verify = threading.Thread(daemon=True, target=lambda: codes.append(
        main(["verify-theorem", "--config", str(cfg), "--out", str(out)])))
    verify.start()
    verify.join(timeout=60)
    assert not verify.is_alive() and codes == [4]
    err = capsys.readouterr().err
    assert "i/o failure: [Errno 28] No space left on device" in err
    assert "Traceback" not in err
    # snapshots 0 to 5 were written by the solve, and none after the failure
    assert writers == [verify] * 6
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def _failing_write(monkeypatch):
    pwrite = os.pwrite

    def failing_pwrite(fd, data, offset):
        if offset == 5 * 16 * 64:  # snapshot 5 of an M = 64 line
            raise OSError(28, "No space left on device")
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", failing_pwrite)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to list")
@pytest.mark.parametrize("spoil,code", [(fail_after_six_snapshots, 3), (_vanishing_modulus, 3),
                                        (_failing_write, 4)])
def test_no_file_left_open_by_a_failed_run(tmp_path, monkeypatch, capsys, spoil, code):
    cfg = write_config(tmp_path / "c.json", short_decade_config(17))  # 1-D, M = 64
    spoil(monkeypatch)
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert "Traceback" not in capsys.readouterr().err


def test_verify_deterministic(tmp_path, pass_run):
    cfg = write_config(tmp_path / "cfg.json", PASS_CONFIG)
    out2 = tmp_path / "out2"
    assert main(["verify-theorem", "--config", str(cfg), "--out", str(out2)]) == 0

    def files(root):
        # every artifact, snapshots and profile/ included; the plot-data tests add plots/
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.relative_to(root).parts[0] != "plots"}

    rerun, first = files(out2), files(pass_run)
    assert sorted(rerun) == sorted(first)
    assert rerun == first


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
    # verify from the stored initial snapshot, weight from data.n: the run
    # repeats pass_run, so its plot tables must match byte for byte
    doc = json.loads(json.dumps(PASS_CONFIG))
    del doc["grid"]
    doc["data"] = {"snapshot": str(pass_run / "snapshots" / "series"), "n": 5}
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


def _without_exponents(path):
    path.write_text(json.dumps({k: v for k, v in json.loads(path.read_text()).items()
                                if k != "exponents"}))


def _profile_params(**edits):
    def spoil(path):
        head = json.loads(path.read_text())
        head["params"].update(edits)
        path.write_text(json.dumps(head))
    return spoil


@pytest.mark.parametrize("spoiled,spoil,named", [
    ("verdict.json", lambda path: path.write_text("{"), "verdict.json"),
    ("verdict.json", _without_exponents, "verdict.json"),
    ("profile/amplitude.bin", lambda path: path.write_bytes(path.read_bytes()[:100]), "profile"),
    ("profile/profile.json", _profile_params(b=0), "profile"),
    ("profile/profile.json", _profile_params(alpha=0), "profile"),
    ("profile/profile.json", _profile_params(N=3), "profile"),
    ("profile/profile.json", _profile_params(N=2, alpha=0.8), "profile"),
], ids=["truncated verdict", "verdict without exponents", "short amplitude payload",
        "profile with b = 0", "profile with alpha = 0", "profile with N = 3 on a 1-D grid",
        "admissible N = 2 params on a 1-D grid"])
def test_plot_data_on_a_malformed_artifact_exits_4(pass_run, tmp_path, capsys, spoiled, spoil,
                                                    named):
    run_dir = tmp_path / "run"
    shutil.copytree(pass_run, run_dir, ignore=shutil.ignore_patterns("plots"))
    spoil(run_dir / spoiled)
    assert main(["plot-data", str(run_dir)]) == 4
    err = capsys.readouterr().err
    assert f"i/o failure: malformed run artifact {run_dir / named}: " in err
    assert "Traceback" not in err


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


def test_sweep_row_lists_what_its_point_sets(tmp_path):
    # the axes run in SWEEP_AXES' order, whatever the grid's key order
    doc = {"base": CONTRACT_CONFIG, "grid": {"b": [10.0, 20.0], "lam": [[0.0, -1.0], [1.0, -1.0]]}}
    cfg = write_config(tmp_path / "s.json", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "sweep" / "sweep.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["run", "lam", "b", *(c for c, _ in cli.SWEEP_RESULTS), "status"]
    assert [(r["run"], r["lam"], r["b"]) for r in rows] == [
        ("run_000", "[0.0, -1.0]", "10.0"), ("run_001", "[0.0, -1.0]", "20.0"),
        ("run_002", "[1.0, -1.0]", "10.0"), ("run_003", "[1.0, -1.0]", "20.0")]
    assert all(r["status"] == "ok" for r in rows)
    echo = json.loads((out / "sweep" / "run_002" / "run_config.json").read_text())
    assert echo["phys"]["lam"] == [1.0, -1.0] and echo["phys"]["b"] == 10.0


def test_empty_sweep_grid_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "s.json", {"base": sweep_base(), "grid": {"b": []}})
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "empty" in capsys.readouterr().err

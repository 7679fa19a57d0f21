"""dnlslab benchmark: time to verdict through the CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ref1d --seed 1 --seconds 30 --trace 0

Each operation runs ``dnlslab.cli.main`` on a fixed workload config in a
fresh Python process, as every dnlslab invocation does, so a cache that
survives between in-process calls cannot read as a gain.  A run repeats
rounds until the next round would end past --seconds; it makes at least
three rounds.  An untraced round is one operation and one set-up probe (a
process that only imports dnlslab.cli), in an order drawn from the seed; a
traced run's rounds are operations only.  The seed orders the work and
reaches nothing the program reads.

An operation fails when it exits non-zero, prints a traceback, does not
print its completion line, or its artifacts disagree with the fingerprint
in reference.json (see fingerprint.py).  Failed operations are counted in
``failed`` and left out of every timing; a run in which no operation
passes exits 1 without a result, so a broken program never reads as fast.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of tracer.py, medians over the traced operations, plus
trace.overhead_s: the traced minus the untraced median wall time.  The spans
of a traced run are written to .perfbench/traces/.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fingerprint import fingerprint, mismatches
from tracer import layer_metrics, load_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ".perfbench"
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s, operations included


class HarnessError(RuntimeError):
    """The benchmark cannot measure at all (no importable dnlslab, no reference)."""


class Harness:
    """Starts operation and probe processes for one run, inside ``root``."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.src = root / "src"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._serial = 0

    def _spawn(self, result: Path, op_args: list[str], cli_args=()):
        cmd = [sys.executable, str(HERE / "op.py"), "--result", str(result), *op_args]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned", repr(spawned), "--", *cli_args], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the operation and its pool workers
            out, err = proc.communicate()
            err += "\nperfbench: operation killed at the run's time limit\n"
        data = json.loads(result.read_text()) if result.is_file() else None
        if data is not None and not Path(data["module"]).resolve().is_relative_to(self.src):
            raise HarnessError(f"dnlslab.cli was imported from {data['module']}, "
                               f"not from {self.src}")
        return proc.returncode, out, err, data

    def probe(self) -> float:
        """Seconds from process start until dnlslab.cli is imported."""
        self._serial += 1
        code, _, err, data = self._spawn(self.work / f"probe-{self._serial}.json", ["--probe"])
        if code != 0 or data is None:
            raise HarnessError(f"cannot import dnlslab.cli from {self.src}:\n{err}")
        return data["setup_s"]

    def op(self, wl, reference: dict | None, traced: bool = False, config=None) -> dict:
        """Run one operation and check it; ``config`` overrides the workload's file."""
        self._serial += 1
        opdir = self.work / f"op-{self._serial}"
        out_dir, trace_dir = opdir / "out", opdir / "trace"
        trace_dir.mkdir(parents=True)
        config = config or wl.write_config(opdir / "config.json")
        code, out, err, data = self._spawn(
            opdir / "result.json", ["--trace", str(trace_dir)] if traced else [],
            wl.argv(config, out_dir))
        rec = {"traced": traced, **(data or {})}
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in err:
            problems.append("traceback on stderr")
        if not wl.completed(out):
            problems.append("no completion line on stdout")
        if data is None:
            problems.append("no measurement written")
        if not problems:
            try:
                rec["fingerprint"] = fingerprint(wl.command, out_dir)
            except (OSError, KeyError, ValueError) as e:
                problems.append(f"artifacts unreadable: {e!r}")
            else:
                if reference is not None:
                    problems += mismatches(reference, rec["fingerprint"])
        if traced and data is not None:
            written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
            rec["spans"] = load_spans(trace_dir)
            rec["layers"] = layer_metrics(rec["spans"], data.get("absent", []),
                                          wl.jobs, written)
        rec["ok"], rec["problems"] = not problems, problems
        shutil.rmtree(opdir)
        return rec


def measure(harness: Harness, wl, reference, seed: int, seconds: float, trace: bool,
            min_rounds: int = MIN_ROUNDS) -> dict:
    rng = random.Random(seed)
    harness.probe()  # warm-up, not measured: bytecode compiled, files cached
    ops, setups, rounds = [], [], []
    traced = trace and rng.random() < 0.5
    start = time.monotonic()
    while True:
        began = time.monotonic()
        tasks = ["op"] if trace else ["op", "probe"]
        rng.shuffle(tasks)
        for task in tasks:
            if task == "probe":
                setups.append(harness.probe())
                continue
            rec = harness.op(wl, reference, traced)
            ops.append(rec)
            if rec["ok"] and not traced:
                setups.append(rec["setup_s"])
        traced = trace and not traced
        now = time.monotonic()
        rounds.append(now - began)
        if now + max(rounds) > harness.deadline:
            break
        if len(rounds) >= min_rounds and now - start + statistics.median(rounds) > seconds:
            break
    return {"ops": ops, "setups": setups}


def _timed(ops, traced: bool) -> list[dict]:
    """Passing operations of one kind; failed ones are never timed."""
    return [o for o in ops if o["traced"] == traced and o["ok"]]


def _tail(samples: list[float]) -> str:
    """Highest of p99/p90/p75 with at least ten samples beyond it, if any."""
    for pct in (99, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            return f", p{pct} {statistics.quantiles(samples, n=100)[pct - 1]:.4f}"
    return ""


def summarize(wl, runs: dict, trace: bool) -> dict:
    ops = runs["ops"]
    failed = sum(1 for o in ops if not o["ok"])
    plain = _timed(ops, traced=False)
    if not plain or (trace and not _timed(ops, traced=True)):
        raise HarnessError("no operation passed:\n" + "\n".join(
            "; ".join(o["problems"]) for o in ops))
    walls = [o["wall_s"] for o in plain]
    print(f"{wl.name}: {len(ops)} operations, {failed} failed "
          f"(failed_frac {failed / len(ops):.3f})", file=sys.stderr)
    for o in ops:
        if not o["ok"]:
            print(f"  failed: {'; '.join(o['problems'][:5])}", file=sys.stderr)
    print(f"  wall_s median {statistics.median(walls):.4f} s over {len(walls)} "
          f"untraced operations{_tail(walls)}", file=sys.stderr)
    if not trace:
        rss_self = statistics.median(o["rss_kb"] for o in plain) / 1024
        rss_workers = statistics.median(o["rss_children_kb"] for o in plain) / 1024
        print(f"  setup_s median over {len(runs['setups'])} processes; peak RSS "
              f"{rss_self:.1f} MiB main, {rss_workers:.1f} MiB largest child",
              file=sys.stderr)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(runs["setups"]), "s"),
            "peak_rss_mb": (max(rss_self, rss_workers), "MiB"),
        }
    else:
        traced = _timed(ops, traced=True)
        metrics = {}
        for name, (_, unit) in traced[0]["layers"].items():
            values = [o["layers"][name][0] for o in traced if name in o["layers"]]
            metrics[name] = (statistics.median(values), unit)
        metrics["trace.overhead_s"] = (
            statistics.median(o["wall_s"] for o in traced) - statistics.median(walls), "s")
        absent = traced[0].get("absent", [])
        if absent:
            print(f"  absent spans (their metrics are left out): {absent}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _write_trace(root: Path, wl, seed: int, runs: dict):
    traces = root / WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    keep = ("traced", "ok", "problems", "wall_s", "absent", "layers", "spans")
    doc = {"workload": wl.name, "seed": seed,
           "ops": [{k: o[k] for k in keep if k in o} for o in runs["ops"] if o["traced"]]}
    (traces / f"{wl.name}-seed{seed}.json").write_text(json.dumps(doc) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "dnlslab" / "cli.py").is_file():
        print(f"perfbench: no src/dnlslab/cli.py under {root}; "
              "run from the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[wl.name]
    work = root / WORK_DIR / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        harness = Harness(root, work)
        runs = measure(harness, wl, reference, args.seed, args.seconds, bool(args.trace))
        result = summarize(wl, runs, bool(args.trace))
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        _write_trace(root, wl, args.seed, runs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

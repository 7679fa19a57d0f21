"""Record the benchmark's reference fingerprints and its baseline.

Run from the repository root:

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline --seeds 1 2 3 --traced-seeds 1 2

``reference`` runs each workload twice, checks that the two fingerprints
agree, and writes perfbench/reference.json.  Record it again only when a
change is meant to alter results, and say so in the change.

``baseline`` runs run.py in its own process per run, each as long as
run_seconds of BENCHMARK.json: for each seed every workload with --trace 0
and, for each traced seed, with --trace 1, the workloads in an order drawn
from the seed.  It writes perfbench/baseline.json
with the environment, every run's metrics, and per workload the median of
each metric and its quartile spread (Q3 - Q1 over the median, quartiles of
statistics.quantiles(n=4)).  It also compares ref2d's traced layer times
with the table of ROADMAP item 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from fingerprint import mismatches
from run import HERE, REFERENCE, WORK_DIR, Harness
from workloads import WORKLOADS

BASELINE = HERE / "baseline.json"
# ref2d layer times listed in ROADMAP item 1 (in-process, best of N)
ROADMAP_REF2D = {"diagnostics.monitor_phi_s": 4.3, "solver.run_s": 3.1}


def environment(root: Path) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), **versions,
            "commit": commit, "src_sha256": digest.hexdigest()}


def record_reference(root: Path) -> int:
    work = root / WORK_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    refs = {}
    try:
        harness = Harness(root, work)
        for wl in WORKLOADS.values():
            first, second = (harness.op(wl, None) for _ in range(2))
            problems = first["problems"] + second["problems"]
            if not problems:
                problems = mismatches(first["fingerprint"], second["fingerprint"])
            if problems:
                print(f"{wl.name}: cannot record a reference: {problems}", file=sys.stderr)
                return 1
            refs[wl.name] = first["fingerprint"]
            print(f"{wl.name}: verdict {first['fingerprint'].get('verdict', '(sweep)')}, "
                  f"{len(first['fingerprint'])} fingerprint values", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def _run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  run_s=time.monotonic() - started)
    print(f"{workload} seed {seed} trace {trace}: {result['run_s']:.1f} s, "
          f"failed {result['failed']}/{result['attempted']}, " + ", ".join(
              f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
              if trace == 0 or k in ROADMAP_REF2D or k == "trace.overhead_s"),
          file=sys.stderr)
    return result


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
        out["spread"] = (q3 - q1) / med if med else None
    return out


def record_baseline(root: Path, seeds, traced_seeds, seconds: int) -> int:
    runs = []
    for seed in seeds:
        order = sorted(WORKLOADS)
        random.Random(seed).shuffle(order)
        for workload in order:
            runs.append(_run(root, workload, seed, seconds, 0))
            if seed in traced_seeds:
                runs.append(_run(root, workload, seed, seconds, 1))
    summary = {}
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            if not mine:
                continue
            names = mine[0]["metrics"]
            summary.setdefault(workload, {}).update({
                name: {**_stats([r["metrics"][name]["value"] for r in mine]),
                       "unit": names[name]["unit"]} for name in names})
            summary[workload][f"failed_frac.trace{trace}"] = (
                sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine))
    ref2d = summary.get("ref2d", {})
    roadmap = {name: {"roadmap_s": want, "measured_s": ref2d[name]["median"],
                      "ratio": ref2d[name]["median"] / want}
               for name, want in ROADMAP_REF2D.items() if name in ref2d}
    doc = {"environment": environment(root), "seconds": seconds, "seeds": list(seeds),
           "traced_seeds": list(traced_seeds), "summary": summary,
           "roadmap_item1_ref2d": roadmap, "runs": runs}
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    base = sub.add_parser("baseline")
    base.add_argument("--seeds", type=int, nargs="+", required=True)
    base.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if args.what == "reference":
        return record_reference(root)
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    return record_baseline(root, args.seeds, set(args.traced_seeds), seconds)


if __name__ == "__main__":
    sys.exit(main())

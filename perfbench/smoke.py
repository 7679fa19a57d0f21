"""Harness smoke check: every workload shape on a tiny config, in seconds.

Run from the repository root:

    python3 perfbench/smoke.py

For each tiny shape in workloads.TINY (M <= 64, a few dozen steps) it
records a fingerprint from one operation and then checks that

- an untraced run reports exactly the end-to-end metrics of BENCHMARK.json,
  with no failed operation;
- two traced runs report exactly its per-layer metrics, with identical
  counts (steps, transforms, points, calls, bytes);
- a reference holding a wrong verdict, and a mis-pathed config (the CLI
  exits 2 in about 1 ms), each count as a failed operation, and a run in
  which every operation fails in one of these ways reports no timing;

and that run.py exits non-zero without a result in a directory that holds
only BENCHMARK.json and perfbench/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from run import HERE, WORK_DIR, Harness, HarnessError, measure, summarize
from workloads import TINY, Workload

COUNTS = ("solver.steps", "fft.transforms", "fft.points",
          "field.spectral_derivative_calls", "field.save_field_calls",
          "field.bytes_written")


class _Mispathed(Workload):
    """A workload whose operations are all given a config path that does not exist."""

    def write_config(self, path: Path) -> Path:
        return path.with_name("missing.json")


def _reports_timing(harness, wl, reference) -> bool:
    """True when a short untraced run of ``wl`` prints a result at all."""
    try:
        summarize(wl, measure(harness, wl, reference, 1, 0.5, False, min_rounds=2), False)
    except HarnessError:
        return False
    return True


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k in COUNTS or k.startswith("fft.transforms.")}


def main() -> int:
    root = Path.cwd().resolve()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    work = root / WORK_DIR / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        harness = Harness(root, work)
        for wl in TINY.values():
            first = harness.op(wl, None)
            check(first["ok"], f"{wl.name}: operation completes {first['problems']}")
            if not first["ok"]:
                continue
            ref = first["fingerprint"]
            plain = summarize(wl, measure(harness, wl, ref, 1, 0.5, False, min_rounds=2), False)
            check(plain["failed"] == 0 and set(plain["metrics"]) == end_to_end,
                  f"{wl.name}: untraced run passes and reports the end-to-end metrics")
            traced = [summarize(wl, measure(harness, wl, ref, seed, 0.5, True, min_rounds=2),
                                True) for seed in (1, 2)]
            check(all(t["failed"] == 0 and set(t["metrics"]) == per_layer for t in traced),
                  f"{wl.name}: traced runs pass and report the per-layer metrics")
            check(_counts(traced[0]) == _counts(traced[1]) and _counts(traced[0])["fft.points"],
                  f"{wl.name}: two traced runs give identical counts {_counts(traced[0])}")
            wrong = {k: ("fail" if v == "pass" else "pass") if k.endswith("verdict") else v
                     for k, v in ref.items()}
            check(not harness.op(wl, wrong)["ok"], f"{wl.name}: a wrong verdict is a failure")
            missing = harness.op(wl, ref, config=work / "missing.json")
            check(not missing["ok"] and "exit code 2" in missing["problems"],
                  f"{wl.name}: a mis-pathed config is a failure ({missing['problems']})")
            mispathed = _Mispathed(**{f.name: getattr(wl, f.name) for f in fields(wl)})
            check(not _reports_timing(harness, wl, wrong)
                  and not _reports_timing(harness, mispathed, ref),
                  f"{wl.name}: a run whose operations all fail reports no timing")

        bare = work / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ref1d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without src/ run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"smoke: {len(failures)} check(s) failed" if failures else "smoke: all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

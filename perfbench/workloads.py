"""Benchmark workloads: the dnlslab CLI command and config one operation runs.

The configs are fixed; the benchmark seed never reaches them.  Each workload
names the CLI output line that must appear for an operation to count as
completed, so a run that stops early (a config error exits 2 in about 1 ms)
is a failure, never a speed-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

_SOLVER_REF = {"frame": "v", "dt0": 5e-4, "c_adapt": 0.05,
               "horizon_floor": 1e-4, "snapshot_count": 49}
_DATA = {"c": 1.0, "n": 5}
_LAM_DISSIPATIVE = [0.0, -1.0]
_LAM_PHASE = [2.0, -1.0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # "verify-theorem" or "sweep"
    config: dict
    jobs: int = 1           # sweep worker processes; 1 for verify-theorem

    def argv(self, config_path, out_dir) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.command == "sweep":
            args += ["--jobs", str(self.jobs)]
        return args

    def write_config(self, path: Path) -> Path:
        path.write_text(json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        return path

    def completed(self, stdout: str) -> bool:
        """True when the CLI printed the line that ends a finished operation."""
        if self.command == "verify-theorem":
            return any(line.startswith("verdict: ") for line in stdout.splitlines())
        return any(line.startswith("sweep: ") and " 0 failed" in line
                   for line in stdout.splitlines())


def _verify(N, alpha, b, grid, solver=_SOLVER_REF):
    return {"phys": {"N": N, "alpha": alpha, "lam": _LAM_DISSIPATIVE, "b": b},
            "grid": grid, "solver": dict(solver), "data": dict(_DATA)}


_README_BASE = _verify(
    1, 1.0, 20.0, {"L": 30.0, "M": 512, "boundary_tol": 1e-4},
    {"frame": "v", "dt0": 5e-4, "c_adapt": 0.02, "horizon_floor": 3e-6,
     "snapshot_count": 49})

WORKLOADS = {w.name: w for w in (
    Workload(
        "ref1d",
        "acceptance reference, 531 steps: the stepper does ~80% of the work, "
        "so solver changes show here and diagnostics changes barely do",
        "verify-theorem",
        _verify(1, 1.0, 4.0, {"L": 30.0, "M": 2048, "boundary_tol": 1e-4})),
    Workload(
        "ref2d",
        "only 2-D path, 135 steps, 55 MB of artifacts: monitor_phi costs more "
        "than the solve, so diagnostics, asymptotics and memory changes show here",
        "verify-theorem",
        _verify(2, 0.8, 20.0, {"L": 30.0, "M": 256, "boundary_tol": 1e-3})),
    Workload(
        "sweep6",
        "six short README points on 2 workers: per-run fixed costs and pool "
        "overhead dominate, and Re(lam) != 0 points take the phase-exp path",
        "sweep",
        {"base": _README_BASE,
         "grid": {"b": [10.0, 20.0, 40.0], "lam": [_LAM_DISSIPATIVE, _LAM_PHASE]}},
        jobs=2),
)}

# Tiny shapes of the three workloads (M <= 64, a few dozen steps) for the
# harness smoke check; they finish in well under a second each.
_SOLVER_TINY = {"frame": "v", "dt0": 2e-3, "c_adapt": 0.2,
                "horizon_floor": 1e-2, "snapshot_count": 17}
_TINY_1D = _verify(1, 1.0, 20.0, {"L": 30.0, "M": 64, "boundary_tol": 1e-2},
                   _SOLVER_TINY)

TINY = {w.name: w for w in (
    Workload("tiny1d", "smoke shape of ref1d", "verify-theorem", _TINY_1D),
    Workload("tiny2d", "smoke shape of ref2d", "verify-theorem",
             _verify(2, 0.8, 20.0, {"L": 30.0, "M": 32, "boundary_tol": 1e-2},
                     _SOLVER_TINY)),
    Workload("tinysweep", "smoke shape of sweep6", "sweep",
             {"base": _TINY_1D, "grid": {"lam": [_LAM_DISSIPATIVE, _LAM_PHASE]}},
             jobs=2),
)}

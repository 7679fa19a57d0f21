"""Problem parameters, the theorem's hypotheses and its strict exponent set.

``PhysParams`` holds the physical tuple (N, alpha, lambda, b) and the
closed-form constants every module reads off it.  ``validate_phys`` and
``hypotheses`` read its three physical conditions from one table.
``ExponentSet`` holds the minimal integers (k, n, m, J) and the rate sigma
that the theory allows; a run's weight order is its data's n instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of i u_t + Lap u = lam |u|^alpha u."""

    N: int
    alpha: float
    lam: complex
    b: float

    @property
    def gauge_exponent(self) -> float:
        """q = (2 - N alpha)/2, the power of the gauge 1 - b t in the modulus balance."""
        return (2.0 - self.N * self.alpha) / 2.0

    @property
    def balance_coefficient(self) -> float:
        """c = alpha |Im lam| / b, the weight of the explicit term c |v0|^alpha bracket."""
        return self.alpha * abs(self.lam.imag) / self.b

    @property
    def sup_limit(self) -> float:
        """q / (alpha |Im lam|), late-time limit of t * ||u(t)||_inf^alpha; free of Re lam and b."""
        return self.gauge_exponent / (self.alpha * abs(self.lam.imag))

    def bracket(self, log_g):
        """(g^-q - 1)/q at the gauge g = 1 - b t from log g, by expm1; its limit -log g at q = 0."""
        q = self.gauge_exponent
        return np.expm1(-q * log_g) / q if q else -log_g

    def to_dict(self) -> dict:
        """The config-file shape {N, alpha, lam: [re, im], b}."""
        return {"N": self.N, "alpha": self.alpha,
                "lam": [self.lam.real, self.lam.imag], "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "PhysParams":
        return cls(int(d["N"]), float(d["alpha"]),
                   complex(d["lam"][0], d["lam"][1]), float(d["b"]))


def _physical_conditions(params: PhysParams) -> tuple[tuple, ...]:
    # each of the theorem's conditions on (alpha, lam, b), once:
    # (condition, value, requires, holds, what validate_phys says when it fails)
    lo, hi = 2.0 / (params.N + 2), 2.0 / params.N
    a, im = params.alpha, complex(params.lam).imag
    return (
        ("2/(N+2) < alpha < 2/N", a, f"in ({lo:.6g}, {hi:.6g})", lo < a < hi,
         f"alpha <= 2/(N+2) = {lo:.6g}" if not a > lo else f"alpha >= 2/N = {hi:.6g}"),
        ("Im(lambda) < 0", im, "< 0", im < 0,
         "Im(lambda) must be negative (dissipative nonlinearity)"),
        ("b > 0", params.b, "> 0", params.b > 0, "b must be positive"),
    )


def validate_phys(params: PhysParams) -> list[str]:
    """Return the list of violated admissibility conditions (empty means ok).

    Checks Im(lambda) < 0, the mass-subcritical window
    2/(N+2) < alpha < 2/N, and b > 0.
    """
    if not isinstance(params.N, int) or params.N < 1:
        return ["N must be a positive integer"]
    return [why for _, _, _, holds, why in _physical_conditions(params) if not holds]


def _least_integer_above(x: float) -> int:
    # smallest integer strictly greater than x (conditions are strict)
    return math.floor(x) + 1


def strict_k(params: PhysParams) -> int:
    return _least_integer_above(params.N / 2 + 4)


def strict_n(params: PhysParams, k: int) -> int:
    N, a = params.N, params.alpha
    bound = max(
        20.0 / a**2,
        N * (2 - N * a) * (k + 4) / a,
        2 * N * (k + 2) * (2 - N * a) / ((N + 2) * a - 2),
    )
    return _least_integer_above(bound)


def strict_m(params: PhysParams, k: int, n: int) -> int:
    N, a = params.N, params.alpha
    lam = complex(params.lam)
    bound = max(
        (k + n + 1) / 2,
        5 * n * a * abs(lam) * (1 + a * abs(lam.imag)) / (N * (2 - N * a) * abs(lam.imag)),
    )
    return _least_integer_above(bound)


def sigma_window(params: PhysParams, k: int, n: int) -> tuple[float, float]:
    """Open interval of admissible compensation rates for given (k, n)."""
    N, a = params.N, params.alpha
    lo = N * (2 - N * a) / (n * a)
    hi = min(
        N * a / 10,
        (2 - N * a) / 2,
        1.0 / (k + 4),
        ((N + 2) * a - 2) / (2 * a * (k + 2)),
    )
    return lo, hi


@dataclass(frozen=True)
class ExponentSet:
    """The strict integers (k, n, m, J) and the compensation rate sigma."""

    k: int
    n: int
    m: int
    J: int
    sigma: float


def synthesize_exponents(params: PhysParams) -> ExponentSet:
    """The minimal admissible exponent set for ``params``.

    k first, then n given k, then m given k and n; sigma sits at the
    midpoint of its open window.  Raises ValueError for parameters that
    fail ``validate_phys``.
    """
    bad = validate_phys(params)
    if bad:
        raise ValueError("invalid physical parameters: " + "; ".join(bad))
    k = strict_k(params)
    n = strict_n(params, k)
    m = strict_m(params, k, n)
    lo, hi = sigma_window(params, k, n)
    return ExponentSet(k=k, n=n, m=m, J=2 * m + 2 + k + n, sigma=0.5 * (lo + hi))


def hypotheses(params: PhysParams, n: int) -> list[dict]:
    """The theorem's hypotheses for ``params`` and data of positive weight order ``n``.

    One entry per condition, each with its ``condition``, ``value``,
    ``requires`` and whether it ``holds``: the three physical conditions,
    then n against the strict bound and the sigma window at n.  The weight
    bounds assume alpha inside the window; outside it only the physical
    entries are listed.
    """
    listed = [{"condition": condition, "value": value, "requires": requires, "holds": holds}
              for condition, value, requires, holds, _ in _physical_conditions(params)]
    if not listed[0]["holds"]:  # alpha outside the window
        return listed
    k = strict_k(params)
    n_min = strict_n(params, k)
    lo, hi = sigma_window(params, k, n)
    return listed + [
        {"condition": "n >= the strict bound", "value": n, "requires": f">= {n_min}",
         "holds": n >= n_min},
        {"condition": "sigma window at n is nonempty", "value": [lo, hi], "requires": "lo < hi",
         "holds": lo < hi},
    ]

"""Problem parameters and the integer bookkeeping behind the decay analysis.

Two layers: ``PhysParams`` holds the physical tuple (N, alpha, lambda, b),
its admissibility conditions and the closed-form constants every module
reads off it; ``ExponentSet`` holds the derived integers (k, n, m, J) and
the compensation rate sigma.  Strict synthesis picks the minimal integers
allowed by the theory; relaxed synthesis accepts a desk-scale n and reports
which strict conditions it breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ExponentWindowError(ValueError):
    """The admissible sigma interval for the requested (k, n) is empty."""


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters of i u_t + Lap u = lam |u|^alpha u."""

    N: int
    alpha: float
    lam: complex
    b: float

    @property
    def subcritical_window(self) -> tuple[float, float]:
        return 2.0 / (self.N + 2), 2.0 / self.N

    @property
    def gauge_exponent(self) -> float:
        """q = (2 - N alpha)/2, the power of the gauge 1 - b t in the modulus balance."""
        return (2.0 - self.N * self.alpha) / 2.0

    @property
    def balance_coefficient(self) -> float:
        """c = 2 alpha |Im lam| / (b (2 - N alpha)), the weight of the explicit bracket."""
        return 2.0 * self.alpha * abs(self.lam.imag) / (self.b * (2.0 - self.N * self.alpha))

    @property
    def sup_limit(self) -> float:
        """Late-time limit of t * ||u(t)||_inf^alpha; independent of Re lam and b."""
        return (2.0 - self.N * self.alpha) / (2.0 * self.alpha * abs(self.lam.imag))

    def to_dict(self) -> dict:
        """The config-file shape {N, alpha, lam: [re, im], b}."""
        return {"N": self.N, "alpha": self.alpha,
                "lam": [self.lam.real, self.lam.imag], "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "PhysParams":
        return cls(int(d["N"]), float(d["alpha"]),
                   complex(d["lam"][0], d["lam"][1]), float(d["b"]))


def validate_phys(params: PhysParams) -> list[str]:
    """Return the list of violated admissibility conditions (empty means ok).

    Checks Im(lambda) < 0, the mass-subcritical window
    2/(N+2) < alpha < 2/N, and b > 0.
    """
    bad = []
    if not isinstance(params.N, int) or params.N < 1:
        bad.append("N must be a positive integer")
        return bad
    lam = complex(params.lam)
    if not lam.imag < 0:
        bad.append("Im(lambda) must be negative (dissipative nonlinearity)")
    lo, hi = params.subcritical_window
    if not params.alpha > lo:
        bad.append(f"alpha <= 2/(N+2) = {lo:.6g}")
    if not params.alpha < hi:
        bad.append(f"alpha >= 2/N = {hi:.6g}")
    if not params.b > 0:
        bad.append("b must be positive")
    return bad


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
    """Derived integers (k, n, m, J) and the compensation rate sigma.

    ``strict`` records whether the full set of integer conditions holds or a
    relaxed desk-scale n was requested; ``violations`` lists any broken
    strict conditions in the relaxed case.
    """

    k: int
    n: int
    m: int
    J: int
    sigma: float
    strict: bool
    violations: tuple[str, ...] = field(default=())


def derived_inequalities(params: PhysParams, exps: ExponentSet) -> dict[str, bool]:
    """Consequences of the sigma window that downstream estimates rely on."""
    N, a = params.N, params.alpha
    s = exps.sigma
    return {
        "weight_beats_dimension": exps.n * a * s / (2 - N * a) > N,
        "gauge_exponent_in_unit_interval": 0 < 1 - 2 * s / (2 - N * a) < 1,
        "integrable_correction_rate": 1 - (2 - N * a) / 2 - 5 * s > 0,
    }


def synthesize_exponents(
    params: PhysParams,
    strict: bool = True,
    n: int | None = None,
    fallback_sigma: bool = False,
) -> ExponentSet:
    """Build the exponent set for ``params``.

    Strict mode returns the minimal admissible integers (k first, then n
    given k, then m given k and n) and sigma at the midpoint of its open
    window.  Relaxed mode (``strict=False``) requires a caller-supplied
    ``n``; the remaining integers are minimized for that n and every broken
    strict condition is recorded in ``violations``.  A desk-scale n can make
    the sigma window empty; that raises ``ExponentWindowError`` unless
    ``fallback_sigma`` is set, in which case sigma is taken from the strict
    window and the inconsistency is recorded.
    """
    bad = validate_phys(params)
    if bad:
        raise ValueError("invalid physical parameters: " + "; ".join(bad))

    k = strict_k(params)
    n_min = strict_n(params, k)
    violations: list[str] = []

    if strict:
        if n is not None and n != n_min:
            raise ValueError("strict synthesis does not accept a custom n")
        n_use = n_min
    else:
        if n is None:
            raise ValueError("relaxed synthesis requires n")
        n_use = int(n)
        if n_use < 1:
            raise ValueError("n must be a positive integer")
        if n_use <= n_min:
            violations.append(f"n={n_use} below the strict bound (needs n >= {n_min})")

    m = strict_m(params, k, n_use)
    J = 2 * m + 2 + k + n_use

    lo, hi = sigma_window(params, k, n_use)
    if lo < hi:
        sigma = 0.5 * (lo + hi)
    else:
        msg = f"sigma window ({lo:.6g}, {hi:.6g}) empty for k={k}, n={n_use}"
        if not fallback_sigma:
            raise ExponentWindowError(msg + "; inconsistent relaxation")
        lo_s, hi_s = sigma_window(params, k, n_min)
        sigma = 0.5 * (lo_s + hi_s)
        violations.append(msg + f"; using sigma={sigma:.6g} from the strict window")

    exps = ExponentSet(k=k, n=n_use, m=m, J=J, sigma=sigma,
                       strict=strict and not violations,
                       violations=tuple(violations))

    if strict:
        checks = derived_inequalities(params, exps)
        failed = [name for name, ok in checks.items() if not ok]
        if failed:  # cannot happen for a valid window; guards regressions
            raise AssertionError("derived inequalities failed: " + ", ".join(failed))
    return exps

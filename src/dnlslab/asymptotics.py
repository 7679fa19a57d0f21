"""Long-time structure of the rescaled flow and the profile it converges to.

The modulus of a rescaled-frame solution obeys an exact pointwise balance:
its alpha-th power equals |v0|^alpha divided by

    1 + f(t,x) + c |v0(x)|^alpha [(1 - b t)^{-q} - 1],

with q and c the ``gauge_exponent`` and ``balance_coefficient`` of
``PhysParams``.  The correction f collects the dispersive coupling
accumulated along the flow; it stays bounded while the explicit bracket
blows up, which is the whole asymptotic mechanism.
This module extracts f from a trajectory two independent ways (inverting
the balance pointwise, and integrating the coupling term in time), freezes
its terminal value f0 together with a limiting amplitude profile, and
evaluates the resulting prediction in both frames, including the weighted
error metrics of the main convergence statement.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import rescaled_time, to_u_frame
from .field import Field, l2_norm, load_field, save_field
from .params import PhysParams
from .solver import Trajectory

log = logging.getLogger(__name__)

PROFILE_SCHEMA = 1
# The regime bound on the correction sup: the monitors classify a run as
# compliant only while |f| <= 1/4 at every snapshot.
CORRECTION_BOUND = 0.25


class ExtractionError(RuntimeError):
    """Trajectory does not support profile extraction (vanishing modulus, ...)."""


def horizon_gauge(t, params: PhysParams):
    """g/(1-g) with g = (1-bt)^q: +inf at t=0, 0 at the horizon.

    The product b * horizon_gauge(t) calibrates when the explicit bracket in
    the modulus balance starts to dominate; callers only ever use it inside
    min{., .} comparisons, so the t = 0 value is returned as np.inf.
    """
    b = params.b
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(b * t >= 1):
        raise ValueError("t must lie in [0, 1/b)")
    g = (1.0 - b * t) ** params.gauge_exponent
    with np.errstate(divide="ignore"):
        out = np.where(g == 1.0, np.inf, g / (1.0 - g))
    return float(out) if out.ndim == 0 else out


def crossover_time(params: PhysParams) -> float:
    """Root of b * horizon_gauge(t) = 1: there g = 1/(1 + b), so (1 - b t)^q = 1/(1 + b)."""
    b, q = params.b, params.gauge_exponent
    if b <= 0 or q <= 0:
        raise ValueError("the crossover needs b > 0 and N alpha < 2")
    return (1.0 - (1.0 + b) ** (-1.0 / q)) / b


def _check_v_traj(traj: Trajectory) -> PhysParams:
    if traj.frame != "v":
        raise ValueError("profile extraction expects a v-frame trajectory")
    p = traj.params
    if p.b <= 0 or p.lam.imag >= 0:
        raise ValueError("extraction needs b > 0 and Im(lambda) < 0")
    return p


def nonvanishing_modulus(snap: Field) -> np.ndarray:
    """|v| of a snapshot; raises ``ExtractionError`` where it vanishes on the grid."""
    mod = np.abs(snap.values)
    if np.min(mod) <= 0.0:
        raise ExtractionError(f"modulus vanishes on the grid at t = {snap.t:.6g}")
    return mod


def balance_correction(t: float, moda: np.ndarray, mod0a: np.ndarray,
                       params: PhysParams) -> np.ndarray:
    """The correction at time t from |v|^alpha (``moda``) and |v0|^alpha (``mod0a``)."""
    bracket = (1.0 - params.b * t) ** -params.gauge_exponent - 1.0
    return mod0a / moda - 1.0 - params.balance_coefficient * mod0a * bracket


def correction_field(snap: Field, mod0a: np.ndarray, params: PhysParams) -> Field:
    """Correction at one snapshot by inverting the modulus balance.

    ``mod0a`` is |v0|^alpha of the initial state.  Pure, so snapshots can
    be processed one at a time or concurrently.
    """
    moda = nonvanishing_modulus(snap) ** params.alpha
    return Field(snap.grid, balance_correction(snap.t, moda, mod0a, params), "v", snap.t)


def correction_algebraic(traj: Trajectory) -> list[Field]:
    """Correction fields at every snapshot, by inverting the modulus balance."""
    p = _check_v_traj(traj)
    mod0a = np.abs(traj.snapshots[0].values) ** p.alpha
    return [correction_field(snap, mod0a, p) for snap in traj.snapshots]


def correction_integral(traj: Trajectory) -> tuple[list[Field], float]:
    """Correction by time-integrating the dispersive coupling; plus a residual.

    Reads the per-step running integral the solver records for a v-frame run
    with lam != 0 made with ``run(..., track_coupling=True)``.  The returned
    residual is the largest sup-distance to the algebraic route over all
    snapshots.  The two agree exactly for the continuum flow, so the residual
    certifies the coupling quadrature, not the run: the integrand scales like
    |v|^-(alpha+1), and the quadrature is conditioned only while |v| stays
    away from zero.  A resolved run whose modulus passes near zero (a b below
    the regime) reads a large residual.
    """
    p = _check_v_traj(traj)
    if traj.coupling is None:
        raise ValueError(
            "trajectory carries no coupling record; run it with run(..., track_coupling=True)"
        )
    mod0a = np.abs(traj.snapshots[0].values) ** p.alpha
    fields = [
        Field(snap.grid, p.alpha * mod0a * acc.values.real, "v", snap.t)
        for snap, acc in zip(traj.snapshots, traj.coupling)
    ]
    alg = correction_algebraic(traj)
    residual = max(
        float(np.max(np.abs(fi.values - fa.values))) for fi, fa in zip(fields, alg)
    )
    return fields, residual


@dataclass(frozen=True)
class ProfileData:
    """Frozen terminal correction and amplitude, ready for prediction.

    ``correction`` is the terminal correction field (real, on the v-grid),
    ``amplitude`` the complex limiting profile whose alpha-th modulus power
    times (1 + correction) reproduces |v0|^alpha exactly.
    """

    correction: np.ndarray
    amplitude: np.ndarray
    reference: Field
    params: PhysParams
    meta: dict

    @functools.cached_property
    def correction_sup(self) -> float:
        return float(np.max(np.abs(self.correction)))

    @property
    def reference_power(self) -> np.ndarray:
        """|v0|^alpha of the reference state, computed on each access and not kept."""
        return np.abs(self.reference.values) ** self.params.alpha


def _psi_pow_alpha(t: float, correction: np.ndarray, mod0a: np.ndarray, p: PhysParams):
    if t < 0 or p.b * t >= 1:
        raise ValueError("t must lie in [0, 1/b)")
    q, c = p.gauge_exponent, p.balance_coefficient
    bracket = (1.0 - p.b * t) ** -q - 1.0
    return (1.0 + correction) / (1.0 + correction + c * mod0a * bracket)


def finalize_profile(traj: Trajectory) -> ProfileData:
    """Freeze the last snapshot's correction and recover the limiting amplitude.

    The amplitude modulus comes from the defining balance; its phase is read
    off the final snapshot after unwinding the predicted envelope and drift,
    which is exactly the decomposition whose remaining factor converges.

    Raises
    ------
    ExtractionError
        If the last snapshot's modulus vanishes, or 1 + correction is not
        positive everywhere (b far too small, or the run was unresolved).
    """
    p = _check_v_traj(traj)
    v0 = traj.snapshots[0]
    v_last = traj.snapshots[-1]
    mod0a = np.abs(v0.values) ** p.alpha
    f0 = np.real(correction_field(v_last, mod0a, p).values)
    if np.min(1.0 + f0) <= 0.0:
        raise ExtractionError(
            f"1 + correction reaches {np.min(1.0 + f0):.3e} <= 0; "
            "b is far below the asymptotic regime or the run is unresolved"
        )
    f0_sup = float(np.max(np.abs(f0)))
    if f0_sup > CORRECTION_BOUND:
        log.warning("terminal correction sup %.3f exceeds 1/4; b may be too small", f0_sup)
    amp_mod = (mod0a / (1.0 + f0)) ** (1.0 / p.alpha)
    psi_a = _psi_pow_alpha(v_last.t, f0, mod0a, p)
    phase = np.angle(v_last.values * np.exp(1j * _drift(psi_a, p)))
    meta = {
        "final_time": v_last.t,
        "final_gauge": 1.0 - p.b * v_last.t,
        "correction_sup": f0_sup,
        "series_len": len(traj.snapshots),
    }
    return ProfileData(f0, amp_mod * np.exp(1j * phase), v0, p, meta)


def _drift(psi_a: np.ndarray, p: PhysParams) -> np.ndarray:
    return (p.lam.real / p.lam.imag) * np.log(psi_a) / p.alpha


def _envelope(psi_a: np.ndarray, profile: ProfileData) -> np.ndarray:
    psi = psi_a ** (1.0 / profile.params.alpha)
    if profile.correction_sup < 1.0:
        assert np.all(psi > 0.0) and np.all(psi <= 1.0 + 1e-12)
    return psi


def modulus_envelope(t: float, profile: ProfileData) -> np.ndarray:
    """Envelope by which the amplitude is squeezed between time 0 and t."""
    p = profile.params
    return _envelope(_psi_pow_alpha(t, profile.correction, profile.reference_power, p), profile)


def predicted_field_v(s: float, profile: ProfileData) -> Field:
    """Rescaled-frame prediction amplitude * envelope * exp(-i drift) at time s."""
    p = profile.params
    psi_a = _psi_pow_alpha(s, profile.correction, profile.reference_power, p)
    vals = profile.amplitude * _envelope(psi_a, profile)
    if p.lam.real != 0.0:  # the drift is identically zero otherwise
        vals = vals * np.exp(-1j * _drift(psi_a, p))
    return Field(profile.reference.grid, vals, "v", s)


def predicted_field(t: float, profile: ProfileData) -> Field:
    """Physical-frame prediction at time t, on the co-moving grid."""
    s = rescaled_time(t, profile.params.b)
    return to_u_frame(predicted_field_v(s, profile), profile.params.b)


def error_metric(u: Field, profile: ProfileData) -> tuple[float, float]:
    """Weighted gaps (t^{1/alpha - N/2} ||u - z||_2, t^{1/alpha} ||u - z||_inf).

    ``u`` must live on the co-moving stretch of the profile grid and satisfy
    t >= 1, the range where the convergence statement applies.
    """
    p = profile.params
    if u.frame != "u":
        raise ValueError("expected a u-frame field")
    if u.t < 1.0:
        raise ValueError("error metric is defined for t >= 1")
    z = predicted_field(u.t, profile)
    if z.grid.points != u.grid.points or not np.allclose(
        z.grid.extents, u.grid.extents, rtol=1e-9, atol=0.0
    ):
        raise ValueError("field is not on the co-moving stretch of the profile grid")
    diff = u.values - z.values
    e2 = u.t ** (1.0 / p.alpha - p.N / 2.0) * l2_norm(Field(u.grid, diff, "u", u.t))
    einf = u.t ** (1.0 / p.alpha) * float(np.max(np.abs(diff)))
    return e2, einf


def save_profile(profile: ProfileData, dirpath) -> Path:
    """Persist a profile as three field snapshots plus JSON metadata."""
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    g = profile.reference.grid
    t_last = float(profile.meta.get("final_time", 0.0))
    save_field(Field(g, profile.correction.astype(complex), "v", t_last), root / "correction")
    save_field(Field(g, profile.amplitude.astype(complex), "v", t_last), root / "amplitude")
    save_field(profile.reference, root / "reference")
    head = {
        "schema_version": PROFILE_SCHEMA,
        "params": profile.params.to_dict(),
        "meta": profile.meta,
    }
    (root / "profile.json").write_text(json.dumps(head, sort_keys=True, indent=2) + "\n")
    return root


def load_profile(dirpath) -> ProfileData:
    root = Path(dirpath)
    head = json.loads((root / "profile.json").read_text())
    if head.get("schema_version") != PROFILE_SCHEMA:
        raise ValueError(f"unsupported profile schema {head.get('schema_version')}")
    params = PhysParams.from_dict(head["params"])
    correction = np.real(load_field(root / "correction").values)
    amplitude = load_field(root / "amplitude").values
    reference = load_field(root / "reference")
    return ProfileData(correction, amplitude, reference, params, dict(head["meta"]))

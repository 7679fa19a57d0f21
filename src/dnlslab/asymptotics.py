"""Long-time structure of the rescaled flow and the profile it converges to.

The modulus of a rescaled-frame solution obeys an exact pointwise balance:
its alpha-th power equals |v0|^alpha divided by

    1 + f(t,x) + c |v0(x)|^alpha [g^{-q} - 1]/q,      g = 1 - b t,

with q the ``gauge_exponent``, c = alpha |Im lambda|/b the
``balance_coefficient`` and the bracket ``PhysParams.bracket``, which tends
to -log g as q -> 0.  The correction f collects the dispersive coupling
accumulated along the flow; it stays bounded while the explicit bracket
blows up, which is the whole asymptotic mechanism.
This module extracts f from a trajectory by inverting the balance
pointwise, freezes its terminal value f0 together with a limiting amplitude
profile, and evaluates the resulting prediction in both frames, including
the weighted error metrics of the main convergence statement.  The
independent route, integrating the coupling term in time along the step
stream, is a test oracle and lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import _chirp_slot, physical_time, rescaled_time, to_u_frame
from .field import Field, l2_norm, load_field, save_field
from .params import PhysParams, validate_phys
from .solver import Trajectory

log = logging.getLogger(__name__)

PROFILE_SCHEMA = 1
# The regime bound on the correction sup: the monitors classify a run as
# compliant only while |f| <= 1/4 at every snapshot.
CORRECTION_BOUND = 0.25


class ExtractionError(RuntimeError):
    """Trajectory does not support profile extraction (vanishing modulus, ...)."""


def horizon_gauge(t, params: PhysParams):
    """1/(q bracket) = h/(1 - h) with h = (1 - b t)^q: +inf at t = 0, 0 at the horizon.

    The product b * horizon_gauge(t) calibrates when the explicit bracket in
    the modulus balance starts to dominate; callers only ever use it inside
    min{., .} comparisons, so the t = 0 value is returned as np.inf.
    """
    b = params.b
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(b * t >= 1):
        raise ValueError("t must lie in [0, 1/b)")
    with np.errstate(divide="ignore"):  # log1p(-0.0) is -0.0, so the bracket is +0.0 at t = 0
        out = 1.0 / (params.gauge_exponent * params.bracket(np.log1p(-b * t)))
    return float(out) if out.ndim == 0 else out


def crossover_time(params: PhysParams) -> float:
    """Root of b * horizon_gauge(t) = 1: there h = (1 - b t)^q = 1/(1 + b), in closed form."""
    b, q = params.b, params.gauge_exponent
    if b <= 0 or q <= 0:
        raise ValueError("the crossover needs b > 0 and N alpha < 2")
    return (1.0 - (1.0 + b) ** (-1.0 / q)) / b


def _check_v_traj(traj: Trajectory) -> PhysParams:
    if traj.frame != "v":
        raise ValueError("profile extraction expects a v-frame trajectory")
    if traj.snapshot_times[0] != 0.0:  # the modulus balance counts from g = 1
        raise ValueError(f"profile extraction needs a run from t = 0, not "
                         f"t = {traj.snapshot_times[0]:g}")
    p = traj.params
    if p.b <= 0 or p.lam.imag >= 0:
        raise ValueError("extraction needs b > 0 and Im(lambda) < 0")
    return p


def nonvanishing_modulus(snap: Field, out: np.ndarray | None = None) -> np.ndarray:
    """|v| of a snapshot, in ``out`` if given; raises ``ExtractionError`` where it vanishes."""
    mod = np.abs(snap.values, out=out)
    if np.min(mod) <= 0.0:
        raise ExtractionError(f"modulus vanishes on the grid at t = {snap.t:.6g}")
    return mod


def balance_correction(t: float, moda: np.ndarray, mod0a: np.ndarray,
                       params: PhysParams) -> np.ndarray:
    """The correction at time t from |v|^alpha (``moda``) and |v0|^alpha (``mod0a``)."""
    f = mod0a / moda
    f -= 1.0
    drift = params.balance_coefficient * mod0a
    drift *= params.bracket(np.log1p(-params.b * t))
    return np.subtract(f, drift, out=f)


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
    # (1 + f) / (1 + f + c |v0|^alpha bracket) in two arrays
    num = 1.0 + correction
    den = p.balance_coefficient * mod0a
    den *= p.bracket(np.log1p(-p.b * t))
    den += num
    return np.divide(num, den, out=num)


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
    t_last = v_last.t
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
    psi_a = _psi_pow_alpha(t_last, f0, mod0a, p)
    # out= fixes the operand order: with a temporary second operand numpy
    # reuses it from 256 KiB up and computes rot * values, off in the last bits
    rot = np.exp(1j * _drift(psi_a, p))
    del psi_a
    phase = np.angle(np.multiply(v_last.values, rot, out=rot))
    del rot, v_last
    # amp_mod * exp(i phase), built in one array
    amplitude = 1j * phase
    del phase
    amp_mod = mod0a / (1.0 + f0)
    amp_mod **= 1.0 / p.alpha
    amplitude = np.multiply(amp_mod, np.exp(amplitude, out=amplitude), out=amplitude)
    meta = {
        "final_time": t_last,
        "final_gauge": 1.0 - p.b * t_last,
        "correction_sup": f0_sup,
        "series_len": len(traj.snapshots),
    }
    return ProfileData(f0, amplitude, v0, p, meta)


def _drift(psi_a: np.ndarray, p: PhysParams) -> np.ndarray:
    return (p.lam.real / p.lam.imag) * np.log(psi_a) / p.alpha


def _envelope(psi_a: np.ndarray, profile: ProfileData) -> np.ndarray:
    # psi^alpha to psi, in psi_a's own array
    psi_a **= 1.0 / profile.params.alpha
    if profile.correction_sup < 1.0:
        assert np.all(psi_a > 0.0) and np.all(psi_a <= 1.0 + 1e-12)
    return psi_a


def modulus_envelope(t: float, profile: ProfileData) -> np.ndarray:
    """Envelope by which the amplitude is squeezed between time 0 and t."""
    p = profile.params
    return _envelope(_psi_pow_alpha(t, profile.correction, profile.reference_power, p), profile)


def predicted_field_v(s: float, profile: ProfileData) -> Field:
    """Rescaled-frame prediction amplitude * envelope * exp(-i drift) at time s."""
    p = profile.params
    psi_a = _psi_pow_alpha(s, profile.correction, profile.reference_power, p)
    # the drift reads psi^alpha before the envelope takes over its array; it
    # is identically zero for a purely imaginary lambda
    rot = -1j * _drift(psi_a, p) if p.lam.real != 0.0 else None
    vals = profile.amplitude * _envelope(psi_a, profile)
    del psi_a
    if rot is not None:  # out=, as in finalize_profile
        vals = np.multiply(vals, np.exp(rot, out=rot), out=rot)
    return Field(profile.reference.grid, vals, "v", s)


def predicted_field(t: float, profile: ProfileData) -> Field:
    """Physical-frame prediction at time t, on the co-moving grid."""
    z_v = predicted_field_v(rescaled_time(t, profile.params.b), profile)
    return to_u_frame(z_v, profile.params.b, out=z_v.values)


def error_metric(u: Field, profile: ProfileData) -> tuple[float, float]:
    """Weighted gaps (t^{1/alpha - N/2} ||u - z||_2, t^{1/alpha} ||u - z||_inf).

    ``u`` must satisfy t >= 1, the range where the convergence statement
    applies.  A ``u`` off the co-moving stretch of the profile grid, where the
    rounding of t moves it near the horizon, raises ``ExtractionError``.
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
        raise ExtractionError(f"t = {u.t:.6g}: field is off the co-moving stretch of the grid")
    diff = np.subtract(u.values, z.values, out=z.values)
    e2 = u.t ** (1.0 / p.alpha - p.N / 2.0) * l2_norm(Field(u.grid, diff, "u", u.t))
    einf = u.t ** (1.0 / p.alpha) * float(np.max(np.abs(diff)))
    return e2, einf


def error_series(traj: Trajectory, profile: ProfileData) -> tuple[np.ndarray, ...]:
    """(t, L2 error, sup error) of ``error_metric`` at each snapshot from t = 1 on.

    Each snapshot is read once and lens-mapped into the last row's array; a
    run that never reaches t = 1 gives three empty arrays.
    """
    b, rows, u = traj.params.b, [], None
    try:
        for i in np.flatnonzero(physical_time(traj.snapshot_times, b) >= 1.0):
            u = to_u_frame(traj.snapshots[i], b, out=getattr(u, "values", None))
            rows.append((u.t, *error_metric(u, profile)))
    finally:  # no later stage reads the lens' last factor (1 MiB at 256^2), nor after a failed row
        _chirp_slot.clear()
    return tuple(np.array(rows, dtype=float).reshape(-1, 3).T)


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
    """A saved profile; a ValueError if its params fail ``validate_phys`` or its grid."""
    root = Path(dirpath)
    head = json.loads((root / "profile.json").read_text())
    if head.get("schema_version") != PROFILE_SCHEMA:
        raise ValueError(f"unsupported profile schema {head.get('schema_version')}")
    params = PhysParams.from_dict(head["params"])
    correction = np.real(load_field(root / "correction").values)
    amplitude = load_field(root / "amplitude").values
    reference = load_field(root / "reference")
    if validate_phys(params) or params.N != reference.grid.dim:
        raise ValueError(f"params {head['params']} fail validate_phys or the "
                         f"{reference.grid.dim}-D grid")
    return ProfileData(correction, amplitude, reference, params, dict(head["meta"]))

"""The verdict policy on hand-made check results; no solver runs here."""

import copy

import pytest

from dnlslab.asymptotics import CORRECTION_BOUND
from dnlslab.cli import GATES, decide
from dnlslab.diagnostics import MASS_SLACK

# every gate holds with a margin, every regime flag holds
PASSING = {
    "sup_limit": {"deviation_u": 0.01},
    "l2_envelope": {"exponent_deviation": 0.02, "band_ratio": 1.1},
    "profile_error": {"slope_l2": -1.0, "slope_sup": -0.9},
    "mass_dissipation": {"ok": True, "worst_growth": -1e-3},
}
COMPLIANT = {"f_max": 0.1, "f_within_quarter": True, "decay_pointwise": True,
             "psi_ratio": 1.5}
OUT_OF_REGIME = {**COMPLIANT, "f_max": 20.35, "f_within_quarter": False}
QUARTER_REASON = {"flag": "f_within_quarter", "value": 20.35, "bound": CORRECTION_BOUND}


def checks_with(check=None, **values):
    checks = copy.deepcopy(PASSING)
    if check is not None:
        checks[check].update(values)
    return checks


def gated_ok(checks):
    return {name: checks[name]["ok"] for name, _, _ in GATES}


def test_every_gate_holding_passes():
    checks = checks_with()
    assert decide(checks, COMPLIANT) == ("pass", [])
    assert all(gated_ok(checks).values())


def test_pass_keeps_the_broken_flag_as_a_reason():
    # a passing check set wins over compliance; the reason still shows it
    assert decide(checks_with(), OUT_OF_REGIME) == ("pass", [QUARTER_REASON])


@pytest.mark.parametrize("check,quantity,bound", GATES)
def test_each_gate_alone(check, quantity, bound):
    at_bound = checks_with(check, **{quantity: bound})
    assert decide(at_bound, COMPLIANT) == ("pass", [])

    over = bound + 1e-9
    reason = {"check": check, "quantity": quantity, "value": over, "bound": bound}
    broken = checks_with(check, **{quantity: over})
    assert decide(broken, COMPLIANT) == ("fail", [reason])
    assert gated_ok(broken) == {name: name != check for name, _, _ in GATES}
    assert decide(checks_with(check, **{quantity: over}), OUT_OF_REGIME) == (
        "not in theorem regime", [reason, QUARTER_REASON])


def test_unset_slopes_break_both_profile_gates():
    checks = checks_with("profile_error", slope_l2=None, slope_sup=None)
    assert decide(checks, COMPLIANT) == ("fail", [
        {"check": "profile_error", "quantity": "slope_l2", "value": None, "bound": -0.05},
        {"check": "profile_error", "quantity": "slope_sup", "value": None, "bound": -0.05},
    ])
    assert checks["profile_error"]["ok"] is False


@pytest.mark.parametrize("check,errored", [
    ("profile_error", {"slope_l2": None, "slope_sup": None, "error": "modulus vanishes"}),
    ("l2_envelope", {"error": "power-law fit needs at least 8 samples, got 3"}),
])
def test_errored_check_gives_one_reason(check, errored):
    checks = checks_with()
    checks[check] = dict(errored)
    verdict, reasons = decide(checks, OUT_OF_REGIME)
    assert verdict == "not in theorem regime"
    assert reasons == [{"check": check, "error": errored["error"]}, QUARTER_REASON]
    assert checks[check]["ok"] is False


def test_every_broken_flag_is_a_reason():
    checks = checks_with("mass_dissipation", ok=False, worst_growth=3e-9)
    monitors = {**OUT_OF_REGIME, "decay_pointwise": False}
    assert decide(checks, monitors) == ("pass", [
        {"flag": "mass_dissipation", "value": 3e-9, "bound": MASS_SLACK},
        QUARTER_REASON,
        {"flag": "decay_pointwise"},
    ])
    broken = checks_with("sup_limit", deviation_u=0.5)
    assert decide(broken, monitors)[0] == "not in theorem regime"

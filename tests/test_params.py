"""Parameter validation, the gauge bracket, exponent synthesis and the theorem's hypotheses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnlslab.params import (
    PhysParams,
    hypotheses,
    sigma_window,
    synthesize_exponents,
    validate_phys,
)
from oracles import derived_inequalities


@pytest.mark.parametrize("q", [0.5, 0.2, 0.05])
def test_bracket_is_the_power_law(q):
    p = PhysParams(1, 2.0 - 2.0 * q, -1j, 20.0)
    gs = np.geomspace(1e-1, 1e-40, 40)
    power_law = (gs ** -p.gauge_exponent - 1.0) / p.gauge_exponent
    np.testing.assert_allclose(p.bracket(np.log(gs)), power_law, rtol=1e-13, atol=0.0)


def test_bracket_tends_to_the_logarithm():
    # q = 0 at alpha = 2/N is the exact limit; q = 1e-12 is off it by q (log g)^2 / 2
    gs = np.geomspace(1e-1, 1e-40, 40)
    assert np.array_equal(PhysParams(1, 2.0, -1j, 20.0).bracket(np.log(gs)), -np.log(gs))
    near = PhysParams(1, 2.0 - 2e-12, -1j, 20.0)
    np.testing.assert_allclose(near.bracket(np.log(gs)), -np.log(gs), rtol=1e-10, atol=0.0)


def test_validate_reference_ok():
    assert validate_phys(PhysParams(1, 1.0, -1j, 4.0)) == []


def test_validate_supercritical_alpha():
    bad = validate_phys(PhysParams(1, 2.5, -1j, 1.0))
    assert len(bad) == 1
    assert "2/N" in bad[0]


def test_validate_2d_ok():
    # 2/4 = 0.5 < 0.8 < 1 and Im lam < 0
    assert validate_phys(PhysParams(2, 0.8, 1 - 0.5j, 2.0)) == []


@pytest.mark.parametrize(
    "params,expect",
    [
        (PhysParams(1, 1.0, 1.0 + 0j, 4.0), "Im(lambda)"),
        (PhysParams(1, 1.0, -1j, -2.0), "b must be"),
        (PhysParams(1, 0.5, -1j, 1.0), "alpha <="),
    ],
)
def test_validate_names_the_violation(params, expect):
    bad = validate_phys(params)
    assert any(expect in msg for msg in bad)


def test_strict_synthesis_reference_values():
    # minimal integers by direct evaluation of the strict inequalities:
    # k > 4.5; n > max{20, 9, 14}; m > max{13.5, 210}; J = 2m+2+k+n
    exps = synthesize_exponents(PhysParams(1, 1.0, -1j, 4.0))
    assert (exps.k, exps.n, exps.m, exps.J) == (5, 21, 211, 450)
    lo, hi = sigma_window(PhysParams(1, 1.0, -1j, 4.0), exps.k, exps.n)
    assert lo == pytest.approx(1 / 21)
    assert hi == pytest.approx(1 / 14)
    assert exps.sigma == pytest.approx(0.5 * (1 / 21 + 1 / 14))
    # the strict n meets every hypothesis
    assert all(h["holds"] for h in hypotheses(PhysParams(1, 1.0, -1j, 4.0), exps.n))


def test_strict_synthesis_2d_values():
    # k > 5; n > max{31.25, 10, 10.67}; m > 500.88 (direct evaluation)
    exps = synthesize_exponents(PhysParams(2, 0.8, 1 - 0.5j, 2.0))
    assert (exps.k, exps.n, exps.m, exps.J) == (6, 32, 501, 1042)
    assert exps.sigma == pytest.approx(0.0625)


def test_strict_integers_are_minimal():
    # one below each minimal integer violates its strict inequality
    p = PhysParams(1, 1.0, -1j, 4.0)
    exps = synthesize_exponents(p)
    assert exps.k > 4.5 and not exps.k - 1 > 4.5
    n_bound = max(20.0, 1 * (2 - 1) * (exps.k + 4) / 1, 2 * (exps.k + 2) * (2 - 1) / (3 - 2))
    assert exps.n > n_bound and not exps.n - 1 > n_bound
    m_bound = max((exps.k + exps.n + 1) / 2, 5 * exps.n * 1 * 1 * (1 + 1) / (1 * 1 * 1))
    assert exps.m > m_bound and not exps.m - 1 > m_bound


def _broken(params, n):
    return [h["condition"] for h in hypotheses(params, n) if not h["holds"]]


def test_hypotheses_at_the_desk_scale_weight():
    # n = 5 is below the strict bound 21 and empties the sigma window (1/5 > 1/14)
    p = PhysParams(1, 1.0, -1j, 4.0)
    listed = hypotheses(p, 5)
    assert [h["condition"] for h in listed] == [
        "2/(N+2) < alpha < 2/N", "Im(lambda) < 0", "b > 0",
        "n >= the strict bound", "sigma window at n is nonempty"]
    assert _broken(p, 5) == ["n >= the strict bound", "sigma window at n is nonempty"]
    n_entry, window = listed[3], listed[4]
    assert (n_entry["value"], n_entry["requires"]) == (5, ">= 21")
    assert window["value"] == pytest.approx([1 / 5, 1 / 14])
    assert listed[0] == {"condition": "2/(N+2) < alpha < 2/N", "value": 1.0,
                         "requires": "in (0.666667, 2)", "holds": True}


def test_hypotheses_below_the_strict_bound_with_a_nonempty_window():
    # n = 16 keeps 1/16 < 1/14: only the strict bound is broken
    p = PhysParams(1, 1.0, -1j, 4.0)
    assert _broken(p, 16) == ["n >= the strict bound"]
    lo, hi = hypotheses(p, 16)[4]["value"]
    assert lo == pytest.approx(1 / 16) and hi == pytest.approx(1 / 14)
    assert _broken(p, 21) == []


@pytest.mark.parametrize(
    "params,broken",
    [
        (PhysParams(1, 1.0, 1.0 + 0j, 4.0), ["Im(lambda) < 0"]),
        (PhysParams(1, 1.0, -1j, -2.0), ["b > 0"]),
        # the weight bounds assume alpha inside the window: only the physical entries
        (PhysParams(1, 2.5, -1j, 1.0), ["2/(N+2) < alpha < 2/N"]),
    ],
)
def test_hypotheses_break_what_validate_phys_names(params, broken):
    assert len(validate_phys(params)) == 1
    listed = hypotheses(params, 21)
    assert len(listed) == (3 if params.alpha == 2.5 else 5)
    assert _broken(params, 21) == broken


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="invalid"):
        synthesize_exponents(PhysParams(1, 1.0, 1j, 4.0))


valid_params = st.builds(
    PhysParams,
    N=st.sampled_from([1, 2]),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    lam=st.builds(
        complex,
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=-0.05),
    ),
    b=st.floats(min_value=0.1, max_value=50),
).map(
    # squeeze alpha strictly inside the subcritical window for the drawn N
    lambda p: PhysParams(
        p.N,
        2 / (p.N + 2) + (2 / p.N - 2 / (p.N + 2)) * (0.02 + 0.96 * p.alpha),
        p.lam,
        p.b,
    )
)


@given(valid_params)
@settings(max_examples=60, deadline=None)
def test_derived_inequalities_hold_for_strict_sets(p):
    exps = synthesize_exponents(p)
    assert all(derived_inequalities(p, exps).values())

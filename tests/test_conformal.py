"""Frame-change identities: round trips, norm bridges, time maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dnlslab.conformal import (
    norm_bridge,
    physical_time,
    rescaled_time,
    to_u_frame,
)
from dnlslab.field import Field, Grid, build_initial_data, l2_norm, sup_norm
from dnlslab.params import PhysParams
from dnlslab.solver import SolverConfig, run
from lens import to_v_frame

REF = PhysParams(1, 1.0, -1j, 4.0)


def sample_v(s=0.2, M=256):
    g = Grid.line(30.0, M, boundary_tol=1e-4)
    x = g.axes()[0]
    vals = (1 + x**2) ** -2.5 * np.exp(0.3j * x) + 0.1 * np.exp(-(x**2) + 0.7j)
    return Field(g, vals.astype(complex), "v", s)


def test_time_maps_inverse_pair():
    assert physical_time(0.2, 4.0) == pytest.approx(1.0)
    assert rescaled_time(1.0, 4.0) == pytest.approx(0.2)


def test_time_map_domain():
    with pytest.raises(ValueError):
        physical_time(0.25, 4.0)
    with pytest.raises(ValueError):
        rescaled_time(-0.1, 4.0)


@given(
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_time_round_trip_property(frac, b):
    s = frac / b
    back = rescaled_time(physical_time(s, b), b)
    assert back == pytest.approx(s, rel=1e-13, abs=1e-15)


def test_round_trip_pointwise():
    v = sample_v()
    back = to_v_frame(to_u_frame(v, 4.0), 4.0)
    assert np.max(np.abs(back.values - v.values)) < 1e-13
    assert back.t == pytest.approx(0.2, abs=1e-15)
    assert back.frame == "v"


def test_initial_time_chirp():
    v = sample_v(s=0.0)
    u = to_u_frame(v, 4.0)
    x = v.grid.axes()[0]
    assert u.t == 0.0
    assert np.max(np.abs(u.values - np.exp(1j * x**2) * v.values)) < 1e-14  # b/4 = 1
    back = to_v_frame(u, 4.0)
    assert np.max(np.abs(back.values - u.values * np.exp(-1j * x**2))) < 1e-14


def test_b_zero_is_identity():
    v = sample_v(s=0.3)
    u = to_u_frame(v, 0.0)
    assert u.t == 0.3
    assert np.array_equal(u.values, v.values)
    assert u.grid == v.grid


def test_l2_bridge_exact():
    v = sample_v()
    u = to_u_frame(v, 4.0)
    assert abs(l2_norm(u) - l2_norm(v)) < 1e-12


def test_modulus_identity():
    v = sample_v()
    u = to_u_frame(v, 4.0)
    scale = 1.0 + 4.0 * u.t
    assert np.max(np.abs(np.abs(u.values) - scale ** -0.5 * np.abs(v.values))) < 1e-14
    assert sup_norm(u) == pytest.approx((1 - 4.0 * v.t) ** 0.5 * sup_norm(v), rel=1e-13)


def test_modulus_identity_2d():
    g = Grid.box(12.0, 64, dim=2)
    X, Y = g.meshes()
    v = Field(g, np.exp(-(X**2) - Y**2).astype(complex), "v", 0.1)
    u = to_u_frame(v, 2.0)
    scale = 1.0 + 2.0 * u.t
    assert np.max(np.abs(np.abs(u.values) - scale ** -1.0 * np.abs(v.values))) < 1e-14


def test_reference_grid_mismatch():
    v = sample_v()
    u = to_u_frame(v, 4.0)
    with pytest.raises(ValueError, match="mismatch"):
        to_v_frame(u, 4.0, reference=Grid.line(31.0, 256, boundary_tol=1e-4))
    ok = to_v_frame(u, 4.0, reference=v.grid)
    assert ok.grid == v.grid


def test_frame_tags_enforced():
    v = sample_v()
    with pytest.raises(ValueError, match="u-frame"):
        to_v_frame(v, 4.0)
    with pytest.raises(ValueError, match="v-frame"):
        to_u_frame(to_u_frame(v, 4.0), 4.0)


def v_run(b=4.0, floor=0.05):
    g = Grid.line(30.0, 128, boundary_tol=1e-3)
    v0 = build_initial_data(g, 1.0, 5)
    cfg = SolverConfig(frame="v", dt0=5e-3, horizon_floor=floor, snapshot_count=5)
    return run(v0, cfg, PhysParams(1, 1.0, -1j, b))


def test_norm_bridge_series():
    traj = v_run()
    series = norm_bridge(traj)
    assert np.allclose(series.t, traj.times / (1 - 4.0 * traj.times))
    assert np.array_equal(series.l2, traj.l2)
    assert np.allclose(series.linf, traj.linf * (1 - 4.0 * traj.times) ** 0.5)
    # constant ||v||_inf would give pure (1+bt)^{-1/2} decay; here it only
    # decays faster, so the bridged curve must be strictly decreasing
    assert np.all(np.diff(series.linf) < 0)


def test_norm_bridge_rejects_u_trajectory():
    traj = v_run()
    traj.frame = "u"
    with pytest.raises(ValueError, match="v-frame"):
        norm_bridge(traj)

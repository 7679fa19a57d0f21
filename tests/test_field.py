"""Grid, spectral derivative, weighted norm, and snapshot round-trip tests."""

import tracemalloc

import numpy as np
import pytest

from dnlslab.field import (
    BoundaryDecayError,
    DerivativeOrderError,
    Field,
    Grid,
    SnapshotStore,
    _axis_derivatives,
    build_initial_data,
    check_boundary_decay,
    data_bound,
    l2_norm,
    load_field,
    save_field,
    spectral_derivative,
    sup_norm,
    weighted_inf,
)
from oracles import derivative_orders, wavenumber_sq, weighted_sup_norm


def gaussian_field(L=12.0, M=256, a=1.0):
    g = Grid.line(L, M)
    x = g.axes()[0]
    return g, x, Field(g, np.exp(-a * x**2).astype(complex), "v", 0.0)


def test_grid_rejects_odd_points():
    with pytest.raises(ValueError, match="even"):
        Grid.line(10.0, 255)


def test_grid_rejects_dim_3():
    with pytest.raises(ValueError, match="dimensions"):
        Grid((5.0, 5.0, 5.0), (8, 8, 8))


def test_grid_scaled():
    g = Grid.line(10.0, 64).scaled(0.5)
    assert g.extents == (5.0,)
    assert g.spacings[0] == pytest.approx(10.0 / 64)


def test_plane_wave_is_multiplier_eigenfunction():
    # on [-pi, pi) the integer modes are exact grid wavenumbers
    g = Grid.line(np.pi, 64)
    x = g.axes()[0]
    f = Field(g, np.exp(3j * x), "u", 0.0)
    for order, eig in [(1, 3j), (2, -9.0), (4, 81.0)]:
        df = spectral_derivative(f, order, check=False)
        assert np.max(np.abs(df.values - eig * f.values)) < 1e-11 * abs(eig)


HERMITE = {
    1: lambda x: -2 * x,
    2: lambda x: 4 * x**2 - 2,
    3: lambda x: 12 * x - 8 * x**3,
    4: lambda x: 16 * x**4 - 48 * x**2 + 12,
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gaussian_derivatives(order):
    _, x, f = gaussian_field()
    df = spectral_derivative(f, order)
    exact = HERMITE[order](x) * np.exp(-(x**2))
    assert np.max(np.abs(df.values - exact)) < 1e-10


def test_order_zero_is_identity():
    _, _, f = gaussian_field()
    df = spectral_derivative(f, 0)
    assert np.array_equal(df.values, f.values)
    assert df.values is not f.values


def test_mixed_partial_2d():
    g = Grid.box(10.0, 128, dim=2)
    X, Y = g.meshes()
    f = Field(g, np.exp(-(X**2) - Y**2).astype(complex), "v", 0.0)
    df = spectral_derivative(f, (1, 1))
    exact = 4 * X * Y * np.exp(-(X**2) - Y**2)
    assert np.max(np.abs(df.values - exact)) < 1e-10


def test_derivative_linearity():
    g, x, f = gaussian_field()
    h = Field(g, (x * np.exp(-(x**2))).astype(complex), "v", 0.0)
    lhs = spectral_derivative(f.with_values(2 * f.values + 3j * h.values), 2)
    rhs = 2 * spectral_derivative(f, 2).values + 3j * spectral_derivative(h, 2).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_order_cap():
    _, _, f = gaussian_field()
    with pytest.raises(DerivativeOrderError):
        spectral_derivative(f, 5)
    # raising the cap unlocks the order
    spectral_derivative(f, 5, max_order=6)


def test_boundary_check_refuses_wide_field():
    g = Grid.line(2.0, 64)
    x = g.axes()[0]
    f = Field(g, np.exp(-(x**2) / 100).astype(complex), "v", 0.0)
    with pytest.raises(BoundaryDecayError):
        spectral_derivative(f, 1)
    with pytest.raises(BoundaryDecayError):
        check_boundary_decay(f)


def test_gaussian_l2_norm():
    # integral of e^{-2x^2} is sqrt(pi/2)
    _, _, f = gaussian_field()
    assert l2_norm(f) == pytest.approx((np.pi / 2) ** 0.25, abs=1e-8)
    assert sup_norm(f) == pytest.approx(1.0)


def test_weight_cancellation():
    g = Grid.line(30.0, 512)
    f = Field(g, g.bracket() ** -5.0 + 0j, "v", 0.0)
    assert weighted_sup_norm(f, 5) == pytest.approx(1.0)
    low, _ = weighted_inf(f, 5)
    assert low == pytest.approx(1.0)


def test_weighted_inf_location_at_far_edge():
    # <x>^{p-n} with p < n is smallest at the largest |x|, i.e. x = -L
    g = Grid.line(30.0, 512)
    f = Field(g, g.bracket() ** -5.0 + 0j, "v", 0.0)
    _, loc = weighted_inf(f, 3)
    assert loc[0] == -30.0


GEOMETRY_GRIDS = [Grid.line(30.0, 64), Grid.line(30.0, 64).scaled(1.37),
                  Grid.box(30.0, 32, 2), Grid((30.0, 12.5), (32, 16)).scaled(2.9)]


def _meshgrid_geometry(g):
    # |x|^2 and |k|^2 as sums over np.meshgrid's full meshes, the formulas the
    # broadcast per-axis squares must reproduce bit for bit
    meshes = g.axes() if g.dim == 1 else np.meshgrid(*g.axes(), indexing="ij")
    r2 = 0.0
    for x in meshes:
        r2 = r2 + x**2
    ks = g.wavenumbers()
    if g.dim == 1:
        return r2, ks[0] ** 2
    kx, ky = np.meshgrid(*ks, indexing="ij")
    return r2, kx**2 + ky**2


@pytest.mark.parametrize("g", GEOMETRY_GRIDS)
def test_geometry_equals_the_meshgrid_formulas_bitwise(g):
    r2, k2 = _meshgrid_geometry(g)
    bracket = np.sqrt(1.0 + r2)
    for got, want in [(g.radius_sq(), r2), (wavenumber_sq(g), k2), (g.bracket(), bracket),
                      *((g.bracket_pow(p), bracket**p) for p in (5, -5.0, -4.0, 2.5))]:
        assert got.shape == g.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("g", GEOMETRY_GRIDS)
def test_weighted_inf_location_is_the_mesh_point(g):
    vals = np.random.default_rng(11).uniform(0.5, 2.0, g.shape) + 0j
    low, loc = weighted_inf(Field(g, vals, "v", 0.0), 3)
    weighted = g.bracket_pow(3) * np.abs(vals)
    idx = np.unravel_index(int(np.argmin(weighted)), g.shape)
    assert low == weighted[idx]
    assert loc == tuple(float(m[idx]) for m in g.meshes())


def test_initial_data_keeps_only_the_data_and_its_weight():
    # of the geometry only <x>^n, which the records and monitors read again,
    # stays on the grid: v0 and <x>^5 are 1.5 MiB at 256^2, where caching the
    # meshes, |x|^2, <x> and <x>^-5 too kept 4.0 MiB
    g = Grid.box(30.0, 256, 2, boundary_tol=1e-3)
    tracemalloc.start()
    try:
        v0 = build_initial_data(g, 1.0, 5)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    print(f"kept {kept / 2**20:.2f} MiB")
    assert kept <= 1.6 * 2**20
    assert list(g.__dict__["_geometry"]) == [("bracket_pow", 5)]
    assert v0.values.nbytes == 2**20


@pytest.mark.parametrize("p,q", [(0, 1), (1, 3), (2, 5)])
def test_weighted_norms_monotone_in_weight(p, q):
    _, _, f = gaussian_field()
    assert weighted_sup_norm(f, p) <= weighted_sup_norm(f, q)


def test_build_initial_data_plain():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5)
    low, _ = weighted_inf(v0, 5)
    assert low == pytest.approx(1.0)
    # order 0 contributes exactly 1 and the reciprocal-inf term exactly 1
    assert data_bound(v0, 5) >= 2.0


def test_build_initial_data_with_bump():
    g = Grid.line(30.0, 512, boundary_tol=1e-4)
    v0 = build_initial_data(g, 1.0, 5, bump=lambda x: 0.5 * np.exp(-(x**2)))
    low, _ = weighted_inf(v0, 5)
    assert low >= 1.0 - 1e-12  # bump only adds mass on top of the positive base


def test_build_initial_data_rejects_zero_c():
    g = Grid.line(30.0, 512)
    with pytest.raises(ValueError, match="nonzero"):
        build_initial_data(g, 0.0, 5)


def test_build_initial_data_rejects_cancelling_bump():
    g = Grid.line(30.0, 512)
    with pytest.raises(ValueError, match="vanishes"):
        build_initial_data(g, 1.0, 5, bump=lambda x: -((1.0 + x**2) ** -2.5))


def test_snapshot_round_trip(tmp_path):
    g = Grid.line(12.0, 64, boundary_tol=3e-7)
    rng = np.random.default_rng(11)
    f = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64), "v", 0.125)
    save_field(f, tmp_path / "snap_000")
    g2 = load_field(tmp_path / "snap_000")
    assert np.array_equal(g2.values, f.values)
    assert g2.grid == f.grid
    assert g2.frame == "v"
    assert g2.t == 0.125


def test_snapshot_round_trip_is_bitwise(tmp_path):
    # signed zeros and non-finite parts survive; a rebuilt re + 1j*im loses both
    g = Grid((8.0, 8.0), (8, 8))
    vals = np.full(g.shape, complex(-0.0, -0.0))
    vals[0, :4] = [complex(1.0, np.inf), complex(np.inf, -0.0), complex(np.nan, 2.0),
                   complex(-np.inf, -np.inf)]
    vals[1] = np.arange(8) - 3.5j
    save_field(Field(g, vals, "v", 0.0), tmp_path / "snap")
    loaded = load_field(tmp_path / "snap").values
    assert loaded.dtype == vals.dtype and loaded.tobytes() == vals.tobytes()
    assert (tmp_path / "snap.bin").read_bytes() == vals.astype("<c16").tobytes()


def test_snapshot_store_keeps_the_ends_and_reads_the_rest_back(tmp_path):
    g = Grid((8.0, 8.0), (8, 8))
    rng = np.random.default_rng(3)
    fields = [Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape), "v", t)
              for t in (0.0, 0.01, 0.02, 0.04)]
    out = tmp_path / "out"
    with SnapshotStore.staged(out) as store:
        for i, f in enumerate(fields):
            store.append(f)  # written as it is appended
            series = (store.directory / "series.bin").read_bytes()
            assert series == b"".join(h.values.tobytes() for h in fields[:i + 1])
        assert not (store.directory / "series.json").exists()  # written once, by publish
        store.publish(out)
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["series.bin", "series.json"]
    assert len(store) == 4 and store.times == [0.0, 0.01, 0.02, 0.04]
    # only the first field stays in memory; the last is read back like the rest
    assert store[0] is fields[0] and store[-1] is not fields[3]
    assert store[-1].t == fields[3].t and store[-1].values.tobytes() == fields[3].values.tobytes()
    for i, f in enumerate(store):
        assert f.grid == g and f.frame == "v" and f.t == fields[i].t
        assert f.values.tobytes() == fields[i].values.tobytes()
        stored = load_field(out / "snapshots" / "series", i)
        assert stored.t == f.t and stored.values.tobytes() == f.values.tobytes()
    with pytest.raises(IndexError):
        store[4]
    with pytest.raises(IndexError):
        store[-5]
    with pytest.raises(IndexError, match="index 4 is outside the series' 4 fields"):
        load_field(out / "snapshots" / "series", 4)


def test_snapshot_payload_mismatch(tmp_path):
    g = Grid.line(12.0, 64)
    f = Field(g, np.zeros(64, dtype=complex), "u", 0.0)
    bin_path, _ = save_field(f, tmp_path / "snap")
    bin_path.write_bytes(bin_path.read_bytes()[:-16])
    with pytest.raises(ValueError, match="payload"):
        load_field(tmp_path / "snap")


def _fresh_moduli(f, orders, axes=None):
    # data_bound's arithmetic per multi-index, with new arrays at every step,
    # one axis at a time in the order `axes` (x first unless given)
    out, ks = {}, f.grid.wavenumbers()
    for beta in orders:
        d = f.values
        for ax in range(f.grid.dim) if axes is None else axes:
            if beta[ax]:
                shape = [1] * f.grid.dim
                shape[ax] = ks[ax].size
                d = np.fft.ifft(np.fft.fft(d, axis=ax) * (1j * ks[ax].reshape(shape)) ** beta[ax],
                                axis=ax)
        out[beta] = np.abs(d)
    return out


@pytest.mark.parametrize("dim,M", [(1, 128), (2, 32)])
@pytest.mark.parametrize("reverse", [False, True], ids=["listed", "reversed"])
def test_ladder_only_reads_a_read_only_snapshot(dim, M, reverse):
    # a snapshot's values are never written: the single-axis ladder reads them
    # and gives every modulus of the oracle bit for bit, whichever axis it
    # walks first
    grid = Grid.box(30.0, M, dim, boundary_tol=1e-2)
    v0 = build_initial_data(grid, 1.0, 5)
    snap = Field(grid, 0.7 * v0.values * np.exp(0.2j * sum(grid.meshes())), "v", 0.01)
    snap.values.flags.writeable = False
    axes = list(range(dim))[::-1 if reverse else 1]
    got = {}
    for b0, d0 in enumerate(_axis_derivatives(snap.values, axes[0], 4, grid)):
        inner = [d0] if dim == 1 else _axis_derivatives(d0, axes[1], 4 - b0, grid)
        for b1, d in enumerate(inner):
            beta = [0] * dim
            beta[axes[0]] = b0
            beta[axes[-1]] += b1
            got[tuple(beta)] = np.abs(d).tobytes()
    orders = derivative_orders(dim, 4)
    expect = _fresh_moduli(snap, orders, axes)
    assert sorted(got) == sorted(orders)
    assert all(got[beta] == expect[beta].tobytes() for beta in orders)


@pytest.mark.parametrize("dim,M", [(1, 128), (2, 32)])
def test_data_bound_only_reads_a_read_only_v0(dim, M):
    # v0's values are never written: K is the running max over every multi-index
    # of the oracle's moduli, bit for bit
    grid = Grid.box(30.0, M, dim, boundary_tol=1e-2)
    base = build_initial_data(grid, 1.0, 5)
    v0 = base.with_values(0.7 * base.values * np.exp(0.2j * sum(grid.meshes())))
    v0.values.flags.writeable = False
    weight = grid.bracket_pow(5)
    worst = max(float(np.max(weight * mod))
                for mod in _fresh_moduli(v0, derivative_orders(dim, 4)).values())
    assert data_bound(v0, 5) == worst + 1.0 / weighted_inf(v0, 5)[0]


@pytest.mark.parametrize("L,M,dim,tol,K", [(30.0, 2048, 1, 1e-4, 75838.11137445591),
                                          (30.0, 256, 2, 1e-3, 328753.2369386362)],
                         ids=["ref1d", "ref2d"])
def test_data_bound_of_the_reference_data(L, M, dim, tol, K):
    # the benchmark references' data constant, exactly
    assert data_bound(build_initial_data(Grid.box(L, M, dim, boundary_tol=tol), 1.0, 5), 5) == K

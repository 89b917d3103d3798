import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dlab.errors import DomainMismatchError, InvalidExponentError, SnapshotFormatError
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Weight,
    broadcast_along,
    gradient_fields,
    gradient_magnitude,
    lp_norm,
    random_field,
    read_snapshot,
    sobolev_norm,
    to_frequency,
    to_physical,
    weighted_lp_norm,
    write_snapshot,
)
from conftest import direct_dft


def test_grid_invariants():
    with pytest.raises(ValueError):
        SpectralGrid(m=12, L=16.0)
    with pytest.raises(ValueError):
        SpectralGrid(m=4, L=16.0)
    with pytest.raises(ValueError):
        SpectralGrid(m=16, L=-1.0)
    g = SpectralGrid(m=16, L=32.0)
    assert g.dx == 2.0
    assert g.dxi == pytest.approx(2 * np.pi / 32.0)
    assert g.x1d[0] == -16.0 and g.x1d[-1] == 14.0


@pytest.mark.parametrize("name", ["x1d", "xi1d", "xi1d_fft", "x_squared", "xi_squared"])
def test_cached_coordinates_are_read_only(name):
    g = SpectralGrid(m=8, L=4.0)
    f = random_field(g, 2)
    before = weighted_lp_norm(f, Weight("powerlaw", 1), 2)
    arr = getattr(g, name)
    with pytest.raises(ValueError):
        arr[...] = 0.0
    assert getattr(g, name) is arr
    assert weighted_lp_norm(f, Weight("powerlaw", 1), 2) == before


def test_constant_maps_to_zero_mode(grid8):
    f = Field.physical(grid8, np.ones(grid8.shape))
    fh = to_frequency(f)
    center = (grid8.m // 2,) * 4
    assert fh.values[center] == pytest.approx(grid8.L**4)
    rest = np.abs(fh.values).sum() - abs(fh.values[center])
    assert rest < 1e-9 * grid8.L**4


def test_plane_wave_single_mode(grid8):
    g = grid8
    xi0 = g.dxi * np.array([1, -2, 0, 3])
    phase = sum(xi0[i] * g.axis_coord(i + 1) for i in range(4))
    f = Field.physical(g, np.exp(1j * phase))
    fh = to_frequency(f)
    idx = tuple(g.m // 2 + np.array([1, -2, 0, 3]))
    assert fh.values[idx] == pytest.approx(g.L**4)
    mask = np.ones(g.shape, dtype=bool)
    mask[idx] = False
    assert np.abs(fh.values[mask]).max() < 1e-8 * g.L**4


def test_roundtrip_random(grid8):
    f = random_field(grid8, 11)
    f2 = to_physical(to_frequency(f))
    rel = np.abs(f2.values - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-12


def test_transform_matches_direct_dft_oracle(grid8):
    f = random_field(grid8, 5)
    fh = to_frequency(f)
    oracle = direct_dft(f)
    assert np.abs(fh.values - oracle).max() < 1e-9 * np.abs(oracle).max()


@pytest.mark.parametrize("m", [8, 16])
def test_parseval_many_random_fields(m):
    g = SpectralGrid(m=m, L=16.0)
    w = (g.dxi / (2 * np.pi)) ** 4
    for seed in range(100):
        f = random_field(g, seed)
        fh = to_frequency(f)
        a = lp_norm(f, 2)
        b = np.sqrt(w * np.sum(np.abs(fh.values) ** 2))
        assert abs(a - b) <= 1e-12 * a


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_transform_linearity(seed_a, seed_b):
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, seed_a)
    h = random_field(g, seed_b)
    a, b = 1.7 - 0.3j, -0.2 + 2.1j
    lhs = to_frequency(Field.physical(g, a * f.values + b * h.values))
    rhs = a * to_frequency(f).values + b * to_frequency(h).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs.values - rhs).max() <= 1e-12 * max(scale, 1.0)


def test_domain_mismatch_errors(grid8):
    f = random_field(grid8, 1)
    with pytest.raises(DomainMismatchError):
        to_physical(f)
    with pytest.raises(DomainMismatchError):
        to_frequency(to_frequency(f))
    with pytest.raises(DomainMismatchError):
        lp_norm(to_frequency(f), 2)


def test_lp_norm_examples():
    g = SpectralGrid(m=8, L=16.0)
    const = Field.physical(g, np.ones(g.shape))
    assert lp_norm(const, 2) == pytest.approx(g.L**2)
    phase = np.broadcast_to(g.axis_coord(1) * g.dxi, g.shape)
    wave = Field.physical(g, np.exp(1j * phase))
    assert lp_norm(wave, 4) == pytest.approx(g.L)
    with pytest.raises(InvalidExponentError):
        lp_norm(const, 0.5)


def test_lp_norm_gaussian_analytic():
    # pi^(d/4) with spectral-tail and box-tail both below 1e-6 at m=32, L=16
    g = SpectralGrid(m=32, L=16.0)
    f = Field.physical(g, np.exp(-g.x_squared / 2.0))
    assert lp_norm(f, 2) == pytest.approx(np.pi, rel=1e-6)


def test_lp_norm_infinity_and_monotone():
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, 3)
    assert lp_norm(f, np.inf) == pytest.approx(np.abs(f.values).max())
    bigger = Field.physical(g, (np.abs(f.values) + 0.5))
    for r in (1, 2, 3.5, np.inf):
        assert lp_norm(f, r) <= lp_norm(bigger, r)


@given(st.integers(0, 10_000), st.floats(1.0, 12.0))
@settings(max_examples=15, deadline=None)
def test_lp_monotone_in_magnitude(seed, r):
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, seed)
    gfield = Field.physical(g, np.abs(f.values) * 1.001 + 0.01)
    assert lp_norm(f, r) <= lp_norm(Field.physical(g, np.abs(gfield.values)), r) + 1e-12


def test_weighted_norm_reduces_to_lp(grid8):
    f = random_field(grid8, 2)
    w0 = Weight("japanese", 0.0)
    assert weighted_lp_norm(f, w0, 3) == pytest.approx(lp_norm(f, 3))


def test_weighted_norm_origin_bump():
    g = SpectralGrid(m=8, L=16.0)
    vals = np.zeros(g.shape)
    vals[(g.m // 2,) * 4] = 1.0  # unit bump at the origin node
    f = Field.physical(g, vals)
    assert weighted_lp_norm(f, Weight("powerlaw", 0.5), np.inf) == pytest.approx(0.0)


def test_weighted_gaussian_vs_radial_quadrature_oracle():
    g = SpectralGrid(m=32, L=16.0)
    f = Field.physical(g, np.exp(-g.x_squared / 2.0))
    val = weighted_lp_norm(f, Weight("japanese", 1.0), 2)
    # oracle: 2 pi^2 int r^3 (1 + r^2) e^{-r^2} dr over the half-line
    oracle_sq, _ = integrate.quad(
        lambda r: 2 * np.pi**2 * r**3 * (1 + r * r) * np.exp(-r * r), 0, 30
    )
    assert val == pytest.approx(np.sqrt(oracle_sq), rel=1e-8)


def test_sobolev_norm_plane_wave():
    g = SpectralGrid(m=8, L=2 * np.pi)
    xi0 = g.dxi * 2
    f = Field.physical(g, np.exp(1j * np.broadcast_to(xi0 * g.axis_coord(1), g.shape)))
    expected = (1 + xi0**2) ** 0.25 * lp_norm(f, 2)
    assert sobolev_norm(f, 0.5) == pytest.approx(expected, rel=1e-12)
    assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(
        abs(xi0) * lp_norm(f, 2), rel=1e-12
    )


def test_snapshot_roundtrip(tmp_path, grid8):
    f = random_field(grid8, 9)
    path = tmp_path / "field.dlab"
    write_snapshot(f, path)
    f2 = read_snapshot(path)
    assert f2.grid == grid8
    assert np.array_equal(f2.values, f.values)
    raw = path.read_bytes()
    assert raw[:4] == b"DLAB"
    assert len(raw) == 32 + 16 * grid8.size


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dlab"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)
    path.write_bytes(b"DLAB" + b"\x00" * 28)  # valid-length header, zero fields
    with pytest.raises((SnapshotFormatError, ValueError)):
        read_snapshot(path)


def test_field_immutable(grid8):
    f = random_field(grid8, 0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 1.0


def test_trajectory_invariants(grid8):
    from dlab.grid import Trajectory

    f = random_field(grid8, 0)
    with pytest.raises(ValueError):
        Trajectory(grid8, 0.0, 0.1, ())
    with pytest.raises(ValueError):
        Trajectory(grid8, 0.0, -0.1, (f,))
    tr = Trajectory(grid8, 0.0, 0.5, (f, f, f))
    assert tr.frame_index(1.0) == 2
    with pytest.raises(ValueError):
        tr.frame_index(0.3)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
def test_gradient_fields_match_centred_textbook_form(m, domain):
    # oracle: to_frequency -> centred i*xi with the Nyquist (centred index 0)
    # zeroed -> to_physical, one axis at a time
    g = SpectralGrid(m=m, L=6.0)
    f = random_field(g, 11)
    fh = to_frequency(f).values
    coord = g.xi1d.copy()
    coord[0] = 0.0
    parts = gradient_fields(f.in_domain(domain))
    mag2 = np.zeros(g.shape)
    for ax in range(g.d):
        ref = to_physical(Field(g, FREQUENCY, fh * 1j * broadcast_along(coord, ax, g.d)))
        assert parts[ax].domain == PHYSICAL
        scale = np.abs(ref.values).max()
        assert np.abs(parts[ax].values - ref.values).max() <= 1e-13 * scale
        mag2 += np.abs(ref.values) ** 2
    mag = gradient_magnitude(f.in_domain(domain))
    assert np.abs(mag - np.sqrt(mag2)).max() <= 1e-13 * np.sqrt(mag2).max()


def test_xi1d_fft_is_the_fft_ordering_of_xi1d(grid8):
    assert np.array_equal(grid8.xi1d_fft, np.fft.ifftshift(grid8.xi1d))
    assert grid8.xi1d_fft[0] == 0.0
    assert grid8.xi1d_fft[grid8.m // 2] == -grid8.xi_max

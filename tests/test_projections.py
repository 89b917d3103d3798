import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlab.errors import BandUnresolvedError
from dlab.grid import FREQUENCY, Field, SpectralGrid, lp_norm, random_field, to_physical
from dlab.projections import (
    Band,
    annihilation_residual,
    band_symbol,
    directional_bump,
    directional_projection,
    dyadic_partition_residual,
    dyadic_projection,
    partition_of_unity_residual,
    phi1,
    psi_symbol,
    radial_cutoff,
    spatial_cutoff,
    spatial_symbol,
    unit_projection,
)
from dlab.propagate import schrodinger_flow


def test_phi1_profile_properties():
    x = np.linspace(-3, 3, 3001)
    vals = phi1(x)
    assert phi1(np.array([0.0]))[0] == pytest.approx(1.0)
    assert np.all(vals[np.abs(x) >= 1.0] == 0.0)
    assert np.abs(vals - phi1(-x)).max() < 1e-15
    shift_sum = sum(phi1(x - n) for n in range(-4, 5))
    assert np.abs(shift_sum - 1.0).max() < 1e-10


def test_radial_cutoff_plateaus():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    v = radial_cutoff(r)
    assert np.all(v[r <= 1.0] == 1.0)
    assert np.all(v[r >= 2.0] == 0.0)
    assert 0.0 < v[3] < 1.0


def test_directional_bump_plateau_exact():
    r = np.array([1.0 / 16, 1.0 / 8, 0.5, 1.0, 4.0, 8.0, 9.0])
    v = directional_bump(r)
    assert v[0] == 0.0 and v[-1] == 0.0 and v[-2] == 0.0
    assert np.all(v[(r >= 1.0 / 8) & (r <= 4.0)] == 1.0)


@pytest.mark.parametrize("m,L", [(8, 16.0), (16, 16.0)])
def test_partition_of_unity_on_grid(m, L):
    assert partition_of_unity_residual(SpectralGrid(m=m, L=L)) <= 1e-10


def test_dyadic_partition_within_resolved_range():
    g = SpectralGrid(m=32, L=4 * np.pi)  # dxi = 0.5
    res = dyadic_partition_residual(g, [0.5, 1.0, 2.0, 4.0, 8.0])
    assert res <= 1e-10


def test_unit_projection_pointmass_identity():
    # integer lattice point k on the frequency lattice (dxi = 0.5)
    g = SpectralGrid(m=16, L=4 * np.pi)
    k = (1, 0, -2, 0)
    vals = np.zeros(g.shape, dtype=complex)
    idx = tuple(g.m // 2 + int(round(c / g.dxi)) for c in k)
    vals[idx] = 1.0
    f = Field(g, FREQUENCY, vals)
    pf = unit_projection(f, k)
    assert np.abs(pf.values - f.values).max() < 1e-14  # psi(0) = 1


def test_unit_projection_far_support_vanishes():
    g = SpectralGrid(m=16, L=4 * np.pi)
    vals = np.zeros(g.shape, dtype=complex)
    vals[(g.m // 2 + 6, g.m // 2, g.m // 2, g.m // 2)] = 1.0  # xi = (3,0,0,0)
    f = Field(g, FREQUENCY, vals)
    pf = unit_projection(f, (0, 0, 0, 0))
    assert np.abs(pf.values).max() == 0.0


def test_unit_partition_reconstructs_band_limited_field():
    g = SpectralGrid(m=16, L=4 * np.pi)
    f = random_field(g, 3, domain=FREQUENCY, band_limit=2.0)
    K = 4
    acc = np.zeros(g.shape, dtype=complex)
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            for k3 in range(-K, K + 1):
                for k4 in range(-K, K + 1):
                    if max(abs(k1), abs(k2), abs(k3), abs(k4)) <= 3:
                        acc += unit_projection(f, (k1, k2, k3, k4)).values
    scale = np.abs(f.values).max()
    assert np.abs(acc - f.values).max() <= 1e-10 * scale


def test_fattening_identity():
    g = SpectralGrid(m=16, L=4 * np.pi)
    f = random_field(g, 1)
    pn = dyadic_projection(f, Band.dyadic(1.0))
    pn_fat = dyadic_projection(pn, Band.fattened(1.0))
    assert np.abs(pn_fat.values - pn.values).max() <= 1e-12 * np.abs(pn.values).max()


def test_leq_gt_complementary():
    g = SpectralGrid(m=16, L=4 * np.pi)
    f = random_field(g, 2)
    lo = dyadic_projection(f, Band.leq(2.0))
    hi = dyadic_projection(f, Band.gt(2.0))
    assert np.abs(lo.values + hi.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_band_unresolved_error():
    g = SpectralGrid(m=16, L=4 * np.pi)  # resolved range [0.5, 4]
    f = random_field(g, 0)
    with pytest.raises(BandUnresolvedError):
        dyadic_projection(f, Band.dyadic(16.0))
    with pytest.raises(BandUnresolvedError):
        dyadic_projection(f, Band.dyadic(0.125))


def test_directional_plateau_and_hyperplane():
    g = SpectralGrid(m=16, L=4 * np.pi)
    # mode with |xi_1| = N = 2 sits on the plateau -> unchanged
    vals = np.zeros(g.shape, dtype=complex)
    vals[(g.m // 2 + 4, g.m // 2 + 1, g.m // 2, g.m // 2)] = 1.0
    f = Field(g, FREQUENCY, vals)
    pf = directional_projection(f, 2.0, 1)
    assert np.abs(pf.values - f.values).max() < 1e-14
    # mode on the xi_1 = 0 hyperplane -> killed
    vals2 = np.zeros(g.shape, dtype=complex)
    vals2[(g.m // 2, g.m // 2 + 2, g.m // 2, g.m // 2)] = 1.0
    f2 = Field(g, FREQUENCY, vals2)
    assert np.abs(directional_projection(f2, 2.0, 1).values).max() == 0.0
    with pytest.raises(ValueError):
        directional_projection(f, 2.0, 5)


@pytest.mark.parametrize("N", [1.0, 2.0])
def test_annihilation_identity(N):
    g = SpectralGrid(m=16, L=4 * np.pi)
    assert annihilation_residual(g, N) <= 1e-15
    f = random_field(g, 7)
    out = dyadic_projection(f, Band.dyadic(N))
    for ax in (1, 2, 3, 4):
        out = Field(
            out.grid,
            out.domain,
            out.values - directional_projection(out, N, ax).values,
        )
    assert lp_norm(out.in_domain("physical"), 2) <= 1e-12 * lp_norm(
        f.in_domain("physical"), 2
    )


def test_spatial_cutoff_telescoping():
    g = SpectralGrid(m=16, L=64.0)
    f = random_field(g, 4)
    acc = np.zeros(g.shape, dtype=complex)
    J = 3
    for j in range(J + 1):
        acc += spatial_cutoff(f, "chi", j).values
    leq = spatial_cutoff(f, "chi_leq", J)
    assert np.abs(acc - leq.values).max() <= 1e-12 * np.abs(f.values).max()


def test_spatial_cutoff_support():
    g = SpectralGrid(m=8, L=256.0)
    vals = np.zeros(g.shape, dtype=complex)
    vals[(g.m // 2,) * 4] = 1.0  # supported at |x| = 0 <= 1
    f = Field.physical(g, vals)
    assert np.abs(spatial_cutoff(f, "chi", 5).values).max() == 0.0
    with pytest.raises(ValueError):
        spatial_cutoff(f, "chi", -1)


def test_spatial_fattened_identity():
    g = SpectralGrid(m=16, L=64.0)
    f = random_field(g, 5)
    for j in (0, 1, 3):
        cj = spatial_cutoff(f, "chi", j)
        cj_fat = spatial_cutoff(cj, "chi_fattened", j)
        assert np.abs(cj_fat.values - cj.values).max() <= 1e-12 * max(
            np.abs(cj.values).max(), 1e-300
        )


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_idempotence_up_to_fattening(seed):
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = random_field(g, seed)
    N = 1.0
    a = dyadic_projection(
        dyadic_projection(dyadic_projection(f, Band.dyadic(N)), Band.fattened(N)),
        Band.dyadic(N),
    )
    b = dyadic_projection(dyadic_projection(f, Band.dyadic(N)), Band.dyadic(N))
    assert np.abs(a.values - b.values).max() <= 1e-12 * max(np.abs(b.values).max(), 1e-300)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_projections_commute_with_flow(seed):
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = random_field(g, seed)
    t = 0.37
    a = schrodinger_flow(dyadic_projection(f, Band.dyadic(1.0)), t)
    b = dyadic_projection(schrodinger_flow(f, t), Band.dyadic(1.0))
    assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(f.values).max()
    ka = schrodinger_flow(unit_projection(f, (1, 0, 0, 0)), t)
    kb = unit_projection(schrodinger_flow(f, t), (1, 0, 0, 0))
    assert np.abs(ka.values - kb.values).max() <= 1e-12 * np.abs(f.values).max()


def test_unit_scale_bernstein_uniformity():
    # ratio ||P_k f||_{r2} / ||P_k f||_{r1} varies by at most 2 across cells
    # (|k| in {1, 2, 4, 6} on this lattice; translates are lattice-exact)
    g = SpectralGrid(m=32, L=4 * np.pi)
    ks = [(1, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0), (6, 0, 0, 0), (2, 2, 2, 2)]
    for r1, r2 in ((2, 4), (2, np.inf), (4, np.inf)):
        ratios = []
        for k in ks:
            f = Field(g, FREQUENCY, psi_symbol(g, k).astype(complex))
            phys = to_physical(f)
            ratios.append(lp_norm(phys, r2) / lp_norm(phys, r1))
        assert max(ratios) / min(ratios) <= 2.0


def test_spatial_symbol_rejects_unknown():
    g = SpectralGrid(m=8, L=16.0)
    with pytest.raises(ValueError):
        spatial_symbol(g, "nope", 1)


def test_directional_symbol_is_a_read_only_broadcast_factor():
    g = SpectralGrid(m=16, L=8.0)
    for ax in range(1, g.d + 1):
        sym = band_symbol(g, Band.directional(2.0, ax))
        assert sym.size == g.m
        full = np.broadcast_to(
            directional_bump(np.abs(g.axis_coord(ax, frequency=True)) / 2.0), g.shape
        ).copy()
        assert np.array_equal(np.broadcast_to(sym, g.shape), full)
        with pytest.raises(ValueError):
            sym[...] = 0.0
    for band in (Band.dyadic(2.0), Band.leq(2.0), Band.gt(2.0), Band.fattened(1.0)):
        with pytest.raises(ValueError):
            band_symbol(g, band)[0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        spatial_symbol(g, "chi", 1)[0, 0, 0, 0] = 0.0

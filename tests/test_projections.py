import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlab.errors import BandUnresolvedError
from dlab.grid import FREQUENCY, Field, SpectralGrid, _support_box, lp_norm, random_field, to_physical
from dlab.projections import (
    Band,
    annihilation_residual,
    band_box,
    band_box_symbol,
    band_symbol,
    directional_bump,
    directional_projection,
    dyadic_partition_residual,
    dyadic_projection,
    partition_of_unity_residual,
    phi1,
    psi_symbol,
    radial_cutoff,
    resolved_dyadic_range,
    spatial_cutoff,
    spatial_symbol,
    unit_projection,
)
from dlab.propagate import schrodinger_flow


def test_only_projections_evaluates_phi1():
    # cell profiles come only from cell_matrix, unit_cell_tables and psi_symbol:
    # no other module imports, calls or names phi1
    import ast
    from pathlib import Path

    import dlab

    src = Path(dlab.__file__).parent
    users = []
    for p in sorted(src.glob("*.py")):
        names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
        if p.name != "projections.py" and "phi1" in names:
            users.append(p.name)
    assert users == []


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


# the grids of the CLI verifiers' defaults and of the benchmark's verify run
CLI_GRIDS = [SpectralGrid(m=16, L=2 * np.pi), SpectralGrid(m=16, L=4 * np.pi),
             SpectralGrid(m=16, L=8 * np.pi), SpectralGrid(m=32, L=4.0),
             SpectralGrid(m=32, L=4 * np.pi), SpectralGrid(m=32, L=8 * np.pi)]


@pytest.mark.parametrize("grid", CLI_GRIDS, ids=lambda g: f"m{g.m}-L{g.L:.3g}")
def test_support_box_holds_every_nonzero_of_the_pruned_multipliers(grid):
    lo, hi = resolved_dyadic_range(grid)
    bands = [2.0**j for j in range(int(np.ceil(np.log2(lo) - 1e-9)), int(np.floor(np.log2(hi) + 1e-9)) + 1)]
    edge = int(grid.xi_max)
    symbols = [band_symbol(grid, Band.dyadic(N)) for N in bands]
    symbols += [psi_symbol(grid, k) for k in
                ((0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (2, -1, 0, 1), (-edge, edge - 1, 0, 0))]
    symbols += [spatial_symbol(grid, "chi", j) ** p for j in range(4) for p in (1, 2)]
    for i, sym in enumerate(symbols):
        box = _support_box(sym)
        outside = np.ones(sym.shape, dtype=bool)
        outside[box if box is not None else ...] = False
        assert not np.any(sym[outside]), (i, box)
        if not np.any(sym):  # a cutoff whose annulus misses the box
            assert box == (slice(0, 0),) * grid.d
            continue
        for ax, sl in enumerate(box or ()):  # the box is the hull: its end planes meet the support
            others = tuple(a for a in range(grid.d) if a != ax)
            reached = np.flatnonzero(np.any(sym != 0, axis=others))
            assert range(grid.m)[sl] == range(reached[0], reached[-1] + 1), (i, ax)
    for N in bands:
        assert band_box(grid, Band.dyadic(N)) == _support_box(band_symbol(grid, Band.dyadic(N)))


def test_support_box_of_a_broadcast_factor_and_of_zero():
    g = SpectralGrid(m=16, L=4 * np.pi)
    factor = np.zeros((1, 16, 1, 1))
    factor[0, 4:7] = 1.0
    assert _support_box(factor) == (slice(None), slice(4, 7), slice(None), slice(None))
    assert _support_box(np.ones(g.shape)) is None
    assert _support_box(np.zeros(g.shape)) == (slice(0, 0),) * 4


def _whole_lattice_dyadic(grid, kind, N):
    """A radial dyadic symbol as one whole-lattice expression: the reference for the slab builder."""
    r = np.sqrt(grid.xi_squared)
    if kind == "dyadic":
        return radial_cutoff(r / N) - radial_cutoff(2.0 * r / N)
    if kind == "dyadic_leq":
        return radial_cutoff(r / N)
    if kind == "dyadic_gt":
        return 1.0 - radial_cutoff(r / N)
    return radial_cutoff(r / (8.0 * N)) - radial_cutoff(8.0 * r / N)  # fattened


def _whole_lattice_spatial(grid, kind, j):
    """A spatial cutoff as one whole-lattice expression: the reference for the slab builder."""
    r = np.sqrt(grid.x_squared)
    if kind == "chi":
        return radial_cutoff(r) if j == 0 else radial_cutoff(r / 2.0**j) - radial_cutoff(r / 2.0 ** (j - 1))
    if kind == "chi_leq":
        return radial_cutoff(r / 2.0**j)
    if kind == "chi_gt":
        return 1.0 - radial_cutoff(r / 2.0**j)
    outer = radial_cutoff(r / 2.0 ** (j + 2))  # chi_fattened
    return outer if j == 0 else outer * (1.0 - radial_cutoff(r / 2.0 ** (j - 3)))


@pytest.mark.parametrize("m,d", [(64, 1), (32, 2), (16, 4)])
def test_slab_built_radial_symbols_equal_the_whole_lattice_expressions(m, d):
    # d = 1 has slabs of one point; the builder keeps their axis
    from dlab.projections import _spatial_symbol_cached

    g = SpectralGrid(m=m, L=4 * np.pi, d=d)
    for kind in ("dyadic", "dyadic_leq", "dyadic_gt", "fattened"):
        for N in (0.5, 1.0, 2.0, 4.0):
            got = band_symbol(g, Band(kind, N=N))
            assert got.shape == g.shape and not got.flags.writeable
            assert np.array_equal(got, _whole_lattice_dyadic(g, kind, N)), (kind, N)
    for kind in ("chi", "chi_leq", "chi_gt", "chi_fattened"):
        for j in range(5):
            got = _spatial_symbol_cached.__wrapped__(g, kind, j)
            assert np.array_equal(got, _whole_lattice_spatial(g, kind, j)), (kind, j)


@pytest.mark.parametrize("L", [4 * np.pi, 4.0])
@pytest.mark.parametrize("m,d", [(m, d) for m in (8, 16, 32) for d in (1, 2, 4)])
def test_cached_box_symbol_is_the_lattice_symbol_on_its_support_box(m, d, L):
    # built on the box alone, yet its box is _support_box of the whole-lattice symbol
    # and its values are that symbol's there, bit for bit, for every resolved N
    g = SpectralGrid(m=m, L=L, d=d)
    lo, hi = resolved_dyadic_range(g)
    bands = [2.0**j for j in range(int(np.ceil(np.log2(lo))), int(np.floor(np.log2(hi))) + 1)]
    assert len(bands) >= 2
    band_box_symbol.cache_clear()
    for kind in ("dyadic", "dyadic_leq", "dyadic_gt", "fattened"):
        for N in bands:
            whole = _whole_lattice_dyadic(g, kind, N)
            box, sym = band_box_symbol(g, Band(kind, N=N))
            assert box == _support_box(whole) == band_box(g, Band(kind, N=N)), (kind, N)
            assert not sym.flags.writeable and np.array_equal(sym, whole[box or ()]), (kind, N)


def test_first_m32_band_symbol_build_peaks_below_two_lattice_arrays():
    import tracemalloc

    from dlab.projections import band_box_symbol

    g = SpectralGrid(m=32, L=4.0)
    band_box_symbol.cache_clear()
    tracemalloc.start()  # numpy reports its allocations to tracemalloc
    try:
        sym = band_symbol(g, Band.dyadic(4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sym.any() and peak < 2 * g.size * sym.itemsize

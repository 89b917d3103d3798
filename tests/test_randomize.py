import numpy as np
import pytest

from dlab.errors import DegenerateDataError, NotRealError
from dlab.grid import FREQUENCY, Field, SpectralGrid, lp_norm, sobolev_norm, to_physical
from dlab.projections import active_cell_box, cell_matrix, psi_symbol, unit_projection
from dlab.randomize import (
    RadialProfileSpec,
    RandomizationSpec,
    _mode_products,
    _philox,
    compute_active_set,
    make_radial_data,
    projected_mass_sum,
    radial_symmetry_residual,
    randomize_schrodinger,
    randomize_wave_pair,
    symmetric_coefficient_box,
)


@pytest.fixture(scope="module")
def gridr():
    return SpectralGrid(m=16, L=4 * np.pi)


@pytest.fixture(scope="module")
def bumpdata(gridr):
    # band-limited radial bump: small active set, fast direct sums
    return make_radial_data(RadialProfileSpec(kind="gaussian_bump", width=0.8), gridr)


def test_zero_data_gives_zero(gridr):
    spec = RandomizationSpec(seed=1)
    z = Field.zero(gridr, FREQUENCY)
    for draw in (0, 5):
        out = randomize_schrodinger(z, spec, draw)
        assert np.abs(out.values).max() == 0.0


def test_determinism_bitwise(gridr, bumpdata):
    spec = RandomizationSpec(seed=42)
    a = randomize_schrodinger(bumpdata, spec, 7)
    b = randomize_schrodinger(bumpdata, spec, 7)
    assert np.array_equal(a.values, b.values)
    c = randomize_schrodinger(bumpdata, spec, 8)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_philox_keys_are_exact_modulo_2_64():
    # from a plain list, Philox casts keys at or above 2^63 through float64: -1 (2^64 - 1)
    # drew what 0 drew, and 2^63 + 1 what 2^63 drew
    for a, b in ((-1, 0), (2**63 + 1, 2**63)):
        assert not np.array_equal(_philox(a, 3).random(8), _philox(b, 3).random(8))
    for seed, draw in ((12, 0), (12, 7), (2**63 - 1, 2**40)):  # keys below 2^63 are unchanged
        want = np.random.Generator(np.random.Philox(key=[seed, draw])).random(8)
        assert np.array_equal(_philox(seed, draw).random(8), want)


def test_empty_active_set_raises(gridr, bumpdata):
    spec = RandomizationSpec(seed=1, active_set=())
    with pytest.raises(DegenerateDataError):
        randomize_schrodinger(bumpdata, spec, 0)


def test_multiplier_is_the_sum_over_cells():
    # oracle: sum_k g_k psi(xi - k), one full psi symbol per cell of the box
    g = SpectralGrid(m=8, L=4 * np.pi)
    K = active_cell_box(g)
    rng = np.random.default_rng(4)
    box = rng.standard_normal((2 * K + 1,) * g.d) + 1j * rng.standard_normal((2 * K + 1,) * g.d)
    expected = np.zeros(g.shape, dtype=complex)
    for idx in np.ndindex(box.shape):
        expected += box[idx] * psi_symbol(g, [i - K for i in idx])
    got = _mode_products(box, cell_matrix(g))
    assert got.shape == g.shape
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-14 * np.abs(expected).max())


def _freq_mass(field):
    g = field.grid
    return (g.dxi / (2 * np.pi)) ** g.d * float(
        np.sum(np.abs(field.in_domain(FREQUENCY).values) ** 2)
    )


def test_mean_mass_matches_projected_sum(gridr, bumpdata):
    spec = RandomizationSpec(seed=3)
    cells = compute_active_set(bumpdata, rel_threshold=1e-10)
    target = projected_mass_sum(bumpdata.in_domain("physical"), cells)
    vals = [_freq_mass(randomize_schrodinger(bumpdata, spec, d)) for d in range(2000)]
    assert np.mean(vals) == pytest.approx(target, rel=0.05)


def test_bernoulli_law_unit_variance(gridr, bumpdata):
    spec = RandomizationSpec(seed=5, law="bernoulli")
    cells = compute_active_set(bumpdata, rel_threshold=1e-10)
    target = projected_mass_sum(bumpdata.in_domain("physical"), cells)
    vals = [_freq_mass(randomize_schrodinger(bumpdata, spec, d)) for d in range(600)]
    assert np.mean(vals) == pytest.approx(target, rel=0.08)


def test_disjoint_cells_property(gridr, bumpdata):
    # P_j f^omega only involves coefficients g_k with ||k - j||_inf <= 2:
    # masking far cells out of the draw must not change P_j f^omega
    spec_full = RandomizationSpec(seed=11)
    j = (1, 0, 0, 0)
    near = [
        (k1, k2, k3, k4)
        for k1 in range(-2, 4)
        for k2 in range(-3, 4)
        for k3 in range(-3, 4)
        for k4 in range(-3, 4)
        if max(abs(k1 - 1), abs(k2), abs(k3), abs(k4)) <= 2
    ]
    spec_near = RandomizationSpec(seed=11, active_set=tuple(near))
    a = unit_projection(randomize_schrodinger(bumpdata, spec_full, 0), j)
    b = unit_projection(randomize_schrodinger(bumpdata, spec_near, 0), j)
    scale = max(np.abs(a.values).max(), 1e-300)
    assert np.abs(a.values - b.values).max() <= 1e-12 * scale


def test_energy_comparability(gridr):
    # sum_k ||P_k f||_{H^s}^2 = sum_xi w(xi) |fhat|^2 * (sum_k psi(xi-k)^2):
    # the inner sum factors per axis as w0^2 + w1^2 in [1/2, 1], so the total
    # lies within [1/16, 16] of ||f||_{H^s}^2 in d = 4
    from dlab.grid import random_field
    from dlab.projections import unit_cell_tables

    g = gridr
    s = 0.7
    w = (1.0 + g.xi_squared) ** s
    meas = (g.dxi / (2 * np.pi)) ** g.d
    n0, w0, w1 = unit_cell_tables(g)
    sq = w0**2 + w1**2
    overlap = np.ones(g.shape)
    for ax in range(g.d):
        shape = [1] * g.d
        shape[ax] = g.m
        overlap = overlap * sq.reshape(shape)
    assert overlap.min() >= 1.0 / 16.0 - 1e-12 and overlap.max() <= 1.0 + 1e-12
    for seed in range(20):
        f = random_field(g, seed, domain=FREQUENCY, band_limit=3.0)
        total = meas * np.sum(w * np.abs(f.values) ** 2)
        acc = meas * np.sum(w * np.abs(f.values) ** 2 * overlap)
        assert total / 16.0 - 1e-12 <= acc <= 16.0 * total + 1e-12


def test_wave_pair_real_and_symmetric(gridr):
    f0 = Field.physical(gridr, np.exp(-gridr.x_squared / 2.0))
    f1 = Field.physical(gridr, 0.5 * np.exp(-gridr.x_squared / 3.0))
    spec = RandomizationSpec(seed=9)
    w0, w1 = randomize_wave_pair(f0, f1, spec, 2)
    for w in (w0, w1):
        phys = w.in_domain("physical")
        assert np.abs(phys.values.imag).max() <= 1e-10 * max(
            1.0, np.abs(phys.values).max()
        )
    box, K = symmetric_coefficient_box(spec, 2, gridr)
    rev = np.conj(box[::-1, ::-1, ::-1, ::-1])
    assert np.array_equal(box, rev)  # g_{-k} = conj(g_k) exactly
    assert box[(K,) * 4].imag == 0.0


def test_wave_pair_zero_second_component(gridr):
    f0 = Field.physical(gridr, np.exp(-gridr.x_squared / 2.0))
    zero = Field.zero(gridr, "physical")
    w0, w1 = randomize_wave_pair(f0, zero, RandomizationSpec(seed=1), 0)
    assert np.abs(w1.values).max() == 0.0


def test_wave_pair_rejects_complex(gridr):
    fc = Field.physical(gridr, 1j * np.exp(-gridr.x_squared / 2.0))
    zero = Field.zero(gridr, "physical")
    with pytest.raises(NotRealError):
        randomize_wave_pair(fc, zero, RandomizationSpec(seed=1), 0)


def test_radial_profiles_symmetric(gridr):
    for spec in (
        RadialProfileSpec(kind="gaussian_bump", width=1.0),
        RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6),
        RadialProfileSpec(kind="annulus_bump", inner=1.0, outer=2.0),
    ):
        f = make_radial_data(spec, gridr)
        assert radial_symmetry_residual(f) <= 1e-10


def test_powerlaw_sobolev_tail():
    # f in H^0.6 marginally: ||P_N f||_{H^0.8} grows across resolved bands
    from dlab.projections import Band, dyadic_projection

    g = SpectralGrid(m=32, L=2 * np.pi)  # dxi = 1, bands up to 8
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6), g)
    h06 = sobolev_norm(f, 0.6)
    assert np.isfinite(h06)
    Ns = [2.0, 4.0, 8.0]
    tails = [
        sobolev_norm(dyadic_projection(f, Band.dyadic(N)), 0.8) for N in Ns
    ]
    slope = np.polyfit(np.log(Ns), np.log(tails), 1)[0]
    assert slope > 0.02


def test_annulus_projection_leakage():
    # bump concentrated near |xi| = 4 passes through the N = 4 band nearly whole
    g = SpectralGrid(m=32, L=4 * np.pi)
    from dlab.projections import Band, dyadic_projection

    spec = RadialProfileSpec(kind="annulus_bump", inner=3.6, outer=4.4)
    f = make_radial_data(spec, g)
    pf = dyadic_projection(f, Band.dyadic(4.0))
    leak = lp_norm(to_physical(Field(g, FREQUENCY, pf.values - f.values)), 2)
    assert leak <= 1e-3 * lp_norm(to_physical(f), 2)


def test_active_set_of_zero_field(gridr):
    z = Field.zero(gridr, FREQUENCY)
    assert compute_active_set(z) == ()


def test_active_set_matches_per_cell_parseval_mass():
    # oracle: ||psi(. - k) fhat||_2^2 cell by cell from full psi symbols, on a
    # spectrum decaying over many decades so the two thresholds keep different sets
    from itertools import product

    from dlab.grid import random_field

    g = SpectralGrid(m=8, L=4 * np.pi)
    fh = random_field(g, 6, domain=FREQUENCY).values * np.exp(-2.0 * g.xi_squared)
    f = Field(g, FREQUENCY, fh)
    w2 = np.abs(fh) ** 2
    K = active_cell_box(g)
    cells = product(range(-K, K + 1), repeat=g.d)
    mass = {k: float(np.sum(psi_symbol(g, k) ** 2 * w2)) for k in cells}
    sets = []
    for th in (1e-14, 1e-8):
        want = tuple(k for k, m in mass.items() if m > th**2 * w2.sum())
        assert compute_active_set(f, rel_threshold=th) == want
        sets.append(want)
    assert len(sets[1]) < len(sets[0]) < len(mass)

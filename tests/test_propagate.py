import numpy as np
import pytest

from dlab.grid import FREQUENCY, PHYSICAL, Field, SpectralGrid, Trajectory, lp_norm, random_field
from dlab.propagate import (
    duhamel,
    duhamel_all,
    free_trajectory,
    half_wave_flow,
    schrodinger_flow,
    schrodinger_symbol,
    wave_energy,
    wave_flow,
)


def test_schrodinger_t0_identity(grid8):
    f = random_field(grid8, 1)
    out = schrodinger_flow(f, 0.0)
    scale = np.abs(f.values).max()
    assert np.abs(out.values - f.values).max() <= 1e-13 * scale


@pytest.mark.parametrize("t", [0.001, 0.25, 4.0])
def test_separable_schrodinger_symbol_matches_full_exponential(grid8, t):
    g = SpectralGrid(m=16, L=2 * np.pi)
    for grid in (grid8, g):
        sym = schrodinger_symbol(grid, t)
        ref = np.exp(-1j * t * grid.xi_squared)
        assert sym.shape == grid.shape
        assert np.abs(sym - ref).max() <= 1e-12


def test_schrodinger_plane_wave_phase():
    g = SpectralGrid(m=8, L=2 * np.pi)
    xi0 = np.array([1.0, 2.0, 0.0, -1.0])
    phase = np.broadcast_to(
        sum(xi0[i] * g.axis_coord(i + 1) for i in range(4)), g.shape
    )
    f = Field.physical(g, np.exp(1j * phase))
    t = 0.73
    out = schrodinger_flow(f, t)
    expected = np.exp(-1j * t * np.sum(xi0**2)) * f.values
    assert np.abs(out.values - expected).max() < 1e-12


@pytest.mark.parametrize("sigma,m,L,tol", [(2.0, 32, 32.0, 1e-6), (1.5, 32, 24.0, 1e-6)])
def test_gaussian_closed_form(sigma, m, L, tol):
    # e^{it Lap} exp(-|x|^2/(2 s^2)) = (1 + 2it/s^2)^{-d/2} exp(-|x|^2/(2(s^2+2it)))
    g = SpectralGrid(m=m, L=L)
    f = Field.physical(g, np.exp(-g.x_squared / (2 * sigma**2)))
    t = 1.0
    u = schrodinger_flow(f, t).in_domain("physical")
    z = sigma**2 + 2j * t
    exact = (sigma**2 / z) ** 2 * np.exp(-g.x_squared / (2 * z))
    assert np.abs(u.values - exact).max() < tol


def test_l2_isometry_and_commutation(grid8):
    from dlab.projections import Band, dyadic_projection

    f = random_field(grid8, 5)
    t = 1.3
    assert lp_norm(schrodinger_flow(f, t).in_domain("physical"), 2) == pytest.approx(
        lp_norm(f, 2), rel=1e-12
    )
    assert lp_norm(half_wave_flow(f, t).in_domain("physical"), 2) == pytest.approx(
        lp_norm(f, 2), rel=1e-12
    )
    band = Band.dyadic(1.0)
    g2 = SpectralGrid(m=8, L=4 * np.pi)
    h = random_field(g2, 6)
    a = half_wave_flow(dyadic_projection(h, band), t)
    b = dyadic_projection(half_wave_flow(h, t), band)
    assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(h.values).max()


def test_wave_constant_sinc():
    g = SpectralGrid(m=8, L=16.0)
    c = 2.5
    f0 = Field.zero(g, "physical")
    f1 = Field.physical(g, c * np.ones(g.shape))
    t = 1.7
    u, ut = wave_flow(f0, f1, t)
    assert np.abs(u.values - c * t).max() < 1e-12
    assert np.abs(ut.values - c).max() < 1e-12


def test_wave_plane_wave_cosine():
    g = SpectralGrid(m=8, L=2 * np.pi)
    phase = np.broadcast_to(1.0 * g.axis_coord(1), g.shape)
    f0 = Field.physical(g, np.exp(1j * phase))
    f1 = Field.zero(g, "physical")
    t = 0.9
    u, _ = wave_flow(f0, f1, t)
    assert np.abs(u.values - np.cos(t) * f0.values).max() < 1e-12


def test_wave_energy_conserved(grid8):
    f0 = Field.physical(grid8, random_field(grid8, 2).values.real)
    f1 = Field.physical(grid8, random_field(grid8, 3).values.real)
    u0, ut0 = wave_flow(f0, f1, 0.0)
    u2, ut2 = wave_flow(f0, f1, 2.0)
    e0, e2 = wave_energy(u0, ut0), wave_energy(u2, ut2)
    assert abs(e2 - e0) <= 1e-12 * e0


def test_half_wave_group_law(grid8):
    f = random_field(grid8, 8)
    a = half_wave_flow(half_wave_flow(f, 0.4), 0.8)
    b = half_wave_flow(f, 1.2)
    assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(f.values).max()
    c = half_wave_flow(f, 0.0)
    assert np.abs(c.values - f.values).max() <= 1e-13 * np.abs(f.values).max()
    d = half_wave_flow(half_wave_flow(f, 0.7, sign=-1), 0.7, sign=+1)
    assert np.abs(d.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_duhamel_zero(grid8):
    frames = tuple(Field.zero(grid8, FREQUENCY) for _ in range(5))
    h = Trajectory(grid8, 0.0, 0.1, frames)
    out = duhamel(h, 4)
    assert np.abs(out.values).max() == 0.0


def test_duhamel_free_forcing_exact(grid8):
    # h(s) = e^{is Lap} g -> the integral is t e^{it Lap} g for any quadrature
    g0 = random_field(grid8, 4, domain=FREQUENCY, band_limit=1.5)
    n = 9
    dt = 0.05
    h = free_trajectory(g0, 0.0, dt, n)
    T = dt * (n - 1)
    out = duhamel(h, n - 1)
    expected = schrodinger_flow(g0, T)
    scale = np.abs(expected.values).max()
    assert np.abs(out.values - T * expected.values).max() <= 1e-12 * T * scale


def test_duhamel_single_mode_oracle_and_order():
    g = SpectralGrid(m=8, L=2 * np.pi)
    idx = (4 + 3, 4, 4, 4)
    xi_sq = (3 * g.dxi) ** 2
    hhat = np.zeros(g.shape, dtype=complex)
    hhat[idx] = 1.0
    T = 0.5
    exact = (np.exp(-1j * T * xi_sq) - 1.0) / (-1j * xi_sq)

    def err(n_frames):
        dt = T / (n_frames - 1)
        h = Trajectory(g, 0.0, dt, tuple(Field.frequency(g, hhat) for _ in range(n_frames)))
        return abs(duhamel(h, n_frames - 1).values[idx] - exact)

    e1, e2 = err(17), err(33)
    assert e1 / abs(exact) < 1e-3
    # composite Simpson: order >= 2 required, 4th order observed
    assert e1 / e2 >= 3.4


def test_duhamel_linearity(grid8):
    f1 = random_field(grid8, 11, domain=FREQUENCY)
    f2 = random_field(grid8, 12, domain=FREQUENCY)
    n, dt = 7, 0.1
    h1 = free_trajectory(f1, 0.0, dt, n)
    h2 = free_trajectory(f2, 0.0, dt, n)
    both = Trajectory(
        grid8,
        0.0,
        dt,
        tuple(
            Field.frequency(grid8, 2.0 * a.values - 1j * b.values)
            for a, b in zip(h1.frames, h2.frames)
        ),
    )
    lhs = duhamel(both, n - 1).values
    rhs = 2.0 * duhamel(h1, n - 1).values - 1j * duhamel(h2, n - 1).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_duhamel_subinterval_additivity(grid8):
    # int_0^{t2} = e^{i(t2-t1)Lap} int_0^{t1} + int_{t1}^{t2}, to quadrature accuracy
    f = random_field(grid8, 13, domain=FREQUENCY, band_limit=1.0)
    n, dt = 17, 0.03
    h = free_trajectory(f, 0.0, dt, n)
    mid, end = 8, 16
    full = duhamel(h, end)
    first = duhamel(h, mid)
    tail = Trajectory(grid8, 0.0, dt, h.frames[mid : end + 1])
    second = duhamel(tail, end - mid)
    composed = schrodinger_flow(first, (end - mid) * dt).values + second.values
    scale = np.abs(full.values).max()
    assert np.abs(full.values - composed).max() <= 1e-6 * scale


def _textbook_weights(n_frames, dt):
    """Composite Simpson on an even interval count; an odd count closes its last panel with a trapezoid."""
    n = n_frames - 1
    w = np.zeros(n_frames)
    if n <= 0:
        return w
    if n == 1:
        return np.array([0.5, 0.5]) * dt
    n_simpson = n if n % 2 == 0 else n - 1
    w[0] += dt / 3.0
    w[n_simpson] += dt / 3.0
    w[1:n_simpson:2] += 4.0 * dt / 3.0
    w[2:n_simpson:2] += 2.0 * dt / 3.0
    if n_simpson != n:
        w[n - 1] += 0.5 * dt
        w[n] += 0.5 * dt
    return w


@pytest.mark.parametrize("domain", [FREQUENCY, PHYSICAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_duhamel_all_matches_weighted_sum(grid8, n, domain):
    dt = 0.07
    h = Trajectory(grid8, 0.3, dt, tuple(random_field(grid8, 40 + j, domain=domain) for j in range(n)))
    out = duhamel_all(h)
    assert (out.t0, out.dt, out.n_frames, out.domain) == (h.t0, h.dt, n, domain)
    hh = [fr.in_domain(FREQUENCY).values for fr in h.frames]
    for k in range(n):
        w = _textbook_weights(k + 1, dt)
        ref = sum(w[j] * schrodinger_symbol(grid8, (k - j) * dt) * hh[j] for j in range(k + 1))
        ref = Field(grid8, FREQUENCY, ref).in_domain(domain).values
        got = out.frames[k].values
        assert np.abs(got - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-300)
        assert np.array_equal(duhamel(h, k).values, got)


def test_duhamel_index_bound(grid8):
    h = free_trajectory(random_field(grid8, 1, domain=FREQUENCY), 0.0, 0.1, 4)
    with pytest.raises(ValueError):
        duhamel(h, 4)

import tracemalloc

import numpy as np
import pytest

from dlab.errors import InvalidExponentError, RegimeViolationError
from dlab.grid import (FREQUENCY, PHYSICAL, Field, SpectralGrid, Trajectory, _centred_transform, lp_norm,
                       to_physical)
from dlab.norms import (EpsilonPolicy, aggregate_bands, gn_norm_upper, lateral_norms, linf_l2, strichartz_norm,
                        xn_norm, y_norm)
from dlab import estimates as E
from dlab.projections import Band, band_symbol, dyadic_projection
from dlab.propagate import _duhamel_values, duhamel_all, free_trajectory, schrodinger_symbol
from dlab.randomize import RadialProfileSpec


@pytest.fixture(scope="module")
def grid32():
    return SpectralGrid(m=32, L=4 * np.pi)


@pytest.fixture(scope="module")
def grid16():
    return SpectralGrid(m=16, L=2 * np.pi)


@pytest.fixture(scope="module")
def harness(grid16):
    # small harness for fast per-case smoke checks (m=16, bands {1,2})
    g = SpectralGrid(m=16, L=np.pi)  # dxi = 2, ximax = 16: products resolved
    return E.TrilinearHarness(g, (2.0, 4.0), T=0.4, n_frames=7, seed=0, pol=EpsilonPolicy())


def test_fit_loglog():
    xs = [1.0, 2.0, 4.0]
    ys = [3.0 * x**1.5 for x in xs]
    slope, intercept = E.fit_loglog(xs, ys)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)


def test_shell_field_normalized_zero_mode_free(grid32):
    f = E.shell_field(grid32, 2.0, seed=1)
    assert lp_norm(to_physical(f), 2) == pytest.approx(1.0, rel=1e-14)
    assert f.values[(grid32.m // 2,) * 4] == 0.0


def test_lateral_dyadic_rejects_bad_exponents(grid32):
    with pytest.raises(InvalidExponentError):
        E.verify_lateral_dyadic(grid32, (1.0, 2.0), 3, 5)


def test_lateral_dyadic_maximal_slope(grid32):
    rep = E.verify_lateral_dyadic(grid32, (1.0, 2.0, 4.0), 2, np.inf, 1)
    assert rep.predicted == pytest.approx(1.5)
    assert abs(rep.slope - 1.5) <= 0.2
    assert rep.passed


def test_lateral_dyadic_smoothing_slope(grid32):
    rep = E.verify_lateral_dyadic(grid32, (1.0, 2.0, 4.0), np.inf, 2, 1)
    assert rep.predicted == pytest.approx(-0.5)
    assert abs(rep.slope + 0.5) <= 0.2
    assert rep.passed


def test_lateral_dyadic_l4l4_slope(grid32):
    rep = E.verify_lateral_dyadic(grid32, (1.0, 2.0, 4.0), 4, 4, 1)
    assert rep.predicted == pytest.approx(0.5)
    assert abs(rep.slope - 0.5) <= 0.25  # Bernstein-chain case, slightly wider window


def test_unit_maximal_tensor_and_control():
    rep, control = E.verify_unit_maximal()
    assert abs(rep.slope - 0.5) <= 0.15
    assert rep.passed
    assert abs(control.slope - 1.5) <= 0.2
    assert rep.metadata["separation"] >= 0.5


def test_unit_maximal_perpendicular_controls_flat():
    # k perpendicular to the measured axis: transport hides inside the sup
    # block, so the observed ratio is k-flat; the |k|^(1/2) bound still holds
    g3 = SpectralGrid(m=16, L=2 * np.pi / 0.5, d=3)
    g1 = SpectralGrid(2048, 2 * np.pi / 0.1, d=1)
    vals = {}
    for k in (10.0, 20.0):
        # modulation lives in the transverse block: evaluate the axis factor at k=0
        # and modulate the 3D factor; by symmetry of the product representation this
        # equals placing the cell at k e_2 and measuring along e_1
        vals[k] = E.unit_maximal_tensor_ratio(0.0, g1, g3, T=1.0)
    assert vals[10.0] == pytest.approx(vals[20.0], rel=1e-9)


def test_unit_maximal_needs_two_fit_points():
    with pytest.raises(RegimeViolationError):
        E.verify_unit_maximal(k_list=(10,), min_fit_absk=10)


def test_local_smoothing_uniform(grid32):
    rep = E.verify_local_smoothing(grid32, (1.0, 2.0, 4.0), (1.0, 2.0, 4.0))
    assert abs(rep.slope) <= 0.2
    assert rep.metadata["cap_ok"]
    assert rep.passed


def test_local_energy_decay_uniform(grid32):
    rep = E.verify_local_smoothing(
        grid32, (1.0, 2.0, 4.0), (0.5, 1.0, 2.0), T0=4.0, flow="halfwave"
    )
    assert abs(rep.slope) <= 0.2
    assert rep.passed


def test_local_smoothing_zero_data_is_degenerate(grid32):
    from dlab.errors import DegenerateDataError

    gauss = SpectralGrid(m=16, L=4 * np.pi)
    with pytest.raises(DegenerateDataError):
        # gaussian centered at zero frequency has zero-mode mass
        E.verify_local_smoothing(gauss, (0.0001,), (1.0,))


def test_bernstein_slope():
    g = SpectralGrid(m=32, L=4.0)
    rep = E.verify_bernstein(g)
    assert abs(rep.slope - 1.0) <= 0.1
    assert rep.passed


def test_radialish_sobolev_and_translation_control():
    g = SpectralGrid(m=16, L=4 * np.pi)
    profiles = {
        "gauss": RadialProfileSpec(kind="gaussian_bump", width=1.0),
        "plaw": RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6, cutoff=3.0),
    }
    rep = E.verify_radialish_sobolev(g, profiles)
    assert rep.radial_ok
    assert all(np.isfinite(v) and v > 0 for v in rep.ratios.values())
    assert rep.control_grows  # translated bump ratio grows with distance
    shifts = sorted(rep.control_ratios)
    assert rep.control_ratios[shifts[-1]] > rep.control_ratios[shifts[0]]
    assert all(np.isfinite(v) for v in rep.interpolated_ratios.values())


def _square_function_per_cell(f, cells):
    """The per-cell square function: one multiplier product and one centred
    inverse transform per cell, |P_k f|^2 accumulated over ``cells``."""
    from dlab.grid import _fft, broadcast_along
    from dlab.norms import _abs2
    from dlab.projections import phi1

    g = f.grid
    fh = f.in_domain(FREQUENCY).values
    acc = np.zeros(g.shape)
    for k in cells:
        sym = fh
        for ax, c in enumerate(k):
            sym = sym * broadcast_along(phi1(g.xi1d - c), ax, g.d)
        acc += _abs2(_fft(sym, inverse=True, sign_in=True, out=sym))
    return np.sqrt(acc) * (1.0 / g.dx**g.d)


@pytest.mark.parametrize("L, datum", [(4 * np.pi, "powerlaw"), (8 * np.pi, "random")],
                         ids=["powerlaw-L4pi", "random-L8pi"])
def test_square_function_is_the_per_cell_sum_over_every_cell(L, datum):
    # L = 4 pi: the power law's cells reach the lattice edge; L = 8 pi: B's
    # half-width h = 6 >= m/2, so the offsets alias mod m
    from dlab.grid import random_field
    from dlab.randomize import compute_active_set, make_radial_data

    g = SpectralGrid(m=8, L=L)
    if datum == "powerlaw":
        f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6), g)
    else:
        f = random_field(g, 7, domain=FREQUENCY)
    want = _square_function_per_cell(f, compute_active_set(f, 0.0)) ** 2
    got = E.square_function(f) ** 2
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_square_function_makes_one_transform(monkeypatch):
    from dlab import grid as grid_mod
    from dlab.grid import random_field

    calls = []
    fft = grid_mod._fft
    monkeypatch.setattr(grid_mod, "_fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
    for L in (4 * np.pi, 8 * np.pi):
        f = random_field(SpectralGrid(m=8, L=L), 3, domain=FREQUENCY)
        E.square_function(f)
        assert len(calls) == 1
        calls.clear()


def test_radialish_rejects_nonradial():
    # a single off-center mode is not an orbit function of |xi|
    g = SpectralGrid(m=16, L=4 * np.pi)
    from dlab.randomize import radial_symmetry_residual

    vals = np.zeros(g.shape, dtype=complex)
    vals[(g.m // 2 + 1, g.m // 2, g.m // 2, g.m // 2)] = 1.0
    f = Field(g, FREQUENCY, vals)
    assert radial_symmetry_residual(f) > 1e-6


def test_operator_decay_report():
    g = SpectralGrid(m=32, L=8 * np.pi)
    rep = E.verify_operator_decay(g)
    assert rep.ell_ok and rep.separation_ok
    assert all(x >= 3.0 for x in rep.ell_drop_factors)
    assert all(x >= 8.0 for x in rep.separation_drop_factors)
    assert "separation" in rep.deviations


def _centred_dft_2d(g):
    """Dense DFT matrix on the centred d=2 lattice, row-major: exp(-i xi.x) in index units."""
    c = np.arange(g.m) - g.m // 2
    f1 = np.exp(-2j * np.pi * np.outer(c, c) / g.m)
    return np.kron(f1, f1)


def _dense_operators():
    """(normal, grid, dft, dense T) for chi_0 P_(1,0) chi_2 and P_(-1,0) chi_0 P_(1,0), d=2, m=16."""
    from dlab.projections import psi_symbol, spatial_symbol

    def diag(a):
        return np.diag(np.asarray(a).ravel())

    g = SpectralGrid(m=16, L=8 * np.pi, d=2)
    f = _centred_dft_2d(g)
    fi = f.conj().T / g.size
    chi_j, chi_l = spatial_symbol(g, "chi", 0), spatial_symbol(g, "chi", 2)
    cpc = diag(chi_j) @ fi @ diag(psi_symbol(g, (1, 0))) @ f @ diag(chi_l)
    gs = SpectralGrid(m=16, L=4 * np.pi, d=2)
    f = _centred_dft_2d(gs)
    fi = f.conj().T / gs.size
    pk = fi @ diag(psi_symbol(gs, (-1, 0))) @ f
    pm = fi @ diag(psi_symbol(gs, (1, 0))) @ f
    pcp = pk @ diag(spatial_symbol(gs, "chi", 0)) @ pm
    return [
        (E._chi_P_chi_op(g, (1, 0), 0, 2), g, False, cpc),
        (E._P_chi_P_op(gs, (-1, 0), (1, 0), 0), gs, True, pcp),
    ]


def test_operator_norm_matches_dense_spectral_norm():
    for normal, g, dft, dense in _dense_operators():
        lam, steps, change = E._operator_norm(normal, g, seed=0, dft=dft)
        assert lam == pytest.approx(np.linalg.norm(dense, 2), rel=1e-10)
        assert 1 <= steps < 30 and change <= E._POWER_RTOL


def test_operator_norm_early_stop_matches_full_run(monkeypatch):
    stopped = [E._operator_norm(n, g, seed=3, dft=dft)[0] for n, g, dft, _ in _dense_operators()]
    monkeypatch.setattr(E, "_POWER_RTOL", -1.0)  # no change is ever small enough: all 30 steps
    full = [E._operator_norm(n, g, seed=3, dft=dft) for n, g, dft, _ in _dense_operators()]
    for lam, (lam_full, steps, _) in zip(stopped, full):
        assert steps == 30
        assert lam == pytest.approx(lam_full, rel=1e-12)


def test_operator_decay_report_convergence_fields():
    g = SpectralGrid(m=16, L=8 * np.pi)
    rep = E.verify_operator_decay(g, separations=(2, 4))
    for name, norms in (("chi_P_chi", rep.chi_P_chi), ("P_chi_P", rep.P_chi_P)):
        assert set(rep.iterations[name]) == set(norms) == set(rep.last_changes[name])
        for key in norms:
            assert 1 <= rep.iterations[name][key] <= 30
            assert rep.last_changes[name][key] <= E._POWER_RTOL


def test_operator_decay_infeasible_ranges():
    g = SpectralGrid(m=16, L=8.0)
    with pytest.raises(RegimeViolationError):
        E.verify_operator_decay(g, ell_list=(5,))
    with pytest.raises(RegimeViolationError):
        E.verify_operator_decay(
            g, ell_list=(1,), separations=(64,), separation_grid=g
        )


def test_trilinear_gain_factors():
    eps = 0.05
    assert E._trilinear_gain("vvv", 1, 2, 2, 1, eps) == pytest.approx(
        0.5 * 0.5 ** (2.0 / 3.0)
    )
    assert E._trilinear_gain("FFF", 2, 8, 8, 2, eps) == pytest.approx(
        (2.0 / 8.0) ** (0.5 + eps) * (2.0 / 8.0) ** (1.0 / 6.0)
    )
    with pytest.raises(ValueError):
        E._trilinear_gain("xyz", 1, 1, 1, 1, eps)


def test_trilinear_ordering_enforced(harness):
    with pytest.raises(ValueError):
        harness.evaluate("vvv", 2.0, 2.0, 4.0, 2.0)  # N2 > N1
    with pytest.raises(ValueError):
        harness.evaluate("vvv", 64.0, 2.0, 2.0, 2.0)  # N >> N1


def test_trilinear_zero_third_input(harness):
    # zero input makes the product vanish: LHS = 0 <= RHS trivially;
    # realized by scaling invariance of the ratio instead (c=0 degenerate)
    r = harness.evaluate("vvv", 2.0, 2.0, 2.0, 2.0)
    assert np.isfinite(r) and r >= 0.0


def test_trilinear_all_cases_under_cap(harness):
    configs = [(2, 4, 4, 4), (2, 4, 4, 2), (2, 4, 2, 2), (4, 4, 4, 4), (4, 4, 4, 2), (2, 2, 2, 2)]
    for case in E.TRILINEAR_CASES:
        rep = E.verify_trilinear(case, configs, harness, cap=1.0)
        assert rep.passed, (case, rep.max_ratio)
        assert rep.metadata["n_configs"] == 6


def test_duhamel_retarded_constants(grid16):
    rep = E.verify_duhamel_retarded(grid16, 2.0)
    assert rep.passed
    assert rep.max_constant <= 100.0
    assert set(rep.strichartz_constants) == {"(inf,2.0)", "(2.0,4.0)"}


def test_duhamel_retarded_zero_forcing(grid16):
    # h = 0 gives 0 <= 0 on both sides; realize via linearity of the pieces
    from dlab.grid import Trajectory
    from dlab.propagate import duhamel

    frames = tuple(Field.zero(grid16, FREQUENCY) for _ in range(5))
    h = Trajectory(grid16, 0.0, 0.1, frames)
    out = duhamel(h, 4)
    assert np.abs(out.values).max() == 0.0


def test_main_linear_constant(grid16):
    rep = E.verify_main_linear(grid16, n_samples=20)
    assert rep.passed and rep.worst <= 50.0
    assert len(rep.constants) == 20


def test_verifier_scaling_invariance(grid16):
    # multiplying the data by c leaves slope fits and ratio caps unchanged
    repa = E.verify_lateral_dyadic(grid16, (1.0, 2.0), 2, np.inf, 1, seed=3)
    repb = E.verify_lateral_dyadic(grid16, (1.0, 2.0), 2, np.inf, 1, seed=3)
    assert repa.slope == repb.slope  # deterministic given seeds


def test_transform_paths_make_no_centering_roll(monkeypatch):
    # the centred transforms, the band stack on physical input and the
    # main-linear audit run without a single fftshift/ifftshift
    from dlab.grid import random_field, to_frequency
    from dlab.norms import xn_norm
    from dlab.propagate import free_trajectory

    g = SpectralGrid(m=8, L=2 * np.pi)
    f = random_field(g, 2, band_limit=3.0)
    traj = free_trajectory(f, 0.0, 0.05, 3)

    def roll(*args, **kwargs):
        raise AssertionError("centering roll on a transform path")

    monkeypatch.setattr(np.fft, "fftshift", roll)
    monkeypatch.setattr(np.fft, "ifftshift", roll)
    back = to_physical(to_frequency(f))
    assert np.abs(back.values - f.values).max() <= 1e-13 * np.abs(f.values).max()
    phys = traj.map_frames(to_physical)
    assert xn_norm(phys, 2.0) > 0
    rep = E.verify_main_linear(g, n_samples=1, n_frames=5)
    assert np.isfinite(rep.worst) and rep.worst > 0


def test_operator_decay_and_square_function_make_no_centering_roll(monkeypatch):
    # the operator-norm kernels and the square function transform centred
    # arrays through grid._fft, never through an fftshift/ifftshift roll
    from dlab.grid import random_field

    g = SpectralGrid(m=8, L=8 * np.pi)
    f = random_field(g, 4, domain=FREQUENCY, band_limit=1.5)

    def roll(*args, **kwargs):
        raise AssertionError("centering roll on a transform path")

    monkeypatch.setattr(np.fft, "fftshift", roll)
    monkeypatch.setattr(np.fft, "ifftshift", roll)
    rep = E.verify_operator_decay(g, separations=(2,))
    assert min(rep.chi_P_chi.values()) > 0 and rep.P_chi_P[2] > 0
    sq = E.square_function(f)
    assert np.isfinite(sq).all() and sq.max() > 0


@pytest.fixture
def band_box_cache():
    """An empty band-box cache on both sides of the test."""
    from dlab.projections import band_box_symbol

    band_box_symbol.cache_clear()
    yield
    band_box_symbol.cache_clear()


@pytest.mark.parametrize("verify", [
    lambda: E.verify_main_linear(SpectralGrid(m=16, L=2 * np.pi), n_samples=2, seed=12),
    lambda: E.verify_duhamel_retarded(SpectralGrid(m=16, L=2 * np.pi), 2.0, n_frames=17, seed=12),
    lambda: E.verify_operator_decay(SpectralGrid(m=16, L=8 * np.pi), separations=(2, 4)),
    lambda: E.verify_bernstein(SpectralGrid(m=32, L=4.0)),
], ids=["main_linear", "duhamel_retarded", "operator_decay", "bernstein"])
def test_pruned_transforms_leave_the_verifier_reports_unchanged(verify, monkeypatch, band_box_cache):
    # the same report with every support box withheld (plain fftn throughout);
    # the one-axis fft/ifft calls show that the first run did prune
    from dlab import projections

    one_axis = []
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=getattr(np.fft, name), **k:
                            one_axis.append(name) or _fn(*a, **k))
    pruned = verify()
    assert one_axis
    for module in (E, projections):
        monkeypatch.setattr(module, "_support_box", lambda symbol: None)
    projections.band_box_symbol.cache_clear()
    n_pruned = len(one_axis)
    assert verify() == pruned
    assert len(one_axis) == n_pruned


def _duhamel_retarded_on_the_lattice(grid, N, n_frames, seed, pol=EpsilonPolicy(), T=0.75,
                                     strichartz_pairs=((np.inf, 2.0), (2.0, 4.0))):
    """The Duhamel verifier with every frame on the whole lattice, as before it worked on the
    band's box: the reference for the box path."""
    fN = dyadic_projection(E.shell_field(grid, N, seed=seed), Band.dyadic(N))
    dt = T / (n_frames - 1)

    def physical(rows):
        values = np.fromiter(rows, (np.complex128, grid.shape), n_frames)
        return Trajectory.from_values(grid, 0.0, dt, PHYSICAL,
                                      _centred_transform(values, grid, PHYSICAL, out=values))

    def hhat():
        return E._enveloped_frames(fN, dt, n_frames, seed + 1)

    p_g, q_g = pol.g_lateral_pq
    rhs = N ** (0.5 + pol.eps) * sum(lateral_norms(physical(hhat()), p_g, q_g))
    retarded = physical(_duhamel_values(hhat(), schrodinger_symbol(grid, dt), dt))
    stri = {f"({q},{r})": float(N * strichartz_norm(retarded, q, r) / rhs) for q, r in strichartz_pairs}
    p_m, q_m = pol.x_lateral_pq
    cmax = float(N ** (-0.5 + pol.eps) * sum(lateral_norms(retarded, p_m, q_m)) / rhs)
    allc = list(stri.values()) + [cmax]
    return E.DuhamelRetardedReport(stri, cmax, float(max(allc)), bool(max(allc) <= 100.0))


def _main_linear_on_the_lattice(grid, n_samples, seed, pol=EpsilonPolicy(), T=0.75, n_frames=13):
    """The main linear audit with P_N v and P_N v0 brought to the physical lattice for their L^2
    norms, as before those were taken by Parseval: the reference for the frequency path."""
    bands, dt, consts = aggregate_bands(grid), T / (n_frames - 1), []
    for i in range(n_samples):
        N = bands[i % len(bands)]
        v0 = E.shell_field(grid, N, seed=seed + 1000 * i)
        hhat = E._enveloped_frames(E.shell_field(grid, N, seed=seed + 1000 * i + 7), dt, n_frames,
                                   seed + 1000 * i + 13)
        h = Trajectory.from_values(grid, 0.0, dt, FREQUENCY,
                                   np.fromiter(hhat, (np.complex128, grid.shape), n_frames))
        v = Trajectory.from_values(grid, 0.0, dt, FREQUENCY,
                                   free_trajectory(v0, 0.0, dt, n_frames).values - 1j * duhamel_all(h).values)
        vN = v.values * band_symbol(grid, Band.dyadic(N))
        vN = Trajectory.from_values(grid, 0.0, dt, PHYSICAL, _centred_transform(vN, grid, PHYSICAL))
        lhs = N * linf_l2(vN) + xn_norm(v, N, pol=pol)
        rhs = N * lp_norm(to_physical(dyadic_projection(v0, Band.dyadic(N))), 2) + gn_norm_upper(h, N, pol=pol)
        consts.append(float(lhs / rhs))
    return consts


@pytest.mark.parametrize("N", [2.0, 4.0])  # box 5:12 per axis, and 1:16, nearly the whole lattice
def test_duhamel_verifier_on_the_band_box_equals_the_lattice_reference(grid16, N):
    # operand order is pinned in the shared products, so the box path rounds as the lattice does
    assert E.verify_duhamel_retarded(grid16, N, n_frames=65, seed=12) == \
        _duhamel_retarded_on_the_lattice(grid16, N, 65, 12)


def test_main_linear_by_parseval_matches_the_physical_reference(grid16):
    got = E.verify_main_linear(grid16, n_samples=3, seed=12).constants
    assert got == pytest.approx(_main_linear_on_the_lattice(grid16, 3, 12), rel=1e-14, abs=0)


def _count_transforms(monkeypatch) -> list:
    """Route every ``_fft`` the package calls through a wrapper that records each call."""
    import sys

    from dlab import grid as grid_mod

    fft, calls = grid_mod._fft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dlab") and getattr(module, "_fft", None) is fft:
            monkeypatch.setattr(module, "_fft", counted)
    return calls


def test_duhamel_verifier_checks_its_exponent_pairs_before_any_transform(grid16, monkeypatch):
    calls = _count_transforms(monkeypatch)
    with pytest.raises(InvalidExponentError, match=r"exponents must be >= 1, got q=0.5, r=2.0"):
        E.verify_duhamel_retarded(grid16, 2.0, n_frames=65, strichartz_pairs=((np.inf, 2.0), (0.5, 2.0)))
    assert not calls
    E.verify_duhamel_retarded(grid16, 2.0, n_frames=3)
    assert calls


def _traced_peak(fn) -> int:
    tracemalloc.start()  # numpy reports its allocations to tracemalloc
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_duhamel_verifier_peaks_below_three_quarters_of_one_complex_stack(grid16):
    # it reads |u|^2 one frame at a time and holds no stack
    stack = 65 * grid16.size * 16
    assert _traced_peak(lambda: E.verify_duhamel_retarded(grid16, 2.0, n_frames=65, seed=12)) < 0.75 * stack


@pytest.mark.parametrize("n_frames", [13, 65])
def test_duhamel_verifier_peaks_at_six_complex_frames(grid16, n_frames):
    # with warm symbol caches: h, the Duhamel value and their |u|^2 are made and dropped a frame at
    # a time, so the peak is a few frames at any frame count
    def verify():
        return E.verify_duhamel_retarded(grid16, 2.0, n_frames=n_frames, seed=12)

    verify()
    assert _traced_peak(verify) <= 6 * grid16.size * 16


def test_main_linear_verifier_peak_does_not_grow_with_the_frame_count(grid16):
    # with warm symbol caches, 65 frames peak within one complex frame of 13
    peaks = []
    for n_frames in (13, 65):
        def verify():
            return E.verify_main_linear(grid16, n_samples=2, n_frames=n_frames, seed=12)

        verify()
        peaks.append(_traced_peak(verify))
    assert peaks[1] <= peaks[0] + grid16.size * 16


def test_bernstein_verifier_peaks_below_four_complex_frames(band_box_cache):
    # with cold symbol caches: its three band symbols, one frame buffer and lp_norm's passes
    g = SpectralGrid(m=32, L=4.0)
    assert _traced_peak(lambda: E.verify_bernstein(g)) < 4 * g.size * 16


def test_warm_bernstein_verifier_peaks_at_one_and_a_half_complex_frames():
    # with warm symbol caches: the frame buffer, the shell on its box, and both exponents' sums
    # taken from one chunked read of |f_N|, which allocates nothing the size of a frame
    g = SpectralGrid(m=32, L=4.0)
    E.verify_bernstein(g)
    assert _traced_peak(lambda: E.verify_bernstein(g)) <= 1.5 * g.size * 16


def test_bernstein_verifier_leaves_no_lattice_sized_symbol_in_the_caches():
    # with cold caches, what the verifier leaves allocated is what the projections caches
    # hold: its three band symbols on their boxes, and no array of m^d elements
    from dlab import projections

    g = SpectralGrid(m=32, L=4.0)
    for cached in vars(projections).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    tracemalloc.start()
    try:
        E.verify_bernstein(g)
        retained = tracemalloc.take_snapshot().traces
    finally:
        tracemalloc.stop()
    assert max(t.size for t in retained) < g.size * 8


def test_main_linear_verifier_peaks_below_three_quarters_of_one_complex_stack(grid16):
    # each sample reads |P_N v|^2 and then |P_N h|^2 one frame at a time, made on the band's box
    stack = 65 * grid16.size * 16
    assert _traced_peak(lambda: E.verify_main_linear(grid16, n_samples=2, n_frames=65, seed=12)) < 0.75 * stack


@pytest.mark.parametrize("p,q", [(4, 4), (2, np.inf)])
def test_lateral_dyadic_verifier_peaks_below_three_quarters_of_one_complex_stack(grid16, p, q):
    # the lateral norm reads |u|^2 of the free trajectory's frequency frames one at a time;
    # no physical trajectory and no stack is made
    stack = 24 * grid16.size * 16
    assert _traced_peak(lambda: E.verify_lateral_dyadic(grid16, (1.0, 2.0), p, q, n_frames=24)) < 0.75 * stack


def test_local_smoothing_verifier_peaks_below_half_of_one_complex_stack(grid16):
    # its ball sums stream from one |u|^2 frame at a time: it holds no stack
    stack = 20 * grid16.size * 16
    assert _traced_peak(lambda: E.verify_local_smoothing(grid16, (1.0, 2.0), (1.0, 2.0))) < 0.5 * stack


def test_every_boxed_transform_input_is_zero_outside_its_box(monkeypatch):
    # _fft transforms only the lines that meet its box and leaves the others as they were, so
    # an input that is not zero outside its box would give a wrong transform and no error
    import sys

    from dlab import grid as grid_mod

    fft, boxed = grid_mod._fft, []

    def guarded(values, inverse=False, axes=None, *, box=None, **kw):
        if box is not None:
            index = [slice(None)] * values.ndim
            for ax, sl in zip(range(values.ndim) if axes is None else axes, box):
                index[ax] = sl
            outside = values.copy()
            outside[tuple(index)] = 0
            assert not outside.any(), box
            boxed.append(box)
        return fft(values, inverse, axes, box=box, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("dlab") and getattr(module, "_fft", None) is fft:
            monkeypatch.setattr(module, "_fft", guarded)
    g16 = SpectralGrid(m=16, L=2 * np.pi)
    E.verify_main_linear(g16, n_samples=2, seed=12)
    n_duhamel = len(boxed)
    E.verify_duhamel_retarded(g16, 2.0, n_frames=65, seed=12)
    assert len(boxed) > n_duhamel  # the box rows written into the zeroed stacks
    E.verify_operator_decay(SpectralGrid(m=16, L=8 * np.pi), separations=(2, 4))
    E.verify_bernstein(SpectralGrid(m=32, L=4.0))
    F = free_trajectory(E.shell_field(g16, 2.0, seed=3), 0.0, 0.05, 9).in_domain(PHYSICAL)
    n_y = len(boxed)
    assert np.isfinite(y_norm(F)) and len(boxed) > n_y

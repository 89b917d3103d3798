import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlab import norms as norms_mod, projections as proj_mod
from dlab.errors import BandUnresolvedError, DLabError, InvalidExponentError, MemoryBudgetError
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    random_field,
    to_physical,
)
from dlab.norms import (
    EpsilonPolicy,
    aggregate_bands,
    divisibility_check,
    g_norm_upper,
    gn_norm_upper,
    is_admissible,
    lateral_norm,
    lateral_norms,
    linf_h1,
    linf_l2,
    strichartz_norm,
    x_norm,
    xn_norm,
    y_norm,
    yn_norm,
    z_norm,
)
from dlab.projections import Band, band_symbol
from dlab.propagate import free_trajectory


@pytest.fixture(scope="module")
def gridn():
    return SpectralGrid(m=16, L=4 * np.pi)


@pytest.fixture(scope="module")
def traj(gridn):
    f = random_field(gridn, 21, domain=FREQUENCY, band_limit=2.5)
    return free_trajectory(f, 0.0, 0.05, 9).map_frames(lambda fr: fr.in_domain(PHYSICAL))


def zero_traj(grid, n=5):
    return Trajectory(grid, 0.0, 0.1, tuple(Field.zero(grid, PHYSICAL) for _ in range(n)))


def test_epsilon_policy_constraints():
    EpsilonPolicy(eps=0.02, s=0.4)
    with pytest.raises(ValueError):
        EpsilonPolicy(eps=0.05, s=0.4)  # needs eps <= (0.4 - 1/3)/3
    with pytest.raises(ValueError):
        EpsilonPolicy(eps=0.0)
    pol = EpsilonPolicy(eps=0.05)
    assert pol.divisibility_exponent == pytest.approx(80.0)
    assert pol.x_lateral_pq[1] == pytest.approx(80.0)


def test_admissibility_recorded_not_enforced(traj):
    assert is_admissible(2, 4) and is_admissible(np.inf, 2)
    assert not is_admissible(3, 5)
    strichartz_norm(traj, 3, 5)  # arbitrary exponents allowed


def test_strichartz_constant_plane_wave():
    g = SpectralGrid(m=8, L=16.0)
    phase = np.broadcast_to(g.dxi * g.axis_coord(1), g.shape)
    fr = Field.physical(g, np.exp(1j * phase))
    v = Trajectory(g, 0.0, 0.25, (fr,) * 5)  # |v| = 1 on [0, 1]
    val = strichartz_norm(v, 3, 6)
    assert val == pytest.approx(g.L ** (2.0 / 3.0), rel=1e-12)


def test_zero_trajectory_all_norms(gridn):
    z = zero_traj(gridn)
    pol = EpsilonPolicy()
    assert strichartz_norm(z, 2, 4) == 0.0
    assert lateral_norm(z, 2, np.inf, 1) == 0.0
    assert xn_norm(z, 1.0, pol=pol) == 0.0
    assert x_norm(z, pol=pol) == 0.0
    assert y_norm(z, pol=pol) == 0.0
    assert g_norm_upper(z, pol=pol) == 0.0
    assert z_norm(z) == 0.0


@pytest.mark.parametrize("axis", [1, 2, 3, 4])
def test_fubini_lateral22_equals_strichartz22(traj, axis):
    s = strichartz_norm(traj, 2, 2)
    l = lateral_norm(traj, 2, 2, axis)
    assert l == pytest.approx(s, rel=1e-12)


def test_lateral_axis_and_exponent_validation(traj):
    with pytest.raises(InvalidExponentError):
        lateral_norm(traj, 2, 2, 5)
    with pytest.raises(InvalidExponentError):
        lateral_norm(traj, 0.5, 2, 1)


def test_lateral_p_inf_slice_invariance():
    # v independent of x1: p = inf outer sup equals the (t, x') norm of a slice
    g = SpectralGrid(m=8, L=8.0)
    prof = np.exp(-(g.axis_coord(2) ** 2 + g.axis_coord(3) ** 2 + g.axis_coord(4) ** 2))
    fr = Field.physical(g, np.broadcast_to(prof, g.shape).copy())
    v = Trajectory(g, 0.0, 0.1, (fr, fr, fr))
    val = lateral_norm(v, np.inf, 2, 1)
    inner_per_slice = lateral_norm(v, 2, 2, 1) / np.sqrt(g.L)  # all slices equal
    assert val == pytest.approx(inner_per_slice, rel=1e-10)


def _traj_for_homog():
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = random_field(g, 21, domain=FREQUENCY, band_limit=1.5)
    return free_trajectory(f, 0.0, 0.05, 5).map_frames(lambda fr: fr.in_domain(PHYSICAL))


@given(st.floats(0.1, 5.0))
@settings(max_examples=10, deadline=None)
def test_homogeneity(c):
    pol = EpsilonPolicy()
    base = _traj_for_homog()
    scaled = base.map_frames(lambda fr: Field(fr.grid, fr.domain, c * fr.values))
    assert x_norm(scaled, pol=pol) == pytest.approx(c * x_norm(base, pol=pol), rel=1e-10)
    assert y_norm(scaled, pol=pol) == pytest.approx(c * y_norm(base, pol=pol), rel=1e-10)
    assert z_norm(scaled) == pytest.approx(c * z_norm(base), rel=1e-10)


def test_single_band_aggregate_equals_band_norm(gridn):
    # data on the exact lattice sphere |xi| = N meets only the band-N symbol
    pol = EpsilonPolicy()
    N = 1.0
    f = random_field(gridn, 33, domain=FREQUENCY)
    sphere = np.abs(gridn.xi_squared - N * N) < 1e-12
    fN = Field(gridn, FREQUENCY, f.values * sphere)
    v = free_trajectory(fN, 0.0, 0.05, 7).map_frames(lambda fr: fr.in_domain(PHYSICAL))
    single = xn_norm(v, N, pol=pol)
    agg = x_norm(v, pol=pol)
    assert agg == pytest.approx(single, rel=1e-10)


def test_xnorm_dominates_each_band(traj):
    pol = EpsilonPolicy()
    agg = x_norm(traj, pol=pol)
    for N in aggregate_bands(traj.grid):
        assert xn_norm(traj, N, pol=pol) <= agg * (1 + 1e-12)


@pytest.mark.parametrize("L", [8.0, 16.0])
def test_grid_without_an_aggregate_band_raises(L):
    # no dyadic N with 2 dxi <= N <= m dxi/4: the aggregates would read 0
    g = SpectralGrid(m=8, L=L)
    v = free_trajectory(random_field(g, 3), 0.0, 0.05, 3)
    for call in (aggregate_bands, x_norm, y_norm, g_norm_upper):
        with pytest.raises(BandUnresolvedError, match="no dyadic band"):
            call(g if call is aggregate_bands else v)


def test_interval_monotonicity(traj):
    # shrinking the window cannot increase finite-exponent norms
    full = strichartz_norm(traj, 2, 4)
    sub = strichartz_norm(traj, 2, 4, (0.0, traj.t_end - traj.dt))
    assert sub <= full * (1 + 1e-12)
    lat_full = lateral_norm(traj, 2, 4, 2)
    lat_sub = lateral_norm(traj, 2, 4, 2, (0.0, traj.t_end - traj.dt))
    assert lat_sub <= lat_full * (1 + 1e-12)


def test_gn_upper_is_min_of_splittings(gridn):
    pol = EpsilonPolicy()
    f = random_field(gridn, 44, domain=FREQUENCY, band_limit=2.0)
    h = free_trajectory(f, 0.0, 0.05, 7).map_frames(lambda fr: fr.in_domain(PHYSICAL))
    from dlab.projections import Band, band_symbol

    N = 1.0
    sym = band_symbol(gridn, Band.dyadic(N))
    hN = h.map_frames(
        lambda fr: Field(gridn, FREQUENCY, fr.in_domain(FREQUENCY).values * sym).in_domain(PHYSICAL)
    )
    t1 = N * strichartz_norm(hN, 1, 2)
    p, q = pol.g_lateral_pq
    t2 = sum(N ** (0.5 + pol.eps) * lateral_norm(hN, p, q, ax) for ax in (1, 2, 3, 4))
    assert gn_norm_upper(h, N, pol=pol) == pytest.approx(min(t1, t2), rel=1e-10)


def test_two_band_g_aggregate(gridn):
    pol = EpsilonPolicy()
    f = random_field(gridn, 45, domain=FREQUENCY)
    h = free_trajectory(f, 0.0, 0.05, 5).map_frames(lambda fr: fr.in_domain(PHYSICAL))
    bands = aggregate_bands(gridn)
    per = [gn_norm_upper(h, N, pol=pol) for N in bands]
    assert g_norm_upper(h, pol=pol) == pytest.approx(np.sqrt(sum(x * x for x in per)), rel=1e-10)


def test_divisibility_trivial_and_partition(traj):
    pol = EpsilonPolicy()
    rep1 = divisibility_check(traj, [], "X", pol)
    assert rep1.ok and rep1.lhs == pytest.approx(rep1.rhs, rel=1e-12)
    cuts = [traj.dt * 2, traj.dt * 4, traj.dt * 6]
    rep4 = divisibility_check(traj, cuts, "X", pol)
    assert rep4.ok
    repy = divisibility_check(traj, cuts, "Y", pol)
    assert repy.ok
    z = zero_traj(traj.grid)
    repz = divisibility_check(z, [0.2], "X", pol)
    assert repz.ok and repz.lhs == 0.0 and repz.rhs == 0.0


def test_divisibility_rejects_non_partition(traj):
    with pytest.raises(ValueError):
        divisibility_check(traj, [0.0], "X")
    with pytest.raises(ValueError):
        divisibility_check(traj, [0.1], "Q")


def test_linf_h1(gridn):
    f = random_field(gridn, 50, domain=FREQUENCY, band_limit=2.0)
    v = free_trajectory(f, 0.0, 0.1, 5)
    from dlab.grid import sobolev_norm

    # free flow preserves Hdot^1 exactly
    assert linf_h1(v) == pytest.approx(sobolev_norm(v.frames[0], 1.0, homogeneous=True), rel=1e-12)


def test_linf_l2_of_frequency_frames_by_parseval_matches_the_physical_frames(gridn):
    # a random (non-isometric) stack, so the max is taken over frames of different norms
    frames = [random_field(gridn, 60 + j, domain=FREQUENCY) for j in range(4)]
    v = Trajectory(gridn, 0.0, 0.1, frames)
    for interval in (None, (0.1, 0.2)):
        assert linf_l2(v, interval) == pytest.approx(linf_l2(v.in_domain(PHYSICAL), interval),
                                                     rel=1e-14, abs=0)


def test_empty_interval_raises(traj):
    with pytest.raises(ValueError):
        strichartz_norm(traj, 2, 2, (0.2, 0.1))


def test_strichartz_shell_constant_bounded():
    # free evolution of L2-normalized shell data, admissible (q, r) = (2, 4):
    # value / ||f||_2 stays below 10 across the resolved bands
    from dlab.estimates import shell_field

    g = SpectralGrid(m=32, L=4 * np.pi)
    for N in (1.0, 2.0, 4.0):
        f = shell_field(g, N, seed=9)
        T = 1.0 / N**2
        v = free_trajectory(f, 0.0, T / 8, 9).map_frames(lambda fr: fr.in_domain(PHYSICAL))
        val = strichartz_norm(v, 2, 4)
        assert val <= 10.0


# ---------------------------------------------------------------- band-stack kernel oracles


@pytest.fixture(scope="module")
def grid8():
    return SpectralGrid(m=8, L=4 * np.pi)


def _traj8(grid, domain):
    f = random_field(grid, 77, domain=FREQUENCY, band_limit=2.0)
    v = free_trajectory(f, 0.0, 0.1, 7)
    return v.map_frames(lambda fr: fr.in_domain(domain))


def _projected(v, sym):
    """Per-frame band projection through the public transform pair."""
    g = v.grid
    return v.map_frames(
        lambda fr: to_physical(Field(g, FREQUENCY, fr.in_domain(FREQUENCY).values * sym))
    )


def _xn_oracle(v, N, interval, pol):
    vN = _projected(v, band_symbol(v.grid, Band.dyadic(N)))
    pairs = ((2, 4), (3, 3), (6, 12.0 / 5.0))
    total = N * sum(strichartz_norm(vN, q, r, interval) for q, r in pairs)
    p, q = pol.x_lateral_pq
    for ax in range(1, v.grid.d + 1):
        total += N ** (-0.5 + pol.eps) * lateral_norm(vN, p, q, ax, interval)
    return total


def _yn_oracle(F, N, interval, pol):
    g = F.grid
    sym_N = band_symbol(g, Band.dyadic(N))
    FN = _projected(F, sym_N)
    wN = (1.0 + N * N) ** (0.5 * (1.0 / 3.0 + 3.0 * pol.eps))
    total = wN * (strichartz_norm(FN, 3, 6, interval) + strichartz_norm(FN, 6, 6, interval))
    p_ls, q_ls = pol.y_smoothing_pq
    p_mx, q_mx = pol.y_maximal_pq
    for ax in range(1, g.d + 1):
        FNdir = _projected(F, band_symbol(g, Band.directional(N, ax)) * sym_N)
        total += wN * N ** (0.5 - pol.eps) * lateral_norm(FNdir, p_ls, q_ls, ax, interval)
        total += N ** (-1.0 / 6.0) * lateral_norm(FN, p_mx, q_mx, ax, interval)
    return total


def _gn_oracle(h, N, interval, pol):
    hN = _projected(h, band_symbol(h.grid, Band.dyadic(N)))
    term1 = N * strichartz_norm(hN, 1, 2, interval)
    p, q = pol.g_lateral_pq
    term2 = sum(N ** (0.5 + pol.eps) * lateral_norm(hN, p, q, ax, interval) for ax in range(1, 5))
    return min(term1, term2)


@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
@pytest.mark.parametrize("which", ["X", "Y", "G"])
def test_band_norms_match_definitions(grid8, domain, which):
    pol = EpsilonPolicy(eps=0.02, s=0.4)
    v = _traj8(grid8, domain)
    kernel, oracle = {
        "X": (xn_norm, _xn_oracle),
        "Y": (yn_norm, _yn_oracle),
        "G": (gn_norm_upper, _gn_oracle),
    }[which]
    for interval in (None, (v.dt, v.t_end - v.dt)):
        for N in (0.5, 1.0, 2.0):
            expected = oracle(v, N, interval, pol)
            assert expected > 0.0
            assert kernel(v, N, interval, pol) == pytest.approx(expected, rel=1e-12)


def test_z_norm_matches_definition(grid8):
    v = _traj8(grid8, PHYSICAL)
    g = grid8
    w = np.full(v.n_frames, v.dt)
    w[0] = w[-1] = 0.5 * v.dt
    jap = (1.0 + g.x_squared) ** 0.25
    sup_w = np.array([(jap * np.abs(fr.values)).max() for fr in v.frames])
    grad_l4 = []
    for fr in v.frames:
        fh = fr.in_domain(FREQUENCY).values
        gmag2 = 0.0
        for ax in range(1, g.d + 1):
            d_ax = to_physical(Field(g, FREQUENCY, fh * 1j * g.axis_coord(ax, frequency=True)))
            gmag2 = gmag2 + np.abs(d_ax.values) ** 2
        grad_l4.append((g.dx**g.d * np.sum(gmag2**2)) ** 0.25)
    expected = (
        strichartz_norm(v, 3, 6)
        + np.sqrt(np.sum(w * sup_w**2))
        + np.sqrt(np.sum(w * np.array(grad_l4) ** 2))
    )
    assert z_norm(v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
@pytest.mark.parametrize(
    "p,q",
    [(2.0, 4.0), (4.0 / 1.98, 200.0), (200.0, 4.0 / 1.98), (np.inf, 3.0), (3.0, np.inf), (np.inf, np.inf)],
)
def test_lateral_norms_equal_per_axis_calls(grid8, domain, p, q):
    v = _traj8(grid8, domain)
    for interval in (None, (v.dt, v.t_end - v.dt)):
        every = lateral_norms(v, p, q, interval)
        assert len(every) == 4
        for ax in range(1, 5):
            assert every[ax - 1] == pytest.approx(lateral_norm(v, p, q, ax, interval), rel=1e-12)


def test_lateral_norms_validates_exponents(traj):
    with pytest.raises(InvalidExponentError):
        lateral_norms(traj, 0.5, 2)
    with pytest.raises(InvalidExponentError):
        lateral_norms(traj, 2, 0.9)


def test_norms_invariant_under_fftshift_of_frames(grid8):
    # the kernel leaves projected frames in FFT order; the reductions must not see it
    v = _traj8(grid8, PHYSICAL)
    shifted = v.map_frames(lambda fr: Field.physical(grid8, np.fft.fftshift(fr.values)))
    for q, r in ((2, 4), (3, 6), (1, 2), (np.inf, 2), (6, np.inf)):
        assert strichartz_norm(shifted, q, r) == pytest.approx(strichartz_norm(v, q, r), rel=1e-12)
    for p, q in ((2.0, 4.0), (4.0 / 1.98, 200.0), (np.inf, 3.0), (3.0, np.inf)):
        for ax in range(1, 5):
            expected = lateral_norm(v, p, q, ax)
            assert lateral_norm(shifted, p, q, ax) == pytest.approx(expected, rel=1e-12)


def test_band_stack_guard_raises_dlab_error(grid8, monkeypatch):
    v = _traj8(grid8, PHYSICAL)
    stack_bytes = v.n_frames * grid8.size * 8  # the float64 |u|^2 stack
    monkeypatch.setattr(norms_mod, "_STACK_LIMIT", stack_bytes)
    xn_norm(v, 1.0)
    monkeypatch.setattr(norms_mod, "_STACK_LIMIT", stack_bytes - 1)
    for fn in (xn_norm, yn_norm, gn_norm_upper):
        with pytest.raises(DLabError) as info:
            fn(v, 1.0)
        assert isinstance(info.value, MemoryBudgetError)


@pytest.mark.parametrize("p,q", [(2.0, 4.0), (3.0, 1.5), (np.inf, 3.0), (3.0, np.inf)])
def test_lateral_norm_matches_direct_formula(grid8, p, q):
    # moderate exponents: the unguarded textbook sums neither overflow nor underflow
    v = _traj8(grid8, PHYSICAL)
    g = grid8
    a = np.abs(np.stack([fr.values for fr in v.frames]))
    w = np.full(v.n_frames, v.dt)
    w[0] = w[-1] = 0.5 * v.dt
    for ax in range(1, 5):
        others = tuple(1 + k for k in range(4) if k != ax - 1)
        if np.isinf(q):
            inner = a.max(axis=(0,) + others)
        else:
            inner = (g.dx**3 * np.tensordot(w, np.sum(a**q, axis=others), axes=1)) ** (1.0 / q)
        expected = inner.max() if np.isinf(p) else (g.dx * np.sum(inner**p)) ** (1.0 / p)
        assert lateral_norm(v, p, q, ax) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m", [8, 16])
def test_band_stack_physical_spectrum_is_shifted_fft_bitwise(m):
    g = SpectralGrid(m=m, L=2 * np.pi)
    v = free_trajectory(random_field(g, 8, band_limit=3.0), 0.0, 0.05, 3).map_frames(
        lambda fr: fr.in_domain(PHYSICAL)
    )
    stack = np.stack([fr.values for fr in v.frames])
    axes = tuple(range(1, g.d + 1))
    want = np.fft.fftshift(np.fft.fftn(stack, axes=axes), axes=axes) * g.dx**g.d
    assert np.array_equal(norms_mod._BandStack(v, 0, 2).freq, want)


def _count_transforms(monkeypatch):
    """Record (kind, axes, input shape) of every np.fft.fftn / ifftn call from here on,
    and of every one-axis np.fft.fft / ifft pass of a pruned transform, with axes (axis,)."""
    calls = []

    def counted(kind, transform):
        def wrapper(a, *args, axes=None, **kwargs):
            calls.append((kind, tuple(axes) if axes is not None else None, a.shape))
            return transform(a, *args, axes=axes, **kwargs)

        return wrapper

    def counted_pass(kind, transform):
        def wrapper(a, *args, axis=-1, **kwargs):
            calls.append((kind, (axis,), a.shape))
            return transform(a, *args, axis=axis, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fftn", counted("fwd", np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", counted("inv", np.fft.ifftn))
    monkeypatch.setattr(np.fft, "fft", counted_pass("fwd", np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted_pass("inv", np.fft.ifft))
    return calls


@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
def test_yn_norm_directional_projections_are_plane_corrections(grid8, domain, monkeypatch):
    # one stack-wide inverse transform for P_N, pruned to the band's box (one pass per
    # axis, over the lines in the box on the axes still to come), then per axis l one
    # inverse transform of the planes J_l over the other axes
    v = _traj8(grid8, domain)
    v.values  # frame sources transform when read: build the stack before counting
    calls = _count_transforms(monkeypatch)
    yn_norm(v, 1.0)
    stack_axes = (1, 2, 3, 4)
    stack = (v.n_frames,) + grid8.shape
    want = [("fwd", stack_axes, stack)] if domain == PHYSICAL else []
    box = proj_mod.band_box(grid8, Band.dyadic(1.0))
    assert box is not None  # the band misses the lattice edge, so the transform is pruned
    for ax in reversed(stack_axes):
        lines = stack[:1] + tuple(len(range(n)[sl]) if a < ax else n
                                  for a, (sl, n) in enumerate(zip(box, grid8.shape), 1))
        want.append(("inv", (ax,), lines))
    for ax in stack_axes:
        planes = stack[:ax] + (1,) + stack[ax + 1 :]  # J_l is the plane xi_l = 0 on this grid
        want.append(("inv", tuple(a for a in stack_axes if a != ax), planes))
    assert calls == want


@pytest.mark.parametrize("grid,N,n_planes,n_fractional", [
    # at m=256, N=64 the directional factor is below 1 on 15 planes per axis, six of them
    # fractional, so every directional stack sums 15 plane terms
    (SpectralGrid(m=256, L=2 * np.pi, d=2), 64.0, 15, 6),
    # in one dimension P_N vanishes where the factor is below 1: no plane, P_{N,e_1} P_N = P_N
    (SpectralGrid(m=64, L=2 * np.pi, d=1), 16.0, 0, 0),
])
def test_yn_norm_matches_definition_for_any_plane_count(grid, N, n_planes, n_fractional):
    for ax in range(1, grid.d + 1):
        J, gap = proj_mod._directional_planes(grid, N, ax)
        assert len(J) == n_planes and np.sum(gap < 1.0) == n_fractional
    pol = EpsilonPolicy(eps=0.02, s=0.4)
    v = free_trajectory(random_field(grid, 41, domain=FREQUENCY), 0.0, 1e-4, 5)
    for interval in (None, (v.dt, v.t_end - v.dt)):
        expected = _yn_oracle(v, N, interval, pol)
        assert expected > 0.0
        assert yn_norm(v, N, interval, pol) == pytest.approx(expected, rel=1e-12)


def test_band_stack_is_spent_after_directional_powers(grid8):
    bs = norms_mod._BandStack(_traj8(grid8, FREQUENCY), 0, 2)
    stacks = list(bs.band_powers(1.0))
    assert len(stacks) == 1 + grid8.d
    assert bs.freq is None


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("where", ["at index 0", "interior", "no box"])
def test_sign_folded_powers_equal_the_centred_transform(m, where):
    # the checkerboard sign goes in with the box copy and the output sign is left out, which
    # |u|^2 does not see: every |u|^2 frame is that of the centred transform, bit for bit
    from dlab.grid import _centred_transform
    from dlab.norms import _abs2, _powers

    g = SpectralGrid(m=m, L=2 * np.pi)
    box = {"at index 0": (slice(0, 3), slice(0, m // 2 + 1), slice(None), slice(0, 1)),
           "interior": (slice(1, m // 2), slice(2, m - 1), slice(3, 4), slice(m // 4, m - 3)),
           "no box": None}[where]
    rng = np.random.default_rng(m)
    spectra = np.zeros((3, *g.shape), dtype=np.complex128)
    on_box = (slice(None),) + (box or ())
    spectra[on_box] = rng.standard_normal(spectra[on_box].shape) + 1j * rng.standard_normal(spectra[on_box].shape)
    rows = [sp[box] if box else sp for sp in spectra]
    for got, spectrum in zip(_powers(rows, g, FREQUENCY, box), spectra):
        assert np.array_equal(got, _abs2(_centred_transform(spectrum, g, PHYSICAL)))


def _enveloped_traj(grid, sigma, seed=5, n=5):
    """Frames exp(-|x|^2 / (2 sigma^2)) times a random modulation: |u| spans many decades."""
    rng = np.random.default_rng(seed)
    env = np.exp(-grid.x_squared / (2.0 * sigma**2))
    frames = tuple(
        Field.physical(grid, env * (1.0 + 0.5 * rng.random(grid.shape)) * np.exp(1j * rng.random(grid.shape)))
        for _ in range(n)
    )
    return Trajectory(grid, 0.0, 0.1, frames)


def _spy_power_sums(monkeypatch):
    # the floor of every power pass, one ``_PowerSum`` each
    floors = []

    class Spy(norms_mod._PowerSum):
        def __init__(self, q, floor):
            floors.append(floor)
            super().__init__(q, floor)

    monkeypatch.setattr(norms_mod, "_PowerSum", Spy)
    return floors


def _unguarded_lateral_norms(v, p, q, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(norms_mod, "_POWER_FLOOR", 0.0)
        return lateral_norms(v, p, q)


def test_lateral_underflow_guard_matches_unguarded_power(grid8, monkeypatch):
    p, q = 4.0 / 1.98, 200.0
    v = _enveloped_traj(grid8, 3.5)
    s = np.abs(np.stack([fr.values for fr in v.frames])) ** 2
    with np.errstate(under="ignore"):
        underflow = np.mean((s / s.max()) ** (q / 2) < np.finfo(float).tiny)
    assert 0.1 <= underflow <= 0.2
    expected = _unguarded_lateral_norms(v, p, q, monkeypatch)
    floors = _spy_power_sums(monkeypatch)
    got = lateral_norms(v, p, q)
    assert floors == [norms_mod._POWER_FLOOR]  # guarded pass only, no fallback
    assert got == pytest.approx(expected, rel=1e-13)


def test_lateral_underflow_guard_falls_back_on_tiny_slice(grid8, monkeypatch):
    # every term of the x_1 = -L/2 slice lies just below the clamp: the guarded pass
    # drops the whole slice, while its unguarded marginal is small but not 0
    p, q = 4.0 / 1.98, 200.0
    v = _enveloped_traj(grid8, 4.0)
    s = np.abs(np.stack([fr.values for fr in v.frames])) ** 2
    scale = np.ones(grid8.shape)
    scale[0] = np.sqrt(10**-3.02 * s.max() / s[:, 0].max())
    v = v.map_frames(lambda fr: Field.physical(grid8, fr.values * scale))
    t = (s[:, 0] * scale[0] ** 2) / s.max()
    assert (t < norms_mod._POWER_FLOOR ** (2.0 / q)).all()
    assert np.sum(t ** (q / 2)) > 0.0
    expected = _unguarded_lateral_norms(v, p, q, monkeypatch)
    floors = _spy_power_sums(monkeypatch)
    got = lateral_norms(v, p, q)
    assert floors == [norms_mod._POWER_FLOOR, 0.0]
    assert got == expected


def _two_pass_lateral(S, w, grid, p, q, axes):
    """The lateral norms from a held |u|^2 stack: the peak over the whole window first, then
    W = sum_j w_j (s_j / peak)^(q/2) with no term dropped."""
    others = [tuple(a for a in range(grid.d) if a != ax - 1) for ax in axes]
    if np.isinf(q):
        inners = [np.sqrt(S.max(axis=0).max(axis=o)) for o in others]
    else:
        peak2 = S.max()
        W = np.tensordot(w, (S / peak2) ** (q / 2), axes=1)
        inners = [np.sqrt(peak2) * (grid.dx ** (grid.d - 1) * W.sum(axis=o)) ** (1 / q) for o in others]
    return [float(np.sum(grid.dx * inner**p) ** (1 / p)) for inner in inners]


@pytest.mark.parametrize("q", [200.0, 4 / 1.98, 2.0, np.inf])  # 4/eps and 4/(2 - eps) at eps = 0.02
@pytest.mark.parametrize("n_axes", [1, 2, 3, 4])
def test_one_pass_lateral_matches_the_two_pass_reference(grid8, q, n_axes):
    # frame peaks that rise, fall and tie, after an all-zero frame, over |u|^2 that spans many
    # decades: the running peak rescales W on every rise, and at q = 200 the floor drops terms
    g, axes = grid8, tuple(range(1, n_axes + 1))
    rng = np.random.default_rng(27 + n_axes)
    env = np.exp(-g.x_squared / 2.0)
    scales = [0.0, 1.0, 3.0, 3.0, 0.5, 7.0, 7.0, 2.0, 9.0, 0.1]
    S = np.stack([c * env * rng.random(g.shape) for c in scales])
    w = rng.random(len(S))
    p = 4 / 1.98 if q != 4 / 1.98 else 200.0
    got = norms_mod._lateral(S, w, g, p, q, axes)
    want = _two_pass_lateral(S, w, g, p, q, axes)
    assert len(got) == n_axes
    assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_lateral_norm_peak_does_not_grow_with_the_frame_count():
    # the window's |u|^2 frames stream through the kernel: no stack of the window is held
    g = SpectralGrid(m=16, L=2 * np.pi)
    f = random_field(g, 3, domain=FREQUENCY, band_limit=2.0)
    peaks = []
    for n in (9, 33):
        v = free_trajectory(f, 0.0, 0.05, n)
        lateral_norm(v, 4 / 1.98, 200.0, 2)
        tracemalloc.start()  # numpy reports its allocations to tracemalloc
        try:
            lateral_norm(v, 4 / 1.98, 200.0, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + g.size * 8  # less than one float64 frame more


def test_z_norm_makes_each_frame_once():
    # one pass: each frame's gradient, weighted sup and |F|^2 are taken from the frame as it is
    # made, so a source-backed trajectory makes each frame once and keeps no stack
    g = SpectralGrid(m=8, L=2 * np.pi)
    n, calls = 9, []

    def counted(fr):
        calls.append(1)
        return fr

    v = free_trajectory(random_field(g, 5, domain=FREQUENCY, band_limit=2.0), 0.0, 0.05, n).map_frames(counted)
    stacked = Trajectory.from_values(g, v.t0, v.dt, FREQUENCY, np.array([fr.values for fr in v.frames]))
    calls.clear()  # the memo now holds frame n - 1, not frame 0
    got = z_norm(v)
    assert len(calls) == n
    assert v._stack is None
    assert got == z_norm(stacked)


_NORM_CALLS = {  # every norm of ``dlab norms``, then lateral_norms and linf_l2, with its arguments
    "strichartz": (strichartz_norm, (3, 6)), "lateral": (lateral_norm, (4, 4, 2)),
    "XN": (xn_norm, (2.0,)), "X": (x_norm, ()), "YN": (yn_norm, (2.0,)), "Y": (y_norm, ()),
    "GN": (gn_norm_upper, (2.0,)), "G": (g_norm_upper, ()), "Z": (z_norm, ()), "LinfH1": (linf_h1, ()),
    "lateral_norms": (lateral_norms, (2, np.inf)), "linf_l2": (linf_l2, ()),
}


def test_the_norm_calls_cover_every_cli_norm():
    from dlab.cli import _NORM_KINDS

    assert {k: _NORM_CALLS[k][0] for k in _NORM_KINDS} == _NORM_KINDS


@pytest.mark.parametrize("domain", [FREQUENCY, PHYSICAL])
@pytest.mark.parametrize("kind", list(_NORM_CALLS))
def test_no_norm_fills_a_source_backed_trajectory(kind, domain):
    # the norms read frames: a trajectory made from a source keeps no stack after the call, and
    # the value is that of a trajectory holding the same frames as its stack
    g = SpectralGrid(m=8, L=2 * np.pi)
    v = free_trajectory(random_field(g, 5, domain=FREQUENCY, band_limit=2.0), 0.0, 0.05, 5).in_domain(domain)
    stacked = Trajectory.from_values(g, v.t0, v.dt, domain, np.array([fr.values for fr in v.frames]))
    fn, args = _NORM_CALLS[kind]
    got = fn(v, *args)
    assert v._stack is None
    assert got == pytest.approx(fn(stacked, *args), rel=1e-14, abs=0)

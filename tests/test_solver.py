import warnings
from functools import reduce

import numpy as np
import pytest

from dlab import grid as grid_mod
from dlab.errors import BlowupDetected, NoContractionError
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    Weight,
    _axis_product as axis_product,
    _power_mean,
    broadcast_along,
    gradient_fields,
    gradient_magnitude,
    lp_norm,
    random_field,
    sobolev_norm,
)
from dlab.norms import linf_h1, linf_l2, strichartz_norm
from dlab.propagate import free_trajectory
from dlab.solver import (
    ContractionRecord,
    NLSRunConfig,
    PicardConfig,
    _splitstep,
    energy,
    energy_growth_audit,
    mass,
    morawetz_action,
    morawetz_audit,
    morawetz_bulk,
    morawetz_dmdt_rhs,
    nls_mass_energy_series,
    picard_iterate,
    scaling_check,
    scattering_state,
    splitstep_forced,
    splitstep_nls,
)

warnings.filterwarnings("ignore", message="dt\\*max")


@pytest.fixture(scope="module")
def gs():
    return SpectralGrid(m=16, L=8.0)


@pytest.fixture(scope="module")
def gaussian(gs):
    return Field.physical(gs, np.exp(-gs.x_squared / 2.0).astype(complex))


def test_config_validation():
    with pytest.raises(ValueError):
        NLSRunConfig(mu=2)
    with pytest.raises(ValueError):
        NLSRunConfig(dt=0.3, T=1.0)
    with pytest.raises(ValueError):
        PicardConfig(tau=1.0, dt=0.3)


def test_zero_data_stays_zero(gs):
    cfg = NLSRunConfig(dt=0.05, T=0.2)
    run = splitstep_nls(Field.zero(gs, "physical"), cfg)
    assert all(np.abs(fr.values).max() == 0.0 for fr in run.frames)


def test_mass_conservation_exact_without_dealias(gs, gaussian):
    u0 = Field.physical(gs, 1.3 * gaussian.values)
    cfg = NLSRunConfig(mu=+1, dt=0.01, T=0.3, dealias=False)
    run = splitstep_nls(u0, cfg)
    m0 = mass(run.frames[0])
    assert abs(mass(run.frames[-1]) - m0) <= 1e-12 * m0


def test_mass_conservation_dealias_modest_amplitude(gs, gaussian):
    # band-limited data: the mask only sees the (tiny) nonlinear leakage
    from dlab.grid import _separable
    from dlab.solver import _dealias_keep

    mask = np.fft.fftshift(_separable(np.logical_and, [_dealias_keep(gs)] * gs.d))
    fh = Field.physical(gs, 0.1 * gaussian.values).in_domain(FREQUENCY)
    u0 = Field(gs, FREQUENCY, fh.values * mask).in_domain("physical")
    cfg = NLSRunConfig(mu=+1, dt=0.01, T=0.3, dealias=True)
    run = splitstep_nls(u0, cfg)
    m0 = mass(run.frames[0])
    assert abs(mass(run.frames[-1]) - m0) <= 1e-10 * m0


def test_energy_self_convergence_ratio(gs, gaussian):
    u0 = Field.physical(gs, 1.2 * gaussian.values)
    e0 = energy(u0)
    drift = {}
    for dt in (0.02, 0.01):
        cfg = NLSRunConfig(mu=+1, dt=dt, T=0.4, dealias=True)
        run = splitstep_nls(u0, cfg)
        drift[dt] = abs(energy(run.frames[-1]) - e0)
    ratio = drift[0.02] / drift[0.01]
    assert 3.5 <= ratio <= 4.5


def test_defocusing_energy_never_exceeds_initial(gs, gaussian):
    u0 = Field.physical(gs, 1.2 * gaussian.values)
    cfg = NLSRunConfig(mu=+1, dt=0.002, T=0.1, dealias=True)
    run = splitstep_nls(u0, cfg)
    _, energies = nls_mass_energy_series(run)
    assert max(energies) <= energies[0] * (1 + 1e-6)


def test_forced_zero_forcing_matches_plain_bitwise(gs, gaussian):
    from dlab.grid import Trajectory

    cfg = NLSRunConfig(mu=+1, dt=0.02, T=0.1, dealias=True)
    n = cfg.n_steps + 1
    zero_F = Trajectory(
        gs, 0.0, cfg.dt, tuple(Field.zero(gs, "physical") for _ in range(n))
    )
    a = splitstep_forced(gaussian, zero_F, cfg)
    b = splitstep_nls(gaussian, cfg)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.values, fb.values)


def test_forced_total_mass_conserved(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.01, T=0.2, dealias=False)
    F0 = Field.physical(gs, 0.7 * gaussian.values * np.exp(1j * gs.axis_coord(1)))
    F = free_trajectory(F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
        lambda fr: fr.in_domain("physical")
    )
    v = splitstep_forced(Field.zero(gs, "physical"), F, cfg)
    tot0 = mass(Field.physical(gs, v.frames[0].values + F.frames[0].values))
    totT = mass(Field.physical(gs, v.frames[-1].values + F.frames[-1].values))
    assert abs(totT - tot0) <= 1e-10 * tot0
    assert lp_norm(v.frames[-1], 2) > 0  # v grows away from zero


def test_forced_frame_misalignment_rejected(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.02, T=0.1)
    F = free_trajectory(gaussian, 0.0, 0.03, 5).map_frames(
        lambda fr: fr.in_domain("physical")
    )
    with pytest.raises(ValueError):
        splitstep_forced(gaussian, F, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_signal_carries_partial_trajectory(gs):
    huge = Field.physical(gs, 1e160 * np.exp(-gs.x_squared / 2.0).astype(complex))
    cfg = NLSRunConfig(mu=-1, dt=0.01, T=0.5, dealias=False)
    with pytest.raises(BlowupDetected) as exc:
        splitstep_nls(huge, cfg)
    assert exc.value.step >= 1
    assert exc.value.trajectory is not None
    assert not np.isfinite(exc.value.peak)
    assert str(exc.value) == f"blowup detected at step {exc.value.step}"


def test_picard_trivial_fixed_point(gs):
    pcfg = PicardConfig(tau=0.2, dt=0.05)
    traj, rec = picard_iterate(Field.zero(gs, "physical"), None, pcfg)
    assert rec.converged and rec.iterations == 1
    assert all(np.abs(fr.values).max() == 0.0 for fr in traj.frames)


def test_picard_small_data_contracts_and_matches_splitstep(gs, gaussian):
    h1 = sobolev_norm(gaussian, 1.0, homogeneous=True)
    v0 = Field.physical(gs, (1e-2 / h1) * gaussian.values)
    dt = 0.03125
    pcfg = PicardConfig(tau=0.5, dt=dt, mu=+1, tolerance=1e-13)
    traj, rec = picard_iterate(v0, None, pcfg)
    assert rec.converged
    assert all(r <= 0.5 for r in rec.ratios)  # contraction from the second sweep on
    assert rec.fixed_point_residual <= 1e-12
    run = splitstep_nls(v0, NLSRunConfig(mu=+1, dt=dt, T=0.5, dealias=False))
    worst = max(
        lp_norm(Field.physical(gs, a.values - b.values), 2)
        for a, b in zip(traj.frames, run.frames)
    )
    assert worst <= 10.0 * dt**2


def test_picard_large_data_diverges(gs, gaussian):
    v0 = Field.physical(gs, 40.0 * gaussian.values)
    pcfg = PicardConfig(tau=0.5, dt=0.05, mu=+1, max_iterations=12)
    with pytest.raises(NoContractionError) as exc:
        picard_iterate(v0, None, pcfg)
    assert isinstance(exc.value.record, ContractionRecord)


def test_energy_mass_plane_wave():
    g = SpectralGrid(m=8, L=2 * np.pi)
    A = 1.5
    xi1 = g.dxi * 2.0
    f = Field.physical(
        g, A * np.exp(1j * np.broadcast_to(xi1 * g.axis_coord(1), g.shape))
    )
    expected = (0.5 * xi1**2 * A**2 + 0.25 * A**4) * g.L**4
    assert energy(f) == pytest.approx(expected, rel=1e-12)
    assert mass(f) == pytest.approx(A**2 * g.L**4, rel=1e-12)
    assert energy(Field.zero(g, "physical")) == 0.0


def test_morawetz_action_real_field_vanishes(gs, gaussian):
    assert abs(morawetz_action(gaussian)) <= 1e-12


def test_morawetz_action_sign_tracks_outward_momentum(gs):
    # modulated bump displaced from the origin: m > 0 iff momentum points outward
    x0 = 2.0
    shifted = np.exp(-((gs.axis_coord(1) - x0) ** 2 + gs.x_squared - gs.axis_coord(1) ** 2) / 2.0)
    for xi0, sign in ((+1.5, +1), (-1.5, -1)):
        v = Field.physical(gs, shifted * np.exp(1j * xi0 * gs.axis_coord(1)))
        m_val = morawetz_action(v)
        # direct-integral oracle with the analytic gradient of the phase factor
        sigma = gs.dx / 2.0
        a = np.sqrt(gs.x_squared + sigma**2)
        oracle = 2.0 * gs.dx**4 * np.sum((gs.axis_coord(1) / a) * xi0 * shifted**2)
        assert np.sign(m_val) == sign
        # box wrap of the off-center bump perturbs the spectral gradient a little
        assert m_val == pytest.approx(oracle, rel=0.05)


def test_morawetz_bulk_nonnegative(gs):
    f = random_field(gs, 3, domain=FREQUENCY, band_limit=2.0)
    run = free_trajectory(f, 0.0, 0.02, 5).map_frames(lambda fr: fr.in_domain("physical"))
    assert morawetz_bulk(run) >= 0.0


def test_morawetz_audit_unforced(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.002, T=0.08, dealias=False)
    run = splitstep_nls(gaussian, cfg)
    rep = morawetz_audit(run)
    assert rep.identity_ok, (rep.identity_mismatch, rep.identity_tolerance)
    assert rep.bulk >= 0.0
    assert np.isfinite(rep.constant)
    assert rep.sigma_quarter_bulk > 0.0


def _forced_run(gs, gaussian, dt, n_steps):
    cfg = NLSRunConfig(mu=+1, dt=dt, T=dt * n_steps, dealias=False)
    F0 = Field.physical(gs, 0.9 * gaussian.values * np.exp(1j * gs.axis_coord(1)))
    F = free_trajectory(F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
        lambda fr: fr.in_domain(PHYSICAL)
    )
    return splitstep_forced(Field.zero(gs, PHYSICAL), F, cfg), F


def test_morawetz_audit_matches_per_frame_composition(gs, gaussian):
    # oracle: the audit rebuilt from the public one-frame calls and norms
    run, F = _forced_run(gs, gaussian, 0.005, 6)
    mu = +1
    rep = morawetz_audit(run, F, mu=mu)
    sigma = 3.0 * gs.dx
    H = [
        Field.physical(
            gs,
            mu
            * (
                np.abs(Ff.values + vf.values) ** 2 * (Ff.values + vf.values)
                - np.abs(vf.values) ** 2 * vf.values
            ),
        )
        for Ff, vf in zip(F.frames, run.frames)
    ]
    m_vals = np.array([morawetz_action(fr, sigma) for fr in run.frames])
    fd = (m_vals[2:] - m_vals[:-2]) / (2.0 * run.dt)
    rhs = [morawetz_dmdt_rhs(run.frames[j], H[j], sigma) for j in range(1, run.n_frames - 1)]
    w = np.full(run.n_frames, run.dt)
    w[0] = w[-1] = 0.5 * run.dt
    h_l1l2 = sum(wj * lp_norm(h, 2) for wj, h in zip(w, H))
    bound = linf_h1(run) * (linf_l2(run) + h_l1l2)
    assert rep.dmdt_fd == pytest.approx(list(fd), rel=1e-12)
    assert rep.dmdt_rhs == pytest.approx(rhs, rel=1e-12)
    assert rep.morawetz_rhs == pytest.approx(bound, rel=1e-12)
    assert rep.bulk == pytest.approx(morawetz_bulk(run, sigma), rel=1e-12)
    assert rep.sigma_quarter_bulk == pytest.approx(morawetz_bulk(run, gs.dx / 4.0), rel=1e-12)
    assert rep.constant == pytest.approx(rep.bulk / bound, rel=1e-12)
    mismatch = np.abs(fd - np.array(rhs)).max() / np.abs(rhs).max()
    assert rep.identity_mismatch == pytest.approx(mismatch, rel=1e-12)


def test_morawetz_one_frame_calls_accept_frequency_frames(gs):
    v = random_field(gs, 5, band_limit=2.0)
    H = random_field(gs, 6, band_limit=2.0)
    vf = v.in_domain(FREQUENCY)
    assert morawetz_action(vf) == pytest.approx(morawetz_action(v), rel=1e-12)
    assert morawetz_dmdt_rhs(vf, H, 0.5) == pytest.approx(
        morawetz_dmdt_rhs(v, H, 0.5), rel=1e-12
    )


def test_energy_growth_audit_series_match_public_calls(gs, gaussian):
    run, F = _forced_run(gs, gaussian, 0.005, 4)
    series, _ = energy_growth_audit(run, F)
    assert series.energy == pytest.approx([energy(fr) for fr in run.frames], rel=1e-12)
    assert series.morawetz == pytest.approx(
        [morawetz_action(fr, gs.dx / 2.0) for fr in run.frames], rel=1e-12
    )


def test_energy_growth_audit_norms_match_public_calls(gs, gaussian):
    # oracle: the Holder majorants, mass bound, growth bound and bulk rebuilt
    # from the public norms, gradients and weights
    run, F = _forced_run(gs, gaussian, 0.005, 4)
    series, rep = energy_growth_audit(run, F)
    vol = gs.dx**gs.d
    w = np.full(run.n_frames, run.dt)
    w[0] = w[-1] = 0.5 * run.dt
    gradF = [gradient_magnitude(fr) for fr in F.frames]
    sqrt_a = (gs.x_squared + (gs.dx / 2.0) ** 2) ** 0.25
    jap = Weight("japanese", 0.5).evaluate(gs)
    gv = max(np.sqrt(vol * np.sum(gradient_magnitude(fr) ** 2)) for fr in run.frames)
    v4 = strichartz_norm(run, np.inf, 4)
    F4 = strichartz_norm(F, np.inf, 4)
    F_L2Linf = strichartz_norm(F, 2, np.inf)
    gF = _power_mean([_power_mean(gm, vol, 4) for gm in gradF], w, 2)
    wgF = _power_mean([(sqrt_a * gm).max() for gm in gradF], w, 2)
    wF = _power_mean([(jap * np.abs(fr.values)).max() for fr in F.frames], w, 2)
    bulk = morawetz_bulk(run)
    majorants = {
        "gv_FF_gF": gv * F4 * F_L2Linf * gF,
        "v_F_gF2": v4 * F4 * gF**2,
        "gv_v_F_gF": gv * v4 * F_L2Linf * gF,
        "v2_gF2": v4**2 * gF**2,
        "v2_gv_gF": np.sqrt(bulk) * gv * wgF,
    }
    assert rep.term_majorants == pytest.approx(majorants, rel=1e-12)
    F_Li2 = strichartz_norm(F, np.inf, 2)
    u0 = Field.physical(gs, F.frames[0].values + run.frames[0].values)
    assert rep.mass_rhs == pytest.approx(lp_norm(u0, 2) + F_Li2, rel=1e-12)
    exponent = strichartz_norm(F, 3, 6) ** 3 + wF**2 + gF**2
    level = energy(run.frames[0]) + 1.0 + mass(run.frames[0]) + F_Li2**2 + F4**4
    assert rep.growth_bound == pytest.approx(np.exp(exponent) * level, rel=1e-12)
    assert series.bulk == pytest.approx(bulk, rel=1e-12)


def test_energy_growth_audit_unforced_conservation(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.01, T=0.3, dealias=False)
    run = splitstep_nls(gaussian, cfg)
    series, rep = energy_growth_audit(run, None)
    e0 = series.energy[0]
    assert max(abs(e - e0) for e in series.energy) <= 10.0 * cfg.dt**2 * e0
    assert rep.mass_ok and rep.growth_ok
    assert all(v == 0.0 for v in rep.term_values.values())  # F = 0


def test_energy_growth_audit_forced(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.005, T=0.1, dealias=False)
    F0 = Field.physical(gs, 0.9 * gaussian.values * np.exp(1j * gs.axis_coord(1)))
    F = free_trajectory(F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
        lambda fr: fr.in_domain("physical")
    )
    run = splitstep_forced(Field.zero(gs, "physical"), F, cfg)
    series, rep = energy_growth_audit(run, F)
    assert rep.terms_ok  # each Holder majorant dominates its term
    assert rep.mass_ok
    assert rep.growth_ok
    assert series.bulk >= 0.0
    assert rep.term_values["gv_FF_gF"] > 0.0


def test_scattering_small_data(gs, gaussian):
    h1 = sobolev_norm(gaussian, 1.0, homogeneous=True)
    v0 = Field.physical(gs, (5e-3 / h1) * gaussian.values)
    cfg = NLSRunConfig(mu=+1, dt=0.01, T=2.0, dealias=True)
    run = splitstep_nls(v0, cfg)
    state, rep = scattering_state(run)
    assert rep.decreasing
    assert rep.final_relative <= 1e-3
    assert sobolev_norm(state, 1.0, homogeneous=True) > 0


def test_scattering_zero_run(gs):
    cfg = NLSRunConfig(mu=+1, dt=0.05, T=0.5)
    run = splitstep_nls(Field.zero(gs, "physical"), cfg)
    state, rep = scattering_state(run)
    assert np.abs(state.values).max() == 0.0


def test_scaling_identity(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.02, T=0.1, dealias=True)
    rep = scaling_check(gaussian, 1.0, cfg)
    assert rep.h1_invariance_error <= 1e-12
    assert rep.matched_time_discrepancy <= 1e-12


def test_scaling_lambda_two(gs, gaussian):
    cfg = NLSRunConfig(mu=+1, dt=0.02, T=0.2, dealias=True)
    rep = scaling_check(gaussian, 2.0, cfg)
    assert rep.h1_invariance_error <= 1e-10
    assert rep.matched_time_discrepancy <= 1e-3


def _six_transform_splitstep(u0, cfg):
    """The Strang step with a separate masked round trip after the nonlinear
    rotation (fftn, mask, ifftn, then fftn, half step, mask, ifftn): the
    transform reference for the per-axis matrix products of ``_splitstep``."""
    g = u0.grid
    xi = g.xi1d_fft
    half = np.exp(-0.5j * cfg.dt * reduce(
        np.add, (broadcast_along(xi**2, ax, g.d) for ax in range(g.d))))
    keep = np.abs(xi) <= (2.0 / 3.0) * np.abs(xi).max()
    mask = reduce(np.logical_and, (broadcast_along(keep, ax, g.d) for ax in range(g.d)))
    u = u0.values.copy()
    frames = [u.copy()]
    for _ in range(cfg.n_steps):
        u = np.fft.ifftn(np.fft.fftn(u) * half)
        u = u * np.exp(-1j * cfg.mu * cfg.dt * np.abs(u) ** 2)
        if cfg.dealias:
            uh = np.fft.fftn(u)
            uh *= mask
            u = np.fft.ifftn(uh)
        uh = np.fft.fftn(u) * half
        if cfg.dealias:
            uh *= mask
        u = np.fft.ifftn(uh)
        frames.append(u.copy())
    return frames


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("dealias", [False, True])
def test_splitstep_matches_six_transform_step(m, dealias):
    g = SpectralGrid(m=m, L=8.0)
    u0 = random_field(g, 21, band_limit=2.5)
    cfg = NLSRunConfig(mu=-1, dt=0.01, T=0.1, dealias=dealias)
    got = splitstep_nls(u0, cfg).frames
    want = _six_transform_splitstep(u0, cfg)
    assert len(got) == len(want)
    for fr, ref in zip(got, want):
        assert np.abs(fr.values - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dealias", [False, True])
def test_splitstep_step_matches_six_transform_step_at_m32(dealias):
    # one step at criterion 9a's grid, on data that fills the whole spectrum
    g = SpectralGrid(m=32, L=8.0)
    u0 = 0.5 * random_field(g, 23)
    cfg = NLSRunConfig(mu=+1, dt=0.001, T=0.001, dealias=dealias)
    got = _splitstep(u0, cfg)
    want = _six_transform_splitstep(u0, cfg)
    assert len(got) == len(want) == 2
    for fr, ref in zip(got, want):
        assert np.abs(fr - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("m", [8, 16])
def test_audit_hdot1_keeps_the_nyquist_planes(m):
    # un-band-limited frames: a Gaussian's Nyquist planes hold ~e^-79 of its
    # energy, these hold a visible share, which |grad v|^2 alone misses
    # (the derivative multiplier zeroes the Nyquist entry)
    g = SpectralGrid(m=m, L=8.0)
    run, F = (
        Trajectory(g, 0.0, 0.01, tuple(scale * random_field(g, s) for s in seeds))
        for scale, seeds in ((1.0, (41, 42, 43)), (0.1, (44, 45, 46)))
    )
    h1_sq = [sobolev_norm(fr, 1.0, homogeneous=True) ** 2 for fr in run.frames]
    grad_sq = [g.dx**g.d * float(np.sum(gradient_magnitude(fr) ** 2)) for fr in run.frames]
    assert all(gr < 0.95 * h for gr, h in zip(grad_sq, h1_sq))
    series, _ = energy_growth_audit(run, F)
    quartic = [0.25 * lp_norm(fr, 4) ** 4 for fr in run.frames]
    assert [e - q for e, q in zip(series.energy, quartic)] == pytest.approx(
        [0.5 * h for h in h1_sq], rel=1e-12
    )
    assert series.energy == pytest.approx([energy(fr) for fr in run.frames], rel=1e-12)
    rep = morawetz_audit(run)
    assert rep.morawetz_rhs == pytest.approx(linf_h1(run) * linf_l2(run), rel=1e-12)


def test_audits_and_gradients_make_no_multi_axis_transform(gs, gaussian, monkeypatch):
    # every derivative is a matrix product along its own axis: no multi-axis transform
    run, F = _forced_run(gs, gaussian, 0.005, 2)
    frame = run.frames[1]

    def one_axis(transform):
        def checked(a, *args, axes=None, **kwargs):
            if axes is None or len(axes) != 1:
                raise AssertionError(f"transform over axes {axes}")
            return transform(a, *args, axes=axes, **kwargs)

        return checked

    monkeypatch.setattr(np.fft, "fftn", one_axis(np.fft.fftn))
    monkeypatch.setattr(np.fft, "ifftn", one_axis(np.fft.ifftn))
    rep = morawetz_audit(run, F)
    assert np.isfinite(rep.constant) and rep.bulk > 0.0
    series, _ = energy_growth_audit(run, F)
    assert np.isfinite(series.energy).all()
    assert len(gradient_fields(frame)) == gs.d
    assert np.isfinite(gradient_magnitude(frame)).all()


def test_energy_growth_audit_unforced_differentiates_v_only(monkeypatch):
    # without forcing only v is differentiated: one derivative product per axis and frame
    g = SpectralGrid(m=8, L=8.0)
    run = Trajectory(g, 0.0, 0.01, tuple(random_field(g, s) for s in (51, 52, 53)))
    axes = []

    def counted(values, matrix, axis, out=None):
        if matrix is g._derivative_matrix:
            axes.append(axis)
        return axis_product(values, matrix, axis, out)

    monkeypatch.setattr(grid_mod, "_axis_product", counted)
    series, rep = energy_growth_audit(run, None)
    assert axes == list(range(g.d)) * run.n_frames
    assert rep.group_gradient == 0.0
    assert all(v == 0.0 for v in rep.term_values.values())
    assert series.energy == pytest.approx([energy(fr) for fr in run.frames], rel=1e-12)


def test_energy_growth_audit_unforced_group_constant_is_nan():
    # both right-side groups vanish without forcing, so their ratio is undefined;
    # random (non-solution) frames make int |dE/dt| large
    g = SpectralGrid(m=8, L=8.0)
    run = Trajectory(g, 0.0, 0.01, tuple(random_field(g, s) for s in (61, 62, 63, 64)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rep = energy_growth_audit(run, None)
    assert rep.group_quartic == rep.group_gradient == 0.0
    assert rep.integrated_dtE > 0.0
    assert np.isnan(rep.group_constant)


@pytest.mark.parametrize("audit", [morawetz_audit, energy_growth_audit])
@pytest.mark.parametrize("case", ["every_2dt", "shorter", "other_grid"])
def test_audits_reject_a_forcing_they_cannot_pair(audit, case):
    g = SpectralGrid(m=8, L=8.0)
    dt, n = 0.01, 4

    def forcing(grid, step, frames):
        F0 = Field.physical(grid, 0.5 * np.exp(-grid.x_squared / 2.0) * np.exp(1j * grid.axis_coord(1)))
        return free_trajectory(F0, 0.0, step, frames).in_domain(PHYSICAL)

    cfg = NLSRunConfig(mu=+1, dt=dt, T=dt * (n - 1), dealias=False)
    run = splitstep_forced(Field.zero(g, PHYSICAL), forcing(g, dt, n), cfg)
    bad = {
        "every_2dt": lambda: forcing(g, 2 * dt, n),
        "shorter": lambda: forcing(g, dt, n - 1),
        "other_grid": lambda: forcing(SpectralGrid(m=16, L=8.0), dt, n),
    }[case]()
    with pytest.raises(ValueError, match="forcing"):
        audit(run, bad)


def test_audits_pair_a_longer_forcing_by_its_first_frames():
    g = SpectralGrid(m=8, L=8.0)
    dt, n = 0.01, 4
    F0 = Field.physical(g, 0.5 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    longer = free_trajectory(F0, 0.0, dt, n + 2).in_domain(PHYSICAL)
    exact = Trajectory.from_values(g, 0.0, dt, PHYSICAL, longer.values[:n])
    run = splitstep_forced(Field.zero(g, PHYSICAL), longer,
                           NLSRunConfig(mu=+1, dt=dt, T=dt * (n - 1), dealias=False))
    assert energy_growth_audit(run, longer) == energy_growth_audit(run, exact)
    assert morawetz_audit(run, longer) == morawetz_audit(run, exact)


def test_morawetz_bulk_honours_its_window(gs):
    f = random_field(gs, 3, domain=FREQUENCY, band_limit=2.0)
    run = free_trajectory(f, 0.0, 0.02, 5)
    part = Trajectory.from_values(gs, 0.02, 0.02, run.domain, run.values[1:4])
    assert morawetz_bulk(run, interval=(0.02, 0.06)) == morawetz_bulk(part)
    assert 0.0 < morawetz_bulk(part) < morawetz_bulk(run)


def test_scaling_check_warns_once_at_its_caller_and_reports_the_wrap(gaussian):
    # at m=16, L=8, dt*max|xi|^2 = dt * 4 (2 pi)^2 exceeds pi for dt = 0.02,
    # not for dt = 0.005; the rescaled run turns the same phase per step
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wrapped = scaling_check(gaussian, 2.0, NLSRunConfig(mu=+1, dt=0.02, T=0.04))
        resolved = scaling_check(gaussian, 2.0, NLSRunConfig(mu=+1, dt=0.005, T=0.01))
    assert wrapped.phases_wrap is True and resolved.phases_wrap is False
    assert [(w.filename, "kinetic phases wrap" in str(w.message)) for w in caught] == [(__file__, True)]

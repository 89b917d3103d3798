from math import lgamma

import numpy as np
import pytest

from dlab.errors import DLabError, FitRangeError, RegimeViolationError
from dlab.grid import SpectralGrid
from dlab.montecarlo import (
    EnsembleStats,
    as_norm_ensemble,
    evaluate_draws,
    linear_gaussian_statistic,
    moment_growth,
    tail_fit,
)
from dlab.norms import EpsilonPolicy
from dlab.randomize import RadialProfileSpec, make_radial_data


def rayleigh_oracle_slope(p_list):
    """Analytic log-log slope of ||X||_p = Gamma(p/2+1)^(1/p) for unit Rayleigh."""
    xs = np.log(p_list)
    ys = np.array([lgamma(p / 2.0 + 1.0) / p for p in p_list])
    A = np.vstack([xs, np.ones_like(xs)]).T
    return float(np.linalg.lstsq(A, ys, rcond=None)[0][0])


def test_rayleigh_moment_slope_matches_analytic_oracle():
    # |sum c_k g_k| with ||c||_2 = 1 is exactly Rayleigh; the analytic moments
    # Gamma(p/2+1)^(1/p) give log-log LSQ slope 0.3472 over p in {2,...,32}
    p_list = [2, 4, 8, 16, 32]
    oracle = rayleigh_oracle_slope(p_list)
    assert oracle == pytest.approx(0.34718, abs=1e-4)
    c = np.full(16, 0.25)  # ||c||_2 = 1
    stat = linear_gaussian_statistic(c, seed=123)
    stats = moment_growth(stat, p_list, Q=100_000)
    # the empirical top moment is biased slightly low at this Q
    assert stats.moment_slope == pytest.approx(oracle, abs=0.03)


def test_constant_statistic_zero_slope():
    stats = moment_growth(lambda d: 1.0, [2, 4, 8], Q=100)
    assert stats.moment_slope == pytest.approx(0.0, abs=1e-12)
    assert all(v == pytest.approx(1.0) for v in stats.lp_norms.values())


def test_moment_growth_flags_small_Q():
    stats = moment_growth(lambda d: 1.0, [2, 4, 64], Q=100)
    assert stats.skipped_p == [64.0]
    assert 64.0 not in stats.lp_norms


def test_single_gaussian_tail_slope_exact():
    # P(|g| > lambda) = exp(-lambda^2) for unit complex Gaussian
    stat = linear_gaussian_statistic(np.array([1.0]), seed=7)
    lam = [0.8, 1.0, 1.2, 1.5, 1.8, 2.2]
    stats = tail_fit(stat, lam, Q=100_000)
    assert stats.tail_slope == pytest.approx(-1.0, abs=0.1)


def test_linear_gaussian_tail_variance_four():
    c = np.array([1.2, 0.8, 1.0, 0.6, 0.4, np.sqrt(0.4)])
    assert np.sum(np.abs(c) ** 2) == pytest.approx(4.0)
    stat = linear_gaussian_statistic(c, seed=11)
    lam = [1.6, 2.0, 2.4, 3.0, 3.6]
    stats = tail_fit(stat, lam, Q=100_000)
    assert stats.tail_slope == pytest.approx(-0.25, abs=0.05)


def test_bernoulli_law_subgaussian_tail():
    # a single Bernoulli coefficient has |g| = 1 (no tail); the summed
    # statistic shows the sub-Gaussian slope the moment condition implies
    c = np.full(8, np.sqrt(1.0 / 8.0))
    stat = linear_gaussian_statistic(c, seed=17, law="bernoulli")
    lam = [0.8, 1.0, 1.2, 1.5, 1.8]
    stats = tail_fit(stat, lam, Q=100_000)
    assert -1.25 <= stats.tail_slope <= -0.8


def test_bounded_statistic_no_exceedances_beyond_bound():
    rng_vals = np.random.default_rng(0).random(5000)  # bounded by 1
    stats = tail_fit(None, [0.2, 0.5, 0.9, 1.1, 2.0], Q=5000, values=rng_vals)
    assert stats.exceedances[1.1] == 0
    assert stats.exceedances[2.0] == 0


def test_tail_fit_range_error():
    vals = np.zeros(100)
    with pytest.raises(FitRangeError):
        tail_fit(None, [1.0, 2.0], Q=100, values=vals)


def test_monotone_invariants_enforced():
    s = EnsembleStats(name="x", Q=3, values=np.array([1.0, 2.0, 3.0]))
    s.exceedances = {1.0: 2, 2.0: 3}
    with pytest.raises(AssertionError):
        s.check_invariants()
    s2 = EnsembleStats(name="x", Q=3, values=np.array([1.0, 2.0, 3.0]))
    s2.lp_norms = {2.0: 5.0, 4.0: 1.0}
    with pytest.raises(AssertionError):
        s2.check_invariants()


def test_reproducibility_across_thread_counts(monkeypatch):
    c = np.full(8, 0.35)
    stat = linear_gaussian_statistic(c, seed=5)
    monkeypatch.setenv("DLAB_THREADS", "1")
    a = evaluate_draws(stat, 500)
    monkeypatch.setenv("DLAB_THREADS", "4")
    b = evaluate_draws(stat, 500)
    assert np.array_equal(a, b)


def test_csv_streaming_resume(tmp_path):
    c = np.array([1.0, 0.5])
    stat = linear_gaussian_statistic(c, seed=3)
    path = tmp_path / "draws.csv"
    a = evaluate_draws(stat, 50, csv_path=path)
    b = evaluate_draws(stat, 120, csv_path=path)  # extends without recompute
    assert np.array_equal(a, b[:50])
    text = path.read_text().strip().splitlines()
    assert text[0] == "draw,value"
    assert len(text) == 121


def test_regime_checks():
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="gaussian_bump", width=1.0), g)
    pol = EpsilonPolicy(eps=0.02)
    with pytest.raises(RegimeViolationError):
        as_norm_ensemble("Y", f, s=0.3, pol=pol, Q=10)
    with pytest.raises(RegimeViolationError):
        as_norm_ensemble("weighted_grad_L2Linf", f, s=0.4, pol=pol, Q=10, alpha=0.75)
    # exploratory flag permits the run and records the violation
    stats = as_norm_ensemble(
        "LinfL2", f, s=0.5, pol=pol, Q=200, T=0.5, n_frames=5, exploratory=True
    )
    assert stats.Q == 200


def test_zero_data_ensemble_all_zero():
    from dlab.grid import FREQUENCY, Field
    from dlab.montecarlo import make_norm_statistic
    from dlab.randomize import RandomizationSpec

    g = SpectralGrid(m=8, L=4 * np.pi)
    z = Field.zero(g, FREQUENCY)
    stat = make_norm_statistic("L3L6", z, RandomizationSpec(seed=0), T=0.5, n_frames=5)
    assert stat(0) == 0.0 and stat(3) == 0.0


def test_small_y_ensemble_shape():
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.4), g)
    pol = EpsilonPolicy(eps=0.02, s=0.4)
    stats = as_norm_ensemble("Y", f, s=0.4, pol=pol, Q=200, T=1.0, n_frames=5, seed=2)
    assert stats.tail_slope < 0
    assert stats.metadata["median"] > 0
    lams = sorted(stats.exceedances)
    counts = [stats.exceedances[l] for l in lams]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_y_norm_ensemble_median_stable():
    # 32 draws of ||e^{it Lap} f^omega||_Y at s = 0.4, eps = 0.02: finite and
    # quartile spread below 2x
    from dlab.montecarlo import make_norm_statistic
    from dlab.randomize import RandomizationSpec

    g = SpectralGrid(m=8, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.4), g)
    pol = EpsilonPolicy(eps=0.02, s=0.4)
    stat = make_norm_statistic("Y", f, RandomizationSpec(seed=4), T=1.0, n_frames=5, pol=pol)
    vals = np.array([stat(d) for d in range(32)])
    assert np.isfinite(vals).all() and (vals > 0).all()
    q25, q75 = np.quantile(vals, [0.25, 0.75])
    assert q75 / q25 < 2.0


def test_z_norm_ensemble_median_stable():
    from dlab.norms import z_norm
    from dlab.propagate import free_trajectory
    from dlab.randomize import RandomizationSpec, randomize_schrodinger

    g = SpectralGrid(m=8, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6), g)
    spec = RandomizationSpec(seed=6)
    vals = []
    for d in range(16):
        fw = randomize_schrodinger(f, spec, d)
        traj = free_trajectory(fw, 0.0, 0.25, 5)
        vals.append(z_norm(traj))
    vals = np.array(vals)
    assert np.isfinite(vals).all() and (vals > 0).all()
    q25, q75 = np.quantile(vals, [0.25, 0.75])
    assert q75 / q25 < 2.0


def test_csv_resume_refuses_draws_of_another_key(tmp_path):
    path = tmp_path / "draws.csv"
    key = {"statistic": "counter", "seed": 1}
    first = evaluate_draws(lambda d: float(d + 1), 3, csv_path=path, key=key)
    assert list(first) == [1.0, 2.0, 3.0]
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ") and lines[1] == "draw,value" and len(lines) == 5
    # the same key resumes without calling the statistic
    assert list(evaluate_draws(lambda d: 1 / 0, 3, csv_path=path, key=key)) == [1.0, 2.0, 3.0]
    for other in ({"statistic": "constant", "seed": 1}, None):
        with pytest.raises(DLabError, match="another key"):
            evaluate_draws(lambda d: 999.0, 3, csv_path=path, key=other)


def test_ensemble_fingerprint_covers_the_statistic(tmp_path):
    g = SpectralGrid(m=8, L=8.0)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.5), g)
    path = tmp_path / "draws.csv"
    kw = dict(s=0.5, pol=EpsilonPolicy(eps=0.05), Q=2, seed=4, n_frames=3, csv_path=path)
    with pytest.raises(FitRangeError):  # two draws cannot fit a tail; they are cached first
        as_norm_ensemble("LinfL2", f, **kw)
    with pytest.raises(DLabError, match="another key"):
        as_norm_ensemble("LinfL4", f, **kw)
    with pytest.raises(FitRangeError):  # same fingerprint: the cached draws are reused
        as_norm_ensemble("LinfL2", f, **kw)

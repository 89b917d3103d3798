"""Ensemble engine for the probabilistic content: sqrt(p) moment growth,
sub-Gaussian tails, and almost-sure finiteness statistics of the space-time
norms of free evolutions of randomized data.

Draws are keyed by (seed, draw) through a counter-based generator, so results
are bit-for-bit reproducible regardless of execution order or thread count.
Per-draw statistics stream to CSV (one row per draw) so an ensemble can be
extended without recomputing earlier draws; an ensemble's CSV carries its
fingerprint, and draws are never reused under a different one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import DLabError, FitRangeError, ParameterRangeError, RegimeViolationError
from .estimates import fit_line, fit_loglog
from .grid import PHYSICAL, Field, _power_mean
from .norms import EpsilonPolicy, _weighted_sup, strichartz_norm, y_norm
from .propagate import free_trajectory
from .randomize import (RandomizationSpec, _draw_box, _philox, randomize_schrodinger,
                        randomize_wave_pair)

ENSEMBLE_KINDS = (
    "Y",
    "weighted_grad_L2Linf",
    "weighted_L2Linf",
    "L3L6",
    "LinfL4",
    "LinfL2",
    "wave_L2Linf",
    "wave_L3L6",
)


@dataclass
class EnsembleStats:
    """Per-draw values with empirical moments and tail-fit results."""

    name: str
    Q: int
    values: np.ndarray
    p_list: list = dc_field(default_factory=list)
    lp_norms: dict = dc_field(default_factory=dict)
    skipped_p: list = dc_field(default_factory=list)
    moment_slope: float = float("nan")
    moment_intercept: float = float("nan")
    lambda_grid: list = dc_field(default_factory=list)
    exceedances: dict = dc_field(default_factory=dict)
    tail_slope: float = float("nan")
    tail_intercept: float = float("nan")
    tail_fit_lambdas: list = dc_field(default_factory=list)
    metadata: dict = dc_field(default_factory=dict)

    def check_invariants(self) -> None:
        lams = sorted(self.exceedances)
        counts = [self.exceedances[l] for l in lams]
        if any(b > a for a, b in zip(counts, counts[1:])):
            raise AssertionError("exceedance counts must be nonincreasing in lambda")
        ps = sorted(self.lp_norms)
        norms = [self.lp_norms[p] for p in ps]
        if any(b < a * (1.0 - 1e-9) for a, b in zip(norms, norms[1:])):
            raise AssertionError("L^p norms must be nondecreasing in p")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "Q": self.Q,
            "p_list": list(self.p_list),
            "lp_norms": [self.lp_norms[p] for p in self.p_list],
            "skipped_p": list(self.skipped_p),
            "moment_slope": self.moment_slope,
            "moment_intercept": self.moment_intercept,
            "lambda_grid": list(self.lambda_grid),
            "exceedances": [self.exceedances[l] for l in self.lambda_grid],
            "tail_slope": self.tail_slope,
            "tail_intercept": self.tail_intercept,
            "tail_fit_lambdas": list(self.tail_fit_lambdas),
            "metadata": self.metadata,
        }


def _load_csv(path, header) -> dict:
    out = {}
    if path and Path(path).exists():
        with open(path, newline="") as fh:
            first = fh.readline().rstrip("\r\n")
            stored = first if first.startswith("#") else None
            if stored != header:
                raise DLabError(
                    f"{path} holds draws cached under another key: "
                    f"{stored or 'no key'} != {header or 'no key'}"
                )
            if stored is None:
                fh.seek(0)
            for row in csv.reader(fh):
                if row and row[0] != "draw":
                    out[int(row[0])] = float(row[1])
    return out


def env_threads() -> int:
    """The worker count DLAB_THREADS sets for draws and experiments (default 1)."""
    raw = os.environ.get("DLAB_THREADS", "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise DLabError(f"DLAB_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def evaluate_draws(
    statistic, Q: int, csv_path=None, threads: int | None = None, key: dict | None = None
) -> np.ndarray:
    """values[draw] = statistic(draw) for draw in 0..Q-1, resuming from CSV.

    ``key`` fingerprints the statistic; a fresh CSV records it in a ``#`` line
    above the ``draw,value`` rows, and a CSV written under any other key (or
    none) raises DLabError instead of lending its draws.

    Thread-count independence: each draw is keyed by its index, and assembly
    is positional, so any execution order yields identical output.
    """
    header = None if key is None else "# " + json.dumps(key, sort_keys=True, separators=(",", ":"))
    cached = _load_csv(csv_path, header)
    missing = [d for d in range(Q) if d not in cached]
    if threads is None:
        threads = env_threads()
    results = dict(cached)
    if missing:
        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                for d, val in zip(missing, pool.map(statistic, missing)):
                    results[d] = float(val)
        else:
            for d in missing:
                results[d] = float(statistic(d))
        if csv_path:
            fresh = not Path(csv_path).exists()
            Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
            with open(csv_path, "a", newline="") as fh:
                w = csv.writer(fh)
                if fresh:
                    if header:
                        fh.write(header + "\r\n")
                    w.writerow(["draw", "value"])
                for d in sorted(missing):
                    w.writerow([d, repr(results[d])])
    return np.array([results[d] for d in range(Q)])


def moment_growth(statistic, p_list, Q: int, csv_path=None, values=None) -> EnsembleStats:
    """Empirical L^p norms over draws and the log-log slope of ||.||_p vs p.

    p values with Q < 10 p are flagged in skipped_p and excluded from the fit
    rather than computed.
    """
    if values is None:
        values = evaluate_draws(statistic, Q, csv_path)
    values = np.asarray(values, dtype=float)
    usable, skipped = [], []
    for p in p_list:
        (usable if Q >= 10 * p else skipped).append(float(p))
    norms = {p: _power_mean(values, 1.0 / values.size, p) for p in usable}
    stats = EnsembleStats(
        name="moment_growth", Q=Q, values=values, p_list=usable, lp_norms=norms,
        skipped_p=skipped,
    )
    positive = [p for p in usable if norms[p] > 0]
    if len(positive) >= 2:
        stats.moment_slope, stats.moment_intercept = fit_loglog(positive, [norms[p] for p in positive])
    elif len(positive) <= 1:
        stats.moment_slope = 0.0
    stats.check_invariants()
    return stats


def tail_fit(
    statistic, lambda_grid, Q: int, csv_path=None, values=None, min_exceedances: int = 30
) -> EnsembleStats:
    """Exceedance counts on the lambda grid and the slope of log P(X > lambda)
    against lambda^2, fitted only on bins with enough exceedances."""
    if values is None:
        values = evaluate_draws(statistic, Q, csv_path)
    values = np.asarray(values, dtype=float)
    exceed = {float(l): int(np.sum(values > l)) for l in lambda_grid}
    usable = [l for l in sorted(exceed) if exceed[l] >= min_exceedances]
    if len(usable) < 2:
        raise FitRangeError(
            f"tail fit needs >= 2 bins with >= {min_exceedances} exceedances"
        )
    slope, intercept = fit_line([l * l for l in usable], np.log([exceed[l] / Q for l in usable]))
    stats = EnsembleStats(
        name="tail_fit",
        Q=Q,
        values=values,
        lambda_grid=[float(l) for l in lambda_grid],
        exceedances=exceed,
        tail_slope=slope,
        tail_intercept=intercept,
        tail_fit_lambdas=usable,
    )
    stats.check_invariants()
    return stats


def linear_gaussian_statistic(c, seed: int, law: str = "complex_gaussian"):
    """draw -> |sum_k c_k g_k| with the package's counter-based coefficients."""
    c = np.asarray(c, dtype=complex)

    def statistic(draw: int) -> float:
        return float(np.abs(np.sum(c * _draw_box(_philox(seed, draw), (c.size,), law))))

    return statistic


def _check_regime(which: str, s: float, alpha: float, pol: EpsilonPolicy, exploratory: bool):
    problems = []
    if which == "weighted_grad_L2Linf" and not (s > 0.5 and alpha < 1.0):
        problems.append(f"weighted gradient bound regime needs s > 1/2, alpha < 1 (got s={s}, alpha={alpha})")
    if which == "weighted_L2Linf" and not (s > 0.0 and alpha < 0.75):
        problems.append(f"weighted bound regime needs s > 0, alpha < 3/4 (got s={s}, alpha={alpha})")
    if which == "Y":
        if not s > 1.0 / 3.0:
            problems.append(f"Y-norm regime needs s > 1/3 (got s={s})")
        elif not pol.eps < (s - 1.0 / 3.0) / 3.0 + 1e-12:
            problems.append(f"Y-norm regime needs eps < (s - 1/3)/3 (got eps={pol.eps})")
    if problems and not exploratory:
        raise RegimeViolationError("; ".join(problems))
    return problems


def make_norm_statistic(
    which: str,
    f: Field,
    spec: RandomizationSpec,
    T: float = 4.0,
    n_frames: int = 17,
    alpha: float = 0.5,
    pol: EpsilonPolicy = EpsilonPolicy(),
):
    """draw -> space-time norm of the free evolution of the draw's randomization."""
    if which not in ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble statistic {which!r}")
    if not T > 0 or n_frames < 2:
        raise ParameterRangeError(f"need T > 0 and n_frames >= 2, got {T=}, {n_frames=}")
    dt = T / (n_frames - 1)

    def statistic(draw: int) -> float:
        if which.startswith("wave_"):
            zero = Field.zero(f.grid, PHYSICAL)
            fw, _ = randomize_wave_pair(f.in_domain(PHYSICAL), zero, spec, draw)
            traj = free_trajectory(fw, 0.0, dt, n_frames, flow="halfwave")
        else:
            fw = randomize_schrodinger(f, spec, draw)
            traj = free_trajectory(fw, 0.0, dt, n_frames)
        if which == "Y":
            return y_norm(traj, pol=pol)
        if which == "L3L6" or which == "wave_L3L6":
            return strichartz_norm(traj, 3, 6)
        if which == "LinfL4":
            return strichartz_norm(traj, np.inf, 4)
        if which == "LinfL2":
            return strichartz_norm(traj, np.inf, 2)
        if which == "weighted_grad_L2Linf":
            return _weighted_sup(traj, alpha, gradient=True)
        if which in ("weighted_L2Linf", "wave_L2Linf"):
            return _weighted_sup(traj, alpha)
        raise ValueError(which)

    return statistic


def as_norm_ensemble(
    which: str,
    f: Field,
    s: float,
    pol: EpsilonPolicy,
    Q: int,
    seed: int = 0,
    alpha: float = 0.5,
    T: float = 4.0,
    n_frames: int = 17,
    law: Literal["complex_gaussian", "bernoulli"] = "complex_gaussian",
    exploratory: bool = False,
    csv_path: str | None = None,
    p_list=(2, 4, 8),
    quantiles=(0.5, 0.6, 0.7, 0.8, 0.85),
    threads: int | None = None,
) -> EnsembleStats:
    """Full ensemble statistics for one almost-sure-bound norm.

    The tail grid is placed at empirical quantiles so the populated-bin rule
    holds by construction; moment and tail fits both run on the same draws,
    which ``evaluate_draws`` runs on ``threads`` workers.
    """
    problems = _check_regime(which, s, alpha, pol, exploratory)
    spec = RandomizationSpec(seed=seed, law=law)
    stat = make_norm_statistic(which, f, spec, T=T, n_frames=n_frames, alpha=alpha, pol=pol)
    # the cached draws' fingerprint; "schema" versions the CSV cache format
    key = {"schema": 1, "statistic": which, "seed": seed, "law": law,
           "grid": [f.grid.m, f.grid.L, f.grid.d], "T": float(T), "n_frames": int(n_frames),
           "alpha": float(alpha), "eps": float(pol.eps),
           "data": hashlib.sha256(f.domain.encode() + f.values.tobytes()).hexdigest()}
    values = evaluate_draws(stat, Q, csv_path, threads=threads, key=key)
    # keep only quantiles whose exceedance count clears the populated-bin rule;
    # for small Q fall back to the two highest feasible quantiles
    feasible = [q for q in quantiles if (1.0 - q) * Q >= 30]
    if len(feasible) < 2:
        if Q < 60:
            raise FitRangeError(f"Q={Q} cannot populate two tail bins with 30 exceedances")
        feasible = [1.0 - 60.0 / Q, 1.0 - 30.0 / Q]
    lam_grid = sorted(set(float(np.quantile(values, q)) for q in feasible))
    stats = tail_fit(stat, lam_grid, Q, values=values)
    mg = moment_growth(stat, p_list, Q, values=values)
    stats.name = f"as_norm[{which}]"
    stats.p_list = mg.p_list
    stats.lp_norms = mg.lp_norms
    stats.skipped_p = mg.skipped_p
    stats.moment_slope = mg.moment_slope
    stats.moment_intercept = mg.moment_intercept
    stats.metadata = {
        "which": which,
        "s": s,
        "alpha": alpha,
        "eps": pol.eps,
        "T": T,
        "n_frames": n_frames,
        "law": law,
        "seed": seed,
        "exploratory_flags": problems,
        "median": float(np.median(values)),
        "window_note": "norms over the truncated window [0, T] on the torus",
    }
    stats.check_invariants()
    return stats

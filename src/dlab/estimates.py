"""Numerical verification harness for the linear and trilinear inequalities:
both sides evaluated on generated data families, scaling exponents fitted on
log-log axes, constants recorded.

Desk-scale surrogates: the box size and frequency cutoff trade off as
xi_max * L = pi * m per axis, so regimes the statements pose at large
separations (|k| >= 10 wave packets, |k - m| >= 100 cell separations,
spatial scales 2^7..2^9) run here at grid-feasible surrogate ranges; every
report carries the substitution it made.  Time windows follow the parabolic
scaling T_N = T0 / N^2 for dyadic families so each band sees the same
fraction of its continuum norm, and fixed windows below the wraparound time
for unit-scale families.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegenerateDataError, InvalidExponentError, RegimeViolationError
from .grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    lp_norm,
    sobolev_norm,
    to_physical,
)
from .norms import (
    EpsilonPolicy,
    gn_norm_upper,
    lateral_norm,
    lateral_norms,
    linf_l2,
    strichartz_norm,
    xn_norm,
    yn_norm,
)
from .projections import (
    Band,
    band_symbol,
    psi_symbol,
    spatial_symbol,
)
from .propagate import duhamel_all, free_trajectory, schrodinger_flow
from .randomize import compute_active_set


@dataclass
class ScalingFitReport:
    """Raw points, the fitted log-log slope, and the acceptance verdict."""

    name: str
    abscissae: list
    values: list
    slope: float
    intercept: float
    predicted: float
    window: float
    passed: bool
    c_obs: float
    metadata: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "abscissae": [float(a) for a in self.abscissae],
            "values": [float(v) for v in self.values],
            "slope": self.slope,
            "intercept": self.intercept,
            "predicted": self.predicted,
            "window": self.window,
            "passed": self.passed,
            "c_obs": self.c_obs,
            "metadata": self.metadata,
        }


def fit_loglog(xs, ys) -> tuple:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(sol[0]), float(sol[1])


def _report(name, xs, ys, predicted, window, metadata=None) -> ScalingFitReport:
    slope, intercept = fit_loglog(xs, ys)
    c_obs = float(np.max(np.asarray(ys) / np.asarray(xs, dtype=float) ** predicted))
    return ScalingFitReport(
        name=name,
        abscissae=list(xs),
        values=[float(y) for y in ys],
        slope=slope,
        intercept=intercept,
        predicted=predicted,
        window=window,
        passed=bool(abs(slope - predicted) <= window and np.isfinite(c_obs)),
        c_obs=c_obs,
        metadata=metadata or {},
    )


def shell_field(grid: SpectralGrid, N: float, seed: int | None = None,
                center: float = 1.5, rel_width: float = 0.25) -> Field:
    """L^2-normalized data with fhat supported on the annulus |xi| ~ N.

    The profile is an exact rescale of one fixed shape, so dyadic families
    built from it scale exactly.  With a seed, coefficients get random
    phases (radial profile otherwise).
    """
    r = np.sqrt(grid.xi_squared)
    prof = np.exp(-((r / N - center) ** 2) / (2.0 * rel_width**2))
    prof[(grid.m // 2,) * grid.d] = 0.0  # exactly zero-mode free
    vals = prof.astype(np.complex128)
    if seed is not None:
        rng = np.random.default_rng(seed)
        vals = vals * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, FREQUENCY, vals)
    n2 = lp_norm(to_physical(f), 2)
    if n2 == 0:
        raise DegenerateDataError(f"shell at N={N} has no lattice support")
    return Field(grid, FREQUENCY, vals / n2)


def _dyadic_window(T0: float, N: float) -> float:
    return T0 / N**2


def verify_lateral_dyadic(
    grid: SpectralGrid,
    N_list,
    p: float,
    q: float,
    axis: int = 1,
    T0: float = 1.2,
    n_frames: int = 24,
    seed: int | None = None,
) -> ScalingFitReport:
    """Slope of log(lateral norm / ||f||_2) vs log N against 4/p - 1/2.

    For p >= q the directional projection P_{N,e_axis} is applied first, per
    the statement being checked.
    """
    if p < 2 or q < 2 or abs(1.0 / p + 1.0 / q - 0.5) > 1e-9:
        raise InvalidExponentError(f"(p,q)=({p},{q}) violates 1/p + 1/q = 1/2, p,q >= 2")
    vals = []
    for N in N_list:
        f = shell_field(grid, N, seed=seed)
        if p >= q and not np.isinf(q):
            sym = band_symbol(grid, Band.directional(N, axis))
            f = Field(grid, FREQUENCY, f.values * sym)
        T = _dyadic_window(T0, N)
        traj = free_trajectory(f, 0.0, T / (n_frames - 1), n_frames)
        traj = traj.map_frames(lambda fr: fr.in_domain(PHYSICAL))
        vals.append(lateral_norm(traj, p, q, axis))
    pred = 4.0 / p - 0.5
    meta = {
        "grid": {"m": grid.m, "L": grid.L},
        "windows": {float(N): _dyadic_window(T0, N) for N in N_list},
        "norm_ref": "values are lateral norms of L2-normalized shells",
    }
    return _report(f"lateral_dyadic_p{p}_q{q}", list(N_list), vals, pred, 0.2, meta)


@dataclass(frozen=True)
class Grid1D:
    """1D companion lattice used by the tensor-factorized maximal evaluator."""

    m: int
    L: float

    @property
    def dx(self):
        return self.L / self.m

    @property
    def dxi(self):
        return 2.0 * np.pi / self.L

    @property
    def xi(self):
        return self.dxi * (np.arange(self.m) - self.m // 2)


def _phys_1d(fh: np.ndarray, dx: float) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(fh))) / dx


def unit_maximal_tensor_ratio(
    k_abs: float,
    g1: Grid1D,
    grid3: SpectralGrid,
    T: float,
    n_fine: int = 600,
    n_coarse: int = 25,
) -> float:
    """Exact lateral (2, inf) ratio for the separable cell bump at k e_1.

    For product data fhat = a(xi_1 - k) b(xi') the free evolution factors, so
    sup over (t, x') of |u| equals max_t |u_a(t, x_1)| * max_{x'} |u_b(t, x')|,
    which this computes without a 4D lattice.  The transverse factor varies
    slowly and is sampled on a coarse ladder, the 1D transport factor on a
    fine one.
    """
    from .projections import phi1

    xi1 = g1.xi
    a_hat = phi1(xi1 - k_abs).astype(np.complex128)
    b_hat = Field(
        grid3,
        FREQUENCY,
        (
            phi1(grid3.axis_coord(1, frequency=True))
            * phi1(grid3.axis_coord(2, frequency=True))
            * phi1(grid3.axis_coord(3, frequency=True))
        ).astype(np.complex128),
    )
    l2_a = np.sqrt((g1.dxi / (2 * np.pi)) * np.sum(np.abs(a_hat) ** 2))
    l2_b = np.sqrt(
        (grid3.dxi / (2 * np.pi)) ** 3 * np.sum(np.abs(b_hat.values) ** 2)
    )

    coarse_t = np.linspace(0.0, T, n_coarse)
    Mb = np.array(
        [
            np.abs(schrodinger_flow(b_hat, t).in_domain(PHYSICAL).values).max()
            for t in coarse_t
        ]
    )
    fine_t = np.linspace(0.0, T, n_fine)
    Mb_fine = np.interp(fine_t, coarse_t, Mb)
    smax = np.zeros(g1.m)
    for t, mb in zip(fine_t, Mb_fine):
        ua = _phys_1d(a_hat * np.exp(-1j * t * xi1**2), g1.dx)
        smax = np.maximum(smax, np.abs(ua) * mb)
    val = np.sqrt(g1.dx * np.sum(smax**2))
    return float(val / (l2_a * l2_b))


def verify_unit_maximal(
    k_list=(10, 14, 20, 28),
    axis: int = 1,
    min_fit_absk: float = 10.0,
    T: float = 1.5,
    grid1: Grid1D = Grid1D(4096, 2.0 * np.pi / 0.05),
    grid3: SpectralGrid | None = None,
    control_grid: SpectralGrid | None = None,
    control_N=(1.0, 2.0, 4.0),
    control_T0: float = 1.2,
    n_frames_control: int = 20,
) -> tuple:
    """Unit-scale maximal slope fit (target 1/2) plus the dyadic control.

    Unit-scale points use the tensor-factorized exact evaluation (the 4D
    lattice cannot reach |k| >= 10 at desk scale); the dyadic control runs
    through the generic 4D lateral-norm path and must separate by >= 0.5 in
    fitted slope.
    """
    if grid3 is None:
        grid3 = SpectralGrid(m=16, L=2.0 * np.pi / 0.5, d=3)
    ks, vals, reported = [], [], {}
    for k in k_list:
        ratio = unit_maximal_tensor_ratio(float(abs(k)), grid1, grid3, T)
        reported[float(abs(k))] = ratio
        if abs(k) >= min_fit_absk:
            ks.append(float(abs(k)))
            vals.append(ratio)
    if len(ks) < 2:
        raise RegimeViolationError(
            f"fewer than two points with |k| >= {min_fit_absk}; fit impossible"
        )
    meta = {
        "window": T,
        "all_points": reported,
        "fit_floor_absk": min_fit_absk,
        "evaluation": "tensor-factorized exact product evaluation (1D x 3D)",
        "wraparound": {"box": grid1.L, "max_sweep": 2 * max(ks) * T},
    }
    rep = _report("unit_maximal", ks, vals, 0.5, 0.15, meta)

    if control_grid is None:
        control_grid = SpectralGrid(m=32, L=4.0 * np.pi, d=4)
    control = verify_lateral_dyadic(
        control_grid, control_N, 2, np.inf, axis, control_T0, n_frames_control
    )
    control.name = "unit_maximal_dyadic_control"
    rep.metadata["control_slope"] = control.slope
    rep.metadata["separation"] = abs(rep.slope - control.slope)
    return rep, control


def verify_local_smoothing(
    grid: SpectralGrid,
    N_list=(1.0, 2.0, 4.0),
    R_list=(1.0, 2.0, 4.0),
    T0: float = 1.0,
    n_frames: int = 20,
    seed: int | None = None,
    c_cap: float = 20.0,
    flow: str = "schrodinger",
) -> ScalingFitReport:
    """N-uniformity (slope 0) of the restricted-ball smoothing ratio

        sup_R R^(-1/2) || flow(f) ||_{L2_t L2(|x| <= R)} / || |grad|^(-1/2) f ||_2

    for Schrodinger (or, with flow='halfwave' and L2 normalizer, the local
    energy decay of the half-wave evolution).
    """
    r_phys = np.sqrt(grid.x_squared)
    vals = []
    for N in N_list:
        f = shell_field(grid, N, seed=seed)
        scale = np.abs(f.values).max()
        if abs(f.values[(grid.m // 2,) * grid.d]) > 1e-8 * scale:
            raise DegenerateDataError("data with zero-mode mass")
        if flow == "schrodinger":
            k2 = grid.xi_squared.copy()
            k2[k2 == 0] = np.inf
            denom = np.sqrt(
                (grid.dxi / (2 * np.pi)) ** grid.d
                * np.sum(np.abs(f.values) ** 2 / np.sqrt(k2))
            )
            T = _dyadic_window(T0, N)
            traj = free_trajectory(f, 0.0, T / (n_frames - 1), n_frames)
        elif flow == "halfwave":
            denom = lp_norm(to_physical(f), 2)
            T = T0
            traj = free_trajectory(f, 0.0, T / (n_frames - 1), n_frames, flow="halfwave")
        else:
            raise ValueError(flow)
        w = np.full(traj.n_frames, traj.dt)
        w[0] = w[-1] = 0.5 * traj.dt
        masked_sums = {R: np.zeros(traj.n_frames) for R in R_list}
        masks = {R: r_phys <= R for R in R_list}
        for jf, fr in enumerate(traj.frames):
            dens = np.abs(fr.in_domain(PHYSICAL).values) ** 2
            for R in R_list:
                masked_sums[R][jf] = dens[masks[R]].sum()
        best = 0.0
        for R in R_list:
            val = np.sqrt(grid.dx**grid.d * float(np.sum(w * masked_sums[R])))
            best = max(best, val / np.sqrt(R))
        vals.append(best / denom)
    name = "local_smoothing" if flow == "schrodinger" else "local_energy_decay"
    meta = {
        "grid": {"m": grid.m, "L": grid.L},
        "R_list": list(R_list),
        "cap": c_cap,
        "cap_ok": bool(max(vals) <= c_cap),
    }
    return _report(name, list(N_list), vals, 0.0, 0.2, meta)


def square_function(f: Field, cells=None) -> np.ndarray:
    """(sum_k |P_k f|^2)^(1/2) on the physical lattice over the active cells.

    Tight loop: one cached 1D profile per axis, one multiplier product and one
    inverse transform per cell.
    """
    if cells is None:
        cells = compute_active_set(f, rel_threshold=1e-8)
    g = f.grid
    from .projections import phi1

    fh = f.in_domain(FREQUENCY).values
    xi = g.xi1d
    k_range = sorted({c for k in cells for c in k})
    profile = {c: phi1(xi - c) for c in k_range}
    shapes = []
    for ax in range(g.d):
        shape = [1] * g.d
        shape[ax] = g.m
        shapes.append(tuple(shape))
    acc = np.zeros(g.shape)
    inv = 1.0 / g.dx**g.d
    for k in cells:
        sym = fh * profile[k[0]].reshape(shapes[0])
        for ax in range(1, g.d):
            sym = sym * profile[k[ax]].reshape(shapes[ax])
        piece = np.fft.ifftn(np.fft.ifftshift(sym))
        acc += np.abs(piece) ** 2
    # fftshift commutes with |.|^2 accumulation; shift once at the end
    return np.sqrt(np.fft.fftshift(acc)) * inv


@dataclass
class RadialishReport:
    ratios: dict
    interpolated_ratios: dict
    control_ratios: dict
    radial_ok: bool
    control_grows: bool


def verify_radialish_sobolev(
    grid: SpectralGrid,
    profiles,
    delta: float = 0.1,
    r_interp: float = 4.0,
    N_list=(1.0, 2.0),
    control_shifts=(0.0, 2.0, 4.0),
    seed: int = 0,
) -> RadialishReport:
    """Weighted square-function bound for radial data plus its non-radial
    falsification control (a translated bump, whose ratio grows with the
    translation distance)."""
    from .randomize import make_radial_data, radial_symmetry_residual

    w32 = grid.x_squared ** 0.75  # |x|^(3/2)
    ratios = {}
    interp = {}
    for name, spec in profiles.items():
        f = make_radial_data(spec, grid)
        if radial_symmetry_residual(f) > 1e-6:
            raise RegimeViolationError(f"profile {name} is not radial on the grid")
        sq = square_function(f)
        lhs = float((w32 * sq).max())
        ratios[name] = lhs / sobolev_norm(f, delta)
        for N in N_list:
            fN = Field(grid, FREQUENCY, f.in_domain(FREQUENCY).values * band_symbol(grid, Band.dyadic(N)))
            sqN = square_function(fN)
            wN = grid.x_squared ** (0.75 * (1.0 - 2.0 / r_interp))
            lhsN = (grid.dx**grid.d * np.sum((wN * sqN) ** r_interp)) ** (1.0 / r_interp)
            denom = N**delta * lp_norm(to_physical(fN), 2)
            if denom > 1e-14:
                interp[(name, float(N))] = float(lhsN / denom)
    control = {}
    for shift in control_shifts:
        shifted = np.exp(-((grid.axis_coord(1) - shift) ** 2
                           + grid.x_squared - grid.axis_coord(1) ** 2) / 2.0)
        f = Field(grid, PHYSICAL, shifted.astype(np.complex128))
        sq = square_function(f)
        control[float(shift)] = float((w32 * sq).max() / sobolev_norm(f, delta))
    shifts = sorted(control)
    grows = control[shifts[-1]] > 2.0 * control[shifts[0]]
    return RadialishReport(
        ratios={k: float(v) for k, v in ratios.items()},
        interpolated_ratios={f"{k[0]}@N={k[1]}": float(v) for k, v in interp.items()},
        control_ratios=control,
        radial_ok=bool(all(np.isfinite(v) for v in ratios.values())),
        control_grows=bool(grows),
    )


# relative change of the power-iteration estimate at which it has converged
_POWER_RTOL = 1e-12


def _operator_norm(normal, grid: SpectralGrid, seed: int = 0, iters: int = 30,
                   dft: bool = False) -> tuple:
    """L2 -> L2 norm of an operator T by power iteration on its normal operator T*T.

    ``normal`` maps an array in FFT order (the physical lattice, or its DFT
    when ``dft``) to T*T applied to it.  The start is a seeded complex
    Gaussian on the centred physical lattice, uncentred once (and passed
    through ``fftn`` when ``dft``, which under the unitary DFT is the same
    vector), then normalized.  Step i gives the estimate
    lam_i = sqrt(|<z, T*T z>|) for the current unit vector z.  The iteration
    stops at the first step with |lam_i - lam_{i-1}| <= 1e-12 lam_i
    (``_POWER_RTOL``; lam_0 = 0), or after ``iters`` steps.

    Returns ``(lam, steps, last_change)``: the last estimate, the number of
    steps run and the relative change |lam_i - lam_{i-1}| / lam_i at the last
    step (0 when lam is 0).
    """
    rng = np.random.default_rng(seed)
    z = np.fft.ifftshift(rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    if dft:
        z = np.fft.fftn(z, out=z)
    z /= np.sqrt(np.vdot(z, z).real)
    lam = 0.0
    for step in range(1, iters + 1):
        w = normal(z)
        lam_prev, lam = lam, float(np.sqrt(abs(np.vdot(z, w).real)))
        change = abs(lam - lam_prev) / lam if lam > 0 else 0.0
        nw = np.sqrt(np.vdot(w, w).real)
        if nw == 0:
            return 0.0, step, 0.0
        if change <= _POWER_RTOL:
            break
        z = np.divide(w, nw, out=w)
    return lam, step, change


def _chi_P_chi_op(grid: SpectralGrid, k, j: int, ell: int):
    """T*T for T = chi_j P_k chi_ell: chi_ell F^-1 psi_k F chi_j^2 F^-1 psi_k F chi_ell,
    acting on the physical lattice in FFT order (4 transforms per call)."""
    chi_l = np.fft.ifftshift(spatial_symbol(grid, "chi", ell))
    chi_j2 = np.fft.ifftshift(spatial_symbol(grid, "chi", j)) ** 2
    psi = np.fft.ifftshift(psi_symbol(grid, k))

    def normal(z):
        w = chi_l * z
        w = np.fft.fftn(w, out=w)
        w *= psi
        w = np.fft.ifftn(w, out=w)
        w *= chi_j2
        w = np.fft.fftn(w, out=w)
        w *= psi
        w = np.fft.ifftn(w, out=w)
        w *= chi_l
        return w

    return normal


def _P_chi_P_op(grid: SpectralGrid, k, m_cell, ell: int):
    """T*T for T = P_k chi_ell P_m in DFT coordinates (FFT order), where it is
    psi_m F chi_ell F^-1 psi_k^2 F chi_ell F^-1 psi_m (4 transforms per call);
    iterate it with ``_operator_norm(..., dft=True)``."""
    chi_l = np.fft.ifftshift(spatial_symbol(grid, "chi", ell))
    psi_k2 = np.fft.ifftshift(psi_symbol(grid, k)) ** 2
    psi_m = np.fft.ifftshift(psi_symbol(grid, m_cell))

    def normal(y):
        w = psi_m * y
        w = np.fft.ifftn(w, out=w)
        w *= chi_l
        w = np.fft.fftn(w, out=w)
        w *= psi_k2
        w = np.fft.ifftn(w, out=w)
        w *= chi_l
        w = np.fft.fftn(w, out=w)
        w *= psi_m
        return w

    return normal


@dataclass
class OperatorDecayReport:
    """Operator norms keyed by ell (chi_P_chi) and by |k - m| (P_chi_P).

    ``iterations`` and ``last_changes`` hold, per norm under the same keys,
    the power-iteration steps run and the relative change of the estimate at
    the last step (convergence evidence; not part of the CLI report).
    """

    chi_P_chi: dict
    P_chi_P: dict
    ell_drop_factors: list
    separation_drop_factors: list
    ell_ok: bool
    separation_ok: bool
    deviations: dict
    iterations: dict
    last_changes: dict


def verify_operator_decay(
    grid: SpectralGrid,
    k=(1, 0, 0, 0),
    j: int = 0,
    ell_list=(2, 3),
    separations=(4, 8),
    ell_for_separation: int = 0,
    min_ell_drop: float = 3.0,
    min_separation_drop: float = 8.0,
    seed: int = 0,
    separation_grid: SpectralGrid | None = None,
) -> OperatorDecayReport:
    """Decay of || chi_j P_k chi_ell || in ell and of || P_k chi_ell P_m || in
    |k - m|, by power iteration.

    Grid-feasible surrogate ranges replace the separations the statements pose
    (ell > j + 5, |k - m| >= 100); the report records the substitution.  The
    two parts prefer opposite grid trade-offs (large box for spatial scales,
    wide lattice for cell separations), so the second may use its own grid.
    """
    if separation_grid is None:
        separation_grid = SpectralGrid(m=grid.m, L=4.0 * np.pi, d=grid.d)
    runs = {"chi_P_chi": {}, "P_chi_P": {}}  # key -> (norm, steps, last change)
    for ell in ell_list:
        if 2.0**ell > grid.L / 2.0 + 1e-9:
            raise RegimeViolationError(f"spatial scale 2^{ell} exceeds the box")
        normal = _chi_P_chi_op(grid, tuple(k), j, ell)
        runs["chi_P_chi"][int(ell)] = _operator_norm(normal, grid, seed)
    for sep in separations:
        kk = (-(sep // 2), 0, 0, 0)
        mm = (sep - sep // 2, 0, 0, 0)
        if max(abs(kk[0]), abs(mm[0])) + 1 > separation_grid.xi_max:
            raise RegimeViolationError(f"cell separation {sep} exceeds the lattice")
        normal = _P_chi_P_op(separation_grid, kk, mm, ell_for_separation)
        runs["P_chi_P"][int(sep)] = _operator_norm(normal, separation_grid, seed, dft=True)
    chi_vals = {ell: r[0] for ell, r in runs["chi_P_chi"].items()}
    pcp_vals = {sep: r[0] for sep, r in runs["P_chi_P"].items()}
    ells = sorted(chi_vals)
    ell_drops = [
        chi_vals[a] / max(chi_vals[b], 1e-300) for a, b in zip(ells, ells[1:])
    ]
    seps = sorted(pcp_vals)
    sep_drops = [
        pcp_vals[a] / max(pcp_vals[b], 1e-300) for a, b in zip(seps, seps[1:])
    ]
    return OperatorDecayReport(
        chi_P_chi={int(l): float(v) for l, v in chi_vals.items()},
        P_chi_P={int(s): float(v) for s, v in pcp_vals.items()},
        ell_drop_factors=[float(x) for x in ell_drops],
        separation_drop_factors=[float(x) for x in sep_drops],
        ell_ok=bool(all(x >= min_ell_drop for x in ell_drops)),
        separation_ok=bool(all(x >= min_separation_drop for x in sep_drops)),
        deviations={
            "ell_gap": "ell > j+1 surrogate for the statement's ell > j+5 (box limit)",
            "separation": f"|k-m| in {list(separations)} surrogate for >= 100 (lattice limit)",
            "decay_rate": "smooth-cutoff kernels decay at a stretched-exponential "
            "rate; thresholds reflect the measured rate at these separations",
        },
        iterations={name: {key: r[1] for key, r in rs.items()} for name, rs in runs.items()},
        last_changes={name: {key: r[2] for key, r in rs.items()} for name, rs in runs.items()},
    )


TRILINEAR_CASES = ("vvv", "vFv", "vvF", "vFF", "FFF", "Fvv", "FFv", "FvF")


def _trilinear_gain(case: str, N, N1, N2, N3, eps: float) -> float:
    if case == "vvv":
        return (N / N1) * (N3 / N2) ** (2.0 / 3.0)
    if case == "vFv":
        return (N / N1) * (N3 / N2) ** (1.0 / 3.0)
    if case == "vvF":
        return (N / N1) * (N3 / N2) ** (2.0 / 3.0)
    if case == "vFF":
        return (N / N1) * (N3 / N2) ** (1.0 / 3.0)
    if case == "FFF":
        return (N / N1) ** (0.5 + eps) * (N3 / N1) ** (1.0 / 6.0)
    if case == "Fvv":
        return (N / N1) ** (0.5 + eps) * (N3 / N2) ** (0.5 - eps)
    if case == "FFv":
        return (N / N1) ** (0.5 + eps) * (N3 / N1) ** ((5.0 / 6.0 - eps) * eps)
    if case == "FvF":
        return (N / N1) ** (0.5 + eps) * (N3 / N1) ** (1.0 / 6.0 - (2.0 / 3.0) * eps)
    raise ValueError(f"unknown trilinear case {case!r}")


@dataclass
class TrilinearReport:
    case: str
    ratios: dict
    cap: float
    max_ratio: float
    passed: bool
    metadata: dict = dc_field(default_factory=dict)


class TrilinearHarness:
    """Shared sample bank for the eight trilinear cases.

    One v-type and one F-type free-evolution sample per dyadic band, with the
    corresponding X_N / Y_N norms cached; configurations then only pay for the
    product and the left-side norm.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        bands,
        T: float = 0.5,
        n_frames: int = 9,
        seed: int = 0,
        pol: EpsilonPolicy = EpsilonPolicy(),
    ):
        self.grid = grid
        self.pol = pol
        self.bands = list(bands)
        max_support = 3.0 * 2.0 * max(self.bands)
        self.aliasing_clean = max_support <= grid.xi_max + 1e-9
        dt = T / (n_frames - 1)
        self.samples = {}
        for i, N in enumerate(self.bands):
            for kind in ("v", "F"):
                f = shell_field(grid, N, seed=seed + 37 * i + (0 if kind == "v" else 1))
                fN = Field(grid, FREQUENCY, f.values * band_symbol(grid, Band.dyadic(N)))
                traj = free_trajectory(fN, 0.0, dt, n_frames).map_frames(
                    lambda fr: fr.in_domain(PHYSICAL)
                )
                norm = (
                    xn_norm(traj, N, pol=self.pol)
                    if kind == "v"
                    else yn_norm(traj, N, pol=self.pol)
                )
                self.samples[(kind, N)] = (traj, norm)

    def evaluate(self, case: str, N, N1, N2, N3) -> float:
        if case not in TRILINEAR_CASES:
            raise ValueError(f"unknown trilinear case {case!r}")
        if not (N2 <= N1 and N3 <= N2):
            raise ValueError("frequency ordering violated: need N1 >= N2 >= N3")
        if N > 8.0 * N1:
            raise ValueError("output band exceeds the product support (need N <~ N1)")
        kinds = tuple(case)
        trajs, rhs = [], 1.0
        for kind, Nin in zip(kinds, (N1, N2, N3)):
            key = ("v" if kind == "v" else "F", Nin)
            traj, norm = self.samples[key]
            trajs.append(traj)
            rhs *= norm
        rhs *= _trilinear_gain(case, N, N1, N2, N3, self.pol.eps)
        g = self.grid
        prod_frames = tuple(
            Field.physical(
                g, a.values * b.values * c.values
            )
            for a, b, c in zip(trajs[0].frames, trajs[1].frames, trajs[2].frames)
        )
        prod = Trajectory(g, 0.0, trajs[0].dt, prod_frames)
        sym = band_symbol(g, Band.dyadic(N))
        projected = prod.map_frames(
            lambda fr: Field(g, FREQUENCY, fr.in_domain(FREQUENCY).values * sym).in_domain(
                PHYSICAL
            )
        )
        if case in ("vvv", "vFv", "vvF", "vFF"):
            lhs = N * strichartz_norm(projected, 1, 2)
        else:
            p, q = self.pol.g_lateral_pq
            lhs = N ** (0.5 + self.pol.eps) * max(lateral_norms(projected, p, q))
        return float(lhs / rhs) if rhs > 0 else 0.0


def verify_trilinear(
    case: str,
    configs,
    harness: TrilinearHarness,
    cap: float,
) -> TrilinearReport:
    """Audit one trilinear case over frequency configurations against its cap."""
    ratios = {}
    for cfg in configs:
        N, N1, N2, N3 = cfg
        ratios[str(cfg)] = harness.evaluate(case, N, N1, N2, N3)
    max_ratio = max(ratios.values())
    return TrilinearReport(
        case=case,
        ratios={k: float(v) for k, v in ratios.items()},
        cap=cap,
        max_ratio=float(max_ratio),
        passed=bool(max_ratio <= cap),
        metadata={
            "aliasing_clean": harness.aliasing_clean,
            "eps": harness.pol.eps,
            "n_configs": len(configs),
        },
    )


@dataclass
class DuhamelRetardedReport:
    strichartz_constants: dict
    maximal_constant: float
    max_constant: float
    passed: bool


def verify_duhamel_retarded(
    grid: SpectralGrid,
    N: float,
    pol: EpsilonPolicy = EpsilonPolicy(),
    T: float = 0.75,
    n_frames: int = 13,
    seed: int = 0,
    strichartz_pairs=((np.inf, 2.0), (2.0, 4.0)),
    cap: float = 100.0,
) -> DuhamelRetardedReport:
    """Both sides of the retarded-Duhamel bounds for band-limited forcing.

    LHS norms of t -> int_0^t exp(i(t-s) Lap) P_N h ds; RHS is the lateral
    G-component sum of P_N h.  The recorded constant is max(LHS/RHS).
    """
    dt = T / (n_frames - 1)
    f = shell_field(grid, N, seed=seed)
    fN = Field(grid, FREQUENCY, f.values * band_symbol(grid, Band.dyadic(N)))
    rng = np.random.default_rng(seed + 1)
    envelope = 0.5 + rng.random(n_frames)
    frames = []
    base = free_trajectory(fN, 0.0, dt, n_frames)
    for j in range(n_frames):
        frames.append(Field(grid, FREQUENCY, envelope[j] * base.frames[j].values))
    h = Trajectory(grid, 0.0, dt, tuple(frames))
    retarded = duhamel_all(h).map_frames(lambda fr: fr.in_domain(PHYSICAL))
    h_phys = h.map_frames(lambda fr: fr.in_domain(PHYSICAL))

    p_g, q_g = pol.g_lateral_pq
    rhs = N ** (0.5 + pol.eps) * sum(lateral_norms(h_phys, p_g, q_g))
    stri = {}
    for q, r in strichartz_pairs:
        lhs = N * strichartz_norm(retarded, q, r)
        stri[f"({q},{r})"] = float(lhs / rhs)
    p_m, q_m = pol.x_lateral_pq
    lhs_max = N ** (-0.5 + pol.eps) * sum(lateral_norms(retarded, p_m, q_m))
    cmax = float(lhs_max / rhs)
    allc = list(stri.values()) + [cmax]
    return DuhamelRetardedReport(
        strichartz_constants=stri,
        maximal_constant=cmax,
        max_constant=float(max(allc)),
        passed=bool(max(allc) <= cap),
    )


@dataclass
class MainLinearReport:
    constants: list
    worst: float
    passed: bool


def verify_main_linear(
    grid: SpectralGrid,
    n_samples: int = 20,
    pol: EpsilonPolicy = EpsilonPolicy(),
    T: float = 0.75,
    n_frames: int = 13,
    seed: int = 0,
    cap: float = 50.0,
    bands=None,
) -> MainLinearReport:
    """Inequality audit of the band-wise linear estimate

        N ||P_N v||_{Linf L2} + ||P_N v||_{X_N} <= C (N ||P_N v0||_2 + ||P_N h||_{G_N})

    for v solving the inhomogeneous flow with data v0 and forcing h.
    """
    from .norms import aggregate_bands

    if bands is None:
        bands = aggregate_bands(grid)
    dt = T / (n_frames - 1)
    consts = []
    for i in range(n_samples):
        rng_seed = seed + 1000 * i
        N = bands[i % len(bands)]
        v0 = shell_field(grid, N, seed=rng_seed)
        hf = shell_field(grid, N, seed=rng_seed + 7)
        rng = np.random.default_rng(rng_seed + 13)
        envelope = 0.5 + rng.random(n_frames)
        base = free_trajectory(hf, 0.0, dt, n_frames)
        h = Trajectory(
            grid,
            0.0,
            dt,
            tuple(
                Field(grid, FREQUENCY, envelope[j] * base.frames[j].values)
                for j in range(n_frames)
            ),
        )
        vfree = free_trajectory(v0, 0.0, dt, n_frames)
        frames = tuple(
            Field(grid, FREQUENCY, a.values - 1j * b.values)
            for a, b in zip(vfree.frames, duhamel_all(h).frames)
        )
        v = Trajectory(grid, 0.0, dt, frames).map_frames(lambda fr: fr.in_domain(PHYSICAL))
        sym = band_symbol(grid, Band.dyadic(N))
        vN = v.map_frames(
            lambda fr: Field(grid, FREQUENCY, fr.in_domain(FREQUENCY).values * sym).in_domain(PHYSICAL)
        )
        lhs = N * linf_l2(vN) + xn_norm(v, N, pol=pol)
        v0N = Field(grid, FREQUENCY, v0.values * sym)
        rhs = N * lp_norm(to_physical(v0N), 2) + gn_norm_upper(h, N, pol=pol)
        consts.append(float(lhs / rhs))
    worst = float(max(consts))
    return MainLinearReport(constants=consts, worst=worst, passed=bool(worst <= cap))


def verify_bernstein(
    grid: SpectralGrid,
    N_list=(2.0, 4.0, 8.0),
    r_low: float = 2.0,
    r_high: float = 4.0,
) -> ScalingFitReport:
    """Dyadic Bernstein slope: log(||P_N f||_{r2} / ||P_N f||_{r1}) vs log N
    against 4/r1 - 4/r2 for shell-indicator data, with the L2/L2 flat control
    embedded in the metadata."""
    r = np.sqrt(grid.xi_squared)
    vals, flat = [], []
    for N in N_list:
        ind = ((r >= N) & (r <= 2.0 * N)).astype(np.complex128)
        f = Field(grid, FREQUENCY, ind)
        fN = to_physical(
            Field(grid, FREQUENCY, f.values * band_symbol(grid, Band.dyadic(N)))
        )
        lo = lp_norm(fN, r_low)
        vals.append(lp_norm(fN, r_high) / lo)
        flat.append(lo / lo)
    pred = 4.0 / r_low - 4.0 / r_high
    rep = _report("bernstein_dyadic", list(N_list), vals, pred, 0.1,
                  {"control": "L2/L2 ratio is identically 1 (slope 0)"})
    rep.metadata["control_slope"] = 0.0
    return rep

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
for unit-scale families.  L^2 norms of frequency data, and their sups over
frames, are taken by Parseval (``shell_field`` and the verifiers' denominators).
``square_function`` sums over every unit cell at once through the cell matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (DegenerateDataError, InvalidExponentError, ParameterRangeError,
                     RegimeViolationError)
from .grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    _box_product,
    _centred_transform,
    _fft,
    _power_mean,
    _read_only,
    _squared_norm,
    _support_box,
    broadcast_along,
    lp_norm,
    sobolev_norm,
    trapezoid_weights,
)
from .norms import (
    EpsilonPolicy,
    _check_exponents,
    _gn_upper,
    _lateral,
    _powers,
    _strichartz,
    _xn,
    aggregate_bands,
    lateral_norm,
    lateral_norms,
    strichartz_norm,
    xn_norm,
    yn_norm,
)
from .projections import (
    Band,
    band_box,
    band_box_symbol,
    cell_matrix,
    directional_projection,
    dyadic_projection,
    psi_symbol,
    spatial_symbol,
)
from .propagate import _duhamel_values, free_trajectory, schrodinger_flow, schrodinger_symbol
from .randomize import make_radial_data, radial_symmetry_residual


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


def fit_line(xs, ys) -> tuple:
    """Least-squares (slope, intercept) of the line through the points (xs, ys)."""
    xs = np.asarray(xs, dtype=float)
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(ys, dtype=float), rcond=None)
    return float(sol[0]), float(sol[1])


def fit_loglog(xs, ys) -> tuple:
    return fit_line(np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float)))


def _report(name, xs, ys, predicted, window, metadata=None) -> ScalingFitReport:
    slope, intercept = fit_loglog(xs, ys)
    c_obs = float(np.max(np.asarray(ys) / np.asarray(xs, dtype=float) ** predicted))
    return ScalingFitReport(
        name=name,
        abscissae=[float(a) for a in xs],
        values=[float(y) for y in ys],
        slope=slope,
        intercept=intercept,
        predicted=predicted,
        window=window,
        passed=bool(abs(slope - predicted) <= window and np.isfinite(c_obs)),
        c_obs=c_obs,
        metadata=metadata or {},
    )


def shell_field(grid: SpectralGrid, N: float, seed: int | None = None) -> Field:
    """L^2-normalized data with fhat supported on the annulus |xi| ~ N.

    The profile, a Gaussian in |xi| / N centred at 1.5 with width 0.25, is an
    exact rescale of one fixed shape, so dyadic families built from it scale
    exactly.  With a seed, coefficients get random phases (radial profile
    otherwise).
    """
    r = np.sqrt(grid.xi_squared)
    prof = np.exp(-((r / N - 1.5) ** 2) / (2.0 * 0.25**2))
    prof[(grid.m // 2,) * grid.d] = 0.0  # exactly zero-mode free
    vals = prof.astype(np.complex128)
    if seed is not None:
        rng = np.random.default_rng(seed)
        vals = vals * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, FREQUENCY, _read_only(vals))
    n2 = sobolev_norm(f, 0.0)  # the L^2 norm by Parseval: no transform
    if n2 == 0:
        raise DegenerateDataError(f"shell at N={N} has no lattice support")
    return Field(grid, FREQUENCY, _read_only(vals / n2))


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
    the statement being checked.  The free trajectory goes to ``lateral_norm``
    in the frequency domain, so no physical trajectory is made.
    """
    if p < 2 or q < 2 or abs(1.0 / p + 1.0 / q - 0.5) > 1e-9:
        raise InvalidExponentError(f"(p,q)=({p},{q}) violates 1/p + 1/q = 1/2, p,q >= 2")
    vals = []
    for N in N_list:
        f = shell_field(grid, N, seed=seed)
        if p >= q and not np.isinf(q):
            f = directional_projection(f, N, axis)
        T = _dyadic_window(T0, N)
        vals.append(lateral_norm(free_trajectory(f, 0.0, T / (n_frames - 1), n_frames), p, q, axis))
    pred = 4.0 / p - 0.5
    meta = {
        "grid": {"m": grid.m, "L": grid.L},
        "windows": {float(N): _dyadic_window(T0, N) for N in N_list},
        "norm_ref": "values are lateral norms of L2-normalized shells",
    }
    return _report(f"lateral_dyadic_p{p}_q{q}", list(N_list), vals, pred, 0.2, meta)


def unit_maximal_tensor_ratio(
    k_abs: float,
    g1: SpectralGrid,
    grid3: SpectralGrid,
    T: float,
) -> float:
    """Exact lateral (2, inf) ratio for the separable cell bump at k e_1.

    For product data fhat = a(xi_1 - k) b(xi') the free evolution factors, so
    sup over (t, x') of |u| equals max_t |u_a(t, x_1)| * max_{x'} |u_b(t, x')|,
    which this computes without a 4D lattice (``g1`` is a d = 1 grid).  The
    transverse factor varies slowly and is sampled on a coarse ladder of 25
    times, the 1D transport factor on a fine one of 600.
    """
    a_hat = Field(g1, FREQUENCY, psi_symbol(g1, (k_abs,)))
    b_hat = Field(grid3, FREQUENCY, psi_symbol(grid3, (0,) * grid3.d))
    l2_a, l2_b = sobolev_norm(a_hat, 0.0), sobolev_norm(b_hat, 0.0)

    coarse_t = np.linspace(0.0, T, 25)
    Mb = np.array([lp_norm(schrodinger_flow(b_hat, t).in_domain(PHYSICAL), np.inf) for t in coarse_t])
    fine_t = np.linspace(0.0, T, 600)
    Mb_fine = np.interp(fine_t, coarse_t, Mb)
    smax = np.zeros(g1.m)
    for t, mb in zip(fine_t, Mb_fine):
        ua = schrodinger_flow(a_hat, t).in_domain(PHYSICAL)
        smax = np.maximum(smax, np.abs(ua.values) * mb)
    return _power_mean(smax, g1.dx, 2) / (l2_a * l2_b)


def packet_wraps(k_abs: float, T: float, g1: SpectralGrid) -> bool:
    """Whether the 1D packet at |k| sweeps 2|k|T past 0.9 of the box of ``g1`` within [0, T],
    so that its ratio would read the packet's periodic images."""
    return 2.0 * k_abs * T > 0.9 * g1.L


def verify_unit_maximal(
    k_list=(10, 14, 20, 28),
    axis: int = 1,
    min_fit_absk: float = 10.0,
    T: float = 1.5,
    grid1: SpectralGrid = SpectralGrid(4096, 2.0 * np.pi / 0.05, d=1),
    grid3: SpectralGrid = SpectralGrid(m=16, L=2.0 * np.pi / 0.5, d=3),
    control_grid: SpectralGrid = SpectralGrid(m=32, L=4.0 * np.pi, d=4),
    control_N=(1.0, 2.0, 4.0),
    control_T0: float = 1.2,
    n_frames_control: int = 20,
) -> tuple:
    """Unit-scale maximal slope fit (target 1/2) plus the dyadic control.

    Unit-scale points use the tensor-factorized exact evaluation (the 4D
    lattice cannot reach |k| >= 10 at desk scale); the dyadic control runs
    through the generic 4D lateral-norm path and must separate by >= 0.5 in
    fitted slope.  A |k| whose packet wraps the 1D box (``packet_wraps``) is a
    RegimeViolationError before any compute.
    """
    wrapped = [k for k in k_list if packet_wraps(abs(k), T, grid1)]
    if wrapped:
        raise RegimeViolationError(f"|k| in {wrapped}: the packet sweeps 2|k|T past 0.9 L = "
                                   f"{0.9 * grid1.L:.4g} of the 1D box within T = {T}")
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
    energy decay of the half-wave evolution).  Each frame's |u|^2
    (``norms._powers``) is summed over every ball as it comes: no stack is held.
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
            denom = sobolev_norm(f, 0.0)
            T = T0
            traj = free_trajectory(f, 0.0, T / (n_frames - 1), n_frames, flow="halfwave")
        else:
            raise ValueError(flow)
        w = trapezoid_weights(traj.n_frames, traj.dt)
        masks = [r_phys <= R for R in R_list]
        powers = _powers((fr.values for fr in traj.frames), grid, traj.domain)
        ball_sums = np.array([[dens[mask].sum() for mask in masks] for dens in powers])  # frames x radii
        best = max((np.sqrt(grid.dx**grid.d * float(np.sum(w * sums))) / np.sqrt(R)
                    for R, sums in zip(R_list, ball_sums.T)), default=0.0)
        vals.append(best / denom)
    name = "local_smoothing" if flow == "schrodinger" else "local_energy_decay"
    meta = {
        "grid": {"m": grid.m, "L": grid.L},
        "R_list": list(R_list),
        "cap": c_cap,
        "cap_ok": bool(max(vals) <= c_cap),
    }
    return _report(name, list(N_list), vals, 0.0, 0.2, meta)


def square_function(f: Field) -> np.ndarray:
    """(sum_k |P_k f|^2)^(1/2) on the physical lattice, summed over every cell k.

    sum_k psi(xi - k) psi(eta - k) = prod_l B[i_l, j_l] for B = A A^T, A = ``cell_matrix``, so
    sum_k |P_k f|^2 is 1/L^d times the centred inverse transform of the banded autocorrelation
    C(delta) = sum_xi fhat(xi) conj fhat(xi - delta) prod_l B[i_l, i_l - delta_l], put at index
    (m/2 + delta) mod m (offsets past m/2 alias, as e^{i x.delta} does).  The first d - 1 offsets
    are looped over; the last axis is one m x m product (Y^H X) * B, whose diagonals E sums.
    """
    g = f.grid
    m, d = g.m, g.d
    fh = f.in_domain(FREQUENCY).values
    A = cell_matrix(g)
    B = A @ A.T
    rows, cols = np.nonzero(B)
    h = int(np.max(np.abs(rows - cols)))
    E = np.zeros((m * m, m))
    E[rows * m + cols, (m // 2 + cols - rows) % m] = B[rows, cols]
    C = np.zeros(g.shape, dtype=np.complex128)
    for head in itertools.product(range(-h, h + 1), repeat=d - 1):
        X = fh[tuple(slice(max(s, 0), m + min(s, 0)) for s in head)]
        for ax, s in enumerate(head):
            X = X * broadcast_along(np.diagonal(B, -s), ax, d)
        Y = fh[tuple(slice(max(-s, 0), m - max(s, 0)) for s in head)]
        M = Y.reshape(-1, m).conj().T @ X.reshape(-1, m)
        C[tuple((m // 2 + s) % m for s in head)] += M.ravel() @ E
    S2 = _centred_transform(C, g, PHYSICAL, out=C).real / g.L**g.d
    return np.sqrt(np.maximum(S2, 0.0))


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
            fN = dyadic_projection(f, Band.dyadic(N))
            wN = grid.x_squared ** (0.75 * (1.0 - 2.0 / r_interp))
            lhsN = _power_mean(wN * square_function(fN), grid.dx**grid.d, r_interp)
            denom = N**delta * sobolev_norm(fN, 0.0)
            if denom > 1e-14:
                interp[(name, float(N))] = float(lhsN / denom)
    control = {}
    for shift in control_shifts:
        shifted = np.exp(-_squared_norm([grid.x1d - shift] + [grid.x1d] * (grid.d - 1)) / 2)
        f = Field(grid, PHYSICAL, _read_only(shifted.astype(np.complex128)))
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


# relative change of the power-iteration estimate at which it has converged,
# and the most steps it may take
_POWER_RTOL, _POWER_ITERS = 1e-12, 30


def _operator_norm(normal, grid: SpectralGrid, seed: int = 0, dft: bool = False) -> tuple:
    """L2 -> L2 norm of an operator T by power iteration on its normal operator T*T.

    ``normal`` maps an array on the centred lattice, or its plain DFT when
    ``dft``, to T*T applied to it.  The start is a seeded complex Gaussian
    (passed through the DFT when ``dft``), normalized.  Step i gives the
    estimate lam_i = sqrt(|<z, T*T z>|) for the current unit vector z.  The
    iteration stops at the first step with |lam_i - lam_{i-1}| <= 1e-12 lam_i
    (``_POWER_RTOL``; lam_0 = 0), or after ``_POWER_ITERS`` steps.

    Returns ``(lam, steps, last_change)``: the last estimate, the number of
    steps run and the relative change |lam_i - lam_{i-1}| / lam_i at the last
    step (0 when lam is 0).
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if dft:
        z = _fft(z, out=z)
    z /= np.sqrt(np.vdot(z, z).real)
    lam = 0.0
    for step in range(1, _POWER_ITERS + 1):
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


def _sandwich_op(outer: np.ndarray, inner: np.ndarray, middle: np.ndarray,
                 inverse_first: bool = False):
    """z -> outer U^-1 inner U middle U^-1 inner U (outer z): a normal operator, 4 transforms a call.

    U is the plain DFT (the inverse DFT when ``inverse_first``) of ``grid._fft``
    applied to centred arrays, and the multipliers are centred.  The centred
    transform is S U S for the checkerboard S (``grid`` module docstring), and
    S commutes with every multiplier, so this operator is S N S for the N of
    the centred transforms: a unitary conjugate, with the same norm.  Each
    transform is pruned to the support box of the multiplier just applied.
    """
    steps = ((inner, inverse_first), (middle, not inverse_first),
             (inner, inverse_first), (outer, not inverse_first))
    boxes = [_support_box(sym) for sym in (outer, inner, middle, inner)]

    def normal(z):
        w = outer * z
        for (sym, inverse), box in zip(steps, boxes):
            w = _fft(w, inverse=inverse, out=w, box=box)
            w *= sym
        return w

    return normal


def _chi_P_chi_op(grid: SpectralGrid, k, j: int, ell: int):
    """T*T for T = chi_j P_k chi_ell on the physical lattice:
    chi_ell F^-1 psi_k F chi_j^2 F^-1 psi_k F chi_ell."""
    return _sandwich_op(spatial_symbol(grid, "chi", ell), psi_symbol(grid, k),
                        spatial_symbol(grid, "chi", j) ** 2)


def _P_chi_P_op(grid: SpectralGrid, k, m_cell, ell: int):
    """T*T for T = P_k chi_ell P_m in DFT coordinates:
    psi_m F chi_ell F^-1 psi_k^2 F chi_ell F^-1 psi_m; iterate it with
    ``_operator_norm(..., dft=True)``."""
    return _sandwich_op(psi_symbol(grid, m_cell), spatial_symbol(grid, "chi", ell),
                        psi_symbol(grid, k) ** 2, inverse_first=True)


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
        runs["chi_P_chi"][int(ell)] = _operator_norm(_chi_P_chi_op(grid, tuple(k), j, ell), grid, seed)
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
                fN = dyadic_projection(f, Band.dyadic(N))
                traj = free_trajectory(fN, 0.0, dt, n_frames).in_domain(PHYSICAL)
                traj.values  # converted once: the norm and ``evaluate``'s products read this stack
                norm = (xn_norm if kind == "v" else yn_norm)(traj, N, pol=self.pol)
                self.samples[(kind, N)] = (traj, norm)

    def evaluate(self, case: str, N, N1, N2, N3) -> float:
        if case not in TRILINEAR_CASES:
            raise ParameterRangeError(f"unknown trilinear case {case!r}")
        if not (N2 <= N1 and N3 <= N2):
            raise ParameterRangeError("frequency ordering violated: need N1 >= N2 >= N3")
        if N > 8.0 * N1:
            raise ParameterRangeError("output band exceeds the product support (need N <~ N1)")
        kinds = tuple(case)
        trajs, rhs = [], 1.0
        for kind, Nin in zip(kinds, (N1, N2, N3)):
            key = ("v" if kind == "v" else "F", Nin)
            traj, norm = self.samples[key]
            trajs.append(traj)
            rhs *= norm
        rhs *= _trilinear_gain(case, N, N1, N2, N3, self.pol.eps)
        g = self.grid
        # P_N of the pointwise product, in place in one stack, multiplied on the band's box
        prod = trajs[0].values * trajs[1].values * trajs[2].values
        _centred_transform(prod, g, FREQUENCY, out=prod)
        box, sym = band_box_symbol(g, Band.dyadic(N))
        _centred_transform(_box_product(prod, sym, box, prod), g, PHYSICAL, out=prod, box=box)
        projected = Trajectory.from_values(g, 0.0, trajs[0].dt, PHYSICAL, prod)
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


def _enveloped_frames(f: Field, dt: float, n_frames: int, seed: int, box: tuple | None = None):
    """Yield the frequency values of the free Schrodinger frames of f, frame j scaled by a
    seeded envelope in [0.5, 1.5); on ``box`` only, outside which f's spectrum is zero."""
    envelope = 0.5 + np.random.default_rng(seed).random(n_frames)
    fh = f.in_domain(FREQUENCY).values[box or ()]
    for j, e in enumerate(envelope):
        yield np.multiply(np.multiply(schrodinger_symbol(f.grid, j * dt, box), fh), e)


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
    strichartz_pairs: tuple[tuple[float, float], ...] = ((np.inf, 2.0), (2.0, 4.0)),
    cap: float = 100.0,
) -> DuhamelRetardedReport:
    """Both sides of the retarded-Duhamel bounds for band-limited forcing.

    LHS norms of t -> int_0^t exp(i(t-s) Lap) P_N h ds; RHS is the lateral
    G-component sum of P_N h.  The recorded constant is max(LHS/RHS).

    Every norm here reads |u|^2 of physical frames only, so h and the retarded
    trajectory are each held as a float64 |u|^2 stack (``norms._powers`` of
    their frames on the band's box), one at a time, and their norms are the
    Strichartz and lateral kernels of the band-stack norms.  The exponent
    pairs are checked before any compute.
    """
    if not T > 0 or n_frames < 2:
        raise ParameterRangeError(f"need T > 0 and n_frames >= 2, got {T=}, {n_frames=}")
    for q, r in strichartz_pairs:
        _check_exponents(q=q, r=r)
    fN = dyadic_projection(shell_field(grid, N, seed=seed), Band.dyadic(N))
    dt = T / (n_frames - 1)
    w = trapezoid_weights(n_frames, dt)
    axes = range(1, grid.d + 1)
    box = band_box(grid, Band.dyadic(N))  # every row below is fN's spectrum times a multiplier

    def hhat():  # h is generated twice, never stored
        return _enveloped_frames(fN, dt, n_frames, seed + 1, box)

    p_g, q_g = pol.g_lateral_pq
    S_h = np.fromiter(_powers(hhat(), grid, FREQUENCY, box), (np.float64, grid.shape), n_frames)
    rhs = N ** (0.5 + pol.eps) * sum(_lateral(S_h, w, grid, p_g, q_g, axes))
    del S_h  # one |u|^2 stack is held at a time
    D = _duhamel_values(hhat(), schrodinger_symbol(grid, dt, box), dt)
    S = np.fromiter(_powers(D, grid, FREQUENCY, box), (np.float64, grid.shape), n_frames)
    lhs = _strichartz(S, w, grid, strichartz_pairs)
    stri = {f"({q},{r})": float(N * n / rhs) for (q, r), n in zip(strichartz_pairs, lhs)}
    p_m, q_m = pol.x_lateral_pq
    lhs_max = N ** (-0.5 + pol.eps) * sum(_lateral(S, w, grid, p_m, q_m, axes))
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
    bands: list[float] | None = None,
) -> MainLinearReport:
    """Inequality audit of the band-wise linear estimate

        N ||P_N v||_{Linf L2} + ||P_N v||_{X_N} <= C (N ||P_N v0||_2 + ||P_N h||_{G_N})

    for v solving the inhomogeneous flow with data v0 and forcing h.

    Every term reads P_N v, P_N v0 or P_N h, which vanish off the band's box,
    so each sample runs on the box as the Duhamel verifier does: frame j of h
    (``_enveloped_frames``), of the Duhamel integral D (``_duhamel_values``)
    and of v = free - 1j D is made there and projected.  The L^2 norms are
    Parseval sums on the box; X_N and G_N read |P_N v|^2 and then |P_N h|^2
    stacks (``norms._powers``), one at a time.  No trajectory is built.
    """
    bands = aggregate_bands(grid) if bands is None else bands
    if not T > 0 or n_frames < 2 or n_samples < 1 or not bands:
        raise ParameterRangeError(f"need T > 0, n_frames >= 2, n_samples >= 1 and a band, "
                                  f"got {T=}, {n_frames=}, {n_samples=}, {bands=}")
    dt = T / (n_frames - 1)
    w = trapezoid_weights(n_frames, dt)
    parseval = (grid.dxi / (2.0 * np.pi)) ** grid.d  # ||f||_2^2 = parseval * sum |fhat|^2
    consts = []
    for i in range(n_samples):
        rng_seed = seed + 1000 * i
        N = bands[i % len(bands)]
        box, sym = band_box_symbol(grid, Band.dyadic(N))
        v0 = shell_field(grid, N, seed=rng_seed).values[box or ()]
        pv0 = v0 * sym
        rhs = N * np.sqrt(parseval * float(np.vdot(pv0, pv0).real))
        f = shell_field(grid, N, seed=rng_seed + 7)

        def hhat():  # h is generated twice, never stored
            return _enveloped_frames(f, dt, n_frames, rng_seed + 13, box)

        sums = []  # sum |P_N v_j|^2 over the box, frame by frame

        def projected_v():
            steps = _duhamel_values(hhat(), schrodinger_symbol(grid, dt, box), dt)
            for j, D in enumerate(steps):  # v_j = free_j - 1j D_j, then P_N v_j in place
                row = np.subtract(np.multiply(v0, schrodinger_symbol(grid, j * dt, box)), np.multiply(1j, D))
                row *= sym
                sums.append(float(np.vdot(row, row).real))
                yield row

        S = np.fromiter(_powers(projected_v(), grid, FREQUENCY, box), (np.float64, grid.shape), n_frames)
        lhs = N * np.sqrt(parseval * max(sums)) + _xn(S, w, grid, N, pol)
        del S  # one |u|^2 stack is held at a time
        h = (np.multiply(row, sym) for row in hhat())
        S = np.fromiter(_powers(h, grid, FREQUENCY, box), (np.float64, grid.shape), n_frames)
        rhs += _gn_upper(S, w, grid, N, pol)
        del S
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
    vals = []
    frame = np.empty(grid.shape, dtype=np.complex128)  # one buffer for every shell
    for N in N_list:
        box, sym = band_box_symbol(grid, Band.dyadic(N))  # the shell is zero outside the box
        on_box = box or (slice(None),) * grid.d
        r = np.sqrt(_squared_norm([grid.xi1d[sl] for sl in on_box]))  # |xi| on the box
        frame.fill(0.0)
        np.multiply(((r >= N) & (r <= 2.0 * N)).astype(np.complex128), sym, out=frame[on_box])
        # a read-only view: the buffer itself stays writable for the next shell
        fN = Field.physical(grid, _read_only(_centred_transform(frame, grid, PHYSICAL, out=frame,
                                                                box=box).view()))
        vals.append(lp_norm(fN, r_high) / lp_norm(fN, r_low))
    pred = 4.0 / r_low - 4.0 / r_high
    rep = _report("bernstein_dyadic", list(N_list), vals, pred, 0.1,
                  {"control": "L2/L2 ratio is identically 1 (slope 0)"})
    rep.metadata["control_slope"] = 0.0
    return rep

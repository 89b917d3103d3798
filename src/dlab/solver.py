"""Cubic NLS time integration, the Picard/Duhamel fixed-point solver, and the
Morawetz / energy-growth diagnostics.

The integrator is Strang splitting: a half step of the exact kinetic
multiplier exp(-i dt/2 |xi|^2), the exact pointwise nonlinear rotation
u -> exp(-i mu dt |u|^2) u (modulus preserving), and another half kinetic
step.  Both substeps conserve mass exactly, so mass is conserved to rounding
and energy drifts at O(dt^2).

The forced equation (i d_t + Laplace) v = mu |F+v|^2 (F+v) is solved through
the change of variables u := F + v: when F solves the linear equation exactly
on the grid (free flows here are exact multipliers), u solves the standard
cubic NLS, so no separate splitting-error analysis is needed.

The Morawetz audit makes one spectral pass per frame: one fftn and d = 4
ifftn, taken on the centred physical frame with no centering shift.  From
that spectrum and the four derivatives come the Morawetz action, the dm/dt
right side (interior frames), ||v||_{Hdot^1} by Parseval on the same
spectrum, and, with |v|^2, the bulk densities and ||v||_2; the forcing
difference H is built once and feeds both the right side and ||H||_2.  The
weight arrays 1/a, 1/a^3, Lap a, LapLap a are built once per audit call and
dropped on return.  A frame holds its spectrum, one derivative buffer
reused for the d axes, x.grad v and |grad v|^2 (3.5 complex m^d arrays, 56 MB
at m = 32), all released before the next frame.  The energy audit
shares the pass: energy, |grad v| and the Morawetz series of v come from one
spectrum, so a frame costs 15 transforms (v, F and the flux W, 5 each).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import BlowupDetected, NoContractionError
from .grid import (
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    _spectral_gradient,
    broadcast_along,
    lp_norm,
    sobolev_norm,
)
from .norms import EpsilonPolicy, _abs2, x_norm
from .propagate import duhamel_all, schrodinger_flow


@dataclass(frozen=True)
class NLSRunConfig:
    """Split-step run parameters for (i d_t + Laplace) u = mu |u|^2 u."""

    mu: int = +1  # +1 defocusing, -1 focusing
    dt: float = 0.01
    T: float = 1.0
    dealias: bool = True
    snapshot_stride: int = 1
    blowup_factor: float = 1e6

    def __post_init__(self):
        if self.mu not in (+1, -1):
            raise ValueError("mu must be +1 or -1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        n = self.T / self.dt
        if abs(n - round(n)) > 1e-8:
            raise ValueError("T must be an integer multiple of dt")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def check_phase_resolution(self, grid: SpectralGrid) -> None:
        phase = self.dt * grid.xi_max**2 * grid.d
        if phase > np.pi:
            warnings.warn(
                f"dt*max|xi|^2 = {phase:.3g} exceeds pi; kinetic phases wrap",
                stacklevel=3,
            )


def _fft_order_xi2(grid: SpectralGrid) -> np.ndarray:
    """|xi|^2 in plain FFT ordering (solver works unshifted for speed)."""
    return reduce(
        np.add, (broadcast_along(grid.xi1d_fft**2, ax, grid.d) for ax in range(grid.d))
    )


def _fft_order_dealias(grid: SpectralGrid) -> np.ndarray:
    xi = np.abs(grid.xi1d_fft)
    keep = xi <= (2.0 / 3.0) * xi.max()
    return reduce(
        np.logical_and, (broadcast_along(keep, ax, grid.d) for ax in range(grid.d))
    )


def splitstep_nls(u0: Field, cfg: NLSRunConfig) -> Trajectory:
    """Strang split-step integration; physical-domain snapshot frames.

    Raises BlowupDetected (carrying the partial trajectory) when the max norm
    exceeds cfg.blowup_factor times its initial value or turns non-finite.
    """
    g = u0.grid
    cfg.check_phase_resolution(g)
    xi2 = _fft_order_xi2(g)
    half = np.exp(-0.5j * cfg.dt * xi2)
    mask = _fft_order_dealias(g) if cfg.dealias else None

    u = u0.in_domain(PHYSICAL).values.copy()
    guard = cfg.blowup_factor * max(float(np.abs(u).max()), np.finfo(float).tiny)
    frames = [Field.physical(g, u.copy())]
    snap_dt = cfg.dt * cfg.snapshot_stride

    for step in range(1, cfg.n_steps + 1):
        uh = np.fft.fftn(u) * half
        u = np.fft.ifftn(uh)
        with np.errstate(over="ignore", invalid="ignore"):
            u = u * np.exp(-1j * cfg.mu * cfg.dt * np.abs(u) ** 2)
        if mask is not None:
            uh = np.fft.fftn(u)
            uh *= mask
            u = np.fft.ifftn(uh)
        uh = np.fft.fftn(u) * half
        if mask is not None:
            uh *= mask
        u = np.fft.ifftn(uh)

        with np.errstate(over="ignore", invalid="ignore"):
            peak = float(np.abs(u).max())
        if not np.isfinite(peak) or peak > guard:
            partial = Trajectory(g, 0.0, snap_dt, tuple(frames)) if frames else None
            raise BlowupDetected(step, partial, peak)
        if step % cfg.snapshot_stride == 0:
            frames.append(Field.physical(g, u.copy()))
    return Trajectory(g, 0.0, snap_dt, tuple(frames))


def splitstep_forced(v0: Field, F: Trajectory, cfg: NLSRunConfig) -> Trajectory:
    """Forced cubic NLS via u := F + v evolved as standard NLS, then v = u - F.

    F must be sampled exactly at the snapshot times of the run.
    """
    g = v0.grid
    snap_dt = cfg.dt * cfg.snapshot_stride
    n_snap = cfg.n_steps // cfg.snapshot_stride + 1
    if abs(F.t0) > 1e-12 or abs(F.dt - snap_dt) > 1e-12 or F.n_frames < n_snap:
        raise ValueError(
            f"forcing frames misaligned: need t0=0, dt={snap_dt}, >= {n_snap} frames"
        )
    if F.grid != g:
        raise ValueError("forcing lives on a different grid")
    F0 = F.frames[0].in_domain(PHYSICAL)
    u0 = Field.physical(g, F0.values + v0.in_domain(PHYSICAL).values)
    run = splitstep_nls(u0, cfg)
    frames = tuple(
        Field.physical(g, run.frames[j].values - F.frames[j].in_domain(PHYSICAL).values)
        for j in range(run.n_frames)
    )
    return Trajectory(g, 0.0, snap_dt, frames)


@dataclass(frozen=True)
class PicardConfig:
    """Fixed-point iteration parameters on the interval [0, tau]."""

    tau: float
    dt: float
    mu: int = +1
    max_iterations: int = 25
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        n = self.tau / self.dt
        if abs(n - round(n)) > 1e-8:
            raise ValueError("tau must be an integer multiple of dt")

    @property
    def n_frames(self) -> int:
        return int(round(self.tau / self.dt)) + 1


@dataclass
class ContractionRecord:
    distances: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    fixed_point_residual: float = float("nan")
    norm_note: str = (
        "distances use the discrete aggregate X norm on the grid-resolved "
        "bands; it differs from the continuum norm by quadrature"
    )


def _cubic(values: np.ndarray, mu: int) -> np.ndarray:
    return mu * (np.abs(values) ** 2) * values


def _picard_sweep(free, Fphys, v, pcfg, g):
    """One application of the Duhamel map Phi."""
    n = pcfg.n_frames
    hyb = []
    for j in range(n):
        tot = v[j] if Fphys is None else Fphys[j] + v[j]
        hyb.append(Field.physical(g, _cubic(tot, pcfg.mu)))
    integral = duhamel_all(Trajectory(g, 0.0, pcfg.dt, tuple(hyb)))
    return [free[j] - 1j * fr.values for j, fr in enumerate(integral.frames)]


def picard_iterate(
    v0: Field,
    F: Trajectory | None,
    pcfg: PicardConfig,
    pol: EpsilonPolicy = EpsilonPolicy(),
) -> tuple:
    """Iterate Phi(v)(t) = e^{it Lap} v0 - i mu int_0^t e^{i(t-s) Lap} |F+v|^2(F+v) ds.

    Returns (trajectory, ContractionRecord); raises NoContractionError after
    three consecutive contraction ratios above 1.
    """
    g = v0.grid
    n = pcfg.n_frames
    free = [
        schrodinger_flow(v0, j * pcfg.dt).in_domain(PHYSICAL).values for j in range(n)
    ]
    Fphys = None
    if F is not None:
        if F.grid != g or abs(F.t0) > 1e-12 or abs(F.dt - pcfg.dt) > 1e-12 or F.n_frames < n:
            raise ValueError("forcing frames misaligned with the Picard lattice")
        Fphys = [F.frames[j].in_domain(PHYSICAL).values for j in range(n)]

    record = ContractionRecord()
    v = [f.copy() for f in free]
    rising = 0
    for it in range(1, pcfg.max_iterations + 1):
        v_new = _picard_sweep(free, Fphys, v, pcfg, g)
        diff = Trajectory(
            g, 0.0, pcfg.dt, tuple(Field.physical(g, a - b) for a, b in zip(v_new, v))
        )
        d = x_norm(diff, pol=pol)
        record.distances.append(float(d))
        record.iterations = it
        if len(record.distances) >= 2 and record.distances[-2] > 0:
            rho = record.distances[-1] / record.distances[-2]
            record.ratios.append(float(rho))
            rising = rising + 1 if rho > 1.0 else 0
            if rising >= 3:
                raise NoContractionError(
                    f"no contraction: ratio > 1 for 3 consecutive sweeps "
                    f"(last {rho:.3g})",
                    record,
                )
        v = v_new
        if d < pcfg.tolerance:
            record.converged = True
            break
    traj = Trajectory(g, 0.0, pcfg.dt, tuple(Field.physical(g, a) for a in v))
    check = _picard_sweep(free, Fphys, v, pcfg, g)
    resid = Trajectory(
        g, 0.0, pcfg.dt, tuple(Field.physical(g, a - b) for a, b in zip(check, v))
    )
    record.fixed_point_residual = float(x_norm(resid, pol=pol))
    return traj, record


def energy(v: Field) -> float:
    """E(v) = int 1/2 |grad v|^2 + 1/4 |v|^4 (gradient spectral)."""
    g = v.grid
    kin = 0.5 * sobolev_norm(v, 1.0, homogeneous=True) ** 2
    pot = 0.25 * lp_norm(v.in_domain(PHYSICAL), 4) ** 4
    return float(kin + pot)


def mass(v: Field) -> float:
    """int |v|^2 dx."""
    return float(lp_norm(v.in_domain(PHYSICAL), 2) ** 2)


def _weight_arrays(grid: SpectralGrid, sigma: float) -> tuple:
    """1/a, 1/a^3, Lap a and LapLap a of the regularized Lin-Strauss weight
    a = (|x|^2 + s^2)^(1/2), raveled.

    Lap a = (3 r^2 + 4 s^2)/a^3 and LapLap a = -24/a^3 + 36 r^2/a^5 - 15 r^4/a^7
    in four dimensions (for s -> 0 these recover 3/|x| and -3/|x|^3).
    """
    if grid.d != 4:
        raise ValueError("Morawetz diagnostics are defined for d = 4")
    r2 = grid.x_squared.ravel()
    a = np.sqrt(r2 + sigma**2)
    inv_a3 = a**-3
    lap_a = (3.0 * r2 + 4.0 * sigma**2) * inv_a3
    bilap_a = -24.0 * inv_a3 + 36.0 * r2 * a**-5 - 15.0 * r2**2 * a**-7
    return 1.0 / a, inv_a3, lap_a, bilap_a


def _inv_weight(grid: SpectralGrid, sigma: float) -> np.ndarray:
    """1/a for a = (|x|^2 + sigma^2)^(1/2), raveled."""
    return 1.0 / np.sqrt(grid.x_squared.ravel() + sigma**2)


def _frame_pass(v: Field) -> tuple:
    """One frame's values, spectrum, x.grad v and |grad v|^2 from one fftn and d ifftn.

    Returns raveled arrays; the spectrum is the unnormalized FFT-order one of
    ``grid._spectral_gradient``, so Parseval needs only |xi|^2 in FFT order.
    """
    g = v.grid
    fh, partial = _spectral_gradient(v)
    grad2 = np.zeros(g.shape)
    xdot = np.zeros(g.shape, dtype=np.complex128)
    part = np.empty(g.shape, dtype=np.complex128)
    for ax in range(g.d):
        partial(ax, part)
        grad2 += _abs2(part)
        part *= broadcast_along(g.x1d, ax, g.d)
        xdot += part
    vals = v.in_domain(PHYSICAL).values.ravel()
    return vals, fh.ravel(), xdot.ravel(), grad2.ravel()


def _h1_squared(fh: np.ndarray, xi2: np.ndarray, grid: SpectralGrid) -> float:
    """||v||_{Hdot^1}^2 by Parseval on a ``_frame_pass`` spectrum (raveled, FFT order)."""
    return grid.dx**grid.d / grid.size * float(np.dot(_abs2(fh), xi2))


def _action(vals: np.ndarray, xdot: np.ndarray, inv_a: np.ndarray, vol: float) -> float:
    """2 Im int (x/a . grad v) conj(v) dx, from x.grad v."""
    return 2.0 * vol * float(np.dot(vals.real * xdot.imag - vals.imag * xdot.real, inv_a))


def _dmdt_rhs(vals, rho, xdot, grad2, H, weights, vol: float) -> float:
    """Right side of the Morawetz identity from one frame pass; rho = |v|^2."""
    inv_a, inv_a3, lap_a, bilap_a = weights
    total = -np.dot(bilap_a, rho)
    total += 4.0 * (np.dot(grad2, inv_a) - np.dot(_abs2(xdot), inv_a3))
    total += np.dot(lap_a, rho * rho)
    if H is not None:
        total += 4.0 * np.dot(H.real * xdot.real + H.imag * xdot.imag, inv_a)
        total += 2.0 * np.dot(lap_a, vals.real * H.real + vals.imag * H.imag)
    return float(vol * total)


def morawetz_action(v: Field, sigma: float | None = None) -> float:
    """m = 2 Im int (grad a . grad v) conj(v) dx with a = (|x|^2 + sigma^2)^(1/2).

    sigma defaults to half a grid cell; the |x| weight's origin singularity is
    regularized at that scale.
    """
    g = v.grid
    if sigma is None:
        sigma = g.dx / 2.0
    vals, _, xdot, _ = _frame_pass(v)
    return _action(vals, xdot, _inv_weight(g, sigma), g.dx**g.d)


def morawetz_dmdt_rhs(v: Field, H: Field | None, sigma: float) -> float:
    """Analytic right side of the d/dt Morawetz-action identity for
    (i d_t + Lap) v = |v|^2 v + H with the regularized weight."""
    g = v.grid
    weights = _weight_arrays(g, sigma)
    vals, _, xdot, grad2 = _frame_pass(v)
    Hv = None if H is None else H.in_domain(PHYSICAL).values.ravel()
    return _dmdt_rhs(vals, _abs2(vals), xdot, grad2, Hv, weights, g.dx**g.d)


def morawetz_bulk(v: Trajectory, sigma: float | None = None, interval=None) -> float:
    """int_I int |v|^4 / a_sigma dx dt (trapezoid in t); always nonnegative."""
    g = v.grid
    if sigma is None:
        sigma = g.dx / 2.0
    a = np.sqrt(g.x_squared + sigma**2)
    vals = np.array(
        [
            g.dx**g.d * np.sum(np.abs(fr.in_domain(PHYSICAL).values) ** 4 / a)
            for fr in v.frames
        ]
    )
    w = np.full(v.n_frames, v.dt)
    w[0] = w[-1] = 0.5 * v.dt
    return float(np.sum(w * vals))


def _forcing_difference(vv: np.ndarray, Fv: np.ndarray, mu: int) -> np.ndarray:
    """H = mu(|F+v|^2 (F+v) - |v|^2 v) from physical values."""
    return mu * (_cubic(Fv + vv, 1) - _cubic(vv, 1))


def _audit_frame(v, Fv, mu, weights, inv_a_quarter, xi2, interior: bool) -> tuple:
    """Per-frame terms of ``morawetz_audit`` from one frame pass.

    Returns (action, ||v||_{Hdot^1}^2, ||v||_2^2, bulk density at sigma and at
    dx/4, ||H||_2, dm/dt right side or nan off the interior).  Every array of
    the frame is released on return.
    """
    g = v.grid
    vol = g.dx**g.d
    vals, fh, xdot, grad2 = _frame_pass(v)
    h1_sq = _h1_squared(fh, xi2, g)
    del fh
    rho = _abs2(vals)
    rho2 = rho * rho
    H = None if Fv is None else _forcing_difference(vals, Fv, mu)
    return (
        _action(vals, xdot, weights[0], vol),
        h1_sq,
        vol * float(rho.sum()),
        vol * float(np.dot(rho2, weights[0])),
        vol * float(np.dot(rho2, inv_a_quarter)),
        0.0 if H is None else np.sqrt(vol * float(_abs2(H).sum())),
        _dmdt_rhs(vals, rho, xdot, grad2, H, weights, vol) if interior else np.nan,
    )


@dataclass
class MorawetzAuditReport:
    sigma: float
    identity_mismatch: float
    identity_tolerance: float
    identity_ok: bool
    bulk: float
    morawetz_rhs: float
    constant: float
    sigma_quarter_bulk: float
    dmdt_fd: list
    dmdt_rhs: list


def morawetz_audit(
    run: Trajectory,
    F: Trajectory | None = None,
    mu: int = +1,
    rel_floor: float = 1e-4,
    sigma_identity: float | None = None,
) -> MorawetzAuditReport:
    """Finite-difference d/dt of the Morawetz action versus the analytic
    identity, plus the bulk inequality with its recorded constant.

    The identity holds for every sigma; the check runs at sigma = 3 dx (the
    smallest choice whose bilaplacian spike the lattice can quadrature), while
    the bulk and action diagnostics keep the half-cell regularization.
    """
    g = run.grid
    sigma = sigma_identity if sigma_identity is not None else 3.0 * g.dx
    n = run.n_frames
    if n < 3:
        raise ValueError("need at least three frames")
    weights = _weight_arrays(g, sigma)
    inv_a_quarter = _inv_weight(g, g.dx / 4.0)
    xi2 = _fft_order_xi2(g).ravel()
    terms = np.array(
        [
            _audit_frame(
                fr,
                None if F is None else F.frames[j].in_domain(PHYSICAL).values.ravel(),
                mu,
                weights,
                inv_a_quarter,
                xi2,
                0 < j < n - 1,
            )
            for j, fr in enumerate(run.frames)
        ]
    )
    mvals, h1_sq, l2_sq, bulk_d, bulk_quarter_d, h_l2, rhs = terms.T
    rhs = rhs[1:-1]
    w = np.full(n, run.dt)
    w[0] = w[-1] = 0.5 * run.dt
    bulk = float(np.sum(w * bulk_d))
    bulk_quarter = float(np.sum(w * bulk_quarter_d))

    fd = (mvals[2:] - mvals[:-2]) / (2.0 * run.dt)
    scale = max(np.abs(rhs).max(), np.finfo(float).tiny)
    mismatch = float(np.abs(fd - rhs).max() / scale)
    tol = max(10.0 * run.dt**2, rel_floor)
    rhs_bound = np.sqrt(h1_sq.max()) * (np.sqrt(l2_sq.max()) + float(np.sum(w * h_l2)))
    constant = bulk / rhs_bound if rhs_bound > 0 else 0.0
    return MorawetzAuditReport(
        sigma=sigma,
        identity_mismatch=mismatch,
        identity_tolerance=tol,
        identity_ok=bool(mismatch <= tol),
        bulk=float(bulk),
        morawetz_rhs=float(rhs_bound),
        constant=float(constant),
        sigma_quarter_bulk=float(bulk_quarter),
        dmdt_fd=[float(x) for x in fd],
        dmdt_rhs=[float(x) for x in rhs],
    )


@dataclass
class DiagnosticsSeries:
    times: list
    energy: list
    mass_v: list
    mass_total: list
    morawetz: list
    flux_terms: dict
    bulk: float


@dataclass
class EnergyGrowthReport:
    integrated_dtE: float
    group_quartic: float
    group_gradient: float
    group_constant: float
    term_values: dict
    term_majorants: dict
    terms_ok: bool
    mass_lhs: float
    mass_rhs: float
    mass_ok: bool
    sup_energy: float
    growth_bound: float
    growth_ok: bool


def energy_growth_audit(
    run: Trajectory, F: Trajectory | None = None, mu: int = +1
) -> tuple:
    """Energy-derivative bookkeeping for the forced defocusing run.

    Evaluates int |d_t E| dt by finite differences, the quartic and gradient
    right-side groups, the five schematic flux terms against their exact
    Holder majorants, the mass bound, and the measured-norm energy-growth
    bound (with the unknown absolute constant set to 1).
    """
    g = run.grid
    n = run.n_frames
    sigma = g.dx / 2.0
    a = np.sqrt(g.x_squared + sigma**2)
    inv_a = 1.0 / a.ravel()
    xi2 = _fft_order_xi2(g).ravel()
    vol = g.dx**g.d
    w = np.full(n, run.dt)
    w[0] = w[-1] = 0.5 * run.dt

    zero = Field.zero(g, PHYSICAL)
    Ffr = (lambda j: F.frames[j].in_domain(PHYSICAL)) if F is not None else (lambda j: zero)

    group_quartic = 0.0
    group_gradient = 0.0
    term_vals = {k: 0.0 for k in ("gv_FF_gF", "v_F_gF2", "gv_v_F_gF", "v2_gF2", "v2_gv_gF")}
    sup_quant = {
        "gv_Li2": 0.0, "v_Li4": 0.0, "F_Li4": 0.0,
    }
    t_int = {"F_L2Linf": [], "gF_L2L4": [], "wgF_L2Linf": [], "wF_L2Linf": [], "F_L3L6": []}
    bulk_density = []
    mass_series = []
    mass_total_series = []
    mor_series = []
    evals = np.empty(n)
    Fpart = np.empty(g.shape, dtype=np.complex128)
    Wpart = np.empty(g.shape, dtype=np.complex128)

    for j in range(n):
        vfr = run.frames[j].in_domain(PHYSICAL)
        Fj = Ffr(j)
        vv, Fv = vfr.values, Fj.values
        tot = Fv + vv
        quart = np.abs(np.abs(tot) ** 4 - np.abs(Fv) ** 4 - np.abs(vv) ** 4)
        group_quartic = max(group_quartic, vol * float(np.sum(quart)))

        vals, vfh, xdot, grad2 = _frame_pass(vfr)
        vmag = np.sqrt(grad2).reshape(g.shape)
        _, F_partial = _spectral_gradient(Fj)
        _, W_partial = _spectral_gradient(Field.physical(g, _cubic(tot, 1) - _cubic(Fv, 1)))
        Fmag = np.zeros(g.shape)
        dot = np.zeros(g.shape, dtype=np.complex128)
        for ax in range(g.d):
            F_partial(ax, Fpart)
            Fmag += _abs2(Fpart)
            dot += W_partial(ax, Wpart) * np.conj(Fpart)
        Fmag = np.sqrt(Fmag)
        group_gradient += w[j] * vol * float(np.sum(np.abs(dot)))

        absF, absv = np.abs(Fv), np.abs(vv)
        evals[j] = 0.5 * _h1_squared(vfh, xi2, g) + 0.25 * vol * float(np.sum(absv**4))
        mor_series.append(_action(vals, xdot, inv_a, vol))
        term_vals["gv_FF_gF"] += w[j] * vol * float(np.sum(vmag * absF**2 * Fmag))
        term_vals["v_F_gF2"] += w[j] * vol * float(np.sum(absv * absF * Fmag**2))
        term_vals["gv_v_F_gF"] += w[j] * vol * float(np.sum(vmag * absv * absF * Fmag))
        term_vals["v2_gF2"] += w[j] * vol * float(np.sum(absv**2 * Fmag**2))
        term_vals["v2_gv_gF"] += w[j] * vol * float(np.sum(absv**2 * vmag * Fmag))

        sup_quant["gv_Li2"] = max(sup_quant["gv_Li2"], np.sqrt(vol * float(np.sum(vmag**2))))
        sup_quant["v_Li4"] = max(sup_quant["v_Li4"], (vol * float(np.sum(absv**4))) ** 0.25)
        sup_quant["F_Li4"] = max(sup_quant["F_Li4"], (vol * float(np.sum(absF**4))) ** 0.25)
        t_int["F_L2Linf"].append(absF.max())
        t_int["gF_L2L4"].append((vol * float(np.sum(Fmag**4))) ** 0.25)
        t_int["wgF_L2Linf"].append((np.sqrt(a) * Fmag).max())
        t_int["wF_L2Linf"].append((np.sqrt(1.0 + g.x_squared) ** 0.5 * absF).max())
        t_int["F_L3L6"].append((vol * float(np.sum(absF**6))) ** (1.0 / 6.0))
        bulk_density.append(vol * float(np.sum(absv**4 / a)))
        mass_series.append(vol * float(np.sum(absv**2)))
        mass_total_series.append(vol * float(np.sum(np.abs(tot) ** 2)))

    fd = np.abs(evals[2:] - evals[:-2]) / (2.0 * run.dt)
    integrated = float(np.sum(fd) * run.dt) if n > 2 else 0.0

    def l2t(series):
        return float(np.sqrt(np.sum(w * np.asarray(series) ** 2)))

    def l3t(series):
        arr = np.asarray(series)
        return float(np.sum(w * arr**3) ** (1.0 / 3.0))

    F_L2Linf = l2t(t_int["F_L2Linf"])
    gF_L2L4 = l2t(t_int["gF_L2L4"])
    wgF = l2t(t_int["wgF_L2Linf"])
    wF = l2t(t_int["wF_L2Linf"])
    F_L3L6 = l3t(t_int["F_L3L6"])
    bulk = float(np.sum(w * np.asarray(bulk_density)))

    gv, v4, F4 = sup_quant["gv_Li2"], sup_quant["v_Li4"], sup_quant["F_Li4"]
    majorants = {
        "gv_FF_gF": gv * F4 * F_L2Linf * gF_L2L4,
        "v_F_gF2": v4 * F4 * gF_L2L4**2,
        "gv_v_F_gF": gv * v4 * F_L2Linf * gF_L2L4,
        "v2_gF2": v4**2 * gF_L2L4**2,
        "v2_gv_gF": np.sqrt(bulk) * gv * wgF,
    }
    slack = 1.0 + 1e-9
    terms_ok = all(term_vals[k] <= majorants[k] * slack + 1e-30 for k in term_vals)

    F_Li2 = (
        max(np.sqrt(vol * np.sum(np.abs(Ffr(j).values) ** 2)) for j in range(n))
        if F is not None
        else 0.0
    )
    mass_lhs = float(np.sqrt(max(mass_series)))
    mass_rhs = float(np.sqrt(mass_total_series[0]) + F_Li2)
    mass_ok = mass_lhs <= mass_rhs * (1.0 + 1e-8)

    sup_E = float(evals.max())
    E0 = float(evals[0])
    m0 = float(mass_series[0])
    growth_bound = float(
        np.exp(min(F_L3L6**3 + wF**2 + gF_L2L4**2, 500.0))
        * (E0 + 1.0 + m0 + F_Li2**2 + F4**4)
    )
    report = EnergyGrowthReport(
        integrated_dtE=integrated,
        group_quartic=float(group_quartic),
        group_gradient=float(group_gradient),
        group_constant=float(
            integrated / max(group_quartic + group_gradient, np.finfo(float).tiny)
        ),
        term_values={k: float(x) for k, x in term_vals.items()},
        term_majorants={k: float(x) for k, x in majorants.items()},
        terms_ok=bool(terms_ok),
        mass_lhs=mass_lhs,
        mass_rhs=mass_rhs,
        mass_ok=bool(mass_ok),
        sup_energy=sup_E,
        growth_bound=growth_bound,
        growth_ok=bool(sup_E <= growth_bound),
    )
    series = DiagnosticsSeries(
        times=[float(t) for t in run.times],
        energy=[float(x) for x in evals],
        mass_v=[float(x) for x in mass_series],
        mass_total=[float(x) for x in mass_total_series],
        morawetz=[float(x) for x in mor_series],
        flux_terms=report.term_values,
        bulk=bulk,
    )
    return series, report


@dataclass
class ScatteringReport:
    ladder_times: list
    deltas: list
    decreasing: bool
    final_relative: float


def scattering_state(run: Trajectory, mu: int = +1) -> tuple:
    """Estimate the forward scattering state and its Cauchy diagnostic.

    Returns (v_plus estimate at time T pulled back to 0, report).  delta(t1, t2)
    = || e^{-i t2 Lap} v(t2) - e^{-i t1 Lap} v(t1) ||_{Hdot^1} on a dyadic time
    ladder ending at the final frame.
    """
    T = run.t_end
    if run.n_frames < 5:
        raise ValueError("need at least five frames for the dyadic ladder")
    ladder = []
    t = T
    for _ in range(4):
        ladder.append(t)
        t /= 2.0
    ladder = sorted(ladder)
    profiles = []
    for t in ladder:
        i = int(round((t - run.t0) / run.dt))
        i = max(0, min(run.n_frames - 1, i))
        ti = run.t0 + i * run.dt
        profiles.append(schrodinger_flow(run.frames[i], -ti))
    deltas = [
        sobolev_norm(b - a, 1.0, homogeneous=True)
        for a, b in zip(profiles, profiles[1:])
    ]
    scale = max(sobolev_norm(run.frames[-1], 1.0, homogeneous=True), np.finfo(float).tiny)
    report = ScatteringReport(
        ladder_times=[float(t) for t in ladder],
        deltas=[float(d) for d in deltas],
        decreasing=bool(all(b <= a * (1.0 + 1e-9) for a, b in zip(deltas, deltas[1:]))),
        final_relative=float(deltas[-1] / scale),
    )
    return profiles[-1], report


@dataclass
class ScalingReport:
    lam: float
    h1_original: float
    h1_rescaled: float
    h1_invariance_error: float
    matched_time_discrepancy: float


def scaling_check(u0: Field, lam: float, cfg: NLSRunConfig) -> ScalingReport:
    """u -> lam u(lam^2 t, lam x) symmetry on a lam-shrunk companion grid.

    The rescaled datum lives on the grid (m, L/lam) where lattice nodes map
    exactly; Hdot^1 invariance is exact index-by-index on the multiplier
    level, and the evolved trajectories are compared at matched times.
    """
    g = u0.grid
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g2 = SpectralGrid(m=g.m, L=g.L / lam, d=g.d)
    u0_2 = Field.physical(g2, lam * u0.in_domain(PHYSICAL).values)
    h1_a = sobolev_norm(u0, 1.0, homogeneous=True)
    h1_b = sobolev_norm(u0_2, 1.0, homogeneous=True)

    run1 = splitstep_nls(u0, cfg)
    cfg2 = NLSRunConfig(
        mu=cfg.mu,
        dt=cfg.dt / lam**2,
        T=cfg.T / lam**2,
        dealias=cfg.dealias,
        snapshot_stride=cfg.snapshot_stride,
        blowup_factor=cfg.blowup_factor,
    )
    run2 = splitstep_nls(u0_2, cfg2)
    worst = 0.0
    for f1, f2 in zip(run1.frames, run2.frames):
        diff = f2.values - lam * f1.values
        rel = np.sqrt(g2.dx**g2.d * np.sum(np.abs(diff) ** 2))
        scale = max(np.sqrt(g2.dx**g2.d * np.sum(np.abs(f2.values) ** 2)), 1e-300)
        worst = max(worst, float(rel / scale))
    return ScalingReport(
        lam=lam,
        h1_original=float(h1_a),
        h1_rescaled=float(h1_b),
        h1_invariance_error=float(abs(h1_a - h1_b) / max(h1_a, 1e-300)),
        matched_time_discrepancy=worst,
    )


def nls_mass_energy_series(run: Trajectory) -> tuple:
    """(mass series, energy series) along a trajectory."""
    return (
        [mass(fr) for fr in run.frames],
        [energy(fr) for fr in run.frames],
    )

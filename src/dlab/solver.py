"""Cubic NLS time integration, the Picard/Duhamel fixed-point solver, and the
Morawetz / energy-growth diagnostics.

The integrator is Strang splitting: a half step of the exact kinetic
multiplier exp(-i dt/2 |xi|^2), the exact pointwise nonlinear rotation
u -> exp(-i mu dt |u|^2) u (modulus preserving), and another half kinetic
step.  Both substeps conserve mass exactly, so mass is conserved to rounding
and energy drifts at O(dt^2).  Every multiplier of a step is separable, so
no transform runs: a half step is d products along one axis each with the
m x m circulant matrix of the 1D factor exp(-i dt/2 xi^2)
(``grid._axis_product``), and the 1D 2/3 dealiasing mask rides on the factor
of the second half step.  A step works inside the run's stack: it reads row
j-1 and writes row j, its products ping-ponging between row j and one scratch
frame so that each half's last one lands in the row (for odd d the rotation
writes into the scratch frame).  The rotation, cos/sin of the real phase, and
the blow-up peak go over slabs of x1 rows (below) in slab-sized buffers, so a
run holds its stack, one frame and one slab's arrays.

The forced equation (i d_t + Laplace) v = mu |F+v|^2 (F+v) is solved through
the change of variables u := F + v: when F solves the linear equation exactly
on the grid (free flows here are exact multipliers), u solves the standard
cubic NLS, so no separate splitting-error analysis is needed.  The solve adds
F_0 + v_0 into row 0 of the u stack, keeps the stack and returns v as a frame
source, v_j = u_j - F_j made when read; with F the frame source of a free
flow, the pipeline holds one stack.

The Morawetz audit makes one spectral pass per frame, reading the run and F
one frame at a time, and streams it in slabs of x1 rows (cache blocking):
d_1 v mixes the rows, so it is one product over the whole frame, and each
slab then takes d_2 .. d_d of its own rows, each one product with the real
derivative matrix along its axis (``grid._spectral_gradient``, no transform,
no centering shift).  From a slab's derivatives come its share of the
Morawetz action, the dm/dt right side (interior frames) and ||v||_{Hdot^1}
by Parseval (plus the Nyquist planes the derivative zeroes), and, with
rho = |v|^2, of the bulk densities and ||v||_2; the forcing difference H is
built per slab in one buffer from rho and feeds both the right side and
||H||_2.  A slab is as many whole rows as 2^12 points hold, at least one,
and follows from the grid alone: the whole frame at m = 8, one row at
m >= 16.  The weights 1/a, 1/a^3, Lap a, LapLap a and 1/a at dx/4 are made
per slab from its rows of |x|^2 (``_slab_weights``).  A frame holds the frame
of v, that of F and d_1 v (three complex m^d arrays, 48 MB at m = 32) and one
slab's arrays (a few row-sized ones, the weights among them), all released
before the next frame.  The energy audit shares the pass, gathered into
whole-frame arrays: energy, |grad v| and the Morawetz series of v come from
it, so a frame costs 3d per-axis derivative products (v, F and the flux W,
d each).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BlowupDetected, NoContractionError
from .grid import (
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    _axis_product,
    _circulant,
    _power_mean,
    _read_only,
    _spectral_gradient,
    broadcast_along,
    lp_norm,
    sobolev_norm,
    trapezoid_weights,
)
from .norms import EpsilonPolicy, _abs2, _weighted_sup, _window, strichartz_norm, x_norm
from .propagate import duhamel_all, free_trajectory, schrodinger_flow


@dataclass(frozen=True)
class NLSRunConfig:
    """Split-step run parameters for (i d_t + Laplace) u = mu |u|^2 u."""

    mu: int = +1  # +1 defocusing, -1 focusing
    dt: float = 0.01
    T: float = 1.0
    dealias: bool = True

    def __post_init__(self):
        if self.mu not in (+1, -1):
            raise ValueError("mu must be +1 or -1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        n = self.T / self.dt
        if abs(n - round(n)) > 1e-8:
            raise ValueError("T must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def check_phase_resolution(self, grid: SpectralGrid) -> bool:
        """Whether dt*max|xi|^2 exceeds pi, so that kinetic phases wrap; if so,
        warn at the caller of the function that called this one."""
        phase = self.dt * grid.xi_max**2 * grid.d
        if phase > np.pi:
            warnings.warn(f"dt*max|xi|^2 = {phase:.3g} exceeds pi; kinetic phases wrap",
                          stacklevel=3)
        return phase > np.pi


def _dealias_keep(grid: SpectralGrid) -> np.ndarray:
    """The 1D 2/3-rule keep mask in FFT order; the d-dimensional mask is its product over the axes."""
    xi = np.abs(grid.xi1d_fft)
    return xi <= (2.0 / 3.0) * xi.max()


# a run whose max norm exceeds its initial one this many times has blown up
_BLOWUP_FACTOR = 1e6


# lattice points per slab of a frame pass or a split step: 64 KB of complex values, but a
# slab is at least one x1 row, which holds m^(d-1) points (512 KB at m = 32, d = 4)
_SLAB_POINTS = 2**12


def _slabs(grid: SpectralGrid) -> list:
    """Slices of axis 0, each as many whole rows as ``_SLAB_POINTS`` points hold, at least one."""
    rows = min(grid.m, max(1, _SLAB_POINTS // (grid.size // grid.m)))
    return [slice(r0, r0 + rows) for r0 in range(0, grid.m, rows)]


def _splitstep(u0: Field, cfg: NLSRunConfig, F0: Field | None = None) -> np.ndarray:
    """The physical stack of a Strang split-step run from F0 + u0 (u0 alone when F0 is
    None), one frame per step (see splitstep_nls), writable.  The caller checks the
    phase resolution."""
    g = u0.grid
    factor = np.exp(-0.5j * cfg.dt * g.xi1d_fft**2)
    half = _circulant(factor)
    last = _circulant(factor * _dealias_keep(g)) if cfg.dealias else half

    frames = np.empty((cfg.n_steps + 1, *g.shape), dtype=np.complex128)
    if F0 is None:
        frames[0] = u0.in_domain(PHYSICAL).values
    else:
        np.add(F0.in_domain(PHYSICAL).values, u0.in_domain(PHYSICAL).values, out=frames[0])
    guard = _BLOWUP_FACTOR * max(float(np.abs(frames[0]).max()), np.finfo(float).tiny)
    slabs = _slabs(g)
    work, phase = np.empty(g.shape, dtype=np.complex128), np.empty((slabs[0].stop, *g.shape[1:]))
    rotation = np.empty_like(phase, dtype=np.complex128)

    def kinetic(src, dst, matrix):  # one product per axis, ping-ponging so the last lands in dst
        for ax in range(g.d):
            out = dst if (g.d - ax) % 2 else work
            _axis_product(src, matrix, ax, out=out)
            src = out

    for step in range(1, cfg.n_steps + 1):
        u = frames[step]
        mid = work if g.d % 2 else u  # the rotated state: with odd d the second half starts in work
        with np.errstate(over="ignore", invalid="ignore"):
            kinetic(frames[step - 1], u, half)
            for sl in slabs:
                np.square(np.abs(u[sl], out=phase), out=phase)
                phase *= -cfg.mu * cfg.dt
                np.cos(phase, out=rotation.real)
                np.sin(phase, out=rotation.imag)
                np.multiply(u[sl], rotation, out=mid[sl])
            kinetic(mid, u, last)
            peak = float(np.max([np.abs(u[sl], out=phase).max() for sl in slabs]))  # nan if one is
        if not np.isfinite(peak) or peak > guard:
            raise BlowupDetected(step, Trajectory.from_values(g, 0.0, cfg.dt, PHYSICAL, frames[:step]), peak)
    return frames


def splitstep_nls(u0: Field, cfg: NLSRunConfig) -> Trajectory:
    """Strang split-step integration; one physical-domain frame per step.

    Raises BlowupDetected (carrying the partial trajectory) when the max norm
    exceeds 1e6 times its initial value or turns non-finite.
    """
    cfg.check_phase_resolution(u0.grid)
    return Trajectory.from_values(u0.grid, 0.0, cfg.dt, PHYSICAL, _splitstep(u0, cfg))


def _check_forcing(F: Trajectory, grid: SpectralGrid, t0: float, dt: float, n: int) -> None:
    """Raise ValueError unless F lives on ``grid`` with frame j at t0 + j dt for every j < n."""
    if F.grid != grid:
        raise ValueError(f"forcing lives on {F.grid}, not on {grid}")
    if abs(F.t0 - t0) > 1e-12 or abs(F.dt - dt) > 1e-12 or F.n_frames < n:
        raise ValueError(f"forcing frames misaligned: need t0={t0}, dt={dt}, >= {n} frames, "
                         f"got t0={F.t0}, dt={F.dt}, {F.n_frames} frames")


def splitstep_forced(v0: Field, F: Trajectory, cfg: NLSRunConfig) -> Trajectory:
    """Forced cubic NLS via u := F + v evolved as standard NLS, then v = u - F.

    F must be sampled exactly at the step times of the run.  The result
    keeps the u stack and F: its frame j, u_j - F_j, is made when it is read
    (``Trajectory.from_source``), so the run holds one stack, and a reader of
    v_j and then F_j gets F_j from F's one-frame memo.
    """
    g = v0.grid
    _check_forcing(F, g, 0.0, cfg.dt, cfg.n_steps + 1)
    cfg.check_phase_resolution(g)
    u = _read_only(_splitstep(v0, cfg, F.frames[0]))

    def frame(j: int, out: np.ndarray | None) -> np.ndarray:
        return np.subtract(u[j], F.frames[j].in_domain(PHYSICAL).values, out=out)

    return Trajectory.from_source(g, 0.0, cfg.dt, PHYSICAL, len(u), frame)


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
    free = free_trajectory(v0, 0.0, pcfg.dt, n).in_domain(PHYSICAL).values
    Fphys = None
    if F is not None:
        _check_forcing(F, g, 0.0, pcfg.dt, n)
        Fphys = F.in_domain(PHYSICAL).values[:n]

    def sweep(v):  # one application of the Duhamel map Phi to the physical frame stack v
        tot = v if Fphys is None else Fphys + v
        h = Trajectory.from_values(g, 0.0, pcfg.dt, PHYSICAL, _cubic(tot, pcfg.mu))
        return free - 1j * duhamel_all(h).values

    def x_distance(a, b) -> float:
        return float(x_norm(Trajectory.from_values(g, 0.0, pcfg.dt, PHYSICAL, a - b), pol=pol))

    record = ContractionRecord()
    v = free
    rising = 0
    for it in range(1, pcfg.max_iterations + 1):
        v_new = sweep(v)
        d = x_distance(v_new, v)
        record.distances.append(d)
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
    record.fixed_point_residual = x_distance(sweep(v), v)
    return Trajectory.from_values(g, 0.0, pcfg.dt, PHYSICAL, v), record


def energy(v: Field) -> float:
    """E(v) = int 1/2 |grad v|^2 + 1/4 |v|^4 (gradient spectral)."""
    g = v.grid
    kin = 0.5 * sobolev_norm(v, 1.0, homogeneous=True) ** 2
    pot = 0.25 * lp_norm(v.in_domain(PHYSICAL), 4) ** 4
    return float(kin + pot)


def mass(v: Field) -> float:
    """int |v|^2 dx."""
    return float(lp_norm(v.in_domain(PHYSICAL), 2) ** 2)


def _reg_weight(grid: SpectralGrid, sigma: float | None) -> np.ndarray:
    """The regularized Lin-Strauss weight a = (|x|^2 + sigma^2)^(1/2) on the lattice;
    sigma None is half a grid cell."""
    return np.sqrt(grid.x_squared + (grid.dx / 2.0 if sigma is None else sigma) ** 2)


def _inv_reg_weight(grid: SpectralGrid, sigma: float, flat: slice = slice(None)) -> np.ndarray:
    """1/a of the regularized Lin-Strauss weight a = (|x|^2 + sigma^2)^(1/2), raveled, in one
    buffer; ``flat`` picks the raveled points (a slab's, or all)."""
    inv_a = grid.x_squared.ravel()[flat] + sigma**2
    np.sqrt(inv_a, out=inv_a)
    return np.divide(1.0, inv_a, out=inv_a)


def _weight_arrays(grid: SpectralGrid, sigma: float, flat: slice = slice(None)) -> tuple:
    """1/a, 1/a^3, Lap a and LapLap a of the regularized Lin-Strauss weight
    a = (|x|^2 + s^2)^(1/2), raveled, at the points ``flat`` picks (``_inv_reg_weight``).

    Lap a = (3 r^2 + 4 s^2)/a^3 and LapLap a = -24/a^3 + 36 r^2/a^5 - 15 r^4/a^7
    in four dimensions (for s -> 0 these recover 3/|x| and -3/|x|^3).  With
    p = s^2/a^2 = 1 - r^2/a^2 they are (3 + p)/a and -(3 + 6 p + 15 p^2)/a^3:
    products of 1/a, in a Horner form whose terms share one sign.
    """
    if grid.d != 4:
        raise ValueError("Morawetz diagnostics are defined for d = 4")
    inv_a = _inv_reg_weight(grid, sigma, flat)
    p = inv_a * inv_a
    inv_a3 = p * inv_a
    p *= sigma**2
    lap_a = (p + 3.0) * inv_a
    bilap_a = ((-15.0 * p - 6.0) * p - 3.0) * inv_a3
    return inv_a, inv_a3, lap_a, bilap_a


def _slab_weights(grid: SpectralGrid, sigma: float, flat: slice) -> tuple:
    """The audit's weights at the points ``flat`` picks: ``_weight_arrays`` at sigma, then 1/a at dx/4."""
    return (*_weight_arrays(grid, sigma, flat), _inv_reg_weight(grid, grid.dx / 4.0, flat))


def _frame_pass(v: Field, visit) -> float:
    """One frame's derivative pass in slabs of x1 rows; returns ||v||_{Hdot^1}^2.

    d_1 v mixes the rows, so it is one product over the whole frame; each slab
    then takes d_2 .. d_d of its own rows (``grid._spectral_gradient``) and
    calls ``visit(flat, vals, xdot, grad2)`` with the slab's slice of the
    raveled frame and v, x.grad v and |grad v|^2 there, raveled.  A slab is
    whole rows (``_slabs``), so its arrays stay in cache.  Hdot^1 is Parseval
    on the derivatives plus the Nyquist planes their multiplier zeroes, the
    full-|xi|^2 value of ``sobolev_norm``.
    """
    g = v.grid
    partial, nyquist = _spectral_gradient(v)
    vals = v.in_domain(PHYSICAL).values
    d1 = partial(0)
    row, slabs = g.size // g.m, _slabs(g)
    part = np.empty((slabs[0].stop, *g.shape[1:]), dtype=np.complex128)
    grad_sum = 0.0
    for sl in slabs:
        grad2 = _abs2(d1[sl])
        xdot = d1[sl] * broadcast_along(g.x1d[sl], 0, g.d)
        for ax in range(1, g.d):
            partial(ax, part, sl)
            grad2 += _abs2(part)
            part *= broadcast_along(g.x1d, ax, g.d)
            xdot += part
        grad_sum += float(grad2.sum())
        visit(slice(sl.start * row, sl.stop * row), vals[sl].ravel(), xdot.ravel(), grad2.ravel())
    return g.dx**g.d * (grad_sum + g.xi_max**2 / g.m * sum(nyquist))


def _frame_arrays(v: Field) -> tuple:
    """v, ||v||_{Hdot^1}^2, x.grad v and |grad v|^2 of the whole frame, the arrays raveled
    (``_frame_pass``)."""
    g = v.grid
    xdot, grad2 = np.empty(g.size, dtype=np.complex128), np.empty(g.size)

    def visit(flat, vals, xd, gr):
        xdot[flat], grad2[flat] = xd, gr

    h1_sq = _frame_pass(v, visit)
    return v.in_domain(PHYSICAL).values.ravel(), h1_sq, xdot, grad2


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
    vals, _, xdot, _ = _frame_arrays(v)
    return _action(vals, xdot, 1.0 / _reg_weight(g, sigma).ravel(), g.dx**g.d)


def morawetz_dmdt_rhs(v: Field, H: Field | None, sigma: float) -> float:
    """Analytic right side of the d/dt Morawetz-action identity for
    (i d_t + Lap) v = |v|^2 v + H with the regularized weight."""
    g = v.grid
    weights = _weight_arrays(g, sigma)
    vals, _, xdot, grad2 = _frame_arrays(v)
    Hv = None if H is None else H.in_domain(PHYSICAL).values.ravel()
    return _dmdt_rhs(vals, _abs2(vals), xdot, grad2, Hv, weights, g.dx**g.d)


def morawetz_bulk(v: Trajectory, sigma: float | None = None, interval=None) -> float:
    """int_I int |v|^4 / a_sigma dx dt (trapezoid in t) over the window; always
    nonnegative.  sigma defaults to half a grid cell."""
    g = v.grid
    i0, i1, w = _window(v, interval)
    a = _reg_weight(g, sigma)
    vals = [g.dx**g.d * np.sum(np.abs(fr.in_domain(PHYSICAL).values) ** 4 / a)
            for fr in v.frames[i0 : i1 + 1]]
    return float(np.sum(w * vals))


def _forcing_difference(vals: np.ndarray, rho: np.ndarray, Fv: np.ndarray, mu: int) -> np.ndarray:
    """H = mu(|F+v|^2 (F+v) - rho v) from physical values and rho = |v|^2, in one buffer."""
    H = Fv + vals
    H *= _abs2(H)
    H -= rho * vals
    if mu != 1:
        H *= mu
    return H


def _audit_frame(v, Fv, mu, weights, interior: bool) -> tuple:
    """Per-frame terms of ``morawetz_audit``, summed over the slabs of one frame pass.

    Returns (action, ||v||_{Hdot^1}^2, ||v||_2^2, bulk density at sigma and at
    dx/4, ||H||_2, dm/dt right side or nan off the interior).  ``Fv`` is the
    raveled forcing frame or None; ``weights(flat)`` gives a slab's
    ``_slab_weights``.  Besides the frame, F's frame and d_1 v, only one slab's
    arrays are alive at a time.
    """
    g = v.grid
    vol = g.dx**g.d
    sums = np.zeros(6)  # ||v||_2^2, the two bulk densities, action, ||H||_2^2, right side

    def visit(flat, vals, xdot, grad2):
        rho = _abs2(vals)
        H = None if Fv is None else _forcing_difference(vals, rho, Fv[flat], mu)
        *w, inv_a_quarter = weights(flat)  # after H, so fewer slab arrays are alive at once
        rho2 = rho * rho
        sums[:3] += (vol * float(rho.sum()), vol * float(np.dot(rho2, w[0])),
                     vol * float(np.dot(rho2, inv_a_quarter)))
        del rho2, inv_a_quarter  # before the temporaries of the action and the right side
        sums[3:] += (_action(vals, xdot, w[0], vol), 0.0 if H is None else vol * float(_abs2(H).sum()),
                     _dmdt_rhs(vals, rho, xdot, grad2, H, w, vol) if interior else 0.0)

    h1_sq = _frame_pass(v, visit)
    l2_sq, bulk, bulk_quarter, action, h_sq, rhs = sums
    return action, h1_sq, l2_sq, bulk, bulk_quarter, np.sqrt(h_sq), rhs if interior else np.nan


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


def morawetz_audit(run: Trajectory, F: Trajectory | None = None, mu: int = +1) -> MorawetzAuditReport:
    """Finite-difference d/dt of the Morawetz action versus the analytic
    identity, plus the bulk inequality with its recorded constant.

    The identity holds for every sigma; the audit runs at sigma = 3 dx, the
    smallest choice whose bilaplacian spike the lattice can quadrature.  The
    action behind ``dmdt_fd``, the right side and the report's ``bulk`` all
    use it; ``sigma_quarter_bulk`` is the bulk at dx/4.  The identity holds
    when the largest mismatch, relative to the largest right side, is at most
    10 dt^2 (the order of the central difference), floored at 1e-4.  Frame j
    of F forces frame j of the run; a forcing that does not line up raises
    ValueError.
    """
    g = run.grid
    sigma = 3.0 * g.dx
    n = run.n_frames
    if n < 3:
        raise ValueError("need at least three frames")
    if F is not None:
        _check_forcing(F, g, run.t0, run.dt, n)
    # frame j of the run first: a run from splitstep_forced reads F_j, which F then has
    # memoized; no frame outlives its call
    terms = np.array([
        _audit_frame(run.frames[j], None if F is None else F.frames[j].in_domain(PHYSICAL).values.ravel(),
                     mu, lambda flat: _slab_weights(g, sigma, flat), 0 < j < n - 1)
        for j in range(n)
    ])
    mvals, h1_sq, l2_sq, bulk_d, bulk_quarter_d, h_l2, rhs = terms.T
    rhs = rhs[1:-1]
    w = trapezoid_weights(n, run.dt)
    bulk = float(np.sum(w * bulk_d))
    bulk_quarter = float(np.sum(w * bulk_quarter_d))

    fd = (mvals[2:] - mvals[:-2]) / (2.0 * run.dt)
    scale = max(np.abs(rhs).max(), np.finfo(float).tiny)
    mismatch = float(np.abs(fd - rhs).max() / scale)
    tol = max(10.0 * run.dt**2, 1e-4)
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


_FLUX_TERMS = ("gv_FF_gF", "v_F_gF2", "gv_v_F_gF", "v2_gF2", "v2_gv_gF")


def _energy_frame(v: Field, Ff: Field | None, inv_a: np.ndarray, sqrt_a: np.ndarray) -> tuple:
    """Per-frame terms of ``energy_growth_audit``: (energy, action, ||grad v||_2,
    ||v||_2^2, ||F+v||_2^2, the x-integrals of the quartic group, gradient group
    and five flux densities, ||grad F||_4, sup a^(1/2) |grad F|).  Without a
    forcing frame Ff every term of F is 0 and neither F nor W is differentiated.
    """
    g = v.grid
    vol = g.dx**g.d
    vv = v.values
    vals, h1_sq, xdot, grad2 = _frame_arrays(v)
    vmag = np.sqrt(grad2).reshape(g.shape)
    absv = np.abs(vv)
    mass_v = vol * float(np.sum(absv**2))
    head = (0.5 * h1_sq + 0.25 * vol * float(np.sum(absv**4)), _action(vals, xdot, inv_a, vol),
            _power_mean(vmag, vol, 2), mass_v)
    if Ff is None:  # grad F = 0: no group, no flux term, and F + v = v
        return (*head, mass_v) + (0.0,) * 9
    Fv = Ff.values
    tot = Fv + vv
    absF = np.abs(Fv)
    F_partial, _ = _spectral_gradient(Ff)
    W = _read_only(_cubic(tot, 1) - _cubic(Fv, 1))
    W_partial, _ = _spectral_gradient(Field.physical(g, W))
    Fpart, Wpart = np.empty_like(tot), np.empty_like(tot)
    Fmag = np.zeros(g.shape)
    dot = np.zeros(g.shape, dtype=np.complex128)
    for ax in range(g.d):
        F_partial(ax, Fpart)
        Fmag += _abs2(Fpart)
        dot += W_partial(ax, Wpart) * np.conj(Fpart)
    Fmag = np.sqrt(Fmag)
    densities = (np.abs(np.abs(tot) ** 4 - absF**4 - absv**4), np.abs(dot),
                 vmag * absF**2 * Fmag, absv * absF * Fmag**2, vmag * absv * absF * Fmag,
                 absv**2 * Fmag**2, absv**2 * vmag * Fmag)
    return (*head, vol * float(np.sum(np.abs(tot) ** 2)),
            *(vol * float(np.sum(dens)) for dens in densities),
            _power_mean(Fmag, vol, 4), (sqrt_a * Fmag).max())


def energy_growth_audit(run: Trajectory, F: Trajectory | None = None) -> tuple:
    """Energy-derivative bookkeeping for the forced defocusing run.

    The audit is for the defocusing equation (mu = +1) only: its energy and
    the flux W = |F+v|^2 (F+v) - |F|^2 F carry that sign.  Evaluates int |d_t E| dt by finite differences, the quartic and gradient
    right-side groups, the five schematic flux terms against their exact
    Holder majorants, the mass bound, and the measured-norm energy-growth
    bound (with the unknown absolute constant set to 1); the norms of F alone,
    ||v||_{Linf L4} and the bulk come from the norms layer.  Frame j of F
    forces frame j of the run (else ValueError).  Without forcing both groups
    vanish and their ratio ``group_constant`` is nan.
    """
    g, n = run.grid, run.n_frames
    if F is not None:
        _check_forcing(F, g, run.t0, run.dt, n)
        F = F.in_domain(PHYSICAL)
    run = run.in_domain(PHYSICAL)
    w = trapezoid_weights(n, run.dt)
    a = _reg_weight(g, None)
    inv_a, sqrt_a = 1.0 / a.ravel(), np.sqrt(a)
    evals, mor, gv, mass_v, mass_tot, quartic, gradient, *flux, gF_L4, wgF_sup = np.array([
        _energy_frame(fr, None if F is None else F.frames[j], inv_a, sqrt_a)
        for j, fr in enumerate(run.frames)
    ]).T

    fd = np.abs(evals[2:] - evals[:-2]) / (2.0 * run.dt)
    integrated = float(np.sum(fd) * run.dt) if n > 2 else 0.0
    group_quartic, group_gradient = float(quartic.max()), float(np.sum(w * gradient))
    term_vals = {k: float(np.sum(w * dens)) for k, dens in zip(_FLUX_TERMS, flux)}

    gv = gv.max()
    v4 = strichartz_norm(run, np.inf, 4)
    bulk = morawetz_bulk(run)
    window = (run.t0, run.t_end)
    F_L2Linf, F_L3L6, F4, F_Li2 = (
        0.0 if F is None else strichartz_norm(F, q, r, window)
        for q, r in ((2, np.inf), (3, 6), (np.inf, 4), (np.inf, 2))
    )
    wF = 0.0 if F is None else _weighted_sup(F, 0.5, window)
    gF_L2L4, wgF = _power_mean(gF_L4, w, 2), _power_mean(wgF_sup, w, 2)
    majorants = {
        "gv_FF_gF": gv * F4 * F_L2Linf * gF_L2L4,
        "v_F_gF2": v4 * F4 * gF_L2L4**2,
        "gv_v_F_gF": gv * v4 * F_L2Linf * gF_L2L4,
        "v2_gF2": v4**2 * gF_L2L4**2,
        "v2_gv_gF": np.sqrt(bulk) * gv * wgF,
    }
    terms_ok = all(term_vals[k] <= majorants[k] * (1.0 + 1e-9) + 1e-30 for k in term_vals)

    mass_lhs = float(np.sqrt(mass_v.max()))
    mass_rhs = float(np.sqrt(mass_tot[0]) + F_Li2)
    sup_E = float(evals.max())
    growth_bound = float(
        np.exp(min(F_L3L6**3 + wF**2 + gF_L2L4**2, 500.0))
        * (evals[0] + 1.0 + mass_v[0] + F_Li2**2 + F4**4)
    )
    groups = group_quartic + group_gradient  # both vanish without forcing: no ratio
    report = EnergyGrowthReport(
        integrated_dtE=integrated,
        group_quartic=group_quartic,
        group_gradient=group_gradient,
        group_constant=float(integrated / groups) if groups > 0.0 else float("nan"),
        term_values=term_vals,
        term_majorants={k: float(x) for k, x in majorants.items()},
        terms_ok=bool(terms_ok),
        mass_lhs=mass_lhs,
        mass_rhs=mass_rhs,
        mass_ok=bool(mass_lhs <= mass_rhs * (1.0 + 1e-8)),
        sup_energy=sup_E,
        growth_bound=growth_bound,
        growth_ok=bool(sup_E <= growth_bound),
    )
    series = DiagnosticsSeries(
        times=run.times.tolist(),
        energy=evals.tolist(),
        mass_v=mass_v.tolist(),
        mass_total=mass_tot.tolist(),
        morawetz=mor.tolist(),
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
    phases_wrap: bool


def scaling_check(u0: Field, lam: float, cfg: NLSRunConfig) -> ScalingReport:
    """u -> lam u(lam^2 t, lam x) symmetry on a lam-shrunk companion grid.

    The rescaled datum lives on the grid (m, L/lam) where lattice nodes map
    exactly; Hdot^1 invariance is exact index-by-index on the multiplier
    level, and the evolved trajectories are compared at matched times.  Both
    runs turn the same kinetic phase per step, so the phase resolution is
    checked once, with any warning at the caller, and reported as
    ``phases_wrap``.
    """
    g = u0.grid
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g2 = SpectralGrid(m=g.m, L=g.L / lam, d=g.d)
    u0_2 = Field.physical(g2, _read_only(lam * u0.in_domain(PHYSICAL).values))
    h1_a = sobolev_norm(u0, 1.0, homogeneous=True)
    h1_b = sobolev_norm(u0_2, 1.0, homogeneous=True)

    wraps = cfg.check_phase_resolution(g)
    run1 = _splitstep(u0, cfg)
    run2 = _splitstep(u0_2, replace(cfg, dt=cfg.dt / lam**2, T=cfg.T / lam**2))
    worst = 0.0
    for f1, f2 in zip(run1, run2):
        diff = f2 - lam * f1
        rel = _power_mean(np.abs(diff), g2.dx**g2.d, 2)
        scale = max(_power_mean(np.abs(f2), g2.dx**g2.d, 2), 1e-300)
        worst = max(worst, float(rel / scale))
    return ScalingReport(
        lam=lam,
        h1_original=float(h1_a),
        h1_rescaled=float(h1_b),
        h1_invariance_error=float(abs(h1_a - h1_b) / max(h1_a, 1e-300)),
        matched_time_discrepancy=worst,
        phases_wrap=wraps,
    )


def nls_mass_energy_series(run: Trajectory) -> tuple:
    """(mass series, energy series) along a trajectory."""
    return (
        [mass(fr) for fr in run.frames],
        [energy(fr) for fr in run.frames],
    )

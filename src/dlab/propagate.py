"""Exact free flows as Fourier multipliers and quadrature Duhamel integrals.

Schrodinger flow e^{it Laplace} has multiplier exp(-i t |xi|^2); half-wave
flows exp(+-i t |xi|); the wave pair propagates (f0, f1) through

    u       = cos(t|xi|) f0hat + (sin(t|xi|)/|xi|) f1hat,
    du/dt   = -|xi| sin(t|xi|) f0hat + cos(t|xi|) f1hat,

with the zero mode of sin(t|xi|)/|xi| set to t exactly (analytic limit).
All flows are L^2 isometries on the lattice and commute with every
frequency projection.
"""

from __future__ import annotations

import numpy as np

from .grid import FREQUENCY, Field, SpectralGrid, Trajectory, broadcast_along


def schrodinger_symbol(grid: SpectralGrid, t: float) -> np.ndarray:
    """exp(-i t |xi|^2) on the centred frequency lattice, as a product of d 1D factors."""
    phase = np.exp(-1j * t * grid.xi1d**2)
    out = broadcast_along(phase, 0, grid.d)
    for ax in range(1, grid.d):
        out = out * broadcast_along(phase, ax, grid.d)
    return out


def schrodinger_flow(f: Field, t: float) -> Field:
    """Free Schrodinger evolution over time t."""
    fh = f.in_domain(FREQUENCY)
    out = Field(f.grid, FREQUENCY, fh.values * schrodinger_symbol(f.grid, t))
    return out.in_domain(f.domain)


def half_wave_flow(f: Field, t: float, sign: int = +1) -> Field:
    """Half-wave evolution exp(sign * i t |grad|)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    g = f.grid
    fh = f.in_domain(FREQUENCY)
    mod = np.sqrt(g.xi_squared)
    out = Field(g, FREQUENCY, fh.values * np.exp(1j * sign * t * mod))
    return out.in_domain(f.domain)


def _sinc_multiplier(grid: SpectralGrid, t: float) -> np.ndarray:
    """sin(t|xi|)/|xi| with the removable singularity at xi = 0 set to t."""
    mod = np.sqrt(grid.xi_squared)
    out = np.empty(grid.shape)
    nz = mod > 0
    out[nz] = np.sin(t * mod[nz]) / mod[nz]
    out[~nz] = t
    return out


def wave_flow(f0: Field, f1: Field, t: float) -> tuple:
    """Free wave evolution of the data pair; returns (u, du/dt)."""
    g = f0.grid
    if f1.grid != g:
        raise ValueError("data pair must share a grid")
    f0h = f0.in_domain(FREQUENCY)
    f1h = f1.in_domain(FREQUENCY)
    mod = np.sqrt(g.xi_squared)
    c = np.cos(t * mod)
    u = Field(g, FREQUENCY, c * f0h.values + _sinc_multiplier(g, t) * f1h.values)
    ut = Field(g, FREQUENCY, -mod * np.sin(t * mod) * f0h.values + c * f1h.values)
    return u.in_domain(f0.domain), ut.in_domain(f1.domain)


def wave_energy(u: Field, ut: Field) -> float:
    """|grad u|_2^2 + |du/dt|_2^2 via the frequency lattice."""
    g = u.grid
    uh = u.in_domain(FREQUENCY)
    uth = ut.in_domain(FREQUENCY)
    w = (g.dxi / (2.0 * np.pi)) ** g.d
    return float(
        w * np.sum(g.xi_squared * np.abs(uh.values) ** 2)
        + w * np.sum(np.abs(uth.values) ** 2)
    )


def free_trajectory(
    f: Field, t0: float, dt: float, n_frames: int, flow: str = "schrodinger", sign: int = +1
) -> Trajectory:
    """Sample a free flow on a uniform time lattice (frames in frequency domain)."""
    g = f.grid
    fh = f.in_domain(FREQUENCY)
    frames = []
    for j in range(n_frames):
        t = t0 + j * dt
        if flow == "schrodinger":
            sym = schrodinger_symbol(g, t)
        elif flow == "halfwave":
            sym = np.exp(1j * sign * t * np.sqrt(g.xi_squared))
        else:
            raise ValueError(f"unknown flow {flow!r}")
        frames.append(Field(g, FREQUENCY, fh.values * sym))
    return Trajectory(g, t0, dt, tuple(frames))


def _simpson_weights(n_frames: int, dt: float) -> np.ndarray:
    """Composite quadrature weights on frames 0..n_frames-1.

    Composite Simpson when the interval count is even; for an odd count the
    final panel is closed with a trapezoid.  Fewer than 3 frames falls back
    to the trapezoid rule.
    """
    n = n_frames - 1  # interval count
    w = np.zeros(n_frames)
    if n <= 0:
        return w
    if n == 1:
        return np.array([0.5, 0.5]) * dt
    n_simpson = n if n % 2 == 0 else n - 1
    if n_simpson >= 2:
        w[0] += dt / 3.0
        w[n_simpson] += dt / 3.0
        w[1:n_simpson:2] += 4.0 * dt / 3.0
        w[2:n_simpson:2] += 2.0 * dt / 3.0
    if n_simpson != n:
        w[n - 1] += 0.5 * dt
        w[n] += 0.5 * dt
    return w


def duhamel(h: Trajectory, t_index: int) -> Field:
    """Quadrature of int_0^t exp(i(t-s) Laplace) h(s) ds over stored frames.

    t is the trajectory time at ``t_index`` measured from the first frame;
    quadrature order is at least 2 in dt (composite Simpson on even panel
    counts).
    """
    if not 0 <= t_index < h.n_frames:
        raise ValueError(f"t_index {t_index} beyond trajectory of {h.n_frames} frames")
    g = h.grid
    if t_index == 0:
        return Field.zero(g, h.domain)
    w = _simpson_weights(t_index + 1, h.dt)
    acc = np.zeros(g.shape, dtype=np.complex128)
    phase_step = schrodinger_symbol(g, h.dt)  # exp(-i dt |xi|^2)
    running = np.ones(g.shape, dtype=np.complex128)  # exp(-i (t - s_j) |xi|^2)
    for j in range(t_index, -1, -1):
        acc += w[j] * running * h.frames[j].in_domain(FREQUENCY).values
        if j > 0:
            running = running * phase_step
    out = Field(g, FREQUENCY, acc)
    return out.in_domain(h.domain)

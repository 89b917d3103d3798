"""Exact free flows as Fourier multipliers and quadrature Duhamel integrals.

Schrodinger flow e^{it Laplace} has multiplier exp(-i t |xi|^2); half-wave
flows exp(+-i t |xi|); the wave pair propagates (f0, f1) through

    u       = cos(t|xi|) f0hat + (sin(t|xi|)/|xi|) f1hat,
    du/dt   = -|xi| sin(t|xi|) f0hat + cos(t|xi|) f1hat,

with the zero mode of sin(t|xi|)/|xi| set to t exactly (analytic limit).
All flows are L^2 isometries on the lattice and commute with every
frequency projection.

The Duhamel integral int_0^t exp(i(t-s) Laplace) h(s) ds is a composite
Simpson quadrature over the stored frames (a trapezoid closes an odd panel
count).  One recurrence gives it at every frame: a running sum pulled forward
by exp(-i dt |xi|^2) each step, in the Horner form of those weights.  All n
values of a trajectory of n frames cost O(n) frame operations and n forward
transforms of the forcing (none for frequency-domain frames); the value at one
index k reads frames 0..k only.  Being pointwise, the recurrence runs on frames
of any lattice shape, such as the support box of a band-limited forcing.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import (FREQUENCY, Field, SpectralGrid, Trajectory, _centred_transform, _read_only,
                   _separable, apply_multiplier)


def schrodinger_symbol(grid: SpectralGrid, t: float, box: tuple | None = None) -> np.ndarray:
    """exp(-i t |xi|^2) on the centred frequency lattice, or on its index ``box``, as a product of d 1D factors."""
    factor = np.exp(-1j * t * grid.xi1d**2)
    return _separable(np.multiply, [factor[sl] for sl in box or (slice(None),) * grid.d])


def schrodinger_flow(f: Field, t: float) -> Field:
    """Free Schrodinger evolution over time t."""
    return apply_multiplier(f, schrodinger_symbol(f.grid, t))


def half_wave_flow(f: Field, t: float, sign: int = +1) -> Field:
    """Half-wave evolution exp(sign * i t |grad|)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return apply_multiplier(f, np.exp(1j * sign * t * np.sqrt(f.grid.xi_squared)))


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
    u = Field(g, FREQUENCY, _read_only(c * f0h.values + _sinc_multiplier(g, t) * f1h.values))
    ut = Field(g, FREQUENCY, _read_only(-mod * np.sin(t * mod) * f0h.values + c * f1h.values))
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


def free_trajectory(f: Field, t0: float, dt: float, n_frames: int, flow: str = "schrodinger") -> Trajectory:
    """Sample a free flow, Schrodinger or the half wave exp(i t |grad|), on a uniform
    time lattice (frames in frequency domain).

    Only fhat is kept: frame j, the flow's multiplier at t0 + j dt times fhat,
    is made when it is read (``Trajectory.from_source``).
    """
    if flow not in ("schrodinger", "halfwave"):
        raise ValueError(f"unknown flow {flow!r}")
    g = f.grid
    fh = f.in_domain(FREQUENCY).values

    def frame(j: int, out: np.ndarray | None) -> np.ndarray:
        t = t0 + j * dt
        if flow == "schrodinger":
            sym = schrodinger_symbol(g, t)
        else:
            sym = np.exp(1j * t * np.sqrt(g.xi_squared))
        if out is None:
            out = np.empty(g.shape, dtype=np.complex128)
        # fhat first: ``fh * sym`` would reuse sym's buffer as sym *= fh, which rounds differently
        return np.multiply(fh, sym, out=out)

    return Trajectory.from_source(g, t0, dt, FREQUENCY, n_frames, frame)


def _duhamel_values(hhat, step: np.ndarray, dt: float):
    """Yield the quadrature of the Duhamel integral at frames 0, 1, 2, ... (frequency domain)
    of the forcing whose frames, dt apart, ``hhat`` yields as frequency values on ``step``'s points.

    The k-th value is sum_j w_j exp(-i (t_k - t_j)|xi|^2) hhat_j with the
    composite weights on frames 0..k: Simpson (dt/3)(1, 4, 2, ..., 4, 1) when
    k is even; Simpson on frames 0..k-1 plus a trapezoid on the last panel
    when k is odd (k = 1 is the trapezoid alone).  They are evaluated in Horner
    form: the running sum A_k = step A_{k-1} + c_k hhat_k with
    c = (1/3, 4/3, 2/3, 4/3, ...) dt and step = exp(-i dt |xi|^2) gives
    I_k = A_k - (dt/3) hhat_k for even k and
    I_k = step (I_{k-1} + (dt/2) hhat_{k-1}) + (dt/2) hhat_k for odd k.
    Each value costs a fixed number of frame operations, and frames are read
    only as far as the caller iterates; ``step * out`` keeps its operand order at any size.
    """
    third, half = dt / 3.0, 0.5 * dt
    c_odd, c_even = 4.0 * dt / 3.0, 2.0 * dt / 3.0
    running = prev_out = prev_h = None
    for k, hk in enumerate(hhat):
        if k == 0:
            running = third * hk
            out = np.zeros(step.shape, dtype=np.complex128)
        else:
            running *= step
            running += (c_odd if k % 2 else c_even) * hk
            if k % 2 == 0:
                out = running - third * hk
            else:
                out = prev_out + half * prev_h
                np.multiply(step, out, out=out)
                out += half * hk
        yield out
        prev_out, prev_h = out, hk


def duhamel(h: Trajectory, t_index: int) -> Field:
    """Quadrature of int_0^t exp(i(t-s) Laplace) h(s) ds over stored frames.

    t is the trajectory time at ``t_index`` measured from the first frame;
    quadrature order is at least 2 in dt (composite Simpson on even panel
    counts).  Reads frames 0..t_index only.
    """
    if not 0 <= t_index < h.n_frames:
        raise ValueError(f"t_index {t_index} beyond trajectory of {h.n_frames} frames")
    hhat = (fr.in_domain(FREQUENCY).values for fr in h.frames)
    values = _duhamel_values(hhat, schrodinger_symbol(h.grid, h.dt), h.dt)
    values = next(itertools.islice(values, t_index, None))
    return Field(h.grid, FREQUENCY, _read_only(values)).in_domain(h.domain)


def duhamel_all(h: Trajectory) -> Trajectory:
    """:func:`duhamel` at every frame index, as a trajectory in ``h``'s domain and time lattice."""
    g = h.grid
    hhat = (fr.in_domain(FREQUENCY).values for fr in h.frames)
    values = np.fromiter(_duhamel_values(hhat, schrodinger_symbol(g, h.dt), h.dt),
                         (np.complex128, g.shape), h.n_frames)
    if h.domain != FREQUENCY:
        _centred_transform(values, g, h.domain, out=values)
    return Trajectory.from_values(g, h.t0, h.dt, h.domain, values)

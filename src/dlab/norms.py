"""Space-time norms: Strichartz, lateral, the dyadic X/Y/G building blocks,
their aggregates, and the Z norm used by the Morawetz/energy diagnostics.

Time integrals use the trapezoid rule on trajectory frames (the integrand
||.||^q is only Lipschitz in t, so a higher-order rule buys nothing) and
infinite exponents are realized as grid/frame maxima.  Large exponents
(4/eps and friends) go through one running-peak kernel, ``grid._PowerSum``,
so no intermediate overflows: over the window's frames for a lateral norm,
and for a Strichartz norm through ``grid._power_mean``, which takes each
frame's L^r norm as the square root of the r/2 power mean of |u|^2 and then
the L^q mean of those over time.

Band-stack kernel.  xn_norm, yn_norm and gn_norm_upper project one window
several times.  They read its frames once into one stack, as a centered
spectrum (a physical window takes the checkerboard sign and one
batched forward transform, with no roll; see grid.py).  The band projection
multiplies the stack on the band's support box by the symbol there
(``projections.band_box_symbol``) with the inverse transform's 1/dx^d folded
in, zeroes it elsewhere, inverse-transforms it pruned to the box and with no
centering shift, and reduces the result at once to |u|^2 in float64.
Without the shifts a projected frame comes out cyclically shifted along
each axis and, from a centered spectrum, with a sign (-1)^(n_1+...+n_d) on
node n.  |u|^2 drops the sign, and every consumer of it is a sum or a
maximum over whole axes, so the permutation leaves every value unchanged.
A directional projection P_{N,e_l} P_N u starts from P_N u instead of the
spectrum.  Its 1D factor c_l is 1 on every plane xi_l = xi_j that meets the
support of the P_N symbol, except on the planes J_l (at the top aggregate
band: xi_l = 0 alone up to m = 32, m/16 - 1 planes from m = 64 on).  So it
is P_N u minus the inverse transform of (1 - c_j) times those planes of the
projected spectrum.  Each plane is inverse-transformed over the other d - 1
axes alone, and its factor e^(2 pi i j n_l / m) along axis l is applied
while the planes are summed: |J_l| m^(d-1) transformed points per frame in
place of two 1D transforms of the whole stack.
One pass over the |u|^2 frames (``_space_time``) reads each frame once:

* Strichartz pairs with the same r share the per-frame L^r sums;
* lateral norms with the same (p, q) share one time-weighted power array
  W = sum_j w_j (|u_j| / P)^q under the running peak P of the frames read so
  far, kept by ``grid._PowerSum``, the package's one power-mean kernel (at
  q = inf, the running max of |u_j|^2).  The lateral norm along x_l is built
  from the marginal of W over the other spatial axes.

Underflow guard.  At the Y norm's q = 4/eps a large share of the terms
(|u_j| / P)^q underflows to zero or to a subnormal, where np.power is some
thirty times slower.  So the lateral pass, and no power mean, gives the
kernel a floor (``_POWER_FLOOR``): in a frame with a base below
c = (1e-300)^(1/q) it clamps the bases at c and zeroes the clamped terms,
each below 1e-300 of the running peak's term and so of the final peak's.
Each marginal of W then lacks at most 1e-300 * sum_j w_j * m^(d-1); when a
marginal on a requested axis is smaller than 1e16 times that, the unguarded
pass is taken instead, so every marginal keeps a relative error below
1e-16.  That fallback is the only second read of the frames.

Memory: no norm reads ``Trajectory.values``; each reads the window's
``frames``, so a trajectory made from a frame source keeps no stack.
``_powers`` is the one producer of |u|^2 from frames, one frame at a time, and
``_space_time`` holds W and one frame's temporaries (a frame's L^r sums take
one chunk of ``grid._power_mean``).  So strichartz_norm, lateral_norm(s),
z_norm and the verifiers whose norms read |u|^2 alone
(``estimates.verify_duhamel_retarded`` and ``verify_main_linear``) stream
their frames, and make them again for a fallback.  The band-stack kernel holds
the complex frequency stack, one complex work stack and the float64 |u|^2
stack of the current projection; a directional stack is formed one frame at a
time, so a Y norm holds no third complex stack, only the planes J_l.  An
aggregate reads the window's frames once into one band stack, which serves
every band.  The window guard counts the float64 stack against _STACK_LIMIT
and raises MemoryBudgetError beyond it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import BandUnresolvedError, InvalidExponentError, MemoryBudgetError, ParameterRangeError
from .grid import (PHYSICAL, SpectralGrid, Trajectory, Weight, _box_product, _checkerboard, _fft, _power_mean,
                   _PowerSum, broadcast_along, gradient_magnitude, lp_norm, sobolev_norm, trapezoid_weights)
from .projections import Band, _directional_planes, band_box_symbol

# bytes of the float64 |u|^2 stack a band-stack evaluation may hold; the
# kernel's complex stacks take four times as much
_STACK_LIMIT = 3 * 10**8
Interval = tuple[float, float] | None  # a window [ta, tb] of frame times; None: all frames


@dataclass(frozen=True)
class EpsilonPolicy:
    """The fixed small epsilon of the functional framework plus the data
    regularity s it must be compatible with (eps <= (s - 1/3)/3 when s > 1/3).
    """

    eps: float = 0.05
    s: float | None = None

    def __post_init__(self):
        if not 0 < self.eps < 2:
            raise ParameterRangeError(f"eps must lie in (0, 2), got {self.eps}")
        if self.s is not None and self.s > 1.0 / 3.0:
            cap = (self.s - 1.0 / 3.0) / 3.0
            if self.eps > cap + 1e-12:
                raise ParameterRangeError(
                    f"eps={self.eps} violates eps <= (s - 1/3)/3 = {cap:.4g} at s={self.s}"
                )

    @property
    def x_lateral_pq(self) -> tuple:
        return 4.0 / (2.0 - self.eps), 4.0 / self.eps

    @property
    def y_smoothing_pq(self) -> tuple:
        return 4.0 / self.eps, 4.0 / (2.0 - self.eps)

    @property
    def y_maximal_pq(self) -> tuple:
        return 4.0 / (2.0 - self.eps), 4.0 / self.eps

    @property
    def g_lateral_pq(self) -> tuple:
        return 4.0 / (4.0 - self.eps), 4.0 / (2.0 + self.eps)

    @property
    def divisibility_exponent(self) -> float:
        return 4.0 / self.eps


def is_admissible(q: float, r: float) -> bool:
    """Strichartz admissibility 2/q + 4/r = 2, to 1e-9 (recorded, never enforced)."""
    if q < 2 or r < 2:
        return False
    return abs(2.0 / q + 4.0 / r - 2.0) <= 1e-9


def _window(v: Trajectory, interval) -> tuple:
    """Resolve an interval to (i0, i1, trapezoid weights)."""
    if interval is None:
        i0, i1 = 0, v.n_frames - 1
    else:
        ta, tb = interval
        if tb < ta:
            raise ParameterRangeError(f"empty interval [{ta}, {tb}]")
        i0, i1 = v.frame_index(ta), v.frame_index(tb)
    return i0, i1, trapezoid_weights(i1 - i0 + 1, v.dt)


def _abs2(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|a|^2 of a complex array as float64, in ``out`` (new when None)."""
    s = np.abs(a, out=out)
    np.square(s, out=s)
    return s


def _powers(rows, grid: SpectralGrid, domain: str, box: tuple | None = None):
    """Yield |u|^2 in float64 of the physical frame of each row of ``rows``, a new array per
    frame: the one producer of |u|^2 from frames.

    A physical row goes through ``_abs2``.  A frequency row, a centred spectrum (on ``box`` only
    when one is given), is copied with the checkerboard sign into one reused frame buffer, zeroed
    outside the box, and converted by the plain pruned inverse transform and one division by
    dx^d: the centred transform without its output sign, which |u|^2 drops.  A frame transformed
    alone equals its row of a transformed stack bit for bit (``grid`` module docstring), so |u|^2
    is that of ``Trajectory.in_domain(PHYSICAL)``.
    """
    if domain == PHYSICAL:
        yield from map(_abs2, rows)
        return
    frame = np.empty(grid.shape, dtype=np.complex128)
    for row in rows:
        if box is not None:
            frame.fill(0.0)
        _checkerboard(row, frame, grid.d, box)
        yield _abs2(_fft(frame, True, out=frame, box=box, scale=grid.dx**grid.d))


def _strichartz(S, w: np.ndarray, grid: SpectralGrid, pairs) -> list:
    """L^q_t L^r_x norms for each (q, r) pair from one read of the |u|^2 frames ``S``."""
    return _space_time(S, w, grid, pairs)[0]


def _lateral(S, w: np.ndarray, grid: SpectralGrid, p: float, q: float, axes, again=None) -> list:
    """Lateral L^{p,q}_{e_l} norms for each axis l in axes from the |u|^2 frames ``S`` (``_space_time``)."""
    return _space_time(S, w, grid, (), (p, q, axes), again)[1]


# a clamped power term is below this, where the running peak's term is 1
_POWER_FLOOR = 1e-300


def _space_time(S, w: np.ndarray, grid: SpectralGrid, pairs=(), lateral=None, again=None) -> tuple:
    """The L^q_t L^r_x norms of ``pairs`` (q, r) and the lateral L^{p,q}_{e_l} norms of ``lateral``
    (p, q, axes; none when None) from one read of the |u|^2 frames ``S``.  Every axis shares one
    ``_PowerSum``, at q/2 on |u|^2; its unguarded fallback (module docstring) reads ``again()`` or ``S``."""
    vol = grid.dx**grid.d
    rs = list(dict.fromkeys(r for _, r in pairs))
    acc = None if lateral is None else _PowerSum(0.5 * lateral[1], _POWER_FLOOR)
    per_frame = []
    for wt, s in zip(w, S):
        per_frame.append([_power_mean(s, vol, 0.5 * r) for r in rs])
        if acc is not None:
            acc.add(wt, s)
    per_frame = np.sqrt(per_frame).T  # ||u_j||_r = (the r/2 power mean of |u_j|^2)^(1/2)
    stri = [_power_mean(per_frame[rs.index(r)], w, q) for q, r in pairs]
    if acc is None:
        return stri, []
    p, q, axes = lateral
    others = [tuple(a for a in range(grid.d) if a != ax - 1) for ax in axes]
    if np.isinf(q):
        inners = [np.sqrt(acc.W.max(axis=o)) for o in others]
    elif acc.peak == 0.0:
        return stri, [0.0] * len(others)
    else:
        margs = [acc.W.sum(axis=o) for o in others]
        dropped = _POWER_FLOOR * float(np.sum(w)) * grid.m ** (grid.d - 1)  # per marginal, at most
        if min(mg.min() for mg in margs) < 1e16 * dropped:
            acc = _PowerSum(0.5 * q, 0.0)
            for wt, s in zip(w, S if again is None else again()):
                acc.add(wt, s)
            margs = [acc.W.sum(axis=o) for o in others]
        inners = [np.sqrt(acc.peak) * (grid.dx ** (grid.d - 1) * mg) ** (1.0 / q) for mg in margs]
    return stri, [_power_mean(inner, grid.dx, p) for inner in inners]


def _check_exponents(**exps) -> None:
    bad = {k: v for k, v in exps.items() if v < 1}
    if bad:
        got = ", ".join(f"{k}={v}" for k, v in exps.items())
        raise InvalidExponentError(f"exponents must be >= 1, got {got}")


def strichartz_norm(v: Trajectory, q: float, r: float, interval: Interval = None) -> float:
    """L^q_t L^r_x norm over the window by trapezoid quadrature over frames."""
    _check_exponents(q=q, r=r)
    i0, i1, w = _window(v, interval)
    powers = _powers((fr.values for fr in v.frames[i0 : i1 + 1]), v.grid, v.domain)
    return _strichartz(powers, w, v.grid, [(q, r)])[0]


def lateral_norms(v: Trajectory, p: float, q: float, interval: Interval = None) -> tuple:
    """Lateral L^{p,q}_{e_l} norms along every axis l = 1..d, sharing one power pass."""
    return tuple(_lateral_window(v, p, q, range(1, v.grid.d + 1), interval))


def lateral_norm(v: Trajectory, p: float, q: float, axis: int, interval: Interval = None) -> float:
    """Lateral L^{p,q}_{e_axis} norm: x_axis outermost at exponent p, the
    (t, x') block inner at exponent q."""
    if not 1 <= axis <= v.grid.d:
        raise InvalidExponentError(f"axis must be in 1..{v.grid.d}, got {axis}")
    return _lateral_window(v, p, q, (axis,), interval)[0]


def _lateral_window(v: Trajectory, p: float, q: float, axes, interval) -> list:
    """``_lateral`` over the window, streaming its |u|^2 frames; the fallback pass reads them anew."""
    _check_exponents(p=p, q=q)
    i0, i1, w = _window(v, interval)

    def powers():
        return _powers((fr.values for fr in v.frames[i0 : i1 + 1]), v.grid, v.domain)

    return _lateral(powers(), w, v.grid, p, q, axes, powers)


class _BandStack:
    """Frames i0..i1 of a trajectory as one centered frequency stack, ready to project.

    The frames are read from ``frames`` into a new stack.  Physical rows are
    then multiplied by the checkerboard S and forward-transformed in place,
    which equals the fftshift of their plain transform bit for bit (a centered
    spectrum up to the sign S per mode).  A projection inverse-transforms with
    no centering shift, so the projected frame comes out cyclically shifted
    and sign-modulated, which |u|^2 and every whole-axis reduction of it do
    not see.
    """

    def __init__(self, v: Trajectory, i0: int, i1: int):
        g = v.grid
        n = i1 - i0 + 1
        if n * g.size * 8 > _STACK_LIMIT:
            raise MemoryBudgetError(
                f"window of {n} frames on m={g.m}^{g.d} needs {n * g.size * 8} bytes of "
                f"|u|^2 stack, over the norm limit of {_STACK_LIMIT}"
            )
        self.grid = g
        self.axes = tuple(range(1, g.d + 1))
        self.freq = np.fromiter((fr.values for fr in v.frames[i0 : i1 + 1]), (np.complex128, g.shape), n)
        if v.domain == PHYSICAL:
            _fft(self.freq, axes=self.axes, sign_in=True, scale=g.dx**g.d, out=self.freq)
        self.work = np.empty_like(self.freq)

    def power(self, symbol: np.ndarray, box: tuple | None = None) -> np.ndarray:
        """|u|^2 of the projection by a centered symbol that carries 1/dx^d.  With ``box``
        (the symbol's support box, ``grid._support_box``) the symbol is given on the box
        only: the product is taken there, ``work`` is zeroed elsewhere, and the box
        prunes the inverse transform."""
        _box_product(self.freq, symbol, box, self.work)
        return _abs2(_fft(self.work, inverse=True, axes=self.axes, out=self.work, box=box))

    def band_powers(self, N: float):
        """Yield |P_N u|^2, then |P_{N,e_l} P_N u|^2 for l = 1..d.

        The band symbol is read on its support box
        (``projections.band_box_symbol``), where P_N u is formed; its inverse
        transform is pruned to the box, bit for bit the unpruned one.
        Each directional stack is P_N u, left in ``work``, minus the sum of
        its plane terms (``_plane_terms``, all taken once the first stack is
        out), formed one frame at a time in a one-frame buffer.  ``freq`` is
        never written; it is dropped once the planes are taken, so a band
        stack, or each shallow copy of one, serves one band.
        """
        g = self.grid
        box, sym = band_box_symbol(g, Band.dyadic(N))
        sym = sym * g.dx ** (-g.d)
        yield self.power(sym, box)
        terms = [self._plane_terms(sym, box, N, ax) for ax in self.axes]
        self.freq, buf = None, np.empty(g.shape, dtype=np.complex128)
        for planes, phases in terms:
            if not planes:  # P_{N,e_l} P_N u = P_N u
                yield _abs2(self.work)
                continue
            S = np.empty(self.work.shape)
            for j, s in enumerate(S):  # sum_j planes_j e^(2 pi i j n_l / m) by Horner's rule in the phase steps
                np.multiply(planes[0][j], phases[0], out=buf)
                for plane, phase in zip(planes[1:], phases[1:]):
                    buf += plane[j]
                    buf *= phase
                _abs2(np.subtract(self.work[j], buf, out=buf), out=s)
            yield S

    def _plane_terms(self, sym: np.ndarray, box: tuple | None, N: float, ax: int) -> tuple:
        """The part of P_N u that P_{N,e_ax} removes, as planes and phase steps.

        ``sym`` is the P_N symbol on ``box``, and every plane J lies in the box.
        Plane j of ``freq * sym`` along ``ax`` (0 off the box), times (1 - c_j) / m and
        inverse-transformed over the other axes, is the inverse transform of
        that plane alone up to the factor e^(2 pi i j n_ax / m) at the
        unshifted index n_ax of ``work``.  The phase step of plane J_i is
        e^(2 pi i (J_i - J_(i+1)) n_ax / m), with J_(|J|) = 0; both lists
        broadcast against the stack along ``ax``.
        """
        g = self.grid
        J, gap = _directional_planes(g, N, ax)
        box = list(box or (slice(None),) * g.d)
        start = range(g.m)[box[ax - 1]].start  # sym's index of lattice plane 0 along ax
        box[ax - 1] = slice(None)  # the taken planes, whole
        low = np.take(self.freq, J, axis=ax)
        _box_product(low, np.take(sym, J - start, axis=ax - 1), tuple(box), low)
        low *= broadcast_along(gap / g.m, ax - 1, g.d)
        _fft(low, inverse=True, axes=tuple(a for a in self.axes if a != ax), out=low)
        steps = np.outer(J - np.append(J[1:], 0), np.arange(g.m))
        phases = [broadcast_along(p, ax - 1, g.d) for p in np.exp(2j * np.pi / g.m * steps)]
        return [np.take(low, [i], axis=ax) for i in range(len(J))], phases


def aggregate_bands(grid: SpectralGrid) -> list:
    """Dyadic N contributing to the aggregate norms: 2*dxi <= N <= m*dxi/4.

    A grid with no such N raises BandUnresolvedError: an aggregate over no
    band would read as 0.
    """
    lo, hi = 2.0 * grid.dxi, grid.m * grid.dxi / 4.0
    j = int(np.ceil(np.log2(lo) - 1e-9))
    out = []
    while 2.0**j <= hi * (1 + 1e-9):
        out.append(2.0**j)
        j += 1
    if not out:
        raise BandUnresolvedError(f"no dyadic band N with {lo:.4g} <= N <= {hi:.4g} "
                                  f"on the grid m={grid.m}, L={grid.L:.4g}")
    return out


def _xn(S, w: np.ndarray, grid: SpectralGrid, N: float, pol: EpsilonPolicy, again=None) -> float:
    """``xn_norm``'s formula from one read of the |P_N v|^2 frames ``S`` (``_space_time``)."""
    stri, lat = _space_time(S, w, grid, [(2, 4), (3, 3), (6, 12.0 / 5.0)],
                            (*pol.x_lateral_pq, range(1, grid.d + 1)), again)
    return float(N * sum(stri) + N ** (-0.5 + pol.eps) * sum(lat))


def xn_norm(v: Trajectory, N: float, interval: Interval = None,
            pol: EpsilonPolicy = EpsilonPolicy()) -> float:
    """Dyadic solution-space building block at band N:

        N ||P_N v||_{L2 L4} + N ||P_N v||_{L3 L3} + N ||P_N v||_{L6 L12/5}
        + sum_axes N^(-1/2+eps) ||P_N v||_{lateral (4/(2-eps), 4/eps)}.
    """
    return _band_norms(_xn_band, v, interval, pol, [N])[0]


def _xn_band(powers, w: np.ndarray, grid: SpectralGrid, N: float, pol: EpsilonPolicy) -> float:
    return _xn(next(powers), w, grid, N, pol)


def yn_norm(F: Trajectory, N: float, interval: Interval = None,
            pol: EpsilonPolicy = EpsilonPolicy()) -> float:
    """Dyadic forcing-space building block at band N:

        <N>^(1/3+3eps) ( ||P_N F||_{L3 L6} + ||P_N F||_{L6 L6} )
        + sum_axes <N>^(1/3+3eps) N^(1/2-eps) ||P_{N,e} P_N F||_{lateral (4/eps, 4/(2-eps))}
        + sum_axes N^(-1/6) ||P_N F||_{lateral (4/(2-eps), 4/eps)}.
    """
    return _band_norms(_yn_band, F, interval, pol, [N])[0]


def _yn_band(powers, w: np.ndarray, g: SpectralGrid, N: float, pol: EpsilonPolicy) -> float:
    japN = (1.0 + N * N) ** 0.5
    wN = japN ** (1.0 / 3.0 + 3.0 * pol.eps)
    stri, lat = _space_time(next(powers), w, g, [(3, 6), (6, 6)], (*pol.y_maximal_pq, range(1, g.d + 1)))
    total = wN * sum(stri) + N ** (-1.0 / 6.0) * sum(lat)
    p_ls, q_ls = pol.y_smoothing_pq
    for ax, S_dir in zip(range(1, g.d + 1), powers):
        total += wN * N ** (0.5 - pol.eps) * _lateral(S_dir, w, g, p_ls, q_ls, (ax,))[0]
    return float(total)


def gn_norm_upper(h: Trajectory, N: float, interval: Interval = None,
                  pol: EpsilonPolicy = EpsilonPolicy()) -> float:
    """Upper bound on the dyadic nonlinearity-space norm at band N.

    The true norm is an infimum over splittings P_N h = h1 + h2; this takes
    the smaller of the two pure splittings (h, 0) and (0, h), so it is an
    upper bound (``dlab norms`` reports it as such).
    """
    return _band_norms(_gn_band, h, interval, pol, [N])[0]


def _gn_band(powers, w: np.ndarray, grid: SpectralGrid, N: float, pol: EpsilonPolicy) -> float:
    return _gn_upper(next(powers), w, grid, N, pol)


def _gn_upper(S, w: np.ndarray, grid: SpectralGrid, N: float, pol: EpsilonPolicy, again=None) -> float:
    """``gn_norm_upper``'s formula from one read of the |P_N h|^2 frames ``S`` (``_space_time``)."""
    stri, lat = _space_time(S, w, grid, [(1, 2)], (*pol.g_lateral_pq, range(1, grid.d + 1)), again)
    return float(min(N * stri[0], N ** (0.5 + pol.eps) * sum(lat)))


def _band_norms(band_fn, v: Trajectory, interval, pol: EpsilonPolicy, bands) -> list:
    """``band_fn(powers, w, grid, N, pol)`` at each N in ``bands``, ``powers`` being ``band_powers(N)``
    of one band stack of the window, whose frames are read once: each band spends a shallow copy of it."""
    i0, i1, w = _window(v, interval)
    bs = _BandStack(v, i0, i1)
    return [band_fn(copy.copy(bs).band_powers(N), w, v.grid, N, pol) for N in bands]


def _aggregate(band_fn, v, interval, pol, bands) -> float:
    norms = _band_norms(band_fn, v, interval, pol, aggregate_bands(v.grid) if bands is None else bands)
    return float(np.sqrt(sum(x**2 for x in norms)))


def x_norm(v, interval: Interval = None, pol: EpsilonPolicy = EpsilonPolicy(), bands=None) -> float:
    """l^2 aggregate of xn_norm over the grid-resolved dyadic bands."""
    return _aggregate(_xn_band, v, interval, pol, bands)


def y_norm(F, interval: Interval = None, pol: EpsilonPolicy = EpsilonPolicy(), bands=None) -> float:
    """l^2 aggregate of yn_norm over the grid-resolved dyadic bands."""
    return _aggregate(_yn_band, F, interval, pol, bands)


def g_norm_upper(h, interval: Interval = None, pol: EpsilonPolicy = EpsilonPolicy(),
                 bands=None) -> float:
    """l^2 aggregate of the per-band gn_norm_upper minima (an upper bound)."""
    return _aggregate(_gn_band, h, interval, pol, bands)


def _weighted_sup(v: Trajectory, alpha: float, interval: Interval = None,
                  gradient: bool = False) -> float:
    """||<x>^alpha u||_{L2 Linf} over the window, of |grad u| when ``gradient``:
    the per-frame sup of the weighted modulus, then the L2 trapezoid mean."""
    i0, i1, w = _window(v, interval)
    weight = Weight("japanese", alpha).evaluate(v.grid)
    sups = [
        (weight * (gradient_magnitude(fr) if gradient else np.abs(fr.in_domain(PHYSICAL).values))).max()
        for fr in v.frames[i0 : i1 + 1]
    ]
    return _power_mean(sups, w, 2)


def z_norm(F: Trajectory, interval: Interval = None) -> float:
    """||F||_{L3 L6} + ||<x>^(1/2) F||_{L2 Linf} + ||grad F||_{L2 L4}, from one pass over the
    window: each frame is made once, and its gradient's L^4 norm, the sup of <x>^(1/2) |F| and
    |F|^2 are taken from it as the pass reaches it."""
    g = F.grid
    i0, i1, w = _window(F, interval)
    weight = Weight("japanese", 0.5).evaluate(g)
    grad_syms = [1j * g.axis_coord(ax, frequency=True) * g.dx ** (-g.d) for ax in range(1, g.d + 1)]
    sups, grad_l4 = [], []

    def powers():
        for i in range(i0, i1 + 1):
            bs = _BandStack(F, i, i)  # frame i is made here; the lines below read it from the memo
            grad_l4.append(_power_mean(np.sqrt(sum(bs.power(sym) for sym in grad_syms)), g.dx**g.d, 4))
            a = np.abs(F.frames[i].in_domain(PHYSICAL).values)
            sups.append((weight * a).max())
            yield np.square(a, out=a)

    l3l6 = _strichartz(powers(), w, g, [(3, 6)])[0]
    return float(l3l6 + _power_mean(sups, w, 2) + _power_mean(grad_l4, w, 2))


def linf_h1(v: Trajectory, interval: Interval = None) -> float:
    """sup over frames of the homogeneous H^1 norm."""
    i0, i1, _ = _window(v, interval)
    return max(
        sobolev_norm(v.frames[i], 1.0, homogeneous=True) for i in range(i0, i1 + 1)
    )


def linf_l2(v: Trajectory, interval: Interval = None) -> float:
    """max over the window's frames of ||v(t)||_2; frequency frames by Parseval, with no transform."""
    i0, i1, _ = _window(v, interval)
    return max(lp_norm(fr, 2) if v.domain == PHYSICAL else sobolev_norm(fr, 0.0)
               for fr in v.frames[i0:i1 + 1])


@dataclass
class DivisibilityReport:
    which: str
    lhs: float
    rhs: float
    exponent: float
    subinterval_norms: tuple
    ok: bool


def divisibility_check(
    v: Trajectory,
    breakpoints,
    which: str = "X",
    pol: EpsilonPolicy = EpsilonPolicy(),
    interval: Interval = None,
) -> DivisibilityReport:
    """Check the time-divisibility inequality

        || { ||v||_{X(I_j)} } ||_{l^(4/eps)} <= ||v||_{X(I)}

    for a partition of I at the given interior frame times (same for Y).
    """
    if which not in ("X", "Y"):
        raise ValueError("which must be 'X' or 'Y'")
    norm = x_norm if which == "X" else y_norm
    i0, i1, _ = _window(v, interval)
    ta, tb = v.t0 + i0 * v.dt, v.t0 + i1 * v.dt
    cuts = [ta] + sorted(breakpoints) + [tb]
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            raise ValueError("breakpoints must strictly partition the interval")
    sub = np.array([norm(v, (a, b), pol) for a, b in zip(cuts, cuts[1:])])
    rhs = norm(v, (ta, tb), pol)
    qd = pol.divisibility_exponent
    lhs = _power_mean(sub, np.ones_like(sub), qd)
    return DivisibilityReport(
        which=which,
        lhs=float(lhs),
        rhs=float(rhs),
        exponent=qd,
        subinterval_norms=tuple(float(s) for s in sub),
        ok=bool(lhs <= rhs * (1.0 + 1e-8)),
    )

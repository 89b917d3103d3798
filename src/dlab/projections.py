"""Frequency- and physical-space localization operators.

Unit-scale projections use a tensor-product bump psi(xi) = prod_l phi1(xi_l)
where phi1 is a smooth even 1D profile with supp phi1 in (-1,1), phi1(0) = 1
and an exact integer partition of unity sum_n phi1(x - n) = 1.  A smooth
ball-supported bump cannot satisfy the exact Z^4 partition (the unit cell's
circumradius equals 1), so the tensor construction with supp psi in [-1,1]^4
is used instead; all estimates are insensitive to this choice up to constants.

Dyadic Littlewood-Paley projections use a radial cutoff phi with phi = 1 on
|xi| <= 1 and phi = 0 on |xi| > 2; the directional profile is 1 on [1/8, 4]
and supported in [1/16, 8], which makes the four-fold annihilation identity
(1 - P_{N,e1})...(1 - P_{N,e4}) P_N = 0 hold exactly on the lattice.

All multipliers are sampled at grid frequencies with no symbol mollification,
so the partition identities are exact on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandUnresolvedError
from .grid import (FREQUENCY, Field, SpectralGrid, _box_product, _read_only, _separable, _squared_norm,
                   _support_box, apply_multiplier)

_TINY = np.finfo(float).tiny


def _sigma(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, else 0; the standard smooth cutoff seed."""
    t = np.asarray(t, dtype=float)
    pos = t > 0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1, exact at both ends."""
    t = np.asarray(t, dtype=float)
    a = _sigma(t)
    b = _sigma(1.0 - t)
    return a / (a + b + _TINY * (a + b == 0))


def _bump1d(x: np.ndarray) -> np.ndarray:
    """sigma(1+x) * sigma(1-x): smooth, even, supported in (-1, 1)."""
    return _sigma(1.0 + np.asarray(x, dtype=float)) * _sigma(1.0 - np.asarray(x, dtype=float))


def phi1(x: np.ndarray) -> np.ndarray:
    """1D partition-of-unity profile: phi1(x) = b(x) / sum_n b(x - n).

    Even, smooth, supp in (-1,1), phi1(0) = 1, and sum_n phi1(x - n) = 1
    exactly by construction.
    """
    x = np.asarray(x, dtype=float)
    n0 = np.floor(x)
    den = _bump1d(x - n0) + _bump1d(x - n0 - 1.0)
    return _bump1d(x) / den


def radial_cutoff(r: np.ndarray) -> np.ndarray:
    """phi(|xi|): 1 for r <= 1, 0 for r >= 2, smooth monotone in between."""
    return smoothstep(2.0 - np.asarray(r, dtype=float))


def directional_bump(r: np.ndarray) -> np.ndarray:
    """1D profile for directional projections: 1 on [1/8, 4], supp [1/16, 8]."""
    r = np.asarray(r, dtype=float)
    rise = smoothstep((r - 1.0 / 16.0) / (1.0 / 8.0 - 1.0 / 16.0))
    fall = smoothstep((8.0 - r) / 4.0)
    return rise * fall


@dataclass(frozen=True)
class Band:
    """Frequency band specification.

    kind is one of ``unit`` (k in Z^4), ``dyadic``, ``dyadic_leq``,
    ``dyadic_gt``, ``fattened`` (P_{<=8N} - P_{<=N/8}), ``directional``
    (axis in 1..d).
    """

    kind: str
    N: float | None = None
    k: tuple | None = None
    axis: int | None = None

    _KINDS = ("unit", "dyadic", "dyadic_leq", "dyadic_gt", "fattened", "directional")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown band kind {self.kind!r}")
        if self.kind == "unit":
            if self.k is None:
                raise ValueError("unit band needs a lattice point k")
            object.__setattr__(self, "k", tuple(int(c) for c in self.k))
        else:
            if self.N is None or self.N <= 0:
                raise ValueError("dyadic band needs N > 0")
            j = np.log2(self.N)
            if abs(j - round(j)) > 1e-9:
                raise ValueError(f"N must be a power of two, got {self.N}")
        if self.kind == "directional" and self.axis is None:
            raise ValueError("directional band needs an axis")

    @classmethod
    def unit(cls, k) -> "Band":
        return cls("unit", k=tuple(k))

    @classmethod
    def dyadic(cls, N: float) -> "Band":
        return cls("dyadic", N=N)

    @classmethod
    def leq(cls, N: float) -> "Band":
        return cls("dyadic_leq", N=N)

    @classmethod
    def gt(cls, N: float) -> "Band":
        return cls("dyadic_gt", N=N)

    @classmethod
    def fattened(cls, N: float) -> "Band":
        return cls("fattened", N=N)

    @classmethod
    def directional(cls, N: float, axis: int) -> "Band":
        return cls("directional", N=N, axis=axis)


def resolved_dyadic_range(grid: SpectralGrid) -> tuple:
    """(N_min, N_max) a dyadic band may take on this grid: [dxi, m*dxi/2]."""
    return grid.dxi, grid.m * grid.dxi / 2.0


def check_band_resolved(grid: SpectralGrid, band: Band) -> None:
    if band.kind == "unit":
        return
    lo, hi = resolved_dyadic_range(grid)
    if not (lo - 1e-12 <= band.N <= hi + 1e-12):
        raise BandUnresolvedError(
            f"band N={band.N} outside grid-resolved range [{lo:.4g}, {hi:.4g}]"
        )


def psi_symbol(grid: SpectralGrid, k) -> np.ndarray:
    """psi(xi - k) = prod_l phi1(xi_l - k_l) sampled on the frequency lattice."""
    k = tuple(k)
    if len(k) != grid.d:
        raise ValueError(f"k must have {grid.d} components")
    return _separable(np.multiply, [phi1(grid.xi1d - c) for c in k])


def _radial(coords, profile) -> np.ndarray:
    """profile(|.|) on the product of the 1D per-axis coordinates ``coords``, read-only.

    |.|^2 (``grid._squared_norm``, as for ``grid.xi_squared`` and
    ``grid.x_squared``) is made and profiled one axis-0 slab at a time,
    straight into the output, so the only array of the output's size is the
    output; every element is computed as by the whole-product expression, so
    on a box of the lattice's coordinates it equals the lattice's, bit for bit.
    """
    out = np.empty(tuple(len(c) for c in coords))
    for i in range(len(out)):  # a slice, not an index, so the slab keeps its axis at d = 1
        out[i : i + 1] = profile(np.sqrt(_squared_norm([coords[0][i : i + 1], *coords[1:]])))
    return _read_only(out)


# kind -> (profile(r, N), reach): the profile is exactly 0 wherever r / N >= reach
# (None: nowhere).  Each term is 0 once its radial_cutoff argument, a power-of-two
# multiple of r / N, reaches 2, and every lattice point of a slab xi_l = c has
# r >= sqrt(c^2) in floating point, since adding squares never rounds below a term.
_DYADIC_PROFILES = {
    "dyadic": (lambda r, N: radial_cutoff(r / N) - radial_cutoff(2.0 * r / N), 2.0),
    "dyadic_leq": (lambda r, N: radial_cutoff(r / N), 2.0),
    "dyadic_gt": (lambda r, N: 1.0 - radial_cutoff(r / N), None),
    "fattened": (lambda r, N: radial_cutoff(r / (8.0 * N)) - radial_cutoff(8.0 * r / N), 16.0),
}


def _lattice_box(ranges, m: int) -> tuple | None:
    """Index ranges per axis as ``grid._support_box`` writes a box: a whole axis as
    ``slice(None)``, an empty one as ``slice(0, 0)``, a whole lattice as None."""
    box = tuple(slice(None) if (r.start, r.stop) == (0, m) else slice(r.start, r.stop) if r
                else slice(0, 0) for r in ranges)
    return None if all(sl == slice(None) for sl in box) else box


@lru_cache(maxsize=32)
def band_box_symbol(grid: SpectralGrid, band: Band) -> tuple:
    """``(box, symbol on box)`` of a dyadic-family band, cached: ``box`` is ``grid._support_box``
    of the lattice symbol (None: the whole lattice), the box a transform of data the band
    has just been applied to is pruned to, and the read-only values are the lattice
    symbol's there, bit for bit.

    The profile is evaluated (``_radial``) on the box of the lattice points with
    r / N below the profile's reach, which holds every nonzero, and cut to the
    support box of what it finds there; no array of the lattice's size is made
    unless the box is the lattice.
    """
    check_band_resolved(grid, band)
    if band.kind not in _DYADIC_PROFILES:
        raise ValueError(f"no box symbol for a {band.kind!r} band")
    profile, reach = _DYADIC_PROFILES[band.kind]
    xi = grid.xi1d
    near = slice(None) if reach is None else (_support_box(np.sqrt(xi**2) / band.N < reach) or (slice(None),))[0]
    values = _radial([xi[near]] * grid.d, lambda r: profile(r, band.N))
    inner = _support_box(values) or (slice(None),) * grid.d
    box = _lattice_box([range(grid.m)[near][sl] for sl in inner], grid.m)
    return box, values if values[inner].shape == values.shape else _read_only(values[inner].copy())


@lru_cache(maxsize=32)
def _directional_factor(grid: SpectralGrid, N: float, axis: int) -> np.ndarray:
    """The read-only 1D factor of P_{N,e_axis}, shaped to broadcast against the grid."""
    xl = np.abs(grid.axis_coord(axis, frequency=True))
    return _read_only(directional_bump(xl / N))


@lru_cache(maxsize=32)
def _directional_planes(grid: SpectralGrid, N: float, axis: int) -> tuple:
    """(J, 1 - c[J]), read-only: the centred indices j at which the 1D factor c
    of P_{N,e_axis} is not 1 and the P_N symbol is nonzero somewhere on the
    plane xi_axis = xi_j.  Off these planes P_{N,e_axis} P_N = P_N exactly.
    """
    c = _directional_factor(grid, N, axis).ravel()
    box, sym = band_box_symbol(grid, Band.dyadic(N))
    others = tuple(a for a in range(grid.d) if a != axis - 1)
    reached = np.zeros(grid.m, dtype=bool)
    reached[(box or (slice(None),) * grid.d)[axis - 1]] = np.any(sym != 0.0, axis=others)
    J = np.flatnonzero((c != 1.0) & reached)
    return _read_only(J), _read_only(1.0 - c[J])


def band_symbol(grid: SpectralGrid, band: Band) -> np.ndarray:
    """The multiplier symbol of a band on the grid's frequency lattice, read-only.

    A dyadic-family symbol is assembled on request from its cached box form
    (``band_box_symbol``) and is not kept; a directional symbol depends on one
    axis only and comes as its cached 1D factor shaped to broadcast against
    the grid.
    """
    check_band_resolved(grid, band)
    if band.kind == "unit":
        return psi_symbol(grid, band.k)
    if band.kind == "directional":
        return _directional_factor(grid, band.N, band.axis)
    box, sym = band_box_symbol(grid, band)
    out = np.zeros(grid.shape)
    out[box or ()] = sym
    return _read_only(out)


def band_box(grid: SpectralGrid, band: Band) -> tuple | None:
    """The support box of a dyadic-family band's symbol, read from ``band_box_symbol``."""
    return band_box_symbol(grid, band)[0]


def unit_projection(f: Field, k) -> Field:
    """P_k f with multiplier psi(xi - k); preserves the caller's domain."""
    return apply_multiplier(f, psi_symbol(f.grid, k))


def dyadic_projection(f: Field, band: Band) -> Field:
    """Apply a dyadic-family projection (P_N, P_<=N, P_>N or fattened), multiplying on
    the symbol's box only; a directional band is applied by its 1D factor."""
    if band.kind == "unit":
        raise ValueError("use unit_projection for unit-scale bands")
    if band.kind == "directional":
        return apply_multiplier(f, band_symbol(f.grid, band))
    box, sym = band_box_symbol(f.grid, band)
    out = _box_product(f.in_domain(FREQUENCY).values, sym, box, np.empty(f.grid.shape, dtype=np.complex128))
    return Field(f.grid, FREQUENCY, _read_only(out)).in_domain(f.domain)


def directional_projection(f: Field, N: float, axis: int) -> Field:
    """P_{N,e_axis} f with the 1D multiplier phidir(|xi_axis| / N)."""
    if not 1 <= axis <= f.grid.d:
        raise ValueError(f"axis must be in 1..{f.grid.d}, got {axis}")
    return apply_multiplier(f, band_symbol(f.grid, Band.directional(N, axis)))


def _chi_fattened(r: np.ndarray, j: int) -> np.ndarray:
    # equals 1 on supp chi_j so chi_j = chi_j * fattened chi_j exactly
    outer = radial_cutoff(r / 2.0 ** (j + 2))
    if j == 0:
        return outer
    return outer * (1.0 - radial_cutoff(r / 2.0 ** (j - 3)))


_SPATIAL_PROFILES = {
    "chi": lambda r, j: (radial_cutoff(r) if j == 0
                         else radial_cutoff(r / 2.0**j) - radial_cutoff(r / 2.0 ** (j - 1))),
    "chi_leq": lambda r, j: radial_cutoff(r / 2.0**j),
    "chi_gt": lambda r, j: 1.0 - radial_cutoff(r / 2.0**j),
    "chi_fattened": _chi_fattened,
}


@lru_cache(maxsize=32)
def _spatial_symbol_cached(grid: SpectralGrid, kind: str, j: int) -> np.ndarray:
    if kind not in _SPATIAL_PROFILES:
        raise ValueError(kind)
    return _radial([grid.x1d] * grid.d, lambda r: _SPATIAL_PROFILES[kind](r, j))


def spatial_cutoff(f: Field, kind: str, j: int) -> Field:
    """Pointwise multiplication by a dyadic spatial cutoff.

    kind: ``chi`` (annulus chi_j), ``chi_leq``, ``chi_gt`` or ``chi_fattened``.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if kind not in _SPATIAL_PROFILES:
        raise ValueError(f"unknown spatial cutoff kind {kind!r}")
    phys = f.in_domain("physical")
    out = Field(f.grid, "physical", _read_only(phys.values * _spatial_symbol_cached(f.grid, kind, j)))
    return out.in_domain(f.domain)


def spatial_symbol(grid: SpectralGrid, kind: str, j: int) -> np.ndarray:
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    return _spatial_symbol_cached(grid, kind, j)


@lru_cache(maxsize=8)
def unit_cell_tables(grid: SpectralGrid) -> tuple:
    """Per-axis lookup for the two contributing unit cells at each frequency.

    Returns (n0, w0, w1): integer cell index n0 = floor(xi) and the phi1
    weights of cells n0 and n0 + 1 for every 1D lattice frequency.  At most
    these two translates of phi1 are nonzero at any point.
    """
    xi = grid.xi1d
    n0 = np.floor(xi).astype(int)
    w0 = phi1(xi - n0)
    w1 = phi1(xi - n0 - 1.0)
    return _read_only(n0), _read_only(w0), _read_only(w1)


@lru_cache(maxsize=8)
def cell_matrix(grid: SpectralGrid) -> np.ndarray:
    """The read-only (m, 2K + 1) matrix A[i, k + K] = phi1(xi_i - k), K = ``active_cell_box``.

    Row i holds the weights of the cells floor(xi_i) and floor(xi_i) + 1 from
    ``unit_cell_tables``; every other translate of phi1 vanishes at xi_i.
    """
    n0, w0, w1 = unit_cell_tables(grid)
    K = active_cell_box(grid)
    rows = np.arange(grid.m)
    A = np.zeros((grid.m, 2 * K + 1))
    A[rows, n0 + K] = w0
    A[rows, n0 + 1 + K] = w1
    return _read_only(A)


def active_cell_box(grid: SpectralGrid) -> int:
    """Half-width K of the integer cell box [-K, K]^d that can meet the lattice."""
    return int(np.floor(grid.xi_max)) + 2


def partition_of_unity_residual(grid: SpectralGrid) -> float:
    """max_xi |sum_k psi(xi - k) - 1| over the grid: the row sums of ``cell_matrix``
    multiplied over the axes."""
    total = _separable(np.multiply, [cell_matrix(grid).sum(axis=1)] * grid.d)
    return float(np.max(np.abs(total - 1.0)))


def dyadic_partition_residual(grid: SpectralGrid, bands) -> float:
    """max over annulus-interior lattice points of |sum_N P_N symbol - 1|.

    The telescoping sum over dyadic N in [N_min, N_max] equals 1 exactly for
    N_min <= |xi| <= N_max.
    """
    bands = sorted(bands)
    total = np.zeros(grid.shape)
    for N in bands:
        total += band_symbol(grid, Band.dyadic(N))
    r = np.sqrt(grid.xi_squared)
    inside = (r >= bands[0]) & (r <= bands[-1])
    if not inside.any():
        return 0.0
    return float(np.max(np.abs(total[inside] - 1.0)))


def annihilation_residual(grid: SpectralGrid, N: float) -> float:
    """sup norm of prod_l (1 - P_{N,e_l} symbol) * P_N symbol on the lattice."""
    sym = band_symbol(grid, Band.dyadic(N)).copy()
    for ax in range(1, grid.d + 1):
        sym = sym * (1.0 - band_symbol(grid, Band.directional(N, ax)))
    return float(np.max(np.abs(sym)))

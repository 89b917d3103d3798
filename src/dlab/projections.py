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
from .grid import Field, SpectralGrid, _read_only, apply_multiplier

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
    sym = np.ones(grid.shape)
    for ax in range(1, grid.d + 1):
        sym = sym * phi1(grid.axis_coord(ax, frequency=True) - k[ax - 1])
    return sym


@lru_cache(maxsize=32)
def _dyadic_symbol_cached(grid: SpectralGrid, kind: str, N: float, axis) -> np.ndarray:
    """Read-only symbol; a directional one is its broadcastable 1D factor."""
    if kind == "directional":
        xl = np.abs(grid.axis_coord(axis, frequency=True))
        return _read_only(directional_bump(xl / N))
    r = np.sqrt(grid.xi_squared)
    if kind == "dyadic":
        return _read_only(radial_cutoff(r / N) - radial_cutoff(2.0 * r / N))
    if kind == "dyadic_leq":
        return _read_only(radial_cutoff(r / N))
    if kind == "dyadic_gt":
        return _read_only(1.0 - radial_cutoff(r / N))
    if kind == "fattened":
        return _read_only(radial_cutoff(r / (8.0 * N)) - radial_cutoff(8.0 * r / N))
    raise ValueError(kind)


def band_symbol(grid: SpectralGrid, band: Band) -> np.ndarray:
    """The multiplier symbol of a band on the grid's frequency lattice.

    Dyadic-family symbols are cached and read-only; a directional symbol
    depends on one axis only and comes as a 1D factor shaped to broadcast
    against the grid.
    """
    check_band_resolved(grid, band)
    if band.kind == "unit":
        return psi_symbol(grid, band.k)
    return _dyadic_symbol_cached(grid, band.kind, band.N, band.axis)


def unit_projection(f: Field, k) -> Field:
    """P_k f with multiplier psi(xi - k); preserves the caller's domain."""
    return apply_multiplier(f, psi_symbol(f.grid, k))


def dyadic_projection(f: Field, band: Band) -> Field:
    """Apply a dyadic-family projection (P_N, P_<=N, P_>N or fattened)."""
    if band.kind == "unit":
        raise ValueError("use unit_projection for unit-scale bands")
    return apply_multiplier(f, band_symbol(f.grid, band))


def directional_projection(f: Field, N: float, axis: int) -> Field:
    """P_{N,e_axis} f with the 1D multiplier phidir(|xi_axis| / N)."""
    if not 1 <= axis <= f.grid.d:
        raise ValueError(f"axis must be in 1..{f.grid.d}, got {axis}")
    return apply_multiplier(f, band_symbol(f.grid, Band.directional(N, axis)))


@lru_cache(maxsize=32)
def _spatial_symbol_cached(grid: SpectralGrid, kind: str, j: int) -> np.ndarray:
    r = np.sqrt(grid.x_squared)
    if kind == "chi":
        if j == 0:
            return _read_only(radial_cutoff(r))
        return _read_only(radial_cutoff(r / 2.0**j) - radial_cutoff(r / 2.0 ** (j - 1)))
    if kind == "chi_leq":
        return _read_only(radial_cutoff(r / 2.0**j))
    if kind == "chi_gt":
        return _read_only(1.0 - radial_cutoff(r / 2.0**j))
    if kind == "chi_fattened":
        # equals 1 on supp chi_j so chi_j = chi_j * fattened chi_j exactly
        outer = radial_cutoff(r / 2.0 ** (j + 2))
        if j == 0:
            return _read_only(outer)
        inner = 1.0 - radial_cutoff(r / 2.0 ** (j - 3))
        return _read_only(outer * inner)
    raise ValueError(kind)


def spatial_cutoff(f: Field, kind: str, j: int) -> Field:
    """Pointwise multiplication by a dyadic spatial cutoff.

    kind: ``chi`` (annulus chi_j), ``chi_leq``, ``chi_gt`` or ``chi_fattened``.
    """
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if kind not in ("chi", "chi_leq", "chi_gt", "chi_fattened"):
        raise ValueError(f"unknown spatial cutoff kind {kind!r}")
    phys = f.in_domain("physical")
    out = Field(f.grid, "physical", phys.values * _spatial_symbol_cached(f.grid, kind, j))
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


def active_cell_box(grid: SpectralGrid) -> int:
    """Half-width K of the integer cell box [-K, K]^d that can meet the lattice."""
    return int(np.floor(grid.xi_max)) + 2


def partition_of_unity_residual(grid: SpectralGrid) -> float:
    """max_xi |sum_k psi(xi - k) - 1| over the grid (sum over contributing cells)."""
    total = np.ones(grid.shape)
    for ax in range(1, grid.d + 1):
        n0, w0, w1 = unit_cell_tables(grid)
        shape = [1] * grid.d
        shape[ax - 1] = grid.m
        total = total * (w0 + w1).reshape(shape)
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

"""Unit-scale Gaussian randomization of Schrodinger data, the real symmetric
wave-pair randomization, and radial test-profile generators.

A draw multiplies each unit-cell piece P_k f by an i.i.d. coefficient g_k with
E g = 0 and E |g|^2 = 1.  Coefficients come from a counter-based generator
(Philox) keyed by (seed, draw), so ensembles are reproducible independently of
execution order.  The randomized multiplier sum_k g_k psi(xi - k) is separable
in the cell index, so it is one matrix product per axis of the coefficient
box with the cell matrix A[i, k] = phi1(xi_i - k), instead of a loop over
cells; the masses of all cells are |fhat|^2 contracted with A^2 the same way
(``_cell_masses``, which the active set and ``projected_mass_sum`` read).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NotRealError
from .grid import FREQUENCY, Field, SpectralGrid, _read_only, _separable, apply_multiplier
from .projections import active_cell_box, cell_matrix, smoothstep

COMPLEX_GAUSSIAN = "complex_gaussian"
BERNOULLI = "bernoulli"


@dataclass(frozen=True)
class RandomizationSpec:
    """Seed, coefficient law and (optionally) the finite active cell set.

    active_set, when given, is a collection of integer lattice points k;
    coefficients outside it are zeroed.  When omitted, every cell inside the
    grid-feasible box participates (dead cells contribute nothing anyway).
    """

    seed: int
    law: str = COMPLEX_GAUSSIAN
    active_set: tuple | None = None

    def __post_init__(self):
        if self.law not in (COMPLEX_GAUSSIAN, BERNOULLI):
            raise ValueError(f"unknown law {self.law!r}")
        if self.active_set is not None:
            object.__setattr__(
                self, "active_set", tuple(tuple(int(c) for c in k) for k in self.active_set)
            )


def _philox(seed: int, draw: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), draw & (2**64 - 1)]))


def _draw_box(rng: np.random.Generator, shape: tuple, law: str) -> np.ndarray:
    """Complex coefficient box with E g = 0, E |g|^2 = 1, fixed C-order draw."""
    pair = rng.standard_normal(size=shape + (2,))
    if law == BERNOULLI:
        pair = np.where(pair >= 0.0, 1.0, -1.0)
    return (pair[..., 0] + 1j * pair[..., 1]) / np.sqrt(2.0)


def _active_mask(grid: SpectralGrid, K: int, active_set) -> np.ndarray | None:
    if active_set is None:
        return None
    if len(active_set) == 0:
        raise DegenerateDataError("active set is empty")
    mask = np.zeros((2 * K + 1,) * grid.d)
    mask[_box_index(active_set, K, grid.d)] = 1.0
    return mask


def _box_index(cells, K: int, d: int) -> tuple:
    """Per-axis indices k + K of the cells k in ``cells`` inside [-K, K]^d; each needs d entries."""
    cells = list(cells)
    idx = np.array(cells, dtype=np.int64).reshape(len(cells), d) + K
    return tuple(idx[np.all((idx >= 0) & (idx <= 2 * K), axis=1)].T)


def _mode_products(t: np.ndarray, A: np.ndarray) -> np.ndarray:
    """t x_1 A x_2 A ... x_d A: every axis of t contracted with the columns of A.

    One tensordot per axis (Kolda & Bader, SIAM Rev. 2009); each contracts
    the leading axis and puts the new one last, so the axes keep their order.
    """
    for _ in range(t.ndim):
        t = np.tensordot(t, A, axes=(0, 1))
    return t


def randomize_schrodinger(f: Field, spec: RandomizationSpec, draw: int) -> Field:
    """f^omega = sum_k g_k(omega) P_k f, deterministic in (seed, draw)."""
    g = f.grid
    K = active_cell_box(g)
    rng = _philox(spec.seed, draw)
    gbox = _draw_box(rng, (2 * K + 1,) * g.d, spec.law)
    mask = _active_mask(g, K, spec.active_set)
    if mask is not None:
        gbox = gbox * mask
    return apply_multiplier(f, _mode_products(gbox, cell_matrix(g)))


def _symmetric_box(rng: np.random.Generator, K: int, d: int, law: str) -> np.ndarray:
    """Coefficient box with g_{-k} = conj(g_k) exactly and E |g|^2 = 1.

    Independent real Gaussians live on a lexicographic half-space I with
    Z^d = I + (-I) + {0}; the origin coefficient is real.
    """
    shape = (2 * K + 1,) * d
    pair = rng.standard_normal(size=shape + (2,))
    if law == BERNOULLI:
        pair = np.where(pair >= 0.0, 1.0, -1.0)
    a, b = pair[..., 0], pair[..., 1]
    # C order is lexicographic in k with k = 0 in the middle: +1 on I, -1 on -I
    sign = np.sign(np.arange(a.size) - a.size // 2).reshape(shape)
    g_half = (a + 1j * b) / np.sqrt(2.0)
    rev = (slice(None, None, -1),) * d
    g_reflected = np.conj(g_half[rev])
    g = np.where(sign > 0, g_half, np.where(sign < 0, g_reflected, a.astype(complex)))
    return g


def _require_real(f: Field, label: str) -> None:
    phys = f.in_domain("physical")
    scale = max(1.0, float(np.abs(phys.values).max()))
    if np.abs(phys.values.imag).max() > 1e-12 * scale:
        raise NotRealError(f"{label} must be real-valued")


def _lattice_conjugate_reflection(grid: SpectralGrid, arr: np.ndarray) -> np.ndarray:
    """conj(arr(-xi)) with xi -> -xi taken modulo the lattice (Nyquist fixed)."""
    out = np.conj(arr[(slice(None, None, -1),) * grid.d])
    return np.roll(out, shift=(1,) * grid.d, axis=tuple(range(grid.d)))


def randomize_wave_pair(
    f0: Field, f1: Field, spec: RandomizationSpec, draw: int
) -> tuple:
    """Real-output pair randomization via conjugate-symmetric coefficients.

    The unpaired Nyquist planes of the lattice (index -m/2 has no +m/2
    partner) are the one place the cell construction cannot pair xi with -xi;
    the multiplier is projected onto its conjugate-symmetric part there, which
    leaves every paired mode untouched and keeps the output exactly real.
    """
    _require_real(f0, "f0")
    _require_real(f1, "f1")
    g = f0.grid
    K = active_cell_box(g)
    rng = _philox(spec.seed, draw)
    box0 = _symmetric_box(rng, K, g.d, spec.law)
    box1 = _symmetric_box(rng, K, g.d, spec.law)
    mask = _active_mask(g, K, spec.active_set)
    if mask is not None:
        box0, box1 = box0 * mask, box1 * mask
    out = []
    for f, box in ((f0, box0), (f1, box1)):
        mult = _mode_products(box, cell_matrix(g))
        out.append(apply_multiplier(f, 0.5 * (mult + _lattice_conjugate_reflection(g, mult))))
    return out[0], out[1]


def symmetric_coefficient_box(spec: RandomizationSpec, draw: int, grid: SpectralGrid):
    """The first wave coefficient box of a draw (exposed for symmetry checks)."""
    K = active_cell_box(grid)
    rng = _philox(spec.seed, draw)
    return _symmetric_box(rng, K, grid.d, spec.law), K


def _cell_masses(f: Field) -> tuple:
    """mass[k + K] = sum_xi psi(xi - k)^2 |fhat(xi)|^2 on the cell box [-K, K]^d, K =
    ``active_cell_box``, as mode products with A^2, A = ``cell_matrix``; and sum |fhat|^2."""
    w2 = np.abs(f.in_domain(FREQUENCY).values) ** 2
    return _mode_products(w2, (cell_matrix(f.grid) ** 2).T), float(np.sum(w2))


def compute_active_set(f: Field, rel_threshold: float = 1e-14) -> tuple:
    """Cells k with ||psi(. - k) fhat||_2 above the relative threshold, in lexicographic order.

    Searches the box ||k||_inf <= K = ``active_cell_box`` through ``_cell_masses``.
    """
    mass, total = _cell_masses(f)  # f = 0 keeps no cell: no mass exceeds 0
    K = active_cell_box(f.grid)
    keep = np.argwhere(mass > (rel_threshold**2) * total)
    return tuple(tuple(int(c) - K for c in row) for row in keep)


def projected_mass_sum(f: Field, cells) -> float:
    """sum_k ||P_k f||_2^2 over ``cells`` by Parseval, read off ``_cell_masses``; a cell
    outside the box [-K, K]^d meets no lattice frequency and adds 0."""
    g = f.grid
    mass, _ = _cell_masses(f)
    picked = mass[_box_index(cells, active_cell_box(g), g.d)]
    return float(np.sum(picked)) * (g.dxi / (2.0 * np.pi)) ** g.d


@dataclass(frozen=True)
class RadialProfileSpec:
    """Radial data profile prescribed in frequency space.

    kind ``fourier_powerlaw``: rho(r) = <r>^{-(s + d/2 + ep0)} up to the
    cutoff Xi, which places f marginally in H^s (d/2 = 2 here).
    kind ``gaussian_bump``: rho(r) = exp(-r^2 / (2 width^2)).
    kind ``annulus_bump``: smooth plateau bump supported in [inner, outer].
    """

    kind: str
    target_s: float = 0.5
    ep0: float = 0.1
    cutoff: float = np.inf
    width: float = 1.0
    inner: float = 1.0
    outer: float = 2.0

    def __post_init__(self):
        if self.kind not in ("fourier_powerlaw", "gaussian_bump", "annulus_bump"):
            raise ValueError(f"unknown radial profile kind {self.kind!r}")

    def radial_profile(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "fourier_powerlaw":
            decay = self.target_s + 2.0 + self.ep0
            rho = (1.0 + r * r) ** (-decay / 2.0)
            if np.isfinite(self.cutoff):
                rho = rho * (r <= self.cutoff)
            return rho
        if self.kind == "gaussian_bump":
            return np.exp(-(r * r) / (2.0 * self.width**2))
        w = max((self.outer - self.inner) / 4.0, 1e-12)
        return smoothstep((r - self.inner) / w) * smoothstep((self.outer - r) / w)


def make_radial_data(spec: RadialProfileSpec, grid: SpectralGrid) -> Field:
    """Field with fhat(xi) = rho(|xi|), returned in the frequency domain."""
    r = np.sqrt(grid.xi_squared)
    return Field(grid, FREQUENCY, _read_only(spec.radial_profile(r).astype(np.complex128)))


def radial_symmetry_residual(f: Field) -> float:
    """Max over lattice orbits {|xi| = const} of the spread of fhat, relative
    to the largest coefficient magnitude."""
    g = f.grid
    fh = f.in_domain(FREQUENCY)
    n2 = _separable(np.add, [(np.arange(g.m, dtype=np.int64) - g.m // 2) ** 2] * g.d)
    vals = fh.values.ravel()
    orbits = n2.ravel()
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return 0.0
    order = np.argsort(orbits, kind="stable")
    sorted_orbits = orbits[order]
    sorted_vals = vals[order]
    boundaries = np.flatnonzero(np.diff(sorted_orbits)) + 1
    worst = 0.0
    for chunk in np.split(sorted_vals, boundaries):
        if len(chunk) > 1:
            worst = max(worst, float(np.abs(chunk - chunk[0]).max()))
    return worst / scale

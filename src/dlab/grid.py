"""Periodic-box discretization of R^d and the continuum-consistent spectral transform.

The box is centered at the origin: physical nodes x in dx*{-m/2, ..., m/2-1}
per axis and frequency nodes xi in dxi*{-m/2, ..., m/2-1} with dxi = 2*pi/L.
The forward transform uses the Riemann-sum normalization

    fhat(xi) = dx^d * sum_x f(x) exp(-i xi.x)

so that discrete norms converge to their continuum counterparts as m grows at
fixed L.  The inverse carries the matching (dxi/(2*pi))^d weight, making the
pair mutually inverse on the lattice.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainMismatchError,
    InvalidExponentError,
    SnapshotFormatError,
)

PHYSICAL = "physical"
FREQUENCY = "frequency"

_SNAPSHOT_MAGIC = b"DLAB"
_SNAPSHOT_VERSION = 1
# magic 4s | version u32 | d u32 | m u32 | L f64 | 8 reserved bytes = 32 bytes
_HEADER = struct.Struct("<4s3Id8x")


@dataclass(frozen=True)
class SpectralGrid:
    """Geometry of the periodic box and its frequency lattice.

    Parameters
    ----------
    m : int
        Points per axis; must be a power of two, at least 8.
    L : float
        Physical side length of the box.
    d : int
        Spatial dimension.  The space-time norm machinery assumes d = 4;
        the transform itself is dimension-generic.
    """

    m: int
    L: float
    d: int = 4

    def __post_init__(self):
        if self.m < 8 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"m must be a power of two >= 8, got {self.m}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def dx(self) -> float:
        return self.L / self.m

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.d

    @property
    def size(self) -> int:
        return self.m**self.d

    # The cached coordinate arrays below are read-only: every user of the
    # grid instance shares them.

    @cached_property
    def x1d(self) -> np.ndarray:
        """Physical coordinates along one axis (centered)."""
        return _read_only(self.dx * (np.arange(self.m) - self.m // 2))

    @cached_property
    def xi1d(self) -> np.ndarray:
        """Frequency coordinates along one axis (centered)."""
        return _read_only(self.dxi * (np.arange(self.m) - self.m // 2))

    @cached_property
    def xi1d_fft(self) -> np.ndarray:
        """``xi1d`` in FFT order: index 0 is xi = 0, index m/2 the Nyquist -m*dxi/2."""
        k = np.arange(self.m)
        k[self.m // 2 :] -= self.m
        return _read_only(self.dxi * k)

    def axis_coord(self, axis: int, frequency: bool = False) -> np.ndarray:
        """Coordinate array broadcastable along a given axis (1-based)."""
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis must be in 1..{self.d}, got {axis}")
        return broadcast_along(self.xi1d if frequency else self.x1d, axis - 1, self.d)

    @cached_property
    def x_squared(self) -> np.ndarray:
        """|x|^2 on the physical lattice."""
        out = np.zeros(self.shape)
        for ax in range(1, self.d + 1):
            out = out + self.axis_coord(ax) ** 2
        return _read_only(out)

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the frequency lattice."""
        out = np.zeros(self.shape)
        for ax in range(1, self.d + 1):
            out = out + self.axis_coord(ax, frequency=True) ** 2
        return _read_only(out)

    @property
    def xi_max(self) -> float:
        """Largest per-axis frequency magnitude resolved by the lattice."""
        return self.dxi * (self.m // 2)


@dataclass(frozen=True)
class Field:
    """One complex scalar function on the grid, tagged with its domain.

    Immutable value object: ``values`` is a read-only C-contiguous complex
    array of shape ``grid.shape`` (row-major, x1 slowest).
    """

    grid: SpectralGrid
    domain: str
    values: np.ndarray

    def __post_init__(self):
        if self.domain not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        arr = np.ascontiguousarray(self.values, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            if arr.size == self.grid.size:
                arr = arr.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values size {arr.size} != grid size {self.grid.size}"
                )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def physical(cls, grid: SpectralGrid, values: np.ndarray) -> "Field":
        return cls(grid, PHYSICAL, values)

    @classmethod
    def frequency(cls, grid: SpectralGrid, values: np.ndarray) -> "Field":
        return cls(grid, FREQUENCY, values)

    @classmethod
    def zero(cls, grid: SpectralGrid, domain: str = PHYSICAL) -> "Field":
        return cls(grid, domain, np.zeros(grid.shape, dtype=np.complex128))

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, self.domain, values)

    def in_domain(self, domain: str) -> "Field":
        """Return this field transformed (if needed) into the given domain."""
        if self.domain == domain:
            return self
        if domain == FREQUENCY:
            return to_frequency(self)
        return to_physical(self)

    def __add__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.grid, self.domain, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.grid, self.domain, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.domain, self.values * scalar)

    __rmul__ = __mul__


def _check_compatible(a: Field, b: Field):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.domain != b.domain:
        raise DomainMismatchError(f"domains differ: {a.domain} vs {b.domain}")


def to_frequency(f: Field) -> Field:
    """Forward transform with Riemann-sum normalization dx^d * sum."""
    if f.domain != PHYSICAL:
        raise DomainMismatchError("to_frequency expects a physical-domain field")
    g = f.grid
    vals = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    return Field(g, FREQUENCY, vals * g.dx**g.d)


def to_physical(f: Field) -> Field:
    """Inverse transform; mutually inverse with :func:`to_frequency`."""
    if f.domain != FREQUENCY:
        raise DomainMismatchError("to_physical expects a frequency-domain field")
    g = f.grid
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(f.values)))
    return Field(g, PHYSICAL, vals / g.dx**g.d)


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Apply a Fourier multiplier, returning the field in the caller's domain."""
    fh = f.in_domain(FREQUENCY)
    out = Field(f.grid, FREQUENCY, fh.values * symbol)
    return out.in_domain(f.domain)


def lp_norm(f: Field, r: float) -> float:
    """Discrete L^r norm (dx^d sum |f|^r)^(1/r); r = inf gives max |f|."""
    if f.domain != PHYSICAL:
        raise DomainMismatchError("lp_norm expects a physical-domain field")
    if r < 1:
        raise InvalidExponentError(f"exponent must satisfy r >= 1, got {r}")
    a = np.abs(f.values)
    if np.isinf(r):
        return float(a.max())
    g = f.grid
    peak = a.max()
    if peak == 0.0:
        return 0.0
    # scale out the peak before powering to avoid overflow at large r
    return float(peak * (g.dx**g.d * np.sum((a / peak) ** r)) ** (1.0 / r))


@dataclass(frozen=True)
class Weight:
    """Spatial weight: ``powerlaw`` |x|^alpha or ``japanese`` <x>^alpha."""

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in ("powerlaw", "japanese"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def evaluate(self, grid: SpectralGrid) -> np.ndarray:
        r2 = grid.x_squared
        if self.kind == "powerlaw":
            return r2 ** (self.alpha / 2.0)
        return (1.0 + r2) ** (self.alpha / 2.0)


def weighted_lp_norm(f: Field, w: Weight, r: float) -> float:
    """lp_norm of w(x) * f(x)."""
    if f.domain != PHYSICAL:
        raise DomainMismatchError("weighted_lp_norm expects a physical-domain field")
    weighted = Field(f.grid, PHYSICAL, f.values * w.evaluate(f.grid))
    return lp_norm(weighted, r)


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm via the frequency lattice."""
    g = f.grid
    fh = f.in_domain(FREQUENCY)
    k2 = g.xi_squared
    mult = k2**s if homogeneous else (1.0 + k2) ** s
    total = (g.dxi / (2.0 * np.pi)) ** g.d * np.sum(mult * np.abs(fh.values) ** 2)
    return float(np.sqrt(total))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def broadcast_along(vec: np.ndarray, axis: int, d: int) -> np.ndarray:
    """View of a 1D array that broadcasts along array axis ``axis`` (0-based) of a d-array."""
    shape = [1] * d
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def _spectral_gradient(f: Field) -> tuple:
    """Forward spectrum of a field and its partial derivatives, with no centering shift.

    Returns ``(fh, partial)``: ``fh`` is ``fftn`` of the centred physical
    values (FFT order, no dx^d factor) and ``partial(ax, out=None)`` writes
    d_{ax+1} f on the centred physical lattice into ``out`` (a new array when
    None) with one ``ifftn``, so a caller that reduces the derivatives one at a
    time holds a single derivative buffer.  A centred frame is a periodic
    sample whose index origin only multiplies its spectrum by a phase, which
    commutes with every Fourier multiplier, so the derivatives are
    ``ifftn(i xi_fft * fftn(u))`` on the centred array itself.  A
    frequency-domain input is uncentred once and given that phase, (-1)^(k_1 +
    ... + k_d), explicitly.
    """
    g = f.grid
    if f.domain == PHYSICAL:
        fh = np.fft.fftn(f.values, out=np.empty_like(f.values))
    else:
        fh = np.fft.ifftshift(f.values)
        fh *= g.dx ** (-g.d)
        for ax in range(g.d):
            fh[(slice(None),) * ax + (slice(1, None, 2),)] *= -1.0
    dfac = 1j * g.xi1d_fft
    dfac[g.m // 2] = 0.0

    def partial(ax: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(fh, broadcast_along(dfac, ax, g.d), out=out)
        return np.fft.ifftn(out, out=out)

    return fh, partial


def gradient_fields(f: Field) -> list:
    """Spectral partial derivatives [d_1 f, ..., d_d f] in the physical domain.

    The unpaired Nyquist mode's derivative multiplier is zeroed (standard
    convention: FFT index m/2, centred index 0) so differentiation maps real
    fields to real fields exactly.
    """
    _, partial = _spectral_gradient(f)
    return [Field(f.grid, PHYSICAL, partial(ax)) for ax in range(f.grid.d)]


def gradient_magnitude(f: Field) -> np.ndarray:
    """Pointwise |grad f| on the physical lattice."""
    _, partial = _spectral_gradient(f)
    part = np.empty(f.grid.shape, dtype=np.complex128)
    acc = np.zeros(f.grid.shape)
    for ax in range(f.grid.d):
        acc += np.abs(partial(ax, part)) ** 2
    return np.sqrt(acc)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled time sequence of fields on one grid."""

    grid: SpectralGrid
    t0: float
    dt: float
    frames: tuple

    def __post_init__(self):
        if not self.frames:
            raise ValueError("trajectory needs at least one frame")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        dom = self.frames[0].domain
        for fr in self.frames:
            if fr.grid != self.grid:
                raise ValueError("all frames must share the trajectory grid")
            if fr.domain != dom:
                raise DomainMismatchError("all frames must share one domain tag")
        object.__setattr__(self, "frames", tuple(self.frames))

    @property
    def domain(self) -> str:
        return self.frames[0].domain

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.frames))

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (len(self.frames) - 1)

    def frame_index(self, t: float) -> int:
        idx = (t - self.t0) / self.dt
        i = int(round(idx))
        if abs(idx - i) > 1e-9 or not 0 <= i < len(self.frames):
            raise ValueError(f"time {t} is not a frame time of this trajectory")
        return i

    def map_frames(self, func) -> "Trajectory":
        return Trajectory(self.grid, self.t0, self.dt, tuple(func(fr) for fr in self.frames))


def write_snapshot(field: Field, path) -> None:
    """Write the binary snapshot: 32-byte header + little-endian complex128 data."""
    phys = field.in_domain(PHYSICAL)
    g = field.grid
    header = _HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, g.d, g.m, g.L)
    data = np.ascontiguousarray(phys.values).astype("<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def read_snapshot(path) -> Field:
    """Read a binary snapshot back into a physical-domain field."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise SnapshotFormatError("truncated header")
        magic, version, d, m, L = _HEADER.unpack(raw)
        if magic != _SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}")
        if version != _SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"unsupported version {version}")
        grid = SpectralGrid(m=m, L=L, d=d)
        data = fh.read()
    expected = grid.size * 16
    if len(data) != expected:
        raise SnapshotFormatError(f"payload {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<c16").astype(np.complex128)
    return Field.physical(grid, values.reshape(grid.shape))


def random_field(
    grid: SpectralGrid, seed: int, domain: str = PHYSICAL, band_limit: float | None = None
) -> Field:
    """Reproducible complex Gaussian test field, optionally band-limited."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, domain, vals)
    if band_limit is not None:
        mask = grid.xi_squared <= band_limit**2
        fh = f.in_domain(FREQUENCY)
        f = Field(grid, FREQUENCY, fh.values * mask).in_domain(domain)
    return f


def parse_grid_flag(text: str, d: int = 4) -> SpectralGrid:
    """Parse the CLI ``--grid m,L`` flag."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("--grid expects 'm,L'")
    return SpectralGrid(m=int(parts[0]), L=float(parts[1]), d=d)

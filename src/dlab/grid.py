"""Periodic-box discretization of R^d and the continuum-consistent spectral transform.

The box is centered at the origin: physical nodes x in dx*{-m/2, ..., m/2-1}
per axis and frequency nodes xi in dxi*{-m/2, ..., m/2-1} with dxi = 2*pi/L.
The forward transform uses the Riemann-sum normalization

    fhat(xi) = dx^d * sum_x f(x) exp(-i xi.x)

so that discrete norms converge to their continuum counterparts as m grows at
fixed L.  The inverse carries the matching (dxi/(2*pi))^d weight, making the
pair mutually inverse on the lattice.

No transform rolls its array: with the checkerboard S = (-1)^(n_1+...+n_d)
and m/2 even (SpectralGrid's power-of-two m >= 8 guarantees it), a roll by
m/2 is the phase S on the other side of the transform, so bit for bit

    fftshift(fftn(ifftshift(x))) = S * fftn(S * x)  (likewise ifftn),
    fftshift(fftn(x)) = fftn(S * x).

Every transform in the package goes through ``_fft``; no other module calls
numpy's fft.  Separable lattice arrays (|x|^2, |xi|^2, tensor-product
symbols, the dealias mask) are left folds of 1D per-axis factors, ``_separable``.

A multiplier that acts on one axis only (a derivative d_l, a per-axis factor
of exp(-i t |xi|^2) or of the dealias mask) is the m x m circulant matrix of
its 1D symbol, a spectral differentiation matrix in Trefethen's sense
(*Spectral Methods in MATLAB*, ch. 3).  ``_circulant`` builds that matrix
once, through ``_fft``, and ``_axis_product`` applies it along one axis with
a single matrix product: no transform runs.  Circulance makes the centred
index origin irrelevant, so the centred physical lattice needs no shift.

A caller whose input is zero outside a box of indices (a band, a unit cell
or a spatial cutoff was just applied) may pass that box to ``_fft``;
``_support_box`` reads it off the multiplier.  ``_fft`` then prunes the
transform (Markel, "FFT pruning", 1971): it runs numpy's one-axis passes
itself, in ``fftn``'s order (the last axis first), each over only the lines
whose not-yet-transformed indices lie in the box.  Every other line is zero
before its pass and stays zero, and every line it does transform holds the
same numbers in the same order as under ``fftn``, so the result equals the
unpruned one bit for bit (up to the sign of zeros).

A ``Trajectory`` is ``n_frames`` fields on one grid and one domain tag for all
of them, read through a frame source: a function that writes frame j's values
into a given buffer, or returns them (a new array, or a read-only one) when
given None.  Reading frame j calls it, and the trajectory keeps that one frame (a
memo) until another frame is read; the old frame is dropped before the new
one is made.  So a reader of frame j of a trajectory built on this one
(``splitstep_forced``'s v_j = u_j - F_j), then of frame j here, makes it once.
``in_domain`` and ``map_frames`` are sources again, each transforming or
mapping a frame when it is read; they read their parent's frames past its
memo.

``values``, the read-only C-contiguous complex128 stack of shape
``(n_frames, *grid.shape)``, is the trajectory's cache: on first use it is
filled row by row from the source and kept, and from then on the source is
``j -> values[j]``, so frames are ``Field`` views of its rows.  Writing through
a view or through ``values`` raises.  ``from_values`` takes over a stack a
producer built and sets it as the cache; the public constructor copies a
sequence of fields through the same fill.  ``frames`` is a read-only
``Sequence``; a slice of it is one too.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (DLabError, DomainMismatchError, FlagError, InvalidExponentError, ParameterRangeError,
                     SnapshotFormatError)

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
        return _read_only(_squared_norm([self.x1d] * self.d))

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the frequency lattice."""
        return _read_only(_squared_norm([self.xi1d] * self.d))

    @cached_property
    def _derivative_matrix(self) -> tuple:
        """d/dx along one axis as a ``_real_matrix``: i xi, Nyquist entry zeroed (``_circulant``)."""
        dfac = 1j * self.xi1d_fft
        dfac[self.m // 2] = 0.0
        return _real_matrix(np.ascontiguousarray(_circulant(dfac).real))

    @cached_property
    def _alternating_row(self) -> tuple:
        """The 1 x m row of (-1)^n, whose product along an axis is the 1D Nyquist coefficient."""
        return _real_matrix(np.where(np.arange(self.m) % 2, -1.0, 1.0)[None, :])

    @property
    def xi_max(self) -> float:
        """Largest per-axis frequency magnitude resolved by the lattice."""
        return self.dxi * (self.m // 2)


@dataclass(frozen=True)
class Field:
    """One complex scalar function on the grid, tagged with its domain.

    Immutable value object: ``values`` is a read-only C-contiguous complex array of
    shape ``grid.shape`` (row-major, x1 slowest), copied from a writable input and
    adopted from a read-only one (a trajectory row, or a fresh array made read-only).
    """

    grid: SpectralGrid
    domain: str
    values: np.ndarray

    def __post_init__(self):
        if self.domain not in (PHYSICAL, FREQUENCY):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        writable = not isinstance(self.values, np.ndarray) or self.values.flags.writeable
        arr = np.array(self.values, dtype=np.complex128, order="C", copy=True if writable else None)
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
        return cls(grid, domain, _read_only(np.zeros(grid.shape, dtype=np.complex128)))

    def in_domain(self, domain: str) -> "Field":
        """Return this field transformed (if needed) into the given domain."""
        if self.domain == domain:
            return self
        if domain == FREQUENCY:
            return to_frequency(self)
        return to_physical(self)

    def __add__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.grid, self.domain, _read_only(self.values + other.values))

    def __sub__(self, other: "Field") -> "Field":
        _check_compatible(self, other)
        return Field(self.grid, self.domain, _read_only(self.values - other.values))

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.domain, _read_only(self.values * scalar))

    __rmul__ = __mul__


def _check_compatible(a: Field, b: Field):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    if a.domain != b.domain:
        raise DomainMismatchError(f"domains differ: {a.domain} vs {b.domain}")


def _checkerboard(values: np.ndarray, out: np.ndarray, d: int, box: tuple | None = None,
                  factor: float = 1.0, op=np.multiply) -> np.ndarray:
    """``out[..., box] = op(values, factor * S)`` in one pass (box None: all of ``out``), with
    S = (-1)^(n_1+...+n_d) on the lattice indices of the box over the last ``d`` axes.  S is a
    read-only strided view of one 1D array whose element k is the sign of every node whose
    indices in the box sum to k: at most d m numbers, never an array of S's size."""
    box, lead = box or (slice(None),) * d, values.ndim - d
    shape, lo = values.shape[lead:], sum(sl.indices(n)[0] for sl, n in zip(box, out.shape[lead:]))
    alt = factor * (1.0 - 2.0 * ((lo + np.arange(sum(shape) - d + 1)) % 2))
    alt = alt.astype(np.result_type(values, alt))  # cast once, not chunk by chunk inside the ufunc
    op(values, as_strided(alt, shape, (alt.itemsize,) * d, writeable=False), out=out[(Ellipsis,) + box])
    return out


def _fft(values: np.ndarray, inverse: bool = False, axes=None, *, sign_in: bool = False,
         sign_out: bool = False, scale: float = 1.0, out: np.ndarray | None = None,
         box: tuple | None = None) -> np.ndarray:
    """fftn (ifftn when ``inverse``) of ``values`` over ``axes`` (default all), in ``out``.

    ``out`` is new when None; ``out=values`` works in place.  When
    ``sign_in``, one pass writes S * values into ``out`` (``_checkerboard``
    over the trailing len(axes) axes, the transform axes) and the transform
    runs there in place.  One last pass applies S when ``sign_out`` and the
    scale, which the forward transform multiplies by and the inverse divides
    by (both signs: the centred pair).

    ``box`` holds one index slice per transform axis, outside which
    ``values`` must be zero.  The transform then runs in ``out`` as one
    ``fft``/``ifft`` call per axis, in ``fftn``'s order, each over the lines
    whose indices on the axes still to come lie in the box; the lines it
    skips are zero and stay so.  Each line it computes is the line ``fftn``
    computes, so the result is the same bit for bit (module docstring).
    """
    if axes is None:
        axes = tuple(range(values.ndim))
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    if sign_in:
        values = _checkerboard(values, out, len(axes))
    if box is None:
        (np.fft.ifftn if inverse else np.fft.fftn)(values, axes=axes, out=out)
    else:
        if values is not out:
            out[...] = values
        index = [slice(None)] * out.ndim
        for ax, sl in zip(axes, box):
            index[ax] = sl
        for ax in reversed(axes):
            index[ax] = slice(None)
            lines = out[tuple(index)]
            (np.fft.ifft if inverse else np.fft.fft)(lines, axis=ax, out=lines)
    if sign_out:
        _checkerboard(out, out, len(axes), factor=scale, op=np.divide if inverse else np.multiply)
    elif scale != 1.0:
        (np.divide if inverse else np.multiply)(out, scale, out=out)
    return out


def _support_box(symbol: np.ndarray) -> tuple | None:
    """The box of a multiplier's nonzeros, as ``_fft`` takes it; None when that is the whole array.

    Per axis of ``symbol``, the slice from the first to the last index whose
    plane holds a nonzero.  An axis of length one (a factor that broadcasts)
    gets the whole axis.
    """
    nonzero = np.asarray(symbol) != 0
    box = []
    for ax, n in enumerate(nonzero.shape):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(nonzero.ndim) if a != ax)))
        lo, hi = (int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0)
        box.append(slice(None) if (lo, hi) == (0, n) else slice(lo, hi))
    return None if all(sl == slice(None) for sl in box) else tuple(box)


def _box_product(values: np.ndarray, symbol: np.ndarray, box: tuple | None, out: np.ndarray) -> np.ndarray:
    """``values`` times ``symbol`` on ``box`` and 0 elsewhere, in ``out`` (which may be ``values``).

    ``box`` holds one slice per trailing axis of ``values`` (None: every index),
    and ``symbol`` is the multiplier on it; leading axes (the frames of a
    stack) are kept whole.  Where the multiplier is 0 off the box, this is the
    whole-lattice product up to the sign of its zeros.
    """
    lead = (slice(None),) * (values.ndim - symbol.ndim)
    np.multiply(values[lead + (box or ())], symbol, out=out[lead + (box or ())])
    for k, sl in enumerate(box or ()):
        lo, hi, _ = sl.indices(out.shape[len(lead) + k])
        before = lead + (slice(None),) * k
        out[before + (slice(None, lo),)] = 0.0
        out[before + (slice(hi, None),)] = 0.0
    return out


def _centred_transform(values: np.ndarray, grid: SpectralGrid, domain: str,
                       out: np.ndarray | None = None, box: tuple | None = None) -> np.ndarray:
    """The centred transform into ``domain`` over the last ``grid.d`` axes of ``values``.

    Every leading index (a frame of a stack) is transformed on its own;
    ``out=values`` converts in place.  ``box``, one slice per spatial axis,
    prunes the transform of an input that is zero outside it (``_fft``).
    """
    axes = tuple(range(values.ndim - grid.d, values.ndim))
    return _fft(values, domain == PHYSICAL, axes, sign_in=True, sign_out=True,
                scale=grid.dx**grid.d, out=out, box=box)


def to_frequency(f: Field) -> Field:
    """Forward transform with Riemann-sum normalization dx^d * sum."""
    if f.domain != PHYSICAL:
        raise DomainMismatchError("to_frequency expects a physical-domain field")
    return Field(f.grid, FREQUENCY, _read_only(_centred_transform(f.values, f.grid, FREQUENCY)))


def to_physical(f: Field) -> Field:
    """Inverse transform; mutually inverse with :func:`to_frequency`."""
    if f.domain != FREQUENCY:
        raise DomainMismatchError("to_physical expects a frequency-domain field")
    return Field(f.grid, PHYSICAL, _read_only(_centred_transform(f.values, f.grid, PHYSICAL)))


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    """Apply a Fourier multiplier, returning the field in the caller's domain."""
    fh = f.in_domain(FREQUENCY)
    out = Field(f.grid, FREQUENCY, _read_only(fh.values * symbol))
    return out.in_domain(f.domain)


def lp_norm(f: Field, r: float) -> float:
    """Discrete L^r norm (dx^d sum |f|^r)^(1/r); r = inf gives max |f|."""
    if f.domain != PHYSICAL:
        raise DomainMismatchError("lp_norm expects a physical-domain field")
    if r < 1:
        raise InvalidExponentError(f"exponent must satisfy r >= 1, got {r}")
    return _power_means(f.values, f.grid.dx**f.grid.d, (r,), modulus=True)[0]


# the values a power mean takes at a time: a larger array goes in pieces of this many
_CHUNK_POINTS = 2**16


class _PowerSum:
    """W = sum_j w_j (s_j / P)^q over the nonnegative arrays s_j added so far under their running
    peak P, every term below ``floor`` taken as 0; at q = inf, their max.  The one power-mean
    kernel: no term exceeds 1, and a piece that raises P from P' first scales W by (P' / P)^q, the
    online softmax rescaling (arXiv:1805.02867).  W is elementwise (``norms``' lateral sums)
    unless ``total``, which sums each piece's terms (a power mean)."""

    def __init__(self, q: float, floor: float = 0.0, total: bool = False):
        self.q, self.c, self.total, self.peak, self.W = q, floor ** (1.0 / q), total, 0.0, 0.0

    def add(self, wt, s: np.ndarray, out: np.ndarray | None = None) -> None:
        """Add the terms of ``s`` weighted by ``wt``, powered in ``out`` (new when None; may be ``s``)."""
        if np.isinf(self.q):
            self.W = max(self.W, s.max(initial=0.0)) if self.total else np.maximum(self.W, s)
            return
        top = s.max(initial=0.0)
        if top == 0.0:  # every term is 0
            return
        if top > self.peak:
            self.W *= (self.peak / top) ** self.q
            self.peak = top
        t = np.divide(np.broadcast_to(s, np.broadcast_shapes(s.shape, np.shape(wt))), self.peak, out=out)
        clamp = self.c > 0.0 and t.min() < self.c
        if clamp:
            keep = t >= self.c
            np.maximum(t, self.c, out=t)
        t **= self.q
        if clamp:
            t *= keep
        t *= wt
        self.W += np.sum(t) if self.total else t


def _power_mean(values: np.ndarray, weights, q: float) -> float:
    """(sum_j w_j values_j^q)^(1/q) of nonnegative values; q = inf gives the max."""
    return _power_means(np.asarray(values, dtype=float), weights, (q,))[0]


def _power_means(values: np.ndarray, weights, qs, modulus: bool = False) -> list:
    """The power mean of ``values`` (of |values| when ``modulus``) at each exponent of ``qs``.
    Values that are not moduli, and are at most one chunk or have weights that are not a scalar,
    are one ``_PowerSum`` piece.  Otherwise the flat values are read once, a chunk at a time, each
    modulus formed in one reused buffer and each piece powered in another (the same one for a
    single exponent), so no temporary is larger than a chunk."""
    accs = [_PowerSum(q, total=True) for q in qs]
    if not modulus and (values.size <= _CHUNK_POINTS or np.ndim(weights)):
        for acc in accs:
            acc.add(weights, values)
    else:
        flat = values.reshape(-1)
        work = np.empty(min(flat.size, _CHUNK_POINTS))
        mod = work if len(qs) == 1 or not modulus else np.empty_like(work)
        for lo in range(0, flat.size, _CHUNK_POINTS):
            piece = flat[lo:lo + _CHUNK_POINTS]
            piece = np.abs(piece, out=mod[:piece.size]) if modulus else piece
            for acc in accs:
                acc.add(weights, piece, out=work[:piece.size])
    return [float(a.W if np.isinf(a.q) else a.peak * a.W ** (1.0 / a.q)) for a in accs]


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
    weighted = Field(f.grid, PHYSICAL, _read_only(f.values * w.evaluate(f.grid)))
    return lp_norm(weighted, r)


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm via the frequency lattice."""
    g = f.grid
    dens = np.abs(f.in_domain(FREQUENCY).values) ** 2
    if s != 0:  # s = 0 is the L^2 norm (Parseval): the multiplier is 1
        k2 = g.xi_squared
        dens *= k2**s if homogeneous else (1.0 + k2) ** s
    return float(np.sqrt((g.dxi / (2.0 * np.pi)) ** g.d * np.sum(dens)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def trapezoid_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid-rule weights of n frames dt apart; a single frame spans no time."""
    w = np.full(n, dt if n > 1 else 0.0)
    w[0] = w[-1] = 0.5 * w[0]
    return w


def broadcast_along(vec: np.ndarray, axis: int, d: int) -> np.ndarray:
    """View of a 1D array that broadcasts along array axis ``axis`` (0-based) of a d-array."""
    shape = [1] * d
    shape[axis] = vec.shape[0]
    return vec.reshape(shape)


def _separable(op, factors) -> np.ndarray:
    """op(...op(op(f_0, f_1), f_2)..., f_{d-1}) with the 1D factor f_l broadcast along axis l."""
    return reduce(op, (broadcast_along(f, ax, len(factors)) for ax, f in enumerate(factors)))


def _squared_norm(coords) -> np.ndarray:
    """|.|^2 on the product of the 1D per-axis coordinates ``coords``: the left fold of their squares.

    The |x|^2 and |xi|^2 lattices and their boxes and slabs are all formed
    here, so a box or a slab agrees with the whole lattice bit for bit.
    """
    return _separable(np.add, [c**2 for c in coords])


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """The m x m matrix of the 1D FFT-order multiplier ``symbol``: ifft(symbol * fft(v)) = M @ v."""
    m = len(symbol)
    return _fft(symbol[:, None] * _fft(np.eye(m, dtype=np.complex128), axes=(0,)),
                inverse=True, axes=(0,))


def _real_matrix(matrix: np.ndarray) -> tuple:
    """A real matrix and its last-axis form ``kron(matrix.T, I2)``, read-only, for ``_axis_product``."""
    return _read_only(matrix), _read_only(np.kron(matrix.T, np.eye(2)))


def _axis_product(values: np.ndarray, matrix, axis: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``matrix`` (k x m) applied along ``axis`` of the C-contiguous complex ``values``, in ``out``.

    ``out[..., i, ...] = sum_j matrix[i, j] values[..., j, ...]``, with ``out``
    of ``values``' shape but k along ``axis`` (new when None, never
    ``values``), as one ``np.matmul``.  A real matrix acts on the float64
    view of both arrays, where a complex number is two adjacent floats: along
    the last axis that is ``kron(matrix.T, I2)`` on the right (cached in a ``_real_matrix`` pair).
    """
    matrix, right = matrix if isinstance(matrix, tuple) else (matrix, None)
    k, m = matrix.shape
    pre, post = math.prod(values.shape[:axis]), math.prod(values.shape[axis + 1:])
    if out is None:
        out = np.empty(values.shape[:axis] + (k,) + values.shape[axis + 1:], dtype=np.complex128)
    if np.iscomplexobj(matrix):
        a, b, pair = values, out, 1
    else:
        a, b, pair = values.view(np.float64), out.view(np.float64), 2
    if post == 1:
        if right is None:
            right = matrix.T if pair == 1 else np.kron(matrix.T, np.eye(2))
        np.matmul(a.reshape(pre, pair * m), right, out=b.reshape(pre, pair * k))
    else:
        np.matmul(matrix, a.reshape(pre, m, pair * post), out=b.reshape(pre, k, pair * post))
    return out


def _spectral_gradient(f: Field) -> tuple:
    """Partial derivatives of a field, one axis at a time, with no transform.

    Returns ``(partial, nyquist)``.  ``partial(ax, out=None, rows=None)``
    writes d_{ax+1} f on the centred physical lattice into ``out`` (new when
    None) as one ``_axis_product`` along axis ``ax``: the real circulant
    matrix of i xi with the unpaired Nyquist entry zeroed (``SpectralGrid``'s
    cached ``_derivative_matrix``).  It also adds to ``nyquist[ax]`` the sum
    of |1D spectrum|^2 over the plane k_ax = m/2, which that matrix drops:
    the 1D Nyquist coefficient is the alternating-sign sum along the axis, one
    more product.  So the full-|xi|^2 Hdot^1 norm is
    ``dx^d (sum |grad f|^2 + xi_max^2 / m * sum(nyquist))``.  ``rows``, a
    slice of axis 0, restricts both to those rows; it needs ``ax >= 1``,
    since d_1 mixes the rows.  A frequency-domain input is brought to the
    physical lattice first.
    """
    g = f.grid
    vals = f.in_domain(PHYSICAL).values
    nyquist = [0.0] * g.d

    def partial(ax: int, out: np.ndarray | None = None, rows: slice | None = None) -> np.ndarray:
        part = vals if rows is None else vals[rows]
        plane = _axis_product(part, g._alternating_row, ax)
        nyquist[ax] += float(np.vdot(plane, plane).real)
        return _axis_product(part, g._derivative_matrix, ax, out)

    return partial, nyquist


def gradient_fields(f: Field) -> list:
    """Spectral partial derivatives [d_1 f, ..., d_d f] in the physical domain.

    The unpaired Nyquist mode's derivative multiplier is zeroed (standard
    convention: FFT index m/2, centred index 0) so differentiation maps real
    fields to real fields exactly.
    """
    partial, _ = _spectral_gradient(f)
    return [Field(f.grid, PHYSICAL, _read_only(partial(ax))) for ax in range(f.grid.d)]


def gradient_magnitude(f: Field) -> np.ndarray:
    """Pointwise |grad f| on the physical lattice."""
    partial, _ = _spectral_gradient(f)
    part = np.empty(f.grid.shape, dtype=np.complex128)
    acc = np.zeros(f.grid.shape)
    for ax in range(f.grid.d):
        acc += np.abs(partial(ax, part)) ** 2
    return np.sqrt(acc)


def _into(out: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """``values`` when ``out`` is None, else ``out`` holding a copy of them: a frame source's return."""
    if out is None:
        return values
    out[...] = values
    return out


def _checked(fr: Field, grid: SpectralGrid, domain: str) -> np.ndarray:
    """The values of a frame ``fr`` of a trajectory on ``grid`` in ``domain``."""
    if fr.grid != grid:
        raise ValueError("all frames must share the trajectory grid")
    if fr.domain != domain:
        raise DomainMismatchError("all frames must share one domain tag")
    return fr.values


class _Frames(Sequence):
    """The read-only sequence of a trajectory's frames at ``indices`` (a range)."""

    def __init__(self, traj: "Trajectory", indices: range):
        self._traj, self._indices = traj, indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Frames(self._traj, self._indices[i])
        return self._traj._frame(self._indices[i])

    def __iter__(self):
        return map(self._traj._frame, self._indices)


class Trajectory:
    """Uniformly sampled time sequence of fields on one grid, all in ``domain``, read
    through a frame source; ``values`` is the read-only stack it caches (module docstring)."""

    def __init__(self, grid: SpectralGrid, t0: float, dt: float, frames):
        """Copy a nonempty sequence of fields on ``grid``, all in one domain, into one stack."""
        frames = tuple(frames)
        if not frames:
            raise ValueError("trajectory needs at least one frame")
        domain = frames[0].domain
        self._adopt(grid, t0, dt, domain, len(frames),
                    lambda j, out: _into(out, _checked(frames[j], grid, domain)))
        self.values  # the copy: a frame off the grid or the domain raises here

    @classmethod
    def from_values(cls, grid: SpectralGrid, t0: float, dt: float, domain: str,
                    values: np.ndarray) -> "Trajectory":
        """The trajectory of a ``(n_frames, *grid.shape)`` stack, which it takes over, makes
        read-only and keeps as its cache."""
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape[1:] != grid.shape:
            raise ValueError(f"no {domain!r} trajectory of shape {values.shape} on {grid}")
        traj = cls.from_source(grid, t0, dt, domain, len(values), None)
        traj._cache(values)
        return traj

    @classmethod
    def from_source(cls, grid: SpectralGrid, t0: float, dt: float, domain: str, n_frames: int,
                    source) -> "Trajectory":
        """The trajectory whose frame j is ``source(j, out)``: frame j's values written into
        ``out`` and returned, or returned alone when ``out`` is None.  Nothing is computed here."""
        traj = object.__new__(cls)
        traj._adopt(grid, t0, dt, domain, n_frames, source)
        return traj

    def _adopt(self, grid, t0, dt, domain, n_frames, source) -> None:
        if not dt > 0:
            raise ValueError("dt must be positive")
        if domain not in (PHYSICAL, FREQUENCY) or n_frames < 1:
            raise ValueError(f"no {domain!r} trajectory of {n_frames} frames on {grid}")
        for name, val in zip(("grid", "t0", "dt", "domain", "n_frames", "_stack", "_source", "_memo"),
                             (grid, t0, dt, domain, n_frames, None, source, None)):
            object.__setattr__(self, name, val)

    def _cache(self, values: np.ndarray) -> None:
        """Keep ``values`` as the stack, read-only, and read every frame from it from now on."""
        values.flags.writeable = False
        for name, val in (("_stack", values), ("_source", lambda j, out: _into(out, values[j])),
                          ("_memo", None)):
            object.__setattr__(self, name, val)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable: cannot set {name!r}")

    def __repr__(self) -> str:
        return (f"Trajectory(grid={self.grid!r}, t0={self.t0!r}, dt={self.dt!r}, "
                f"domain={self.domain!r}, n_frames={self.n_frames})")

    @property
    def values(self) -> np.ndarray:
        """The read-only stack of all frames, filled row by row from the source on first use
        (the memo's frame copied, not made again) and kept."""
        if self._stack is None:
            values = np.empty((self.n_frames, *self.grid.shape), dtype=np.complex128)
            memo = self._memo
            for j, row in enumerate(values):
                if memo is not None and memo[0] == j:
                    row[...] = memo[1].values
                else:
                    self._source(j, row)
            self._cache(values)
        return self._stack

    def _frame(self, j: int, memo: bool = True) -> Field:
        """Frame j from the source, memoized until another frame is read (the old one is
        dropped first), unless ``memo`` is False: a derived source reads its parent that way."""
        if self._memo is not None and self._memo[0] == j:
            return self._memo[1]
        if memo:
            object.__setattr__(self, "_memo", None)
        fr = Field(self.grid, self.domain, _read_only(self._source(j, None)))
        if memo:
            object.__setattr__(self, "_memo", (j, fr))
        return fr

    @property
    def frames(self) -> Sequence:
        """The read-only sequence of frames (``_frame``); a slice of it is one too."""
        return _Frames(self, range(self.n_frames))

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_frames)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n_frames - 1)

    def frame_index(self, t: float) -> int:
        """The index of the frame at time t; a t off the frame lattice raises ParameterRangeError."""
        idx = (t - self.t0) / self.dt
        i = round(idx) if math.isfinite(idx) else -1
        if abs(idx - i) > 1e-9 or not 0 <= i < self.n_frames:
            raise ParameterRangeError(f"time {t} is not a frame time of this trajectory")
        return i

    def in_domain(self, domain: str) -> "Trajectory":
        """This trajectory in the given domain: a source that transforms each frame when read."""
        if domain == self.domain:
            return self

        def source(j, out):
            return _centred_transform(self._frame(j, memo=False).values, self.grid, domain, out=out)

        return Trajectory.from_source(self.grid, self.t0, self.dt, domain, self.n_frames, source)

    def map_frames(self, func) -> "Trajectory":
        """The trajectory of func(frame) for every frame: a source that applies func to each
        frame when read (frame 0 is mapped here, to learn the domain)."""
        first = func(self._frame(0, memo=False))
        domain = first.domain
        _checked(first, self.grid, domain)

        def source(j, out):
            return _into(out, _checked(func(self._frame(j, memo=False)), self.grid, domain))

        traj = Trajectory.from_source(self.grid, self.t0, self.dt, domain, self.n_frames, source)
        object.__setattr__(traj, "_memo", (0, first))
        return traj


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
    try:
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())
    except OSError as exc:
        raise DLabError(f"cannot read snapshot: {exc}") from None
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError("truncated header")
    magic, version, d, m, L = _HEADER.unpack_from(raw)
    if magic != _SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != _SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported version {version}")
    grid = SpectralGrid(m=m, L=L, d=d)
    data = raw[_HEADER.size:]
    expected = grid.size * 16
    if len(data) != expected:
        raise SnapshotFormatError(f"payload {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<c16").astype(np.complex128)
    return Field.physical(grid, _read_only(values.reshape(grid.shape)))


def random_field(
    grid: SpectralGrid, seed: int, domain: str = PHYSICAL, band_limit: float | None = None
) -> Field:
    """Reproducible complex Gaussian test field, optionally band-limited."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, domain, _read_only(vals))
    if band_limit is not None:
        mask = grid.xi_squared <= band_limit**2
        fh = f.in_domain(FREQUENCY)
        f = Field(grid, FREQUENCY, _read_only(fh.values * mask)).in_domain(domain)
    return f


def parse_grid_flag(text: str, d: int = 4) -> SpectralGrid:
    """Parse the CLI ``--grid m,L`` flag; a malformed one raises FlagError."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) != 2:
            raise ValueError("expected 'm,L'")
        return SpectralGrid(m=int(parts[0]), L=float(parts[1]), d=d)
    except ValueError as exc:
        raise FlagError(f"--grid {text!r}: {exc}") from None

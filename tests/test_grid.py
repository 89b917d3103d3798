import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from dlab.errors import DomainMismatchError, InvalidExponentError, SnapshotFormatError
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Weight,
    _axis_product,
    _centred_transform,
    _power_mean,
    _spectral_gradient,
    _squared_norm,
    broadcast_along,
    gradient_fields,
    gradient_magnitude,
    lp_norm,
    random_field,
    read_snapshot,
    sobolev_norm,
    to_frequency,
    to_physical,
    weighted_lp_norm,
    write_snapshot,
)
from conftest import direct_dft


def test_grid_invariants():
    with pytest.raises(ValueError):
        SpectralGrid(m=12, L=16.0)
    with pytest.raises(ValueError):
        SpectralGrid(m=4, L=16.0)
    with pytest.raises(ValueError):
        SpectralGrid(m=16, L=-1.0)
    g = SpectralGrid(m=16, L=32.0)
    assert g.dx == 2.0
    assert g.dxi == pytest.approx(2 * np.pi / 32.0)
    assert g.x1d[0] == -16.0 and g.x1d[-1] == 14.0


@pytest.mark.parametrize("name", ["x1d", "xi1d", "xi1d_fft", "x_squared", "xi_squared"])
def test_cached_coordinates_are_read_only(name):
    g = SpectralGrid(m=8, L=4.0)
    f = random_field(g, 2)
    before = weighted_lp_norm(f, Weight("powerlaw", 1), 2)
    arr = getattr(g, name)
    with pytest.raises(ValueError):
        arr[...] = 0.0
    assert getattr(g, name) is arr
    assert weighted_lp_norm(f, Weight("powerlaw", 1), 2) == before


def test_squared_norm_of_a_box_or_slab_equals_that_part_of_the_lattice():
    # the symbol slabs and the Bernstein boxes rely on this, bit for bit
    g = SpectralGrid(m=16, L=4.0)
    box = (slice(3, 9), slice(None), slice(0, 5), slice(15, 16))
    assert np.array_equal(_squared_norm([g.xi1d[sl] for sl in box]), g.xi_squared[box])
    assert np.array_equal(_squared_norm([g.x1d[2:3]] + [g.x1d] * 3), g.x_squared[2:3])
    assert np.array_equal(_squared_norm([g.xi1d]), g.xi1d**2)


def test_constant_maps_to_zero_mode(grid8):
    f = Field.physical(grid8, np.ones(grid8.shape))
    fh = to_frequency(f)
    center = (grid8.m // 2,) * 4
    assert fh.values[center] == pytest.approx(grid8.L**4)
    rest = np.abs(fh.values).sum() - abs(fh.values[center])
    assert rest < 1e-9 * grid8.L**4


def test_plane_wave_single_mode(grid8):
    g = grid8
    xi0 = g.dxi * np.array([1, -2, 0, 3])
    phase = sum(xi0[i] * g.axis_coord(i + 1) for i in range(4))
    f = Field.physical(g, np.exp(1j * phase))
    fh = to_frequency(f)
    idx = tuple(g.m // 2 + np.array([1, -2, 0, 3]))
    assert fh.values[idx] == pytest.approx(g.L**4)
    mask = np.ones(g.shape, dtype=bool)
    mask[idx] = False
    assert np.abs(fh.values[mask]).max() < 1e-8 * g.L**4


def test_roundtrip_random(grid8):
    f = random_field(grid8, 11)
    f2 = to_physical(to_frequency(f))
    rel = np.abs(f2.values - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-12


def test_transform_matches_direct_dft_oracle(grid8):
    f = random_field(grid8, 5)
    fh = to_frequency(f)
    oracle = direct_dft(f)
    assert np.abs(fh.values - oracle).max() < 1e-9 * np.abs(oracle).max()


@pytest.mark.parametrize("m", [8, 16])
def test_parseval_many_random_fields(m):
    g = SpectralGrid(m=m, L=16.0)
    w = (g.dxi / (2 * np.pi)) ** 4
    for seed in range(100):
        f = random_field(g, seed)
        fh = to_frequency(f)
        a = lp_norm(f, 2)
        b = np.sqrt(w * np.sum(np.abs(fh.values) ** 2))
        assert abs(a - b) <= 1e-12 * a


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_transform_linearity(seed_a, seed_b):
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, seed_a)
    h = random_field(g, seed_b)
    a, b = 1.7 - 0.3j, -0.2 + 2.1j
    lhs = to_frequency(Field.physical(g, a * f.values + b * h.values))
    rhs = a * to_frequency(f).values + b * to_frequency(h).values
    scale = np.abs(rhs).max()
    assert np.abs(lhs.values - rhs).max() <= 1e-12 * max(scale, 1.0)


def test_domain_mismatch_errors(grid8):
    f = random_field(grid8, 1)
    with pytest.raises(DomainMismatchError):
        to_physical(f)
    with pytest.raises(DomainMismatchError):
        to_frequency(to_frequency(f))
    with pytest.raises(DomainMismatchError):
        lp_norm(to_frequency(f), 2)


def test_lp_norm_examples():
    g = SpectralGrid(m=8, L=16.0)
    const = Field.physical(g, np.ones(g.shape))
    assert lp_norm(const, 2) == pytest.approx(g.L**2)
    phase = np.broadcast_to(g.axis_coord(1) * g.dxi, g.shape)
    wave = Field.physical(g, np.exp(1j * phase))
    assert lp_norm(wave, 4) == pytest.approx(g.L)
    with pytest.raises(InvalidExponentError):
        lp_norm(const, 0.5)


@pytest.mark.parametrize("q", [0.5, 2.0, 4.0, 37.0])
def test_power_mean_in_place_equals_the_plain_expression_for_any_broadcast(q):
    # weights may be a scalar, match the values, or broadcast them to a larger shape
    rng = np.random.default_rng(5)
    values = rng.random((3, 4))
    before = values.copy()
    for weights in (0.25, rng.random((3, 4)), rng.random((2, 3, 4)), rng.random((3, 1))):
        peak = values.max()
        want = float(peak * (np.sum(weights * (values / peak) ** q)) ** (1.0 / q))
        assert _power_mean(values, weights, q) == want
    assert np.array_equal(values, before)


def test_lp_norm_gaussian_analytic():
    # pi^(d/4) with spectral-tail and box-tail both below 1e-6 at m=32, L=16
    g = SpectralGrid(m=32, L=16.0)
    f = Field.physical(g, np.exp(-g.x_squared / 2.0))
    assert lp_norm(f, 2) == pytest.approx(np.pi, rel=1e-6)


def test_lp_norm_infinity_and_monotone():
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, 3)
    assert lp_norm(f, np.inf) == pytest.approx(np.abs(f.values).max())
    bigger = Field.physical(g, (np.abs(f.values) + 0.5))
    for r in (1, 2, 3.5, np.inf):
        assert lp_norm(f, r) <= lp_norm(bigger, r)


@given(st.integers(0, 10_000), st.floats(1.0, 12.0))
@settings(max_examples=15, deadline=None)
def test_lp_monotone_in_magnitude(seed, r):
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, seed)
    gfield = Field.physical(g, np.abs(f.values) * 1.001 + 0.01)
    assert lp_norm(f, r) <= lp_norm(Field.physical(g, np.abs(gfield.values)), r) + 1e-12


def test_weighted_norm_reduces_to_lp(grid8):
    f = random_field(grid8, 2)
    w0 = Weight("japanese", 0.0)
    assert weighted_lp_norm(f, w0, 3) == pytest.approx(lp_norm(f, 3))


def test_weighted_norm_origin_bump():
    g = SpectralGrid(m=8, L=16.0)
    vals = np.zeros(g.shape)
    vals[(g.m // 2,) * 4] = 1.0  # unit bump at the origin node
    f = Field.physical(g, vals)
    assert weighted_lp_norm(f, Weight("powerlaw", 0.5), np.inf) == pytest.approx(0.0)


def test_weighted_gaussian_vs_radial_quadrature_oracle():
    g = SpectralGrid(m=32, L=16.0)
    f = Field.physical(g, np.exp(-g.x_squared / 2.0))
    val = weighted_lp_norm(f, Weight("japanese", 1.0), 2)
    # oracle: 2 pi^2 int r^3 (1 + r^2) e^{-r^2} dr over the half-line
    oracle_sq, _ = integrate.quad(
        lambda r: 2 * np.pi**2 * r**3 * (1 + r * r) * np.exp(-r * r), 0, 30
    )
    assert val == pytest.approx(np.sqrt(oracle_sq), rel=1e-8)


def test_sobolev_norm_plane_wave():
    g = SpectralGrid(m=8, L=2 * np.pi)
    xi0 = g.dxi * 2
    f = Field.physical(g, np.exp(1j * np.broadcast_to(xi0 * g.axis_coord(1), g.shape)))
    expected = (1 + xi0**2) ** 0.25 * lp_norm(f, 2)
    assert sobolev_norm(f, 0.5) == pytest.approx(expected, rel=1e-12)
    assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(
        abs(xi0) * lp_norm(f, 2), rel=1e-12
    )


def test_snapshot_roundtrip(tmp_path, grid8):
    f = random_field(grid8, 9)
    path = tmp_path / "field.dlab"
    write_snapshot(f, path)
    f2 = read_snapshot(path)
    assert f2.grid == grid8
    assert np.array_equal(f2.values, f.values)
    raw = path.read_bytes()
    assert raw[:4] == b"DLAB"
    assert len(raw) == 32 + 16 * grid8.size


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dlab"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)
    path.write_bytes(b"DLAB" + b"\x00" * 28)  # valid-length header, zero fields
    with pytest.raises((SnapshotFormatError, ValueError)):
        read_snapshot(path)


def test_field_immutable(grid8):
    f = random_field(grid8, 0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 1.0


def test_trajectory_invariants(grid8):
    from dlab.grid import Trajectory

    f = random_field(grid8, 0)
    with pytest.raises(ValueError):
        Trajectory(grid8, 0.0, 0.1, ())
    with pytest.raises(ValueError):
        Trajectory(grid8, 0.0, -0.1, (f,))
    tr = Trajectory(grid8, 0.0, 0.5, (f, f, f))
    assert tr.frame_index(1.0) == 2
    with pytest.raises(ValueError):
        tr.frame_index(0.3)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
def test_gradient_fields_match_centred_textbook_form(m, domain):
    # oracle: to_frequency -> centred i*xi with the Nyquist (centred index 0)
    # zeroed -> to_physical, one axis at a time
    g = SpectralGrid(m=m, L=6.0)
    f = random_field(g, 11)
    fh = to_frequency(f).values
    coord = g.xi1d.copy()
    coord[0] = 0.0
    parts = gradient_fields(f.in_domain(domain))
    mag2 = np.zeros(g.shape)
    for ax in range(g.d):
        ref = to_physical(Field(g, FREQUENCY, fh * 1j * broadcast_along(coord, ax, g.d)))
        assert parts[ax].domain == PHYSICAL
        scale = np.abs(ref.values).max()
        assert np.abs(parts[ax].values - ref.values).max() <= 1e-13 * scale
        mag2 += np.abs(ref.values) ** 2
    mag = gradient_magnitude(f.in_domain(domain))
    assert np.abs(mag - np.sqrt(mag2)).max() <= 1e-13 * np.sqrt(mag2).max()


def _fft_pair_partial(vals, g, ax):
    """d_{ax+1} as a 1D transform pair along ``ax`` (i xi, Nyquist entry zeroed) and
    the sum of |1D spectrum|^2 over the Nyquist plane: the transform reference for
    the matrix products of ``_spectral_gradient``."""
    dfac = 1j * g.xi1d_fft
    dfac[g.m // 2] = 0.0
    spec = np.fft.fft(vals, axis=ax)
    plane = np.take(spec, g.m // 2, axis=ax)
    spec *= broadcast_along(dfac, ax, g.d)
    return np.fft.ifft(spec, axis=ax), float(np.vdot(plane, plane).real)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_spectral_gradient_matches_the_fft_pair_derivative(m):
    g = SpectralGrid(m=m, L=6.0)
    f = random_field(g, 13)  # not band-limited: the Nyquist planes carry energy
    partial, nyquist = _spectral_gradient(f)
    for ax in range(g.d):
        want, nyq = _fft_pair_partial(f.values, g, ax)
        got = partial(ax)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert abs(nyquist[ax] - nyq) <= 1e-13 * nyq


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("k", [5, 1])
def test_axis_product_is_a_contraction_along_one_axis(real, k):
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
    matrix = rng.standard_normal((k, 5)) + (0.0 if real else 1j * rng.standard_normal((k, 5)))
    for ax in range(vals.ndim):
        want = np.moveaxis(np.tensordot(matrix, vals, axes=([1], [ax])), 0, ax)
        got = _axis_product(vals, matrix, ax)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_xi1d_fft_is_the_fft_ordering_of_xi1d(grid8):
    assert np.array_equal(grid8.xi1d_fft, np.fft.ifftshift(grid8.xi1d))
    assert grid8.xi1d_fft[0] == 0.0
    assert grid8.xi1d_fft[grid8.m // 2] == -grid8.xi_max


@pytest.mark.parametrize(
    "m,d",
    [(m, d) for m in (8, 16) for d in (1, 2, 4)] + [(32, 1), (32, 2), (32, 4)],
)
def test_centred_transforms_equal_textbook_shift_form_bitwise(m, d):
    # the checkerboard path must reproduce fftshift(fftn(ifftshift(.))) * dx^d
    # (and its inverse) exactly, not just to rounding
    g = SpectralGrid(m=m, L=5.0, d=d)
    f = random_field(g, 3)
    want = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values))) * g.dx**d
    assert np.array_equal(to_frequency(f).values, want)
    h = random_field(g, 4, domain=FREQUENCY)
    want = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(h.values))) / g.dx**d
    assert np.array_equal(to_physical(h).values, want)


def test_trapezoid_weights():
    from dlab.grid import trapezoid_weights

    assert trapezoid_weights(3, 0.5).tolist() == [0.25, 0.5, 0.25]
    assert trapezoid_weights(2, 0.5).tolist() == [0.25, 0.25]
    assert trapezoid_weights(1, 0.5).tolist() == [0.0]  # a single frame spans no time


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("domain", [PHYSICAL, FREQUENCY])
def test_trajectory_in_domain_is_frame_by_frame_bitwise(m, domain):
    from dlab.grid import Trajectory

    g = SpectralGrid(m=m, L=6.0)
    frames = tuple(random_field(g, 60 + j, domain=domain) for j in range(5))
    traj = Trajectory(g, 0.2, 0.1, frames)
    other = FREQUENCY if domain == PHYSICAL else PHYSICAL
    moved = traj.in_domain(other)
    assert moved.domain == other and (moved.t0, moved.dt) == (0.2, 0.1)
    assert traj.in_domain(domain) is traj
    for fr, got in zip(frames, moved.frames):
        assert got.domain == other
        assert np.array_equal(got.values, fr.in_domain(other).values)
    back = moved.in_domain(domain)
    for fr, got in zip(moved.frames, back.frames):
        assert np.array_equal(got.values, fr.in_domain(domain).values)
    assert np.array_equal(moved.values, _centred_transform(traj.values, g, other))  # the whole stack at once


def test_trajectory_is_one_read_only_stack(grid8):
    from dlab.grid import Trajectory

    frames = [random_field(grid8, s) for s in range(3)]
    traj = Trajectory(grid8, 0.0, 0.1, frames)
    assert traj.values.shape == (3, *grid8.shape) and traj.values.flags.c_contiguous
    for i, fr in enumerate(traj.frames):
        assert np.shares_memory(fr.values, traj.values)
        assert np.array_equal(fr.values, frames[i].values)
    with pytest.raises(ValueError):
        traj.values[0, 0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        traj.frames[1].values[0, 0, 0, 0] = 1.0
    # map_frames maps each frame when it is read; the parent stays as it was
    doubled = traj.map_frames(lambda fr: 2.0 * fr)
    assert np.array_equal(doubled.values, 2.0 * traj.values)
    assert np.array_equal(traj.values[0], frames[0].values)
    with pytest.raises(DomainMismatchError):
        Trajectory(grid8, 0.0, 0.1, [frames[0], frames[1].in_domain(FREQUENCY)])
    with pytest.raises(ValueError):
        Trajectory(grid8, 0.0, 0.1, [frames[0], random_field(SpectralGrid(m=8, L=5.0), 0)])


def _row(stack, values):
    """The index of the row of ``stack`` that ``values`` views."""
    return next(j for j, row in enumerate(stack) if np.shares_memory(values, row))


def test_maps_of_a_stack_compute_only_the_frames_read(grid8, monkeypatch):
    import dlab.grid
    from dlab.grid import Trajectory

    traj = Trajectory.from_values(grid8, 0.0, 0.1, PHYSICAL,
                                  np.stack([random_field(grid8, s).values for s in range(5)]))
    stack, mapped, moved = traj.values, [], []

    def double(fr):
        mapped.append(_row(stack, fr.values))
        return 2.0 * fr

    def counted(values, *args, **kwargs):
        moved.append(_row(stack, values))
        return _centred_transform(values, *args, **kwargs)

    monkeypatch.setattr(dlab.grid, "_centred_transform", counted)
    doubled, freq = traj.map_frames(double), traj.in_domain(FREQUENCY)
    assert mapped == [0] and moved == []  # map_frames maps frame 0 to learn the domain
    assert np.array_equal(doubled.frames[3].values, 2.0 * stack[3])
    assert np.array_equal(freq.frames[3].values, _centred_transform(stack[3], grid8, FREQUENCY))
    assert mapped == [0, 3] and moved == [3]
    mapped.clear()
    moved.clear()
    assert np.array_equal(traj.map_frames(double).values, 2.0 * stack)
    assert np.array_equal(traj.in_domain(FREQUENCY).values, _centred_transform(stack, grid8, FREQUENCY))
    assert mapped == [0, 1, 2, 3, 4] and moved == [0, 1, 2, 3, 4]  # each parent frame once


def test_field_copies_a_writable_input_and_adopts_a_read_only_one(grid8):
    from dlab.propagate import free_trajectory

    a = np.ones(grid8.shape, dtype=np.complex128)
    Field.physical(grid8, a)
    assert a.flags.writeable  # the caller's array is left as it was
    b = np.zeros(grid8.size, dtype=np.complex128)
    f = Field.physical(grid8, b.reshape(grid8.shape))
    b[0] = 7
    assert f.values[0, 0, 0, 0] == 0  # no later write to the input reaches the field
    traj = free_trajectory(random_field(grid8, 1), 0.0, 0.1, 3)
    stack = traj.values  # built from the frame source; from now on the frames view its rows
    for i in range(traj.n_frames):
        assert np.shares_memory(traj.frames[i].values, stack)


def test_only_grid_calls_numpy_fft():
    # every transform goes through grid._fft; no other module names numpy's fft
    import re
    from pathlib import Path

    import dlab

    src = Path(dlab.__file__).parent
    callers = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "grid.py" and re.search(r"\b(np|numpy)\.fft\b", p.read_text())]
    assert callers == []


def test_only_the_values_cache_tests_the_trajectory_stack():
    # one representation: every method but ``values`` reads frames through the source,
    # and no other module reaches into a trajectory's stack, source or memo
    import ast
    import inspect
    import re
    import textwrap
    from pathlib import Path

    import dlab
    from dlab.grid import Trajectory

    tree = ast.parse(textwrap.dedent(inspect.getsource(Trajectory)))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute) and node.attr == "_stack"}
    assert readers == {"values"}
    src = Path(dlab.__file__).parent
    callers = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "grid.py" and re.search(r"\._(stack|source|memo)\b", p.read_text())]
    assert callers == []


def _pruning_cases(m):
    """Boxes for the pruned-transform tests: random ones, ones touching index 0
    and index m - 1, a one-index box and the full box, one slice per axis."""
    rng = np.random.default_rng(16)
    cases = [(slice(0, 3), slice(m - 2, m), slice(0, m), slice(m // 2, m // 2 + 1)),
             (slice(2, 3),) * 4, (slice(0, m),) * 4]
    for _ in range(6):
        lo = rng.integers(0, m, size=4)
        hi = [int(rng.integers(a + 1, m + 1)) for a in lo]
        cases.append(tuple(slice(int(a), b) for a, b in zip(lo, hi)))
    return cases


@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "stack"])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("sign_in, sign_out, scale", [(False, False, 1.0), (True, True, 0.3),
                                                      (True, False, 1.0), (False, True, 2.5)])
def test_pruned_transform_equals_the_full_transform(lead, inverse, sign_in, sign_out, scale):
    from dlab.grid import _fft

    m = 8
    rng = np.random.default_rng(len(lead) + 2 * inverse)
    axes = tuple(range(len(lead), len(lead) + 4))
    for box in _pruning_cases(m):
        x = np.zeros(lead + (m,) * 4, dtype=np.complex128)
        inside = (slice(None),) * len(lead) + box
        x[inside] = rng.standard_normal(x[inside].shape) + 1j * rng.standard_normal(x[inside].shape)
        kw = dict(inverse=inverse, axes=axes, sign_in=sign_in, sign_out=sign_out, scale=scale)
        want = _fft(x, **kw)
        assert np.array_equal(_fft(x, box=box, **kw), want), box
        y = x.copy()
        assert _fft(y, out=y, box=box, **kw) is y and np.array_equal(y, want), box


def test_pruned_transform_over_some_axes_of_a_stack():
    from dlab.grid import _fft

    rng = np.random.default_rng(5)
    x = np.zeros((4, 16, 16), dtype=np.complex128)
    x[:, 3:9, 15:] = rng.standard_normal((4, 6, 1))
    for inverse in (False, True):
        for axes, box in (((1, 2), (slice(3, 9), slice(15, 16))), ((2,), (slice(15, 16),))):
            assert np.array_equal(_fft(x, inverse, axes, box=box), _fft(x, inverse, axes))

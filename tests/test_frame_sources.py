"""Frame-source trajectories and the slab-streamed Morawetz audit.

The eager loops below are the stack-building code the frame sources replaced;
they are the references for bit identity.  ``_full_frame_pass`` and
``_full_audit_frame`` are the whole-frame audit pass the slabs replaced, and
``_whole_frame_splitstep`` the split step with whole-frame buffers that the
stepping inside the stack replaced.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dlab import solver
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    _centred_transform,
    _spectral_gradient,
    _axis_product,
    _circulant,
    broadcast_along,
    random_field,
    to_physical,
)
from dlab.norms import _abs2
from dlab.propagate import free_trajectory, schrodinger_symbol
from dlab.solver import (
    NLSRunConfig,
    _action,
    _audit_frame,
    _dealias_keep,
    _dmdt_rhs,
    _forcing_difference,
    _inv_reg_weight,
    _slab_weights,
    _slabs,
    _splitstep,
    _weight_arrays,
    energy_growth_audit,
    morawetz_audit,
    splitstep_forced,
    splitstep_nls,
)
from test_golden import _forced_run

warnings.filterwarnings("ignore", message="dt\\*max")


def _eager_free_stack(f, t0, dt, n):
    """The frequency stack of the free Schrodinger flow, one row at a time."""
    g = f.grid
    fh = f.in_domain(FREQUENCY).values
    values = np.empty((n, *g.shape), dtype=np.complex128)
    for j, row in enumerate(values):
        np.multiply(fh, schrodinger_symbol(g, t0 + j * dt), out=row)
    return values


def _eager_forced_v(v0, F_phys, cfg):
    """v = u - F from the split-step u stack, subtracted in place."""
    g = v0.grid
    u0 = Field.physical(g, F_phys[0] + v0.in_domain(PHYSICAL).values)
    v = _splitstep(u0, cfg)
    for row, Fj in zip(v, F_phys):
        row -= Fj
    return v


@pytest.mark.parametrize("m,n_steps", [(16, 6), (32, 2)])
def test_frame_sources_equal_the_eager_stacks_bitwise(m, n_steps):
    g = SpectralGrid(m=m, L=8.0)
    F0 = Field.physical(g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    cfg = NLSRunConfig(mu=+1, dt=0.002, T=0.002 * n_steps, dealias=False)
    n = cfg.n_steps + 1
    freq = _eager_free_stack(F0, 0.0, cfg.dt, n)
    phys = _centred_transform(freq, g, PHYSICAL)

    free = free_trajectory(F0, 0.0, cfg.dt, n)
    assert all(np.array_equal(fr.values, row) for fr, row in zip(free.frames, freq))
    F = free.map_frames(lambda fr: fr.in_domain(PHYSICAL))
    assert F.domain == PHYSICAL and F.n_frames == n
    for fr, row in zip(F.frames, freq):
        assert np.array_equal(fr.values, to_physical(Field.frequency(g, row)).values)
    assert all(np.array_equal(fr.values, row)
               for fr, row in zip(free.in_domain(PHYSICAL).frames, phys))
    assert np.array_equal(free_trajectory(F0, 0.0, cfg.dt, n).in_domain(PHYSICAL).values, phys)

    v0 = 0.05 * random_field(g, seed=31)
    v = splitstep_forced(v0, F, cfg)
    want = _eager_forced_v(v0, phys, cfg)
    assert all(np.array_equal(fr.values, row) for fr, row in zip(v.frames, want))
    assert np.array_equal(v.values, want)
    assert all(np.array_equal(fr.values, row) for fr, row in zip(v.frames, want))  # from the stack


def test_frame_source_memo_and_stack():
    g = SpectralGrid(m=8, L=8.0)
    calls = []

    def source(j, out):
        calls.append(j)
        vals = np.full(g.shape, j, dtype=np.complex128)
        if out is None:
            return vals
        out[...] = vals
        return out

    traj = Trajectory.from_source(g, 0.0, 0.1, PHYSICAL, 4, source)
    assert calls == []
    assert traj.frames[2] is traj.frames[2] and calls == [2]  # one-frame memo
    assert traj.frames[-1].values[0, 0, 0, 0] == 3 and calls == [2, 3]
    assert [fr.values[0, 0, 0, 0] for fr in traj.frames[1:3]] == [1, 2]
    with pytest.raises(ValueError):
        traj.frames[3].values[0, 0, 0, 0] = 1.0
    calls.clear()
    stack = traj.values
    assert calls == [0, 1, 2] and not stack.flags.writeable  # frame 3 is copied from the memo
    assert traj.values is stack and np.shares_memory(traj.frames[1].values, stack)
    doubled = traj.map_frames(lambda fr: 2.0 * fr)  # a lazy map reads its parent's stack rows
    assert np.array_equal(doubled.values, 2.0 * stack) and calls == [0, 1, 2]
    with pytest.raises(AttributeError):
        traj.values = stack


def _full_frame_pass(v):
    """The whole-frame pass: every derivative as one product over the whole frame."""
    g = v.grid
    partial, nyquist = _spectral_gradient(v)
    grad2 = np.zeros(g.shape)
    xdot = np.zeros(g.shape, dtype=np.complex128)
    part = np.empty(g.shape, dtype=np.complex128)
    for ax in range(g.d):
        partial(ax, part)
        grad2 += _abs2(part)
        part *= broadcast_along(g.x1d, ax, g.d)
        xdot += part
    h1_sq = g.dx**g.d * (float(grad2.sum()) + g.xi_max**2 / g.m * sum(nyquist))
    vals = v.in_domain(PHYSICAL).values.ravel()
    return vals, h1_sq, xdot.ravel(), grad2.ravel()


def _full_audit_frame(v, Fv, mu, weights, inv_a_quarter, interior):
    g = v.grid
    vol = g.dx**g.d
    vals, h1_sq, xdot, grad2 = _full_frame_pass(v)
    rho = _abs2(vals)
    rho2 = rho * rho
    H = None if Fv is None else _forcing_difference(vals, rho, Fv, mu)
    return (
        _action(vals, xdot, weights[0], vol),
        h1_sq,
        vol * float(rho.sum()),
        vol * float(np.dot(rho2, weights[0])),
        vol * float(np.dot(rho2, inv_a_quarter)),
        0.0 if H is None else np.sqrt(vol * float(_abs2(H).sum())),
        _dmdt_rhs(vals, rho, xdot, grad2, H, weights, vol) if interior else np.nan,
    )


@pytest.mark.parametrize("forced", [True, False])
def test_slab_audit_matches_the_whole_frame_pass(forced):
    # the golden forced run: v carries energy up to the Nyquist planes
    run, F = _forced_run()
    g = run.grid
    weights = _weight_arrays(g, 3.0 * g.dx)
    inv_a_quarter = _inv_reg_weight(g, g.dx / 4.0)
    want = []
    for j, fr in enumerate(run.frames):
        Fv = F.frames[j].values.ravel() if forced else None
        interior = 0 < j < run.n_frames - 1
        got = _audit_frame(fr, Fv, +1, lambda flat: tuple(a[flat] for a in (*weights, inv_a_quarter)),
                           interior)
        ref = _full_audit_frame(fr, Fv, +1, weights, inv_a_quarter, interior)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0, equal_nan=True)
        want.append(ref)
    rep = morawetz_audit(run, F if forced else None)
    action, h1_sq, l2_sq, bulk_d, _, h_l2, rhs = np.array(want).T
    assert rep.dmdt_rhs == pytest.approx(rhs[1:-1], rel=1e-12)
    assert rep.dmdt_fd == pytest.approx((action[2:] - action[:-2]) / (2.0 * run.dt), rel=1e-12)
    w = np.full(run.n_frames, run.dt)
    w[0] = w[-1] = 0.5 * run.dt
    assert rep.bulk == pytest.approx(float(np.sum(w * bulk_d)), rel=1e-12)
    bound = np.sqrt(h1_sq.max()) * (np.sqrt(l2_sq.max()) + float(np.sum(w * h_l2)))
    assert rep.morawetz_rhs == pytest.approx(bound, rel=1e-12)


def test_forced_pipeline_streams_its_forcing_and_v():
    # F and v are frame sources: the pipeline holds the run's u stack and a few frames,
    # not F's stack (twice, while it is mapped) and v's
    g = SpectralGrid(m=16, L=8.0)
    F0 = Field.physical(g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    v0 = Field.zero(g, PHYSICAL)
    cfg = NLSRunConfig(mu=+1, dt=0.001, T=0.02, dealias=False)
    n = cfg.n_steps + 1
    frame_bytes = g.size * 16
    tracemalloc.start()  # numpy reports its allocations to tracemalloc
    try:
        F = free_trajectory(F0, 0.0, cfg.dt, n).map_frames(lambda fr: fr.in_domain(PHYSICAL))
        run = splitstep_forced(v0, F, cfg)
        rep = morawetz_audit(run, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 21 and rep.bulk > 0.0
    assert peak < (n + 8) * frame_bytes
    assert F._stack is None and run._stack is None


def test_energy_audit_makes_each_forcing_frame_once_and_holds_no_stack():
    # one pass reads v_j, whose source makes F_j, and then F_j from its memo; the norms of v and
    # F are taken from each frame's moduli as the pass goes, so no stack of v, F or |F|^2 is made
    g = SpectralGrid(m=16, L=8.0)
    F0 = Field.physical(g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    cfg = NLSRunConfig(mu=+1, dt=0.001, T=0.02, dealias=False)
    n = cfg.n_steps + 1
    calls = []

    def physical(fr):
        calls.append(1)
        return fr.in_domain(PHYSICAL)

    F = free_trajectory(F0, 0.0, cfg.dt, n).map_frames(physical)
    run = splitstep_forced(Field.zero(g, PHYSICAL), F, cfg)
    calls.clear()
    tracemalloc.start()  # numpy reports its allocations to tracemalloc
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, rep = energy_growth_audit(run, F)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == 21 and rep.terms_ok
    assert len(calls) <= n + 1
    assert peak < n * g.size * 16
    assert F._stack is None and run._stack is None


def _whole_frame_splitstep(u0, cfg):
    """The split step with its state, scratch and rotation as whole frames, copied into the
    stack after each step (no blow-up guard)."""
    g = u0.grid
    factor = np.exp(-0.5j * cfg.dt * g.xi1d_fft**2)
    half = _circulant(factor)
    last = _circulant(factor * _dealias_keep(g)) if cfg.dealias else half
    u = u0.in_domain(PHYSICAL).values.copy()
    frames = np.empty((cfg.n_steps + 1, *g.shape), dtype=np.complex128)
    frames[0] = u
    work, rotation, phase = np.empty_like(u), np.empty_like(u), np.empty(g.shape)

    def kinetic(u, work, matrix):
        for ax in range(g.d):
            _axis_product(u, matrix, ax, out=work)
            u, work = work, u
        return u, work

    for step in range(1, cfg.n_steps + 1):
        u, work = kinetic(u, work, half)
        np.abs(u, out=phase)
        np.square(phase, out=phase)
        phase *= -cfg.mu * cfg.dt
        np.cos(phase, out=rotation.real)
        np.sin(phase, out=rotation.imag)
        u *= rotation
        u, work = kinetic(u, work, last)
        frames[step] = u
    return frames


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("d,m", [(1, 64), (3, 16), (3, 64)])
def test_splitstep_in_its_stack_equals_the_whole_frame_step(d, m, dealias, monkeypatch):
    # odd d: each kinetic half's last product must land in the step's row; (3, 64) runs in
    # 64 one-row slabs.  No product writes over its input: numpy would copy the input first
    def product(values, matrix, axis, out=None):
        assert out is not None and not np.shares_memory(values, out)
        return _axis_product(values, matrix, axis, out)

    g = SpectralGrid(m=m, L=8.0, d=d)
    u0 = 0.8 * random_field(g, 21, band_limit=2.5)
    cfg = NLSRunConfig(mu=-1, dt=0.01, T=0.05, dealias=dealias)
    want = _whole_frame_splitstep(u0, cfg)
    monkeypatch.setattr(solver, "_axis_product", product)
    assert np.array_equal(splitstep_nls(u0, cfg).values, want)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_slab_weights_equal_slices_of_the_whole_lattice_weights(m):
    g = SpectralGrid(m=m, L=8.0)
    sigma = 3.0 * g.dx
    whole = (*_weight_arrays(g, sigma), _inv_reg_weight(g, g.dx / 4.0))
    row = g.size // g.m
    for sl in _slabs(g):
        flat = slice(sl.start * row, sl.stop * row)
        got = _slab_weights(g, sigma, flat)
        assert len(got) == 5 and all(np.array_equal(a, w[flat]) for a, w in zip(got, whole))


@pytest.mark.parametrize("m", [16, 32])
def test_forced_pipeline_steps_and_audits_in_its_own_memory(m):
    # the split step holds its stack, one scratch frame and row slabs; the audit holds
    # v_j, F_j, d_1 v and one slab's arrays, its weights among them
    g = SpectralGrid(m=m, L=8.0)
    F0 = Field.physical(g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    cfg = NLSRunConfig(mu=+1, dt=0.001, T=0.004, dealias=False)
    n = cfg.n_steps + 1
    frame_bytes = g.size * 16
    F = free_trajectory(F0, 0.0, cfg.dt, n).map_frames(lambda fr: fr.in_domain(PHYSICAL))
    v0 = Field.zero(g, PHYSICAL)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = splitstep_forced(v0, F, cfg)
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = morawetz_audit(run, F)
        audit_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.bulk > 0.0
    assert step_peak <= (n + 1.25) * frame_bytes
    assert audit_peak <= 3.5 * frame_bytes

"""Separable lattice arrays come from one builder, ``grid._separable``, and are
byte for byte what the accumulating loops over the axes gave; per-cell masses
are Parseval sums with no transform per cell."""

import numpy as np
import pytest

from dlab import grid as grid_mod
from dlab.grid import FREQUENCY, PHYSICAL, SpectralGrid, broadcast_along, lp_norm, random_field
from dlab.projections import active_cell_box, phi1, psi_symbol, unit_projection
from dlab.propagate import schrodinger_symbol
from dlab.randomize import (BERNOULLI, COMPLEX_GAUSSIAN, RandomizationSpec, _philox,
                            projected_mass_sum, symmetric_coefficient_box)

GRIDS = [SpectralGrid(m, 4 * np.pi, d)
         for m, d in ((8, 1), (4096, 1), (16, 3), (8, 4), (16, 4), (32, 4))]


# ---- reference loop forms, one full-size pass per axis


def _squared_loop(g, frequency):
    out = np.zeros(g.shape)
    for ax in range(1, g.d + 1):
        out = out + g.axis_coord(ax, frequency=frequency) ** 2
    return out


def _psi_loop(g, k):
    sym = np.ones(g.shape)
    for ax in range(1, g.d + 1):
        sym = sym * phi1(g.axis_coord(ax, frequency=True) - k[ax - 1])
    return sym


def _schrodinger_loop(g, t):
    phase = np.exp(-1j * t * g.xi1d**2)
    out = broadcast_along(phase, 0, g.d)
    for ax in range(1, g.d):
        out = out * broadcast_along(phase, ax, g.d)
    return out


def _lex_sign_loop(shape, K, d):
    sign = np.zeros(shape, dtype=int)
    coords = np.indices(shape) - K
    undecided = np.ones(shape, dtype=bool)
    for ax in range(d):
        c = coords[ax]
        sign = np.where(undecided & (c > 0), 1, sign)
        sign = np.where(undecided & (c < 0), -1, sign)
        undecided = undecided & (c == 0)
    return sign


def _symmetric_box_loop(rng, K, d, law):
    shape = (2 * K + 1,) * d
    pair = rng.standard_normal(size=shape + (2,))
    if law == BERNOULLI:
        pair = np.where(pair >= 0.0, 1.0, -1.0)
    a, b = pair[..., 0], pair[..., 1]
    sign = _lex_sign_loop(shape, K, d)
    g_half = (a + 1j * b) / np.sqrt(2.0)
    g_reflected = np.conj(g_half[(slice(None, None, -1),) * d])
    return np.where(sign > 0, g_half, np.where(sign < 0, g_reflected, a.astype(complex)))


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"m{g.m}d{g.d}")
def test_squared_coordinates_match_the_loop(g):
    _same_bytes(g.x_squared, _squared_loop(g, False))
    _same_bytes(g.xi_squared, _squared_loop(g, True))


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"m{g.m}d{g.d}")
def test_psi_symbol_matches_the_loop(g):
    for k in [(0,) * g.d, tuple(range(-1, g.d - 1)), (1.5,) + (-2,) * (g.d - 1)]:
        _same_bytes(psi_symbol(g, k), _psi_loop(g, k))
    if g.d == 1:
        _same_bytes(psi_symbol(g, (10.0,)), _psi_loop(g, (10.0,)))


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"m{g.m}d{g.d}")
def test_schrodinger_symbol_matches_the_loop(g):
    for t in (0.0, 0.013, 0.7):
        _same_bytes(schrodinger_symbol(g, t), _schrodinger_loop(g, t))


@pytest.mark.parametrize("law", [COMPLEX_GAUSSIAN, BERNOULLI])
@pytest.mark.parametrize("g", [SpectralGrid(8, 4 * np.pi, 1), SpectralGrid(8, 4 * np.pi, 3),
                               SpectralGrid(16, 4 * np.pi, 4)], ids=lambda g: f"m{g.m}d{g.d}")
def test_symmetric_box_sign_matches_the_loop(g, law):
    spec = RandomizationSpec(seed=7, law=law)
    box, K = symmetric_coefficient_box(spec, 3, g)
    _same_bytes(box, _symmetric_box_loop(_philox(spec.seed, 3), K, g.d, law))


def test_only_grid_folds_axes():
    # separable arrays come from grid._separable; no other module folds per-axis factors itself
    import re
    from pathlib import Path

    src = Path(grid_mod.__file__).parent
    fold = re.compile(r"np\.ix_|functools import.*\breduce\b")
    folders = [p.name for p in sorted(src.glob("*.py"))
               if p.name != "grid.py" and fold.search(p.read_text())]
    assert folders == []


# ---- per-cell masses


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    fft = grid_mod._fft
    monkeypatch.setattr(grid_mod, "_fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
    return calls


CELLS = [(0, 0, 0, 0), (1, 0, -1, 0), (0, 2, 0, 1), (-1, -1, 1, 1)]


def test_projected_mass_sum_transforms_a_frequency_field_never(fft_calls):
    g = SpectralGrid(8, 4 * np.pi)
    fh = random_field(g, 5, domain=FREQUENCY)
    projected_mass_sum(fh, CELLS)
    assert fft_calls == []


def test_projected_mass_sum_transforms_a_physical_field_once(fft_calls):
    g = SpectralGrid(8, 4 * np.pi)
    projected_mass_sum(random_field(g, 5, domain=PHYSICAL), CELLS)
    assert len(fft_calls) == 1


def test_projected_mass_sum_is_the_sum_of_physical_piece_masses():
    g = SpectralGrid(8, 4 * np.pi)
    f = random_field(g, 5, domain=PHYSICAL)
    direct = sum(lp_norm(unit_projection(f, k), 2) ** 2 for k in CELLS)
    assert projected_mass_sum(f, CELLS) == pytest.approx(direct, rel=1e-12)


def test_projected_mass_sum_of_cells_outside_the_box():
    # cells past +-K meet no lattice frequency: they add 0, and none raises or
    # wraps through a negative index ((-2K - 1, 0, 0, 0) would read cell 0)
    g = SpectralGrid(8, 4 * np.pi)
    f = random_field(g, 5, domain=PHYSICAL)
    K = active_cell_box(g)
    cells = CELLS + [(K + 1, 0, 0, 0), (-K - 1, 0, 0, 0), (-2 * K - 1, 0, 0, 0), (0, 0, 3 * K, -K - 1)]
    direct = sum(lp_norm(unit_projection(f, k), 2) ** 2 for k in cells)
    assert projected_mass_sum(f, cells) == pytest.approx(direct, rel=1e-12)
    assert projected_mass_sum(f, cells[len(CELLS):]) == 0.0
    for bad in ([(0, 0, 0)] * 4, [(0, 0, 0, 0), (1, 0, 0)]):  # cells of 3 components on a 4D grid
        with pytest.raises(ValueError):
            projected_mass_sum(f, bad)

"""Golden-output lock for the spectral transform path and the pipelines built on it.

``tests/golden.json`` holds outputs recorded before the transform path was
rewritten.  Two kinds of entry:

* ``hash`` entries are SHA-256 digests of the raw bytes of an array and must
  match exactly: the centred transforms, the band stack's physical-input
  spectrum and all-times Duhamel are bit-identical by design.
* ``values`` entries are nested numbers compared at rtol 1e-9 (pipelines
  whose floating-point order may change; other leaves compare exactly).

Regenerate (only when a change of outputs is intended) with

    PYTHONPATH=src python tests/test_golden.py --write [CASE ...]

which rewrites the named cases (every case when none is named), keeps the
other entries of the file as they are, and prints the path of each leaf
whose stored value changed beyond the comparison's tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dlab.cli import main, run_verifier, write_trajectory
from dlab.grid import (
    FREQUENCY,
    PHYSICAL,
    Field,
    SpectralGrid,
    Trajectory,
    _power_mean,
    gradient_fields,
    gradient_magnitude,
    random_field,
    to_frequency,
    to_physical,
)
from dlab.montecarlo import ENSEMBLE_KINDS, linear_gaussian_statistic, make_norm_statistic, moment_growth
from dlab.norms import EpsilonPolicy, _BandStack, _lateral, _window, g_norm_upper, x_norm, y_norm
from dlab.propagate import duhamel_all, free_trajectory
from dlab.estimates import square_function
from dlab.randomize import (
    RadialProfileSpec,
    RandomizationSpec,
    compute_active_set,
    make_radial_data,
    projected_mass_sum,
    randomize_schrodinger,
)
from dlab.solver import (
    NLSRunConfig,
    PicardConfig,
    energy_growth_audit,
    morawetz_audit,
    picard_iterate,
    splitstep_forced,
    splitstep_nls,
)

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-9

# seed 12; the first four at the verify_run benchmark's reduced parameters,
# the others at reduced grids and lists (about 3 s together)
VERIFIERS = {
    "main_linear": {"grid": {"m": 16, "L": 2 * np.pi}, "n_samples": 2},
    "duhamel_retarded": {"grid": {"m": 16, "L": 2 * np.pi}, "n_frames": 65},
    "operator_decay": {"grid": {"m": 16, "L": 8 * np.pi}, "separations": [2, 4]},
    "bernstein": {"grid": {"m": 32, "L": 4.0}},
    "unit_maximal": {"k_list": [10, 14], "control_N": [1.0, 2.0], "n_frames_control": 6},
    "lateral_dyadic": {"grid": {"m": 16, "L": 4 * np.pi}, "p": 2, "q": "inf",
                       "N_list": [1.0, 2.0], "n_frames": 6},
    "local_smoothing": {"grid": {"m": 16, "L": 4 * np.pi}, "N_list": [1.0, 2.0],
                        "R_list": [1.0, 2.0], "n_frames": 6},
    "local_energy_decay": {"grid": {"m": 16, "L": 4 * np.pi}, "N_list": [1.0, 2.0],
                           "R_list": [0.5, 1.0], "T0": 4.0, "n_frames": 6},
    "radialish_sobolev": {"grid": {"m": 8, "L": 4 * np.pi}, "N_list": [1.0],
                          "control_shifts": [0.0, 2.0]},
    "trilinear": {"grid": {"m": 16, "L": 2 * np.pi}, "bands": [1.0, 2.0],
                  "harness": {"T": 0.2, "n_frames": 5}, "configs": [[2, 2, 2, 2], [2, 2, 1, 1]]},
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _frames_digest(traj) -> str:
    h = hashlib.sha256()
    for fr in traj.frames:
        h.update(np.ascontiguousarray(fr.values).tobytes())
    return h.hexdigest()


def _probe_array(a: np.ndarray) -> list:
    """sum |a|^2 and <r, a> for a fixed seeded complex r (any change shows)."""
    rng = np.random.default_rng(99)
    r = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    z = np.vdot(r, a)
    return [float(np.sum(np.abs(a) ** 2)), float(z.real), float(z.imag)]


def _probe(traj) -> list:
    """Per frame: ``_probe_array`` of its values."""
    return [_probe_array(fr.values) for fr in traj.frames]


def _norm_trajectory(domain: str):
    g = SpectralGrid(m=8, L=2 * np.pi)  # one aggregate band, N = 2
    f = random_field(g, seed=5, band_limit=3.0)
    traj = free_trajectory(f, 0.0, 0.05, 5)
    if domain == PHYSICAL:
        traj = traj.map_frames(lambda fr: fr.in_domain(PHYSICAL))
    return traj


def _splitstep(dealias: bool):
    g = SpectralGrid(m=8, L=8.0)
    u0 = random_field(g, seed=3, band_limit=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return splitstep_nls(u0, NLSRunConfig(mu=+1, dt=0.01, T=0.1, dealias=dealias))


def _forced_run():
    """A forced m=16 run of 6 steps whose v carries energy up to the Nyquist planes."""
    g = SpectralGrid(m=16, L=8.0)
    cfg = NLSRunConfig(mu=+1, dt=0.005, T=0.03, dealias=False)
    F0 = Field.physical(g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * g.axis_coord(1)))
    F = free_trajectory(F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
        lambda fr: fr.in_domain(PHYSICAL)
    )
    return splitstep_forced(0.05 * random_field(g, seed=31), F, cfg), F


def _case_energy_audit():
    series, report = energy_growth_audit(*_forced_run())
    return {"series": asdict(series), "report": asdict(report)}


def _case_y_band_powers():
    """Per band N: the sum of each ``band_powers`` stack and the Y norm's four smoothing
    lateral norms, on the 9-frame free trajectory (T = 4) of the ensemble_y datum's draw 0."""
    g = SpectralGrid(m=16, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.4), g)
    fw = randomize_schrodinger(f, RandomizationSpec(seed=12, law="complex_gaussian"), 0)
    v = free_trajectory(fw, 0.0, 0.5, 9)
    _, _, w = _window(v, None)
    p, q = EpsilonPolicy(eps=0.02, s=0.4).y_smoothing_pq
    out = {}
    for N in (1.0, 2.0):
        stacks = list(_BandStack(v, 0, v.n_frames - 1).band_powers(N))
        out[repr(N)] = {
            "sums": [float(S.sum()) for S in stacks],
            "smoothing": [_lateral(S, w, g, p, q, (ax,))[0] for ax, S in enumerate(stacks[1:], 1)],
        }
    return out


def _case_gradients():
    g = SpectralGrid(m=8, L=6.0)
    f = random_field(g, seed=17)  # not band-limited: the Nyquist planes carry energy
    out = {}
    for dom in ("physical", "frequency"):
        fd = f.in_domain(dom)
        mag = gradient_magnitude(fd)
        out[dom] = {
            "fields": [_probe_array(p.values) for p in gradient_fields(fd)],
            "magnitude": _probe_array(mag) + [float(mag.max())],
        }
    return out


def _case_picard():
    """A forced m=8 Picard solve on 5 frames: the iterate's probes and its ContractionRecord."""
    g = SpectralGrid(m=8, L=2 * np.pi)
    v0 = 0.05 * random_field(g, seed=21, band_limit=3.0)
    F = free_trajectory(0.05 * random_field(g, seed=22, band_limit=3.0), 0.0, 0.05, 5)
    traj, record = picard_iterate(v0, F, PicardConfig(tau=0.2, dt=0.05))
    return {"probes": _probe(traj), "record": asdict(record)}


def _case_ensemble(which: str):
    """Three draws of one ensemble statistic at m=8 (real data: the wave kinds need it)."""
    g = SpectralGrid(m=8, L=4 * np.pi)
    f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6), g)
    stat = make_norm_statistic(which, f, RandomizationSpec(seed=4), T=1.0, n_frames=5,
                               pol=EpsilonPolicy(eps=0.02, s=0.6))
    return [stat(d) for d in range(3)]


def _case_moment_growth():
    stat = linear_gaussian_statistic(np.linspace(0.5, 1.5, 7), seed=3)
    mg = moment_growth(stat, (1, 2, 4, 8), 40)
    return {"lp_norms": mg.lp_norms, "skipped_p": mg.skipped_p,
            "slope": mg.moment_slope, "intercept": mg.moment_intercept}


def _cell_bump():
    """The band-limited radial bump of ``test_randomize.py`` (m=16, L=4 pi)."""
    g = SpectralGrid(m=16, L=4 * np.pi)
    return make_radial_data(RadialProfileSpec(kind="gaussian_bump", width=0.8), g)


def _case_active_set():
    """Per threshold: the number of active cells and the digest of the cell list, in order."""
    out = {}
    for th in (1e-14, 1e-8, 1e-4, 1e-2):
        cells = compute_active_set(_cell_bump(), rel_threshold=th)
        out[repr(th)] = {"count": len(cells), "sha256": _digest(np.array(cells, dtype=np.int64))}
    return out


def _case_projected_mass_sum():
    f = _cell_bump()
    cells = compute_active_set(f, rel_threshold=1e-2)
    return {"cells": len(cells), "physical": projected_mass_sum(f.in_domain(PHYSICAL), cells),
            "frequency": projected_mass_sum(f, cells)}


def _case_square_function():
    """What ``verify_radialish_sobolev`` reads of the square function S of the cell
    bump: max |x|^(3/2) S and the r = 4 power mean of |x|^(3/4) S; and
    ``_probe_array(S**2)``."""
    f = _cell_bump()
    g = f.grid
    S = square_function(f)
    return {"weighted_max": float((g.x_squared ** 0.75 * S).max()),
            "power_mean_r4": _power_mean(g.x_squared ** (0.75 * (1.0 - 2.0 / 4.0)) * S,
                                         g.dx**g.d, 4.0),
            "probe": _probe_array(S**2)}


def _duhamel_input(domain: str):
    g = SpectralGrid(m=8, L=6.0)
    return Trajectory(g, 0.3, 0.1, tuple(random_field(g, 40 + j, domain=domain) for j in range(6)))


def _case_transforms(m: int):
    g = SpectralGrid(m=m, L=8.0)
    f = random_field(g, seed=11)
    fh = to_frequency(f)
    back = to_physical(random_field(g, seed=12, domain="frequency"))
    return {"to_frequency": _digest(fh.values), "to_physical": _digest(back.values)}


NORM_SPECS = [
    {"kind": "strichartz", "q": 2, "r": 4, "interval": [0.0, 0.1]},
    {"kind": "lateral", "p": 4, "q": 4, "axis": 2},
    {"kind": "XN", "N": 2.0},
    {"kind": "X"},
    {"kind": "YN", "N": 2.0, "interval": [0.05, 0.2]},
    {"kind": "Y"},
    {"kind": "GN", "N": 2.0},
    {"kind": "G"},
    {"kind": "Z"},
    {"kind": "LinfH1"},
]

RUN_CONFIG = {
    "schema_version": 1,
    "grid": {"m": 8, "L": 4 * np.pi},
    "time": {"T": 0.1, "dt": 0.05},
    "epsilon": {"eps": 0.02, "s": 0.6},
    "data": {"profile": {"kind": "fourier_powerlaw", "target_s": 0.6}},
    "seed": 5,
    "draws": 60,
    "experiments": [
        {"kind": "verify", "name": "bernstein", "id": "bern",
         "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]}},
        {"kind": "ensemble", "name": "L3L6", "id": "l3l6", "params": {"n_frames": 5}},
        {"kind": "solve", "name": "nls", "id": "nls"},
        {"kind": "solve", "name": "forced", "id": "forced", "params": {"mu": -1}},
        {"kind": "solve", "name": "picard", "id": "picard"},
    ],
}


def _cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 2)


def _case_cli_norms():
    """Every `dlab norms` kind on a 5-frame m=8 trajectory directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_trajectory(_norm_trajectory(PHYSICAL), tmp / "traj")
        (tmp / "spec.json").write_text(json.dumps(NORM_SPECS))
        _cli(["norms", "--spec", str(tmp / "spec.json"), "--traj", str(tmp / "traj"),
              "--out", str(tmp / "norms.json")])
        return json.loads((tmp / "norms.json").read_text())["reports"]


def _case_cli_run():
    """`dlab run` on an m=8 config holding a verify, an ensemble and the three solves."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({**RUN_CONFIG, "output_dir": str(Path(tmp) / "out")}))
        _cli(["run", str(path)])
        return json.loads((Path(tmp) / "out" / "report.json").read_text())["reports"]


CASES = {
    "cli/norms": lambda: ("values", _case_cli_norms()),
    "cli/run": lambda: ("values", _case_cli_run()),
    **{f"verifier/{name}": (lambda name=name: ("values", run_verifier(
        name, json.loads(json.dumps(VERIFIERS[name])), seed=12))) for name in VERIFIERS},
    "splitstep/dealias": lambda: ("values", _probe(_splitstep(True))),
    "splitstep/plain": lambda: ("values", _probe(_splitstep(False))),
    **{f"norms/{dom}": (lambda dom=dom: ("values", {
        "x": x_norm(_norm_trajectory(dom)),
        "y": y_norm(_norm_trajectory(dom)),
        "g": g_norm_upper(_norm_trajectory(dom)),
    })) for dom in ("physical", "frequency")},
    "norms/y_band_powers": lambda: ("values", _case_y_band_powers()),
    "band_stack/physical": lambda: ("hash", _digest(
        _BandStack(_norm_trajectory(PHYSICAL), 0, 4).freq)),
    **{f"transforms/m{m}": (lambda m=m: ("hash", _case_transforms(m))) for m in (8, 16)},
    "audit/morawetz": lambda: ("values", asdict(morawetz_audit(*_forced_run()))),
    "audit/energy_growth": lambda: ("values", _case_energy_audit()),
    "gradient/m8": lambda: ("values", _case_gradients()),
    "picard/forced": lambda: ("values", _case_picard()),
    "cells/active_set": lambda: ("values", _case_active_set()),
    "cells/square_function": lambda: ("values", _case_square_function()),
    "cells/projected_mass_sum": lambda: ("values", _case_projected_mass_sum()),
    **{f"ensemble/{which}": (lambda which=which: ("values", _case_ensemble(which)))
       for which in ENSEMBLE_KINDS},
    "ensemble/moment_growth": lambda: ("values", _case_moment_growth()),
    **{f"duhamel/{dom}": (lambda dom=dom: ("hash", _frames_digest(duhamel_all(_duhamel_input(dom)))))
       for dom in (PHYSICAL, FREQUENCY)},
}


def _compare(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [b for k in want for b in _compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [b for i, (a, w) in enumerate(zip(got, want)) for b in _compare(a, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        if math.isclose(float(got), want, rel_tol=RTOL, abs_tol=0.0) or got == want:
            return []
        return [f"{path}: {got!r} != {want!r} at rtol {RTOL}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _json_ready(obj):
    return json.loads(json.dumps(obj, default=float))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, golden):
    kind, got = CASES[case]()
    want = golden[case]
    assert want["kind"] == kind
    assert _compare(_json_ready(got), want["data"]) == []


if __name__ == "__main__":
    names = sys.argv[2:] or sorted(CASES)
    if sys.argv[1:2] != ["--write"] or not set(names) <= set(CASES):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write [CASE ...]")
    out = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        kind, data = CASES[name]()
        new = {"kind": kind, "data": _json_ready(data)}
        for line in _compare(new, out[name]) if name in out else []:
            print(f"{name}{line}")  # the path of a changed leaf, then its change
        out[name] = new
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(names)} cases to {GOLDEN}")

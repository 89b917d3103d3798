"""Command-line entry point: evolve, project, randomize, norms, verify,
ensemble, solve, report, and config-driven experiment runs.

Configs are strict JSON: schema-versioned, unknown or mistyped keys are errors,
and every violation is reported at once.  Artifacts embed the resolved config
and a content hash; reruns with the same config and seed reproduce the JSON
and CSV bodies byte for byte (no timestamps are written).  DLAB_THREADS caps
the experiments and ensemble draws that run at once.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import types
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Annotated, Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import estimates, montecarlo, norms as norms_mod, solver as solver_mod
from .errors import ConfigError, DLabError, FlagError
from .grid import Field, SpectralGrid, Trajectory, parse_grid_flag, read_snapshot, write_snapshot
from .norms import EpsilonPolicy
from .projections import Band, dyadic_projection, unit_projection
from .propagate import free_trajectory, wave_flow
from .randomize import (RadialProfileSpec, RandomizationSpec, compute_active_set,
                        make_radial_data, randomize_schrodinger)

SCHEMA_VERSION = 1


def write_report(path, body: dict) -> None:
    body = {k: v for k, v in body.items() if k != "content_hash"} | {"schema_version": SCHEMA_VERSION}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["content_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DLabError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------- schema

_NOT = object()  # _typed's "not of that type"


class _Schema(NamedTuple):
    """A JSON object's keys with their types (a _Schema types an object value), the keys
    it must hold, and ``build``, which makes its value from them and may reject it."""

    types: dict
    required: tuple = ()
    build: Callable | None = None


def _schema(fn, *supplied, **defaults) -> _Schema:
    """fn's parameters (a function, partial or dataclass) less those the run supplies.  A
    key's type is its annotation, else its default's (a tuple is a list of numbers); it is
    required with no default in fn or ``defaults``, the run's.  A dataclass is built."""
    hints = get_type_hints(getattr(fn, "func", fn), include_extras=True)
    types, required = {}, []
    for name, p in inspect.signature(fn).parameters.items():
        if name not in supplied:
            default = defaults.get(name, p.default)
            tp = hints.get(name, list[float] if isinstance(default, tuple) else type(default))
            if get_origin(tp) is Annotated:  # Annotated[dict, S]: an object of _Schema S
                tp = tp.__metadata__[0]
            types[name] = _GRID if tp is SpectralGrid else tp  # a grid is the object {m, L}
            required += [name] if default is p.empty else []
    return _Schema(types, tuple(required), fn if dataclasses.is_dataclass(fn) else None)


_GRID = _schema(SpectralGrid, "d")  # the lab's boxes are 4D


def _typed(value, tp):
    """value as an argument of type tp takes it ("inf"/"-inf" as floats), or _NOT."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        return next((v for v in (_typed(value, a) for a in args) if v is not _NOT), _NOT)
    if origin is Literal:
        return value if any(value == a and type(value) is type(a) for a in args) else _NOT
    if origin in (list, tuple):
        sized = origin is tuple and args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or sized and len(value) != len(args):
            return _NOT
        items = [_typed(v, args[0]) for v in value]
        return _NOT if any(v is _NOT for v in items) else items
    if tp is float and isinstance(value, str):
        return {"inf": math.inf, "-inf": -math.inf}.get(value, _NOT)
    ok = isinstance(value, (int, float) if tp is float else tp)
    return value if ok and (tp is bool or not isinstance(value, bool)) else _NOT


def _conform(where: str, value, tp, out: list):
    """value as the call takes it: typed by _typed, or an object checked against its
    _Schema and built.  Violations go to ``out``, and the result is then _NOT."""
    if not isinstance(tp, _Schema):
        got = _typed(value, tp)
        if got is _NOT:
            name = tp.__name__ if type(tp) is type else str(tp).replace("typing.", "")  # as annotated
            out.append(f"{where} must be {'an object' if tp is dict else name}, got {value!r}")
        return got
    if not isinstance(value, dict):
        out.append(f"{where} must be an object, got {value!r}")
        return _NOT
    n, args = len(out), {}
    for k, v in value.items():
        if k in tp.types:
            got = _conform(f"{where}.{k}", v, tp.types[k], out)
            args[k] = v if got is _NOT else got
        else:
            # T, Q, seed and pol reach a run from the config, never from params
            why = " (set by the config)" if k in ("T", "Q", "seed", "pol") else ""
            out.append(f"unknown key {k!r} in {where}{why}; expected {', '.join(sorted(tp.types))}")
    missing = [k for k in tp.required if k not in value]
    out += [f"{where}.{k} is required" for k in missing]
    if tp.build and not missing and set(value) <= set(tp.types):
        try:  # a mistyped value goes in as given: the builder's own check of it shows too
            args = tp.build(**args)
        except ValueError as exc:
            out.append(f"{where}: {exc}")
        except TypeError:  # only a mistyped value, reported above, raises it
            pass
    return args if len(out) == n else _NOT


def _checked(where: str, value, schema: _Schema):
    """The call arguments of ``value``; any violation raises ConfigError."""
    out = []
    args = _conform(where, value, schema, out)
    if out:
        raise ConfigError(out)
    return args


# ---------------------------------------------------------------- config

def _time(T: float = 4.0, dt: float = 0.25) -> tuple:
    """The config's time section: (T, dt), frames dt apart on [0, T]."""
    T, dt = float(T), float(dt)
    if not (0 < T < math.inf and 0 < dt < math.inf):
        raise ValueError("T and dt must be positive")
    if abs(T / dt - round(T / dt)) > 1e-8:
        raise ValueError("T must be an integer multiple of dt")
    return T, dt


_PROFILE = _schema(RadialProfileSpec)
_SECTIONS = {"grid": _GRID, "time": _schema(_time)._replace(build=_time),
             "epsilon": _schema(EpsilonPolicy), "data": _Schema({"snapshot": str, "profile": _PROFILE})}
_CONFIG = _Schema({**dict.fromkeys(_SECTIONS, dict), "schema_version": Literal[1], "seed": int,
                   "draws": int, "experiments": list, "output_dir": str}, ("schema_version",))


@dataclasses.dataclass
class ExperimentConfig:
    """Parsed, validated experiment configuration."""

    grid: SpectralGrid
    T: float
    dt: float
    pol: EpsilonPolicy
    data: dict
    seed: int
    draws: int
    experiments: list
    output_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        out = []
        if _conform("config", raw, _CONFIG, out) is _NOT and not isinstance(raw, dict):
            raise ConfigError(out)
        # a section that is not an object is already a violation; read it as empty
        given = {k: raw.get(k) if isinstance(raw.get(k), dict) else {} for k in _SECTIONS}
        grid = _conform("grid", {"m": 16, "L": 32.0, **given["grid"]}, _GRID, out)
        time = _conform("time", given["time"], _SECTIONS["time"], out)
        pol = _conform("epsilon", given["epsilon"], _SECTIONS["epsilon"], out)
        _conform("data", given["data"], _SECTIONS["data"], out)
        draws = raw.get("draws", 1)
        if isinstance(draws, int) and draws < 0:
            out.append(f"config.draws must be nonnegative, got {draws}")
        experiments = raw.get("experiments", [])
        for i, ex in enumerate(experiments if isinstance(experiments, list) else []):
            out += _experiment_violations(i, ex)
        if out:
            raise ConfigError(out)
        return cls(SpectralGrid(grid.m, float(grid.L)), *time, EpsilonPolicy(float(pol.eps), pol.s),
                   given["data"], raw.get("seed", 0), draws, experiments,
                   raw.get("output_dir", "dlab_out"))

    def canonical(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "grid": {"m": self.grid.m, "L": self.grid.L},
                "time": {"T": self.T, "dt": self.dt}, "epsilon": {"eps": self.pol.eps, "s": self.pol.s},
                "data": self.data, "seed": self.seed, "draws": self.draws,
                "experiments": self.experiments, "output_dir": self.output_dir}

    def load_field(self) -> Field:
        if "snapshot" in self.data:
            return read_snapshot(self.data["snapshot"])
        profile = self.data.get("profile", {"kind": "gaussian_bump", "width": 1.0})
        return make_radial_data(_checked("data.profile", profile, _PROFILE), self.grid)


# ------------------------------------------------------- trajectory I/O

def write_trajectory(traj: Trajectory, outdir, extra: dict | None = None) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [f"frame_{j:05d}.dlab" for j in range(traj.n_frames)]
    for name, fr in zip(names, traj.frames):
        write_snapshot(fr, outdir / name)
    grid = {"m": traj.grid.m, "L": traj.grid.L, "d": traj.grid.d}
    write_report(outdir / "manifest.json",
                 {"grid": grid, "t0": traj.t0, "dt": traj.dt, "frames": names, **(extra or {})})


def read_trajectory(outdir) -> Trajectory:
    path = Path(outdir) / "manifest.json"
    manifest = _read_json(path)
    get = manifest.get if isinstance(manifest, dict) else lambda key: None
    names, t0, dt = get("frames"), get("t0"), get("dt")
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)
            and all(type(x) in (int, float) and math.isfinite(x) for x in (t0, dt)) and dt > 0):
        raise DLabError(f"{path}: needs 'frames', a nonempty list of file names, "
                        f"a number 't0' and a positive number 'dt'")
    frames = tuple(read_snapshot(path.parent / name) for name in names)
    try:
        return Trajectory(frames[0].grid, t0, dt, frames)
    except ValueError as exc:  # frames on different grids
        raise DLabError(f"{path}: {exc}") from None


# ------------------------------------------------------------ commands

def _datum(args, profile: RadialProfileSpec) -> Field:
    """The ``--in`` snapshot, else ``profile`` on the ``--grid`` box."""
    if args.input:
        return read_snapshot(args.input)
    return make_radial_data(profile, parse_grid_flag(args.grid))


def _cmd_evolve(args) -> int:
    if not (0 <= args.t < math.inf and 0 < args.dt < math.inf):
        raise DLabError(f"--t must be >= 0 and --dt > 0, got --t {args.t} --dt {args.dt}")
    f = _datum(args, RadialProfileSpec(kind="gaussian_bump", width=1.0))
    n = int(round(args.t / args.dt)) + 1
    if args.flow == "wave":
        f2 = Field.zero(f.grid, "physical") if not args.input2 else read_snapshot(args.input2)
        pairs = [wave_flow(f, f2, j * args.dt) for j in range(n)]
        for k, suffix in enumerate(("", "_dt")):  # u, then its time derivative
            frames = tuple(pair[k].in_domain("physical") for pair in pairs)
            write_trajectory(Trajectory(f.grid, 0.0, args.dt, frames), f"{args.out}{suffix}",
                             {"flow": f"wave{suffix}"})
    else:
        traj = free_trajectory(f, 0.0, args.dt, n, flow=args.flow).in_domain("physical")
        write_trajectory(traj, args.out, {"flow": args.flow})
    print(f"wrote {n} frames to {args.out}")
    return 0


def parse_band(text: str) -> Band:
    """Parse the CLI ``--band`` flag; a malformed one raises FlagError."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "unit":
            return Band.unit(tuple(int(c) for c in rest.split(",")))
        if kind == "directional":
            nval, _, axis = rest.partition(",axis=")
            return Band.directional(float(nval), int(axis))
        if kind not in ("dyadic", "leq", "gt", "fattened"):
            raise ValueError(f"unknown band kind {kind!r}")
        return getattr(Band, kind)(float(rest))
    except ValueError as exc:
        raise FlagError(f"--band {text!r}: {exc}") from None


def _cmd_project(args) -> int:
    band = parse_band(args.band)
    f = read_snapshot(args.input)
    out = unit_projection(f, band.k) if band.kind == "unit" else dyadic_projection(f, band)
    write_snapshot(out, args.out)
    print(f"projected {args.input} through {args.band} -> {args.out}")
    return 0


def _cmd_randomize(args) -> int:
    if args.draws < 0:
        raise DLabError(f"--draws must be nonnegative, got {args.draws}")
    f = _datum(args, RadialProfileSpec(kind="fourier_powerlaw", target_s=args.s))
    spec = RandomizationSpec(seed=args.seed, law=args.law)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = [f"draw_{draw:05d}.dlab" for draw in range(args.draws)]
    for draw, name in enumerate(names):
        write_snapshot(randomize_schrodinger(f, spec, draw).in_domain("physical"), outdir / name)
    manifest = {"seed": args.seed, "law": args.law, "draws": args.draws, "files": names,
                "active_cells": len(compute_active_set(f)), "grid": {"m": f.grid.m, "L": f.grid.L}}
    write_report(outdir / "manifest.json", manifest)
    print(f"wrote {args.draws} draws to {outdir}")
    return 0


# a norms spec's kind -> the norm it evaluates; its other keys are the norm's
# arguments less the trajectory, pol (from --eps) and bands
_NORM_KINDS = {
    "strichartz": norms_mod.strichartz_norm, "lateral": norms_mod.lateral_norm,
    "XN": norms_mod.xn_norm, "X": norms_mod.x_norm, "YN": norms_mod.yn_norm, "Y": norms_mod.y_norm,
    "GN": norms_mod.gn_norm_upper, "G": norms_mod.g_norm_upper, "Z": norms_mod.z_norm,
    "LinfH1": norms_mod.linf_h1,
}


def _cmd_norms(args) -> int:
    specs, out, calls = _read_json(args.spec), [], []
    pol = _conform("--eps", {"eps": args.eps}, _SECTIONS["epsilon"], out)
    for i, spec in enumerate(specs if isinstance(specs, list) else [specs]):
        kind = spec.get("kind") if isinstance(spec, dict) else None
        fn = _NORM_KINDS.get(kind) if isinstance(kind, str) else None
        if fn is None:
            out.append(f"spec[{i}].kind must be one of {', '.join(_NORM_KINDS)}, got {kind!r}")
            continue
        params, sig = {k: v for k, v in spec.items() if k != "kind"}, inspect.signature(fn).parameters
        kw = _conform(f"spec[{i}]", params, _schema(fn, next(iter(sig)), "pol", "bands"), out)
        calls.append((kind, fn, params, kw | {"pol": pol} if "pol" in sig and kw is not _NOT else kw))
    if out:
        raise ConfigError(out)
    traj = read_trajectory(args.traj)
    reports = [{
        "kind": kind, "value": float(fn(traj, **kw)), "dt": traj.dt, "frame_count": traj.n_frames,
        "params": params, "band": params.get("N"), "upper_bound": kind in ("GN", "G"),
        "truncated_bands": norms_mod.aggregate_bands(traj.grid) if kind in ("X", "Y", "G") else [],
    } for kind, fn, params, kw in calls]
    write_report(args.out, {"reports": reports})
    print(json.dumps(reports, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------- experiments

def _fit(rep) -> dict:
    return {"report": dataclasses.asdict(rep), "passed": rep.passed}


def _fields(*names, passed=lambda rep: rep.passed, **renamed) -> Callable:
    """rep -> {"report": {name: rep.<name>, key: rep.<renamed[key]>}, "passed": passed(rep)}."""
    keys = {**dict(zip(names, names)), **renamed}
    return lambda rep: {"report": {k: getattr(rep, a) for k, a in keys.items()}, "passed": passed(rep)}


class _Verifier(NamedTuple):
    fn: str | Callable  # the estimate the params reach; a name is looked up in estimates per call
    defaults: dict  # the run's own defaults for params ("grid": the default box)
    fixed: dict = {}  # arguments the run passes itself
    result: Callable = _fit  # fn's return value -> JSON-ready result holding "passed"
    supplied: tuple = ()  # fn's arguments no params key sets; "seed" is the config seed

    @property
    def call(self) -> Callable:
        return partial(vars(estimates).get(self.fn, self.fn), **self.fixed)

    @property
    def schema(self) -> _Schema:
        return _schema(self.call, *self.supplied, *self.fixed, **self.defaults)


_CAPS = _Schema(dict.fromkeys(estimates.TRILINEAR_CASES, float))
_HARNESS = _schema(estimates.TrilinearHarness.__init__, "self", "grid", "bands", "seed", "pol")
_CONFIGS = ((2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 1), (2, 2, 1, 1), (1, 2, 1, 1), (1, 1, 1, 1))


def _trilinear(grid: SpectralGrid, seed: int, eps: float = 0.05, bands=(1.0, 2.0),
               configs: list[tuple[float, float, float, float]] = _CONFIGS,
               caps: Annotated[dict, _CAPS] = {}, harness: Annotated[dict, _HARNESS] = {}) -> dict:
    """Every trilinear case over one shared harness, each against its cap (default 10)."""
    h = estimates.TrilinearHarness(grid, bands, seed=seed, pol=EpsilonPolicy(eps=eps), **harness)
    reps = {case: estimates.verify_trilinear(case, configs, h, caps.get(case, 10.0))
            for case in estimates.TRILINEAR_CASES}
    out = {case: {k: getattr(r, k) for k in ("ratios", "cap", "max_ratio", "passed")}
           for case, r in reps.items()}
    return {"report": out, "passed": all(r.passed for r in reps.values())}


_BOX, _TORUS = {"m": 32, "L": 4 * np.pi}, {"m": 16, "L": 2 * np.pi}
_VERIFIERS = {
    "unit_maximal": _Verifier("verify_unit_maximal", {}, {}, lambda reps: {
        **_fit(reps[0]), "control": dataclasses.asdict(reps[1])}, ("grid1", "grid3", "control_grid")),
    "lateral_dyadic": _Verifier("verify_lateral_dyadic",
                                {"grid": _BOX, "N_list": (1.0, 2.0, 4.0), "q": "inf"}),
    "local_smoothing": _Verifier("verify_local_smoothing", {"grid": _BOX}, {"flow": "schrodinger"}),
    "local_energy_decay": _Verifier("verify_local_smoothing", {"grid": _BOX}, {"flow": "halfwave"}),
    "bernstein": _Verifier("verify_bernstein", {"grid": {"m": 32, "L": 4.0}}),
    "radialish_sobolev": _Verifier(
        "verify_radialish_sobolev", {"grid": {"m": 16, "L": 4 * np.pi}},
        {"profiles": {"gaussian": RadialProfileSpec(kind="gaussian_bump", width=1.0),
                      "powerlaw": RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6)}},
        _fields("ratios", interpolated="interpolated_ratios", control="control_ratios",
                passed=lambda r: r.radial_ok and r.control_grows)),
    "operator_decay": _Verifier(
        "verify_operator_decay", {"grid": {"m": 32, "L": 8 * np.pi}}, {},
        _fields("chi_P_chi", "P_chi_P", "deviations", ell_drops="ell_drop_factors",
                separation_drops="separation_drop_factors",
                passed=lambda r: r.ell_ok and r.separation_ok), ("separation_grid",)),
    "trilinear": _Verifier(_trilinear, {"grid": {"m": 32, "L": 2 * np.pi}}, {}, dict, ("seed",)),
    "duhamel_retarded": _Verifier("verify_duhamel_retarded", {"grid": _TORUS, "N": 2.0}, {}, _fields(
        "strichartz_constants", "maximal_constant", "max_constant"), ("seed", "pol")),
    "main_linear": _Verifier("verify_main_linear", {"grid": _TORUS}, {}, _fields("constants", "worst"),
                             ("seed", "pol")),
}


def _solve(cfg: ExperimentConfig, mode: str, mu: Literal[1, -1] = 1) -> tuple:
    """(trajectory, result, passed) of one NLS, forced-NLS or Picard solve."""
    f = cfg.load_field()
    if mode == "picard":
        pcfg = solver_mod.PicardConfig(tau=cfg.T, dt=cfg.dt, mu=mu)
        traj, rec = solver_mod.picard_iterate(f.in_domain("physical"), None, pcfg, cfg.pol)
        contraction = {"distances": rec.distances, "ratios": rec.ratios,
                       "converged": rec.converged, "residual": rec.fixed_point_residual}
        return traj, {"contraction": contraction}, rec.converged
    run_cfg = solver_mod.NLSRunConfig(mu=mu, dt=cfg.dt, T=cfg.T)
    if mode == "nls":
        traj = u = solver_mod.splitstep_nls(f.in_domain("physical"), run_cfg)
    else:
        fw = randomize_schrodinger(f, RandomizationSpec(seed=cfg.seed), 0)
        F = free_trajectory(fw, 0.0, cfg.dt, run_cfg.n_steps + 1).in_domain("physical")
        traj = solver_mod.splitstep_forced(Field.zero(cfg.grid, "physical"), F, run_cfg)
        # mass and energy of u = F + v, the field the split-step evolves (v starts at 0),
        # made frame by frame: F_j first, which v_j then reads from F's memo
        u = Trajectory.from_source(traj.grid, traj.t0, traj.dt, "physical", traj.n_frames,
                                   lambda j, out: np.add(F.frames[j].values, traj.frames[j].values, out=out))
    masses, energies = solver_mod.nls_mass_energy_series(u)
    # the drift is taken from frame 1, the first the default 2/3 dealias mask has
    # acted on: what the mask removes from a datum that is not band-limited is not drift
    drift = abs(masses[-1] - masses[1]) / max(masses[1], 1e-300)
    # a forced run passes when it completes
    passed = mode == "forced" or bool(drift < 1e-10)
    return traj, {"mass": masses, "energy": energies, "mass_drift": drift}, passed


# an ensemble's params are as_norm_ensemble's keywords; s defaults to the config's epsilon s,
# and to 0.5 when the config has none
_ENSEMBLE = _schema(montecarlo.as_norm_ensemble, "which", "f", "pol", "Q", "seed", "T", "threads",
                    s=None)
_SOLVE = _schema(_solve, "cfg", "mode")
_EXPERIMENT = _Schema({"kind": Literal["verify", "ensemble", "solve"], "name": str, "params": dict,
                       "id": str}, ("kind",))
_NAMES = {"verify": tuple(_VERIFIERS), "ensemble": montecarlo.ENSEMBLE_KINDS,
          "solve": ("nls", "forced", "picard")}


def _experiment_violations(i: int, ex) -> list:
    """Every violation in one experiment entry: its keys, kind, name and params."""
    where, out = f"experiments[{i}]", []
    _conform(where, ex, _EXPERIMENT, out)
    kind = ex.get("kind") if isinstance(ex, dict) else None
    if not isinstance(kind, str) or kind not in _NAMES:
        return out
    name = ex.get("name", "nls" if kind == "solve" else None)
    if name not in _NAMES[kind]:
        out.append(f"{where}.name {name!r} is not a {kind} name; "
                   f"choose from {', '.join(_NAMES[kind])}")
        if kind != "solve":
            return out
    schema = {"ensemble": _ENSEMBLE, "solve": _SOLVE}.get(kind) or _VERIFIERS[name].schema
    _conform(f"{where}.params", ex.get("params", {}), schema, out)
    return out


def run_verifier(name: str, params: dict, seed: int = 0) -> dict:
    """Run one named estimate verifier; returns a JSON-ready report."""
    if name not in _VERIFIERS:
        raise ValueError(f"unknown estimate {name!r}; choose from {tuple(_VERIFIERS)}")
    v = _VERIFIERS[name]
    args = _checked(f"{name} params", {**v.defaults, **params}, v.schema)
    return v.result(v.call(**args, **({"seed": seed} if "seed" in v.supplied else {})))


def _run_experiment(cfg: ExperimentConfig, i: int, ex: dict, draw_threads: int | None = None) -> tuple:
    """Run experiment i of a validated config: (report entry, the solve's
    trajectory or None).  An ensemble runs its draws on ``draw_threads``
    workers (DLAB_THREADS when None).  A DLabError or MemoryError inside it
    is re-raised as a DLabError naming it."""
    kind, name, params = ex["kind"], ex.get("name", "nls"), ex.get("params", {})
    exp_id, traj = ex.get("id", f"{kind}_{i}"), None
    where = f"experiments[{i}].params"
    try:
        if kind == "verify":
            result = run_verifier(name, params, seed=cfg.seed)
            passed = result["passed"]
        elif kind == "ensemble":
            args = {"s": 0.5 if cfg.pol.s is None else cfg.pol.s, **_checked(where, params, _ENSEMBLE)}
            stats = montecarlo.as_norm_ensemble(name, cfg.load_field(), pol=cfg.pol, Q=cfg.draws,
                                                seed=cfg.seed, T=cfg.T, threads=draw_threads, **args)
            result, passed = stats.to_dict(), bool(stats.tail_slope < 0)
        else:
            traj, result, passed = _solve(cfg, name, **_checked(where, params, _SOLVE))
    except DLabError as exc:
        raise DLabError(f"experiments[{i}] ({exp_id}): {exc}") from exc
    except MemoryError as exc:
        raise DLabError(f"experiments[{i}] ({exp_id}): {_out_of_memory(exc)}") from exc
    return {"id": exp_id, "seed": cfg.seed, "kind": kind, "name": name,
            "result": result, "passed": passed}, traj


def _run_single(ex: dict, **config) -> dict:
    """Validate a config holding only experiment ex, run it, print its result."""
    cfg = ExperimentConfig.from_dict({"schema_version": SCHEMA_VERSION, **config, "experiments": [ex]})
    report = _run_experiment(cfg, 0, ex)[0]
    print(json.dumps(report["result"], indent=2, sort_keys=True, default=float))
    return report


def _cmd_verify(args) -> int:
    params = _read_json(args.config) if args.config else {}
    report = _run_single({"kind": "verify", "name": args.estimate, "id": args.estimate,
                          "params": params}, seed=args.seed)
    result = report["result"]
    write_report(args.out or f"verify_{args.estimate}.json",
                 {"estimate": args.estimate, "result": result})
    rep = result.get("report", {})
    if args.csv and isinstance(rep, dict) and "abscissae" in rep:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([("abscissa", "value"), *zip(rep["abscissae"], rep["values"])])
    return 0 if report["passed"] else 2


def _cmd_ensemble(args) -> int:
    grid = parse_grid_flag(args.grid)
    params = {"s": args.s, "alpha": args.alpha, "n_frames": args.frames,
              "exploratory": args.exploratory, "csv_path": args.csv}
    report = _run_single(
        {"kind": "ensemble", "name": args.stat, "id": args.stat, "params": params},
        grid={"m": grid.m, "L": grid.L}, time={"T": args.T, "dt": args.T},
        epsilon={"eps": args.eps}, seed=args.seed, draws=args.draws,
        data={"profile": {"kind": "fourier_powerlaw", "target_s": args.s}},
    )
    write_report(args.out or f"ensemble_{args.stat}.json", report["result"])
    return 0 if report["passed"] else 2


def _cmd_solve(args) -> int:
    cfg = ExperimentConfig.from_dict(_read_json(args.config))
    report, traj = _run_experiment(cfg, 0, {"kind": "solve", "name": args.mode, "id": args.mode})
    write_trajectory(traj, cfg.output_dir, {**report["result"], "config": cfg.canonical()})
    print(f"wrote trajectory to {cfg.output_dir}")
    return 0 if report["passed"] else 2


def report_merge(paths) -> dict:
    """Merge report files: deduplicate by (experiment id, seed), stable order."""
    merged, schema = {}, None
    for path in paths:
        body = _read_json(path)
        reports = body.get("reports", []) if isinstance(body, dict) else None
        if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
            raise DLabError(f"{path} is not a report file")
        if schema is None:
            schema = body.get("schema_version")
        elif body.get("schema_version") != schema:
            raise DLabError(f"schema mismatch: {path} has {body.get('schema_version')}, "
                            f"expected {schema}")
        for rep in reports:
            key = (rep.get("id"), rep.get("seed"))
            if key in merged:
                print(f"warning: duplicate report {key}; keeping first", file=sys.stderr)
            else:
                merged[key] = rep
    ordered = [merged[k] for k in sorted(merged, key=lambda t: (str(t[0]), str(t[1])))]
    return {"reports": ordered}


def _cmd_report(args) -> int:
    body = report_merge(args.inputs)
    write_report(args.out, body)
    print(f"merged {len(args.inputs)} files -> {args.out} ({len(body['reports'])} reports)")
    return 0


def _out_of_memory(exc: MemoryError) -> str:
    """One line for a failed allocation; numpy's message names the bytes it asked for."""
    return f"out of memory: {exc}" if str(exc) else "out of memory"


def _guarded(fn, *args) -> int:
    """fn(*args); a DLabError or MemoryError ends as its message lines and exit code 1."""
    try:
        return fn(*args)
    except ConfigError as exc:
        print("\n".join(f"config error: {v}" for v in exc.violations), file=sys.stderr)
    except DLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: {_out_of_memory(exc)}", file=sys.stderr)
    return 1


def run(config_path) -> int:
    """Execute the experiments of a config file: exit 0 on pass, 2 on a failed check, 1 on error."""
    return _guarded(_run, config_path)


def _run(config_path) -> int:
    threads = montecarlo.env_threads()
    cfg = ExperimentConfig.from_dict(_read_json(config_path))
    items = list(enumerate(cfg.experiments))
    # one budget of DLAB_THREADS workers: each of the experiments running at
    # once gets an equal share of it for its draws
    workers = max(1, min(threads, len(items)))

    def one(item):
        return _run_experiment(cfg, *item, threads // workers)[0]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(one, items))
    else:
        reports = [one(it) for it in items]
    write_report(Path(cfg.output_dir) / "report.json", {"config": cfg.canonical(), "reports": reports})
    for r in reports:
        print(f"[{'pass' if r['passed'] else 'FAIL'}] {r['id']}")
    return 0 if all(r["passed"] for r in reports) else 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="apply a free flow and write a trajectory")
    p.add_argument("--flow", choices=("schrodinger", "wave", "halfwave"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--grid", default="16,16.0", help="m,L")
    p.add_argument("--in", dest="input", default=None, help="input snapshot")
    p.add_argument("--in2", dest="input2", default=None, help="second wave datum")
    p.add_argument("--out", default="evolve_out")

    p = sub.add_parser("project", help="apply a frequency projection to a snapshot")
    p.add_argument("--band", required=True, help="e.g. dyadic:1, unit:1,0,0,0, directional:2,axis=1")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("randomize", help="emit randomized draws of a datum")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--law", choices=("complex_gaussian", "bernoulli"), default="complex_gaussian")
    p.add_argument("--grid", default="16,16.0")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--out", default="randomize_out")

    p = sub.add_parser("norms", help="evaluate space-time norms on a trajectory directory")
    p.add_argument("--spec", required=True, help="JSON file with one spec or a list")
    p.add_argument("--traj", required=True)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--out", default="norms_out.json")

    p = sub.add_parser("verify", help="run a named estimate verifier")
    p.add_argument("--estimate", required=True, choices=tuple(_VERIFIERS))
    p.add_argument("--config", default=None, help="JSON parameter overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="write raw fit points")

    p = sub.add_parser("ensemble", help="run an almost-sure-bound ensemble")
    p.add_argument("--stat", required=True, choices=montecarlo.ENSEMBLE_KINDS)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", default="16,16.0")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("--frames", type=int, default=17)
    p.add_argument("--exploratory", action="store_true")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="run the NLS / forced NLS / Picard solver")
    p.add_argument("--mode", choices=_NAMES["solve"], required=True)
    p.add_argument("--config", required=True)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")

    p = sub.add_parser("run", help="execute experiments from a config file")
    p.add_argument("config")

    args = ap.parse_args(argv)
    commands = {"evolve": _cmd_evolve, "project": _cmd_project, "randomize": _cmd_randomize,
                "norms": _cmd_norms, "verify": _cmd_verify, "ensemble": _cmd_ensemble,
                "solve": _cmd_solve, "report": _cmd_report, "run": lambda args: _run(args.config)}
    return _guarded(commands[args.command], args)


if __name__ == "__main__":
    sys.exit(main())

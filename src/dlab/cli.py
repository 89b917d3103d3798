"""Command-line entry point: evolve, project, randomize, norms, verify,
ensemble, solve, report, and config-driven experiment runs.

Configs are strict JSON: schema-versioned, unknown keys are errors, and every
violated constraint is reported at once.  Artifacts embed the resolved config
and a content hash; reruns with the same config and seed reproduce the JSON
and CSV bodies byte for byte (no timestamps are written).  DLAB_THREADS caps
experiment-level parallelism.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import estimates, montecarlo, norms as norms_mod, solver as solver_mod
from .errors import ConfigError, DLabError
from .grid import Field, SpectralGrid, Trajectory, parse_grid_flag, read_snapshot, write_snapshot
from .norms import EpsilonPolicy
from .projections import Band, dyadic_projection, unit_projection
from .propagate import free_trajectory, wave_flow
from .randomize import (RadialProfileSpec, RandomizationSpec, compute_active_set,
                        make_radial_data, randomize_schrodinger)

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_report(path, body: dict) -> None:
    body = dict(body)
    body["schema_version"] = SCHEMA_VERSION
    body["content_hash"] = content_hash({k: v for k, v in body.items() if k != "content_hash"})
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- config

# a key maps to None, or to the keys of its (object) value
_CONFIG_KEYS = {
    **dict.fromkeys(("schema_version", "seed", "draws", "experiments", "output_dir")),
    "grid": dict.fromkeys(("m", "L")),
    "time": dict.fromkeys(("T", "dt")),
    "epsilon": dict.fromkeys(("eps", "s")),
    "data": {"snapshot": None, "profile": dict.fromkeys(
        ("kind", "target_s", "ep0", "cutoff", "width", "inner", "outer"))},
}
_EXPERIMENT_KEYS = dict.fromkeys(("kind", "name", "params", "id"))


def _unknown_keys(where: str, obj, spec: dict) -> list:
    """Violations for the keys of obj that spec does not name, at every depth."""
    if not isinstance(obj, dict):
        return [f"{where} must be an object"]
    out = []
    for k, v in obj.items():
        if k not in spec:
            # T, Q, seed and pol reach a run from the config, never from params
            why = " (set by the config)" if k in ("T", "Q", "seed", "pol") else ""
            out.append(f"unknown key {k!r} in {where}{why}; expected {', '.join(sorted(spec))}")
        elif spec[k] is not None:
            out += _unknown_keys(f"{where}.{k}", v, spec[k])
    return out


def _build(violations: list, where: str, make):
    """make(), or None with a violation when it rejects its arguments."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        violations.append(f"{where}: {exc}")


@dataclass
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
        if not isinstance(raw, dict):
            raise ConfigError(["the config must be a JSON object"])
        violations = _unknown_keys("config", raw, _CONFIG_KEYS)
        if raw.get("schema_version") != SCHEMA_VERSION:
            violations.append(
                f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
            )
        # a section that is not an object is already a violation; read it as empty
        gd, td, ed, dd = (raw.get(k) if isinstance(raw.get(k), dict) else {}
                          for k in ("grid", "time", "epsilon", "data"))
        grid = _build(violations, "grid",
                      lambda: SpectralGrid(m=int(gd.get("m", 16)), L=float(gd.get("L", 32.0))))
        # an unreadable time section is reported by _build; (1, 1) adds no second violation
        T, dt = _build(violations, "time",
                       lambda: (float(td.get("T", 4.0)), float(td.get("dt", 0.25)))) or (1.0, 1.0)
        if T <= 0 or dt <= 0:
            violations.append("time: T and dt must be positive")
        elif abs(T / dt - round(T / dt)) > 1e-8:
            violations.append("time: T must be an integer multiple of dt")
        pol = _build(violations, "epsilon",
                     lambda: EpsilonPolicy(eps=float(ed.get("eps", 0.05)), s=ed.get("s")))
        if "profile" in dd:
            _build(violations, "data.profile", lambda: RadialProfileSpec(**dd["profile"]))
        seed = raw.get("seed", 0)
        draws = raw.get("draws", 1)
        if not isinstance(seed, int) or not isinstance(draws, int) or draws < 0:
            violations.append("seed must be an int and draws a nonnegative int")
        if not isinstance(raw.get("output_dir", ""), str):
            violations.append("output_dir must be a string")
        experiments = raw.get("experiments", [])
        if not isinstance(experiments, list):
            violations.append("experiments must be a list")
            experiments = []
        for i, ex in enumerate(experiments):
            violations += _experiment_violations(i, ex)
        if violations:
            raise ConfigError(violations)
        return cls(grid, T, dt, pol, dd, seed, draws, experiments, raw.get("output_dir", "dlab_out"))

    def canonical(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": {"m": self.grid.m, "L": self.grid.L},
            "time": {"T": self.T, "dt": self.dt},
            "epsilon": {"eps": self.pol.eps, "s": self.pol.s},
            "data": self.data,
            "seed": self.seed,
            "draws": self.draws,
            "experiments": self.experiments,
            "output_dir": self.output_dir,
        }

    def load_field(self) -> Field:
        if "snapshot" in self.data:
            return read_snapshot(self.data["snapshot"])
        profile = self.data.get("profile", {"kind": "gaussian_bump", "width": 1.0})
        return make_radial_data(RadialProfileSpec(**profile), self.grid)


# ------------------------------------------------------- trajectory I/O

def write_trajectory(traj: Trajectory, outdir, extra: dict | None = None) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for j, fr in enumerate(traj.frames):
        name = f"frame_{j:05d}.dlab"
        write_snapshot(fr, outdir / name)
        names.append(name)
    grid = {"m": traj.grid.m, "L": traj.grid.L, "d": traj.grid.d}
    manifest = {"grid": grid, "t0": traj.t0, "dt": traj.dt, "frames": names, **(extra or {})}
    write_report(outdir / "manifest.json", manifest)


def read_trajectory(outdir) -> Trajectory:
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as fh:
        manifest = json.load(fh)
    frames = tuple(read_snapshot(outdir / name) for name in manifest["frames"])
    return Trajectory(frames[0].grid, manifest["t0"], manifest["dt"], frames)


# ------------------------------------------------------------ commands

def _datum(args, profile: RadialProfileSpec) -> Field:
    """The ``--in`` snapshot, else ``profile`` on the ``--grid`` box."""
    if args.input:
        return read_snapshot(args.input)
    return make_radial_data(profile, parse_grid_flag(args.grid))


def _cmd_evolve(args) -> int:
    f = _datum(args, RadialProfileSpec(kind="gaussian_bump", width=1.0))
    grid = f.grid
    n = int(round(args.t / args.dt)) + 1
    if args.flow == "wave":
        f2 = Field.zero(grid, "physical") if not args.input2 else read_snapshot(args.input2)
        pairs = [wave_flow(f, f2, j * args.dt) for j in range(n)]
        for k, suffix in enumerate(("", "_dt")):  # u, then its time derivative
            frames = tuple(pair[k].in_domain("physical") for pair in pairs)
            write_trajectory(Trajectory(grid, 0.0, args.dt, frames), f"{args.out}{suffix}",
                             {"flow": f"wave{suffix}"})
    else:
        flow = "schrodinger" if args.flow == "schrodinger" else "halfwave"
        traj = free_trajectory(f, 0.0, args.dt, n, flow=flow).in_domain("physical")
        write_trajectory(traj, args.out, {"flow": args.flow})
    print(f"wrote {n} frames to {args.out}")
    return 0


def parse_band(text: str) -> Band:
    kind, _, rest = text.partition(":")
    if kind == "unit":
        return Band.unit(tuple(int(c) for c in rest.split(",")))
    if kind == "directional":
        nval, _, axis = rest.partition(",axis=")
        return Band.directional(float(nval), int(axis))
    table = {"dyadic": Band.dyadic, "leq": Band.leq, "gt": Band.gt, "fattened": Band.fattened}
    if kind not in table:
        raise ValueError(f"unknown band spec {text!r}")
    return table[kind](float(rest))


def _cmd_project(args) -> int:
    f = read_snapshot(args.input)
    band = parse_band(args.band)
    out = unit_projection(f, band.k) if band.kind == "unit" else dyadic_projection(f, band)
    write_snapshot(out, args.out)
    print(f"projected {args.input} through {args.band} -> {args.out}")
    return 0


def _cmd_randomize(args) -> int:
    f = _datum(args, RadialProfileSpec(kind="fourier_powerlaw", target_s=args.s))
    spec = RandomizationSpec(seed=args.seed, law=args.law)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for draw in range(args.draws):
        fw = randomize_schrodinger(f, spec, draw)
        name = f"draw_{draw:05d}.dlab"
        write_snapshot(fw.in_domain("physical"), outdir / name)
        names.append(name)
    manifest = {"seed": args.seed, "law": args.law, "draws": args.draws, "files": names,
                "active_cells": len(compute_active_set(f)), "grid": {"m": f.grid.m, "L": f.grid.L}}
    write_report(outdir / "manifest.json", manifest)
    print(f"wrote {args.draws} draws to {outdir}")
    return 0


# norm kind -> (trajectory, spec, interval, policy) -> value
_NORM_KINDS = {
    "strichartz": lambda v, s, i, pol: norms_mod.strichartz_norm(v, s["q"], s["r"], i),
    "lateral": lambda v, s, i, pol: norms_mod.lateral_norm(v, s["p"], s["q"], s["axis"], i),
    "XN": lambda v, s, i, pol: norms_mod.xn_norm(v, s["N"], i, pol),
    "X": lambda v, s, i, pol: norms_mod.x_norm(v, i, pol),
    "YN": lambda v, s, i, pol: norms_mod.yn_norm(v, s["N"], i, pol),
    "Y": lambda v, s, i, pol: norms_mod.y_norm(v, i, pol),
    "GN": lambda v, s, i, pol: norms_mod.gn_norm_upper(v, s["N"], i, pol),
    "G": lambda v, s, i, pol: norms_mod.g_norm_upper(v, i, pol),
    "Z": lambda v, s, i, pol: norms_mod.z_norm(v, i),
    "LinfH1": lambda v, s, i, pol: norms_mod.linf_h1(v, i),
}


def _norm_from_spec(traj: Trajectory, spec: dict, pol: EpsilonPolicy):
    kind = spec.get("kind")
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    interval = tuple(spec["interval"]) if "interval" in spec else None
    return norms_mod.NormReport(
        kind=kind,
        value=float(_NORM_KINDS[kind](traj, spec, interval, pol)),
        dt=traj.dt,
        frame_count=traj.n_frames,
        params={k: v for k, v in spec.items() if k != "kind"},
        band=spec.get("N"),
        upper_bound=kind in ("GN", "G"),
        truncated_bands=tuple(norms_mod.aggregate_bands(traj.grid))
        if kind in ("X", "Y", "G")
        else (),
    )


def _cmd_norms(args) -> int:
    specs = _read_json(args.spec)
    if isinstance(specs, dict):
        specs = [specs]
    traj = read_trajectory(args.traj)
    pol = EpsilonPolicy(eps=args.eps)
    reports = [_norm_from_spec(traj, spec, pol).to_dict() for spec in specs]
    write_report(args.out, {"reports": reports})
    print(json.dumps(reports, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------- experiments

def _kwargs(fn, *supplied, **nested) -> dict:
    """Params keys an experiment may set: fn's arguments less those the run
    supplies itself or JSON cannot express (spec format of _unknown_keys)."""
    return {**dict.fromkeys(inspect.signature(fn).parameters.keys() - set(supplied)), **nested}


class _Verifier(NamedTuple):
    grid: dict | None  # default grid; None: the verifier builds its own lattices
    call: Callable  # (grid, params, seed) -> JSON-ready result holding "passed"
    params: dict  # the params keys it takes, see _kwargs
    required: tuple = ()


def _fit(rep) -> dict:
    return {"report": rep.to_dict(), "passed": rep.passed}


def _unit_maximal(g, params, seed) -> dict:
    rep, control = estimates.verify_unit_maximal(**params)
    return {"report": rep.to_dict(), "control": control.to_dict(), "passed": rep.passed}


def _lateral_dyadic(g, params, seed) -> dict:
    p, q = params.pop("p"), params.pop("q", None)
    q = np.inf if q in ("inf", None) else q
    N_list = params.pop("N_list", (1.0, 2.0, 4.0))
    return _fit(estimates.verify_lateral_dyadic(g, N_list, p, q, **params))


def _radialish_sobolev(g, params, seed) -> dict:
    profiles = {"gaussian": RadialProfileSpec(kind="gaussian_bump", width=1.0),
                "powerlaw": RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6)}
    rep = estimates.verify_radialish_sobolev(g, profiles, **params)
    report = {"ratios": rep.ratios, "interpolated": rep.interpolated_ratios,
              "control": rep.control_ratios}
    return {"report": report, "passed": rep.radial_ok and rep.control_grows}


def _operator_decay(g, params, seed) -> dict:
    rep = estimates.verify_operator_decay(g, **params)
    report = {"chi_P_chi": rep.chi_P_chi, "P_chi_P": rep.P_chi_P, "ell_drops": rep.ell_drop_factors,
              "separation_drops": rep.separation_drop_factors, "deviations": rep.deviations}
    return {"report": report, "passed": rep.ell_ok and rep.separation_ok}


def _trilinear(g, params, seed) -> dict:
    pol = EpsilonPolicy(eps=params.pop("eps", 0.05))
    harness = estimates.TrilinearHarness(
        g, params.pop("bands", (1.0, 2.0)), seed=seed, pol=pol, **params.pop("harness", {})
    )
    configs = params.pop("configs", [(2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 1), (2, 2, 1, 1),
                                     (1, 2, 1, 1), (1, 1, 1, 1)])
    caps = params.pop("caps", {})
    reps = {case: estimates.verify_trilinear(case, configs, harness, caps.get(case, 10.0))
            for case in estimates.TRILINEAR_CASES}
    out = {case: {"ratios": r.ratios, "cap": r.cap, "max_ratio": r.max_ratio, "passed": r.passed}
           for case, r in reps.items()}
    return {"report": out, "passed": all(r.passed for r in reps.values())}


def _duhamel_retarded(g, params, seed) -> dict:
    rep = estimates.verify_duhamel_retarded(g, params.pop("N", 2.0), seed=seed, **params)
    report = {"strichartz_constants": rep.strichartz_constants,
              "maximal_constant": rep.maximal_constant, "max_constant": rep.max_constant}
    return {"report": report, "passed": rep.passed}


def _main_linear(g, params, seed) -> dict:
    rep = estimates.verify_main_linear(g, seed=seed, **params)
    return {"report": {"constants": rep.constants, "worst": rep.worst}, "passed": rep.passed}


# Only trilinear, duhamel_retarded and main_linear receive the config seed.
_BOX, _TORUS = {"m": 32, "L": 4 * np.pi}, {"m": 16, "L": 2 * np.pi}
_VERIFIERS = {
    "unit_maximal": _Verifier(None, _unit_maximal, _kwargs(
        estimates.verify_unit_maximal, "grid1", "grid3", "control_grid")),
    "lateral_dyadic": _Verifier(
        _BOX, _lateral_dyadic, _kwargs(estimates.verify_lateral_dyadic), ("p",)),
    "local_smoothing": _Verifier(_BOX, lambda g, params, seed: _fit(estimates.verify_local_smoothing(
        g, flow="schrodinger", **params)), _kwargs(estimates.verify_local_smoothing, "flow")),
    "local_energy_decay": _Verifier(_BOX, lambda g, params, seed: _fit(estimates.verify_local_smoothing(
        g, flow="halfwave", **params)), _kwargs(estimates.verify_local_smoothing, "flow")),
    "bernstein": _Verifier({"m": 32, "L": 4.0}, lambda g, params, seed: _fit(
        estimates.verify_bernstein(g, **params)), _kwargs(estimates.verify_bernstein)),
    "radialish_sobolev": _Verifier({"m": 16, "L": 4 * np.pi}, _radialish_sobolev, _kwargs(
        estimates.verify_radialish_sobolev, "profiles")),
    "operator_decay": _Verifier({"m": 32, "L": 8 * np.pi}, _operator_decay, _kwargs(
        estimates.verify_operator_decay, "separation_grid")),
    "trilinear": _Verifier({"m": 32, "L": 2 * np.pi}, _trilinear, {
        **dict.fromkeys(("grid", "eps", "bands", "configs")),
        "caps": dict.fromkeys(estimates.TRILINEAR_CASES),
        "harness": _kwargs(estimates.TrilinearHarness, "grid", "bands", "seed", "pol")}),
    "duhamel_retarded": _Verifier(_TORUS, _duhamel_retarded, _kwargs(
        estimates.verify_duhamel_retarded, "seed", "pol")),
    "main_linear": _Verifier(_TORUS, _main_linear, _kwargs(
        estimates.verify_main_linear, "seed", "pol")),
}
_ENSEMBLE_PARAMS = _kwargs(montecarlo.as_norm_ensemble, "which", "f", "pol", "Q", "seed", "T")
_SOLVE_MODES = ("nls", "forced", "picard")
_NAMES = {"verify": tuple(_VERIFIERS), "ensemble": montecarlo.ENSEMBLE_KINDS, "solve": _SOLVE_MODES}


def _experiment_violations(i: int, ex) -> list:
    """Every violation in one experiment entry: its keys, kind, name and params."""
    where = f"experiments[{i}]"
    out = _unknown_keys(where, ex, _EXPERIMENT_KEYS)
    if not isinstance(ex, dict):
        return out
    kind, params = ex.get("kind"), ex.get("params", {})
    name = ex.get("name", "nls" if kind == "solve" else None)
    if not isinstance(kind, str) or kind not in _NAMES:
        return out + [f"{where}.kind must be {'|'.join(_NAMES)}"]
    if name not in _NAMES[kind]:
        out.append(f"{where}.name {name!r} is not a {kind} name; "
                   f"choose from {', '.join(_NAMES[kind])}")
        if kind != "solve":
            return out
    given = params if isinstance(params, dict) else {}
    if kind == "verify":
        spec, required = _VERIFIERS[name].params, _VERIFIERS[name].required
        out += [f"{where}.params.{k} is required" for k in required if k not in given]
        if "grid" in given and "grid" in spec:
            _build(out, f"{where}.params.grid", lambda: SpectralGrid(**given["grid"]))
    elif kind == "ensemble":
        spec = _ENSEMBLE_PARAMS
    else:
        spec = {"mu": None}
        if given.get("mu", +1) not in (+1, -1):
            out.append(f"{where}.params.mu must be +1 or -1, got {given['mu']!r}")
    return out + _unknown_keys(f"{where}.params", params, spec)


def run_verifier(name: str, params: dict, seed: int = 0) -> dict:
    """Run one named estimate verifier; returns a JSON-ready report."""
    if name not in _VERIFIERS:
        raise ValueError(f"unknown estimate {name!r}; choose from {tuple(_VERIFIERS)}")
    v = _VERIFIERS[name]
    return v.call(SpectralGrid(**params.pop("grid", v.grid)) if v.grid else None, params, seed)


def _solve(cfg: ExperimentConfig, mode: str, mu: int) -> tuple:
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
        traj = solver_mod.splitstep_nls(f.in_domain("physical"), run_cfg)
    else:
        fw = randomize_schrodinger(f, RandomizationSpec(seed=cfg.seed), 0)
        F = free_trajectory(fw, 0.0, cfg.dt, run_cfg.n_steps + 1).in_domain("physical")
        traj = solver_mod.splitstep_forced(Field.zero(cfg.grid, "physical"), F, run_cfg)
    masses, energies = solver_mod.nls_mass_energy_series(traj)
    drift = abs(masses[-1] - masses[0]) / max(masses[0], 1e-300)
    # a forced run passes when it completes: the mass of v is not conserved
    passed = mode == "forced" or bool(drift < 1e-10)
    return traj, {"mass": masses, "energy": energies, "mass_drift": drift}, passed


def _run_experiment(cfg: ExperimentConfig, i: int, ex: dict) -> tuple:
    """Run experiment i of a validated config: (report entry, the solve's
    trajectory or None).  A DLabError inside it is re-raised naming it."""
    kind, name = ex["kind"], ex.get("name", "nls")
    params = dict(ex.get("params", {}))
    exp_id = ex.get("id", f"{kind}_{i}")
    traj = None
    try:
        if kind == "verify":
            result = run_verifier(name, params, seed=cfg.seed)
            passed = result["passed"]
        elif kind == "ensemble":
            stats = montecarlo.as_norm_ensemble(
                name, cfg.load_field(), s=params.pop("s", cfg.pol.s or 0.5), pol=cfg.pol,
                Q=cfg.draws, seed=cfg.seed, T=cfg.T, **params
            )
            result, passed = stats.to_dict(), bool(stats.tail_slope < 0)
        else:
            traj, result, passed = _solve(cfg, name, params.get("mu", +1))
    except DLabError as exc:
        raise DLabError(f"experiments[{i}] ({exp_id}): {exc}") from exc
    return {"id": exp_id, "seed": cfg.seed, "kind": kind, "name": name,
            "result": result, "passed": passed}, traj


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([str(exc)]) from exc


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
    merged = {}
    schema = None
    for path in paths:
        with open(path) as fh:
            body = json.load(fh)
        if schema is None:
            schema = body.get("schema_version")
        elif body.get("schema_version") != schema:
            raise DLabError(
                f"schema mismatch: {path} has {body.get('schema_version')}, expected {schema}"
            )
        for rep in body.get("reports", []):
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


def _guarded(fn, *args) -> int:
    """fn(*args); a DLabError ends as its message lines and exit code 1."""
    try:
        return fn(*args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
    except DLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def run(config_path) -> int:
    """Execute the experiments of a config file: exit 0 on pass, 2 on a failed check, 1 on error."""
    return _guarded(_run, config_path)


def _run(config_path) -> int:
    cfg = ExperimentConfig.from_dict(_read_json(config_path))

    def one(item):
        return _run_experiment(cfg, *item)[0]

    threads = int(os.environ.get("DLAB_THREADS", "1"))
    items = list(enumerate(cfg.experiments))
    if threads > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(one, items))
    else:
        reports = [one(it) for it in items]
    write_report(Path(cfg.output_dir) / "report.json", {"config": cfg.canonical(), "reports": reports})
    for r in reports:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']}")
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
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("project", help="apply a frequency projection to a snapshot")
    p.add_argument("--band", required=True, help="e.g. dyadic:1, unit:1,0,0,0, directional:2,axis=1")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("randomize", help="emit randomized draws of a datum")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--law", choices=("complex_gaussian", "bernoulli"), default="complex_gaussian")
    p.add_argument("--grid", default="16,16.0")
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--out", default="randomize_out")
    p.set_defaults(func=_cmd_randomize)

    p = sub.add_parser("norms", help="evaluate space-time norms on a trajectory directory")
    p.add_argument("--spec", required=True, help="JSON file with one spec or a list")
    p.add_argument("--traj", required=True)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--out", default="norms_out.json")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("verify", help="run a named estimate verifier")
    p.add_argument("--estimate", required=True, choices=tuple(_VERIFIERS))
    p.add_argument("--config", default=None, help="JSON parameter overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="write raw fit points")
    p.set_defaults(func=_cmd_verify)

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
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("solve", help="run the NLS / forced NLS / Picard solver")
    p.add_argument("--mode", choices=_SOLVE_MODES, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="execute experiments from a config file")
    p.add_argument("config")
    p.set_defaults(func=lambda args: _run(args.config))

    args = ap.parse_args(argv)
    return _guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())

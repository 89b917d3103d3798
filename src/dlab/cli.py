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
import json
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import estimates, montecarlo, norms as norms_mod, solver as solver_mod
from .errors import ConfigError, DLabError
from .grid import (
    Field,
    SpectralGrid,
    Trajectory,
    parse_grid_flag,
    read_snapshot,
    write_snapshot,
)
from .norms import EpsilonPolicy
from .projections import Band, dyadic_projection, unit_projection
from .propagate import free_trajectory, wave_flow
from .randomize import (
    RadialProfileSpec,
    RandomizationSpec,
    compute_active_set,
    make_radial_data,
    randomize_schrodinger,
)

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

_GRID_KEYS = {"m", "L"}
_TIME_KEYS = {"T", "dt"}
_EPS_KEYS = {"eps", "s"}
_DATA_KEYS = {"profile", "snapshot"}
_PROFILE_KEYS = {"kind", "target_s", "ep0", "cutoff", "width", "inner", "outer"}
_EXPERIMENT_KEYS = {"kind", "name", "params", "id"}
_TOP_KEYS = {
    "schema_version",
    "grid",
    "time",
    "epsilon",
    "data",
    "seed",
    "draws",
    "experiments",
    "output_dir",
}


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
    raw: dict = dc_field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        violations = []

        def unknown(keys, allowed, where):
            for k in keys:
                if k not in allowed:
                    violations.append(f"unknown key {k!r} in {where}")

        unknown(raw, _TOP_KEYS, "top level")
        if raw.get("schema_version") != SCHEMA_VERSION:
            violations.append(
                f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
            )
        gd = raw.get("grid", {})
        unknown(gd, _GRID_KEYS, "grid")
        grid = None
        try:
            grid = SpectralGrid(m=int(gd.get("m", 16)), L=float(gd.get("L", 32.0)))
        except (ValueError, TypeError) as exc:
            violations.append(f"grid: {exc}")
        td = raw.get("time", {})
        unknown(td, _TIME_KEYS, "time")
        T = float(td.get("T", 4.0))
        dt = float(td.get("dt", 0.25))
        if T <= 0 or dt <= 0:
            violations.append("time: T and dt must be positive")
        elif abs(T / dt - round(T / dt)) > 1e-8:
            violations.append("time: T must be an integer multiple of dt")
        ed = raw.get("epsilon", {})
        unknown(ed, _EPS_KEYS, "epsilon")
        pol = None
        try:
            pol = EpsilonPolicy(eps=float(ed.get("eps", 0.05)), s=ed.get("s"))
        except (ValueError, TypeError) as exc:
            violations.append(f"epsilon: {exc}")
        dd = raw.get("data", {})
        unknown(dd, _DATA_KEYS, "data")
        if "profile" in dd:
            unknown(dd["profile"], _PROFILE_KEYS, "data.profile")
            try:
                RadialProfileSpec(**dd["profile"])
            except (ValueError, TypeError) as exc:
                violations.append(f"data.profile: {exc}")
        seed = raw.get("seed", 0)
        draws = raw.get("draws", 1)
        if not isinstance(seed, int) or not isinstance(draws, int) or draws < 0:
            violations.append("seed must be an int and draws a nonnegative int")
        experiments = raw.get("experiments", [])
        if not isinstance(experiments, list):
            violations.append("experiments must be a list")
            experiments = []
        for i, ex in enumerate(experiments):
            unknown(ex, _EXPERIMENT_KEYS, f"experiments[{i}]")
            if ex.get("kind") not in ("verify", "ensemble", "solve"):
                violations.append(f"experiments[{i}].kind must be verify|ensemble|solve")
            elif ex["kind"] == "verify" and ex.get("name") not in _VERIFIER_NAMES:
                violations.append(
                    f"experiments[{i}].name {ex.get('name')!r} is not a verifier; "
                    f"choose from {', '.join(_VERIFIER_NAMES)}"
                )
        if violations:
            raise ConfigError(violations)
        return cls(
            grid=grid,
            T=T,
            dt=dt,
            pol=pol,
            data=dd,
            seed=seed,
            draws=draws,
            experiments=experiments,
            output_dir=raw.get("output_dir", "dlab_out"),
            raw=raw,
        )

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
    manifest = {
        "grid": {"m": traj.grid.m, "L": traj.grid.L, "d": traj.grid.d},
        "t0": traj.t0,
        "dt": traj.dt,
        "frames": names,
    }
    if extra:
        manifest.update(extra)
    write_report(outdir / "manifest.json", manifest)


def read_trajectory(outdir) -> Trajectory:
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as fh:
        manifest = json.load(fh)
    frames = tuple(read_snapshot(outdir / name) for name in manifest["frames"])
    return Trajectory(frames[0].grid, manifest["t0"], manifest["dt"], frames)


# ------------------------------------------------------------ commands

def _cmd_evolve(args) -> int:
    grid = parse_grid_flag(args.grid) if args.grid else None
    if args.input:
        f = read_snapshot(args.input)
        grid = f.grid
    else:
        f = make_radial_data(RadialProfileSpec(kind="gaussian_bump", width=1.0), grid)
    n = int(round(args.t / args.dt)) + 1
    if args.flow == "wave":
        f2 = Field.zero(grid, "physical") if not args.input2 else read_snapshot(args.input2)
        frames, frames_t = [], []
        for j in range(n):
            u, ut = wave_flow(f, f2, j * args.dt)
            frames.append(u.in_domain("physical"))
            frames_t.append(ut.in_domain("physical"))
        traj = Trajectory(grid, 0.0, args.dt, tuple(frames))
        write_trajectory(traj, args.out, {"flow": "wave"})
        write_trajectory(
            Trajectory(grid, 0.0, args.dt, tuple(frames_t)),
            str(args.out) + "_dt",
            {"flow": "wave_dt"},
        )
    else:
        flow = "schrodinger" if args.flow == "schrodinger" else "halfwave"
        traj = free_trajectory(f, 0.0, args.dt, n, flow=flow).map_frames(
            lambda fr: fr.in_domain("physical")
        )
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
    grid = parse_grid_flag(args.grid)
    if args.input:
        f = read_snapshot(args.input)
        grid = f.grid
    else:
        f = make_radial_data(
            RadialProfileSpec(kind="fourier_powerlaw", target_s=args.s), grid
        )
    spec = RandomizationSpec(seed=args.seed, law=args.law)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for draw in range(args.draws):
        fw = randomize_schrodinger(f, spec, draw)
        name = f"draw_{draw:05d}.dlab"
        write_snapshot(fw.in_domain("physical"), outdir / name)
        names.append(name)
    manifest = {
        "seed": args.seed,
        "law": args.law,
        "draws": args.draws,
        "active_cells": len(compute_active_set(f)),
        "grid": {"m": grid.m, "L": grid.L},
        "files": names,
    }
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
    with open(args.spec) as fh:
        specs = json.load(fh)
    if isinstance(specs, dict):
        specs = [specs]
    traj = read_trajectory(args.traj)
    pol = EpsilonPolicy(eps=args.eps)
    reports = [_norm_from_spec(traj, spec, pol).to_dict() for spec in specs]
    write_report(args.out, {"reports": reports})
    print(json.dumps(reports, indent=2, sort_keys=True))
    return 0


# verifier name -> its default grid (None: it builds its own lattices)
_VERIFIER_GRIDS = {
    "unit_maximal": None,
    "lateral_dyadic": {"m": 32, "L": 4 * np.pi},
    "local_smoothing": {"m": 32, "L": 4 * np.pi},
    "local_energy_decay": {"m": 32, "L": 4 * np.pi},
    "bernstein": {"m": 32, "L": 4.0},
    "radialish_sobolev": {"m": 16, "L": 4 * np.pi},
    "operator_decay": {"m": 32, "L": 8 * np.pi},
    "trilinear": {"m": 32, "L": 2 * np.pi},
    "duhamel_retarded": {"m": 16, "L": 2 * np.pi},
    "main_linear": {"m": 16, "L": 2 * np.pi},
}
_VERIFIER_NAMES = tuple(_VERIFIER_GRIDS)


def run_verifier(name: str, params: dict, seed: int = 0) -> dict:
    """Dispatch one named estimate verifier; returns a JSON-ready report."""
    if name not in _VERIFIER_GRIDS:
        raise ValueError(f"unknown estimate {name!r}; choose from {_VERIFIER_NAMES}")
    if _VERIFIER_GRIDS[name] is not None:
        g = SpectralGrid(**params.pop("grid", _VERIFIER_GRIDS[name]))
    if name == "unit_maximal":
        rep, control = estimates.verify_unit_maximal(**params)
        return {"report": rep.to_dict(), "control": control.to_dict(), "passed": rep.passed}
    if name == "lateral_dyadic":
        p = params.pop("p")
        q = params.pop("q", None)
        q = np.inf if q in ("inf", None) else q
        rep = estimates.verify_lateral_dyadic(g, params.pop("N_list", (1.0, 2.0, 4.0)), p, q, **params)
        return {"report": rep.to_dict(), "passed": rep.passed}
    if name in ("local_smoothing", "local_energy_decay"):
        flow = "schrodinger" if name == "local_smoothing" else "halfwave"
        rep = estimates.verify_local_smoothing(g, flow=flow, **params)
        return {"report": rep.to_dict(), "passed": rep.passed}
    if name == "bernstein":
        rep = estimates.verify_bernstein(g, **params)
        return {"report": rep.to_dict(), "passed": rep.passed}
    if name == "radialish_sobolev":
        profiles = {
            "gaussian": RadialProfileSpec(kind="gaussian_bump", width=1.0),
            "powerlaw": RadialProfileSpec(kind="fourier_powerlaw", target_s=0.6),
        }
        rep = estimates.verify_radialish_sobolev(g, profiles, **params)
        return {
            "report": {
                "ratios": rep.ratios,
                "interpolated": rep.interpolated_ratios,
                "control": rep.control_ratios,
            },
            "passed": rep.radial_ok and rep.control_grows,
        }
    if name == "operator_decay":
        rep = estimates.verify_operator_decay(g, **params)
        return {
            "report": {
                "chi_P_chi": rep.chi_P_chi,
                "P_chi_P": rep.P_chi_P,
                "ell_drops": rep.ell_drop_factors,
                "separation_drops": rep.separation_drop_factors,
                "deviations": rep.deviations,
            },
            "passed": rep.ell_ok and rep.separation_ok,
        }
    if name == "trilinear":
        pol = EpsilonPolicy(eps=params.pop("eps", 0.05))
        bands = params.pop("bands", (1.0, 2.0))
        harness = estimates.TrilinearHarness(g, bands, seed=seed, pol=pol, **params.pop("harness", {}))
        configs = params.pop("configs", [(2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 1), (2, 2, 1, 1), (1, 2, 1, 1), (1, 1, 1, 1)])
        caps = params.pop("caps", {})
        out = {}
        ok = True
        for case in estimates.TRILINEAR_CASES:
            rep = estimates.verify_trilinear(case, configs, harness, caps.get(case, 10.0))
            out[case] = {"ratios": rep.ratios, "cap": rep.cap, "max_ratio": rep.max_ratio, "passed": rep.passed}
            ok = ok and rep.passed
        return {"report": out, "passed": ok}
    if name == "duhamel_retarded":
        rep = estimates.verify_duhamel_retarded(g, params.pop("N", 2.0), seed=seed, **params)
        return {
            "report": {
                "strichartz_constants": rep.strichartz_constants,
                "maximal_constant": rep.maximal_constant,
                "max_constant": rep.max_constant,
            },
            "passed": rep.passed,
        }
    if name == "main_linear":
        rep = estimates.verify_main_linear(g, seed=seed, **params)
        return {"report": {"constants": rep.constants, "worst": rep.worst}, "passed": rep.passed}


def _cmd_verify(args) -> int:
    params = {}
    if args.config:
        with open(args.config) as fh:
            params = json.load(fh)
    result = run_verifier(args.estimate, params, seed=args.seed)
    out = args.out or f"verify_{args.estimate}.json"
    write_report(out, {"estimate": args.estimate, "result": result})
    rep = result.get("report", {})
    if args.csv and isinstance(rep, dict) and "abscissae" in rep:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["abscissa", "value"])
            for a, v in zip(rep["abscissae"], rep["values"]):
                w.writerow([a, v])
    print(json.dumps(result, indent=2, sort_keys=True, default=float))
    return 0 if result["passed"] else 2


def _cmd_ensemble(args) -> int:
    grid = parse_grid_flag(args.grid)
    f = make_radial_data(
        RadialProfileSpec(kind="fourier_powerlaw", target_s=args.s), grid
    )
    pol = EpsilonPolicy(eps=args.eps)
    stats = montecarlo.as_norm_ensemble(
        args.stat,
        f,
        s=args.s,
        pol=pol,
        Q=args.draws,
        seed=args.seed,
        alpha=args.alpha,
        T=args.T,
        n_frames=args.frames,
        exploratory=args.exploratory,
        csv_path=args.csv,
    )
    write_report(args.out or f"ensemble_{args.stat}.json", stats.to_dict())
    print(json.dumps(stats.to_dict(), indent=2, sort_keys=True, default=float))
    return 0


def _cmd_solve(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    cfg = ExperimentConfig.from_dict(raw)
    f = cfg.load_field()
    run_cfg = solver_mod.NLSRunConfig(mu=+1, dt=cfg.dt, T=cfg.T)
    outdir = Path(cfg.output_dir)
    if args.mode in ("nls", "forced"):
        if args.mode == "nls":
            traj = solver_mod.splitstep_nls(f.in_domain("physical"), run_cfg)
        else:
            fw = randomize_schrodinger(f, RandomizationSpec(seed=cfg.seed), 0)
            F = free_trajectory(fw, 0.0, cfg.dt, run_cfg.n_steps + 1).map_frames(
                lambda fr: fr.in_domain("physical")
            )
            traj = solver_mod.splitstep_forced(Field.zero(cfg.grid, "physical"), F, run_cfg)
        masses, energies = solver_mod.nls_mass_energy_series(traj)
        write_trajectory(traj, outdir, {"mass": masses, "energy": energies,
                                        "config": cfg.canonical()})
    else:  # picard
        pcfg = solver_mod.PicardConfig(tau=cfg.T, dt=cfg.dt)
        traj, record = solver_mod.picard_iterate(f.in_domain("physical"), None, pcfg, cfg.pol)
        write_trajectory(
            traj,
            outdir,
            {
                "contraction": {
                    "distances": record.distances,
                    "ratios": record.ratios,
                    "converged": record.converged,
                    "residual": record.fixed_point_residual,
                },
                "config": cfg.canonical(),
            },
        )
    print(f"wrote trajectory to {outdir}")
    return 0


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


def run(config_path) -> int:
    """Execute the experiments named in a config file.

    Exit code 0 on pass, 2 on verification failure, 1 on error.
    """
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    failed = False

    def run_one(i_ex):
        i, ex = i_ex
        kind = ex["kind"]
        params = dict(ex.get("params", {}))
        exp_id = ex.get("id", f"{kind}_{i}")
        if kind == "verify":
            result = run_verifier(ex["name"], params, seed=cfg.seed)
            return {"id": exp_id, "seed": cfg.seed, "kind": kind,
                    "name": ex["name"], "result": result, "passed": result["passed"]}
        if kind == "ensemble":
            f = cfg.load_field()
            stats = montecarlo.as_norm_ensemble(
                ex["name"], f, s=params.pop("s", cfg.pol.s or 0.5), pol=cfg.pol,
                Q=cfg.draws, seed=cfg.seed, T=cfg.T, **params
            )
            ok = bool(stats.tail_slope < 0)
            return {"id": exp_id, "seed": cfg.seed, "kind": kind, "name": ex["name"],
                    "result": stats.to_dict(), "passed": ok}
        # solve
        f = cfg.load_field()
        run_cfg = solver_mod.NLSRunConfig(mu=params.pop("mu", +1), dt=cfg.dt, T=cfg.T)
        traj = solver_mod.splitstep_nls(f.in_domain("physical"), run_cfg)
        masses, energies = solver_mod.nls_mass_energy_series(traj)
        drift = abs(masses[-1] - masses[0]) / max(masses[0], 1e-300)
        return {"id": exp_id, "seed": cfg.seed, "kind": kind,
                "result": {"mass_drift": drift, "energy": energies},
                "passed": bool(drift < 1e-10)}

    threads = int(os.environ.get("DLAB_THREADS", "1"))
    items = list(enumerate(cfg.experiments))
    try:
        if threads > 1 and len(items) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                reports = list(pool.map(run_one, items))
        else:
            reports = [run_one(it) for it in items]
    except DLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = any(not r["passed"] for r in reports)
    write_report(
        outdir / "report.json",
        {"config": cfg.canonical(), "reports": reports},
    )
    for r in reports:
        status = "pass" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']}")
    return 2 if failed else 0


def _cmd_run(args) -> int:
    return run(args.config)


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
    p.add_argument("--estimate", required=True, choices=_VERIFIER_NAMES)
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
    p.add_argument("--mode", choices=("nls", "forced", "picard"), required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="execute experiments from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except DLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

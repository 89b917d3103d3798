"""The three benchmark workloads.

Each workload is a closed loop: one operation at a time, single process,
single thread.  Construction plus :meth:`warm_up` is the set-up; the timed
phase runs :meth:`run_op` for a fixed number of operations (sized from the
run length by the operation's nominal cost at the commit that defined the
benchmark), then :meth:`final` where a workload has one.  :meth:`outputs`
reduces an operation's result to JSON values and :meth:`check` tests them;
both run outside the timed intervals.

Inputs come from the workload seed alone; dlab receives only the generated
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from functools import cached_property
from pathlib import Path

import numpy as np

# dlab functions the timed operations call are looked up on their modules at
# call time, so that the traced run's rebinding of module names reaches them
from dlab import cli, montecarlo as MC, propagate as P, solver as S
from dlab.grid import PHYSICAL, Field, SpectralGrid
from dlab.norms import EpsilonPolicy
from dlab.randomize import RadialProfileSpec, RandomizationSpec, make_radial_data

DEFAULT_SEED = 12
RTOL = 1e-9  # reference comparison for deterministic pipelines
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def compare(actual, expected, rtol: float = RTOL, path: str = "") -> list:
    """Paths at which ``actual`` differs from ``expected`` (numbers by rtol)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        out = []
        for k in expected:
            out += compare(actual[k], expected[k], rtol, f"{path}.{k}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, rtol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and not isinstance(actual, bool):
        if isinstance(actual, (int, float)) and math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rtol {rtol:g})"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def _finite_positive(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x > 0.0


class Workload:
    name = ""
    op_cost_s = 1.0  # nominal seconds per operation at the defining commit
    trace_ops = 1  # operations in the traced phase
    has_final = False

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.n_ops = max(1, round(seconds / self.op_cost_s))

    @cached_property
    def ref(self) -> dict:
        """This workload's entry in reference.json."""
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)["workloads"][self.name]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def outputs(self, i: int, result) -> dict:
        return result

    def check(self, i: int, out: dict) -> list:
        return []

    def final(self, outs: list) -> dict:
        """Timed work after the loop over operations (when has_final)."""
        raise NotImplementedError

    def check_final(self, out: dict) -> list:
        return []


# -------------------------------------------------------------- ensemble


class EnsembleY(Workload):
    name = "ensemble_y"
    op_cost_s = 0.62
    trace_ops = 4
    has_final = True
    P_LIST = (1.0, 1.5, 2.0, 4.0)

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.grid = SpectralGrid(m=16, L=4 * np.pi)
        self.f = make_radial_data(RadialProfileSpec(kind="fourier_powerlaw", target_s=0.4), self.grid)
        self.pol = EpsilonPolicy(eps=0.02, s=0.4)
        self.spec = RandomizationSpec(seed=seed, law="complex_gaussian")
        self.warm_value = None

    def run_op(self, draw: int) -> dict:
        statistic = MC.make_norm_statistic("Y", self.f, self.spec, T=4.0, n_frames=9, pol=self.pol)
        return {"draw": draw, "value": float(statistic(draw))}

    def warm_up(self) -> None:
        self.warm_value = self.run_op(0)["value"]

    def check(self, i: int, out: dict) -> list:
        bad = []
        if not _finite_positive(out["value"]):
            bad.append(f"draw {i}: value {out['value']!r} is not finite and positive")
        if i == 0 and out["value"] != self.warm_value:
            bad.append(f"draw 0: re-evaluation {out['value']!r} != {self.warm_value!r}")
        if self.seed == DEFAULT_SEED:
            ref = self.ref["draws"]
            if str(i) in ref:
                bad += compare(out["value"], ref[str(i)], path=f"draw {i}")
        return bad

    def final(self, outs: list) -> dict:
        values = np.array([o["value"] for o in outs])
        Q = values.size
        mg = MC.moment_growth(None, self.P_LIST, Q, values=values)
        lam = sorted(set(float(x) for x in np.quantile(values, (0.25, 0.5))))
        tf = MC.tail_fit(None, lam, Q, values=values, min_exceedances=2)
        return {
            "Q": Q,
            "lp_norms": {str(k): v for k, v in mg.lp_norms.items()},
            "skipped_p": mg.skipped_p,
            "moment_slope": mg.moment_slope,
            "tail_slope": tf.tail_slope,
            "tail_intercept": tf.tail_intercept,
        }

    def check_final(self, out: dict) -> list:
        bad = []
        if not (math.isfinite(out["tail_slope"]) and out["tail_slope"] < 0.0):
            bad.append(f"fits: tail slope {out['tail_slope']!r} is not negative")
        if not all(_finite_positive(v) for v in out["lp_norms"].values()):
            bad.append("fits: moment norms not finite and positive")
        if self.seed == DEFAULT_SEED:
            ref = self.ref["fits"]
            if ref["Q"] == out["Q"]:
                bad += compare(out, ref, path="fits")
        return bad


# ------------------------------------------------------------ forced NLS


class ForcedNLS(Workload):
    """Criterion 9a's pipeline at reduced length.

    The seed picks the modulation axis and its sign of the forcing profile
    0.9 * Gaussian * exp(+-i x_l); every choice is the same problem up to a
    lattice symmetry, so the cost does not depend on the seed.
    """

    name = "forced_nls_m32"
    op_cost_s = 4.7
    n_steps = 4
    warm_steps = 2

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.grid = g = SpectralGrid(m=32, L=8.0)
        self.axis = 1 + seed % 4
        self.sign = +1 if (seed // 4) % 2 == 0 else -1
        self.F0 = Field.physical(
            g, 0.9 * np.exp(-g.x_squared / 2.0) * np.exp(1j * self.sign * g.axis_coord(self.axis))
        )
        self.first = None

    @property
    def choice(self) -> str:
        return f"axis{self.axis}{'+' if self.sign > 0 else '-'}"

    def _pipeline(self, n_steps: int):
        g = self.grid
        cfg = S.NLSRunConfig(mu=+1, dt=0.001, T=0.001 * n_steps, dealias=False)
        F = P.free_trajectory(self.F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
            lambda fr: fr.in_domain(PHYSICAL)
        )
        run = S.splitstep_forced(Field.zero(g, PHYSICAL), F, cfg)
        return F, run, S.morawetz_audit(run, F)

    def warm_up(self) -> None:
        self._pipeline(self.warm_steps)

    def run_op(self, i: int):
        return self._pipeline(self.n_steps)

    def outputs(self, i: int, result) -> dict:
        F, run, rep = result
        vol = self.grid.dx**self.grid.d
        masses = [
            vol * float(np.sum(np.abs(Ff.values + vf.values) ** 2))
            for Ff, vf in zip(F.frames, run.frames)
        ]
        return {
            "choice": self.choice,
            "mass_drift": max(abs(mj - masses[0]) for mj in masses) / masses[0],
            "identity_mismatch": rep.identity_mismatch,
            "identity_tolerance": rep.identity_tolerance,
            "identity_ok": rep.identity_ok,
            "bulk": rep.bulk,
            "sigma_quarter_bulk": rep.sigma_quarter_bulk,
            "morawetz_rhs": rep.morawetz_rhs,
            "constant": rep.constant,
        }

    def check(self, i: int, out: dict) -> list:
        bad = []
        if not out["mass_drift"] <= 1e-10:
            bad.append(f"op {i}: mass of F + v drifts by {out['mass_drift']:.3g} > 1e-10")
        if not out["bulk"] >= 0.0:
            bad.append(f"op {i}: Morawetz bulk {out['bulk']!r} < 0")
        if not math.isfinite(out["constant"]):
            bad.append(f"op {i}: inequality constant {out['constant']!r} not finite")
        # identity_ok is recorded, never gated: at reduced length the mismatch
        # exceeds its tolerance by design (see NOTES.md)
        ref = dict(self.ref["choices"][self.choice])
        ref.pop("mass_drift")
        got = {k: v for k, v in out.items() if k != "mass_drift"}
        bad += compare(got, ref, path=f"op {i}")
        if self.first is None:
            self.first = out
        elif out != self.first:
            bad.append(f"op {i}: repeated pipeline differs from op 0")
        return bad


# ------------------------------------------------------------- dlab run


class VerifyRun(Workload):
    """``dlab.cli.run`` on a strict schema-1 config holding four verifiers."""

    name = "verify_run"
    op_cost_s = 5.8
    # verifiers whose reports do not depend on the config seed
    SEED_FREE = ("op-decay", "bern")

    def __init__(self, seed, seconds, workdir):
        super().__init__(seed, seconds, workdir)
        self.config = {
            "schema_version": 1,
            "grid": {"m": 16, "L": 4 * np.pi},
            "time": {"T": 4.0, "dt": 0.25},
            "epsilon": {"eps": 0.02, "s": 0.4},
            "data": {"profile": {"kind": "fourier_powerlaw", "target_s": 0.4}},
            "seed": seed,
            "draws": 0,
            "experiments": [
                {"kind": "verify", "name": "main_linear", "id": "main-linear",
                 "params": {"grid": {"m": 16, "L": 2 * np.pi}, "n_samples": 2}},
                {"kind": "verify", "name": "duhamel_retarded", "id": "duhamel",
                 "params": {"grid": {"m": 16, "L": 2 * np.pi}, "n_frames": 65}},
                {"kind": "verify", "name": "operator_decay", "id": "op-decay",
                 "params": {"grid": {"m": 16, "L": 8 * np.pi}, "separations": [2, 4]}},
                {"kind": "verify", "name": "bernstein", "id": "bern",
                 "params": {"grid": {"m": 32, "L": 4.0}}},
            ],
        }

    def _run(self, tag: str) -> dict:
        outdir = self.workdir / tag
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        path = outdir / "config.json"
        path.write_text(json.dumps(dict(self.config, output_dir=str(outdir / "out"))))
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            rc = cli.run(path)
        return {"rc": rc, "printed": printed.getvalue(), "outdir": outdir}

    def warm_up(self) -> None:
        shutil.rmtree(self._run("warm")["outdir"])

    def run_op(self, i: int) -> dict:
        return self._run(f"op{i}")

    def outputs(self, i: int, result) -> dict:
        outdir = result["outdir"]
        with open(outdir / "out" / "report.json") as fh:
            reports = json.load(fh)["reports"]
        shutil.rmtree(outdir)
        return {"rc": result["rc"], "printed": result["printed"], "reports": reports}

    def check(self, i: int, out: dict) -> list:
        ref = self.ref
        bad = compare(out["rc"], ref["rc"], path=f"op {i}.rc")
        bad += compare(out["printed"], ref["printed"], path=f"op {i}.printed")
        got = {r["id"]: r for r in out["reports"]}
        want = {r["id"]: r for r in ref["reports"]}
        if set(got) != set(want):
            return bad + [f"op {i}: experiment ids {sorted(got)} != {sorted(want)}"]
        for exp_id, r in got.items():
            if self.seed == DEFAULT_SEED or exp_id in self.SEED_FREE:
                bad += compare({k: v for k, v in r.items() if k != "seed"},
                               {k: v for k, v in want[exp_id].items() if k != "seed"},
                               path=f"op {i}.{exp_id}")
            else:
                bad += compare(r["passed"], want[exp_id]["passed"], path=f"op {i}.{exp_id}.passed")
                bad += [f"op {i}.{exp_id}: non-finite or non-positive constant {x!r}"
                        for x in _leaves(r["result"]["report"]) if not _finite_positive(x)]
        return bad


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    elif isinstance(obj, float):
        yield obj


WORKLOADS = {w.name: w for w in (EnsembleY, ForcedNLS, VerifyRun)}

"""One experiment path: `dlab run` and the verify/ensemble/solve subcommands
share the verifier registry, the pass rules and the upfront config check."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dlab import cli
from dlab.cli import ExperimentConfig, main, read_trajectory, run, write_trajectory
from dlab.errors import DLabError
from dlab.grid import SpectralGrid, random_field
from dlab.montecarlo import EnsembleStats, evaluate_draws
from dlab.norms import lateral_norm, strichartz_norm
from dlab.propagate import free_trajectory

README = Path(__file__).resolve().parents[1] / "README.md"


def config(tmp_path, experiments, **overrides):
    cfg = {
        "schema_version": 1,
        "grid": {"m": 8, "L": 8.0},
        "time": {"T": 0.1, "dt": 0.05},
        "epsilon": {"eps": 0.05},
        "data": {"profile": {"kind": "gaussian_bump", "width": 0.4}},
        "seed": 3,
        "draws": 2,
        "experiments": experiments,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if any experiment starts."""
    started = []
    monkeypatch.setattr(cli, "_run_experiment", lambda *a: started.append(a) or 1 / 0)
    return started


def test_every_violation_reported_before_any_experiment(tmp_path, capsys, no_compute):
    path = config(tmp_path, [
        {"kind": "verify", "name": "bernstein", "params": {"bogus": 1}},
        {"kind": "ensemble", "name": "no_such_statistic"},
        {"kind": "ensemble", "name": "Y", "params": {"T": 1.0}},
        {"kind": "solve", "name": "bogus"},
        {"kind": "solve", "params": {"mu": 2}},
    ])
    assert run(path) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert all(ln.startswith("config error: ") for ln in lines)
    assert len(lines) == 5
    for i, word in enumerate(("bogus", "no_such_statistic", "'T'", "bogus", "mu")):
        assert any(f"experiments[{i}]" in ln and word in ln for ln in lines), (i, err)
    assert "Traceback" not in err
    assert no_compute == []
    assert not (tmp_path / "out").exists()


def test_nested_and_required_params_checked(tmp_path, capsys, no_compute):
    path = config(tmp_path, [
        {"kind": "verify", "name": "trilinear", "params": {"harness": {"seed": 4}}},
        {"kind": "verify", "name": "lateral_dyadic", "params": {"grid": {"m": 12, "L": 1.0}}},
        {"kind": "verify", "name": "main_linear", "params": {"seed": 1}},
    ])
    assert run(path) == 1
    lines = capsys.readouterr().err.splitlines()
    assert any("experiments[0].params.harness" in ln and "'seed'" in ln for ln in lines)
    assert any("experiments[1].params.p is required" in ln for ln in lines)
    assert any("experiments[1].params.grid" in ln and "power of two" in ln for ln in lines)
    assert any("experiments[2].params" in ln and "'seed'" in ln for ln in lines)
    assert no_compute == []


def test_verify_subcommand_rejects_unknown_param(tmp_path, capsys, no_compute):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"grid": {"m": 16, "L": 4.0}, "bogus": 1}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--estimate", "bernstein", "--config", str(params), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert [ln for ln in err.splitlines() if "bogus" in ln][0].startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists() and no_compute == []


def test_error_inside_an_experiment_names_it(tmp_path, capsys):
    # the weighted gradient bound needs s > 1/2: a RegimeViolationError at run time
    path = config(tmp_path, [{"kind": "ensemble", "name": "weighted_grad_L2Linf", "id": "wg",
                              "params": {"s": 0.5}}])
    assert run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (wg): ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("params, message", [
    ({"eps": 5}, "eps must lie in (0, 2), got 5"),
    ({"configs": [[1, 1, 2, 1]]}, "frequency ordering violated"),
])
def test_parameter_outside_its_domain_is_one_error_line(tmp_path, capsys, params, message):
    # right type, wrong value: raised inside the verifier, not by the schema
    path = config(tmp_path, [{"kind": "verify", "name": "trilinear",
                              "params": {"grid": {"m": 8, "L": 2 * np.pi}, **params}}])
    assert run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (verify_0): ") and message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("experiment", [
    {"kind": "solve", "name": "picard", "id": "pic"},
    {"kind": "verify", "name": "main_linear", "id": "ml", "params": {"grid": {"m": 8, "L": 8.0}}},
])
def test_grid_without_an_aggregate_band_is_one_error_line(tmp_path, capsys, experiment):
    # m=8, L=8 resolves no dyadic N with 2 dxi <= N <= m dxi/4: an X norm over
    # no band would read 0 (a "converged" Picard solve) or divide by zero
    path = config(tmp_path, [experiment])
    assert run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: experiments[0] ({experiment['id']}): no dyadic band")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_wrapping_unit_maximal_packet_is_one_error_line(tmp_path, capsys, monkeypatch):
    # 2 |k| T = 168 at |k| = 56, T = 1.5 sweeps past 0.9 of the default 1D box (L = 125.7)
    monkeypatch.setattr(cli.estimates, "unit_maximal_tensor_ratio", lambda *a: 1 / 0)
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"k_list": [10, 14, 20, 56]}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--estimate", "unit_maximal", "--config", str(params), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (unit_maximal): |k| in [56]: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_ensemble_csv_of_another_key_is_an_error(tmp_path, capsys):
    csv_path = tmp_path / "draws.csv"
    evaluate_draws(lambda d: 1.0, 2, csv_path=csv_path)  # written under no key
    path = config(tmp_path, [{"kind": "ensemble", "name": "L3L6", "id": "l3l6",
                              "params": {"csv_path": str(csv_path)}}])
    assert run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (l3l6): ") and "another key" in err


def test_run_solve_picard_carries_contraction_record(tmp_path):
    path = config(tmp_path, [{"kind": "solve", "name": "picard", "id": "pic"}],
                  grid={"m": 8, "L": 4 * np.pi})
    code = run(path)
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]
    record = rep["result"]["contraction"]
    assert rep["name"] == "picard" and record["distances"]
    assert rep["passed"] is record["converged"]
    assert code == (0 if record["converged"] else 2)


def test_solve_subcommand_and_run_share_the_solve(tmp_path, monkeypatch):
    calls = []
    shared = cli._run_experiment
    monkeypatch.setattr(cli, "_run_experiment", lambda *a: calls.append(a[2]) or shared(*a))
    path = config(tmp_path, [{"kind": "solve", "id": "nls"}])
    assert main(["solve", "--mode", "nls", "--config", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert run(path) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]
    assert rep["result"]["mass"] == manifest["mass"]
    assert rep["result"]["energy"] == manifest["energy"]
    assert [ex.get("name", "nls") for ex in calls] == ["nls", "nls"]


def test_forced_solve_reports_mass_of_the_full_field(tmp_path):
    # u = F + v, not v, whose mass starts at 0
    path = config(tmp_path, [{"kind": "solve", "name": "forced", "id": "forced"}])
    assert run(path) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]["result"]
    assert result["mass"][0] > 0
    assert 0 <= result["mass_drift"] < 1


def test_nls_solve_of_data_not_band_limited_passes(tmp_path):
    # the default 2/3 dealias mask takes a third of this datum's mass in the first step
    path = config(tmp_path, [{"kind": "solve", "name": "nls", "id": "nls"}],
                  grid={"m": 8, "L": 4 * np.pi},
                  data={"profile": {"kind": "fourier_powerlaw", "target_s": 0.6}})
    assert run(path) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]["result"]
    assert result["mass"][1] < 0.9 * result["mass"][0]
    assert result["mass_drift"] < 1e-10


def test_solve_mu_reaches_the_solver(tmp_path):
    energies = {}
    for mu in (+1, -1):
        path = config(tmp_path, [{"kind": "solve", "params": {"mu": mu}}])
        assert run(path) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]
        energies[mu] = rep["result"]["energy"]
    assert energies[+1] != energies[-1]


def test_ensemble_subcommand_applies_the_pass_rule(tmp_path, monkeypatch):
    slope = {}

    def fake_ensemble(which, f, s, pol, Q, seed, T, **kw):
        return EnsembleStats(name=which, Q=Q, values=np.ones(Q), tail_slope=slope["value"])

    monkeypatch.setattr(cli.montecarlo, "as_norm_ensemble", fake_ensemble)
    argv = ["ensemble", "--stat", "Y", "--draws", "4", "--seed", "1", "--grid", "8,8.0",
            "--out", str(tmp_path / "e.json")]
    slope["value"] = -1.0
    assert main(argv) == 0
    slope["value"] = 0.5
    assert main(argv) == 2


def test_run_report_independent_of_thread_count(tmp_path, monkeypatch):
    path = config(tmp_path, [
        {"kind": "verify", "name": "bernstein",
         "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]}},
        {"kind": "verify", "name": "local_smoothing",
         "params": {"grid": {"m": 16, "L": 4 * np.pi}, "N_list": [1.0, 2.0],
                    "R_list": [1.0, 2.0], "n_frames": 6}},
    ])
    bodies = []
    for threads in ("1", "2"):
        monkeypatch.setenv("DLAB_THREADS", threads)
        assert run(path) in (0, 2)
        bodies.append((tmp_path / "out" / "report.json").read_bytes())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5"])
def test_bad_thread_count_is_one_error_line(tmp_path, capsys, monkeypatch, value):
    path = config(tmp_path, [{"kind": "solve", "name": "nls"}])
    monkeypatch.setenv("DLAB_THREADS", value)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"error: DLAB_THREADS must be a positive integer, got {value!r}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(DLabError, match="DLAB_THREADS must be a positive integer"):
        evaluate_draws(lambda d: 1.0, 2)


def test_readme_example_config_is_valid():
    text = README.read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S)
    assert block, "README lost its example config"
    cfg = ExperimentConfig.from_dict(json.loads(block.group(1)))
    assert {ex["kind"] for ex in cfg.experiments} == {"verify", "ensemble", "solve"}


def _norm_keys():
    """(kind, key) of every `dlab norms` spec key: its norm's arguments less
    the trajectory, pol and bands."""
    return [(kind, key) for kind, fn in cli._NORM_KINDS.items()
            for key in list(inspect.signature(fn).parameters)[1:] if key not in ("pol", "bands")]


# the keys each norms kind requires, at valid values
NORM_REQUIRED = {"strichartz": {"q": 2, "r": 4}, "lateral": {"p": 4, "q": 4, "axis": 1},
                 "XN": {"N": 2.0}, "YN": {"N": 2.0}, "GN": {"N": 2.0}}


@pytest.mark.parametrize("kind, name, key", [
    *[("verify", name, key) for name, v in cli._VERIFIERS.items() for key in v.schema.types],
    *[("ensemble", "Y", key) for key in cli._ENSEMBLE.types],
    *[("solve", "nls", key) for key in cli._SOLVE.types],
    *[("norms", kind, key) for kind, key in _norm_keys()],
])
def test_wrong_typed_key_is_one_config_error(tmp_path, capsys, no_compute, kind, name, key):
    value = 1 if key in ("law", "csv_path") else "x"  # a string is right only for these
    if kind == "norms":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": name, **NORM_REQUIRED.get(name, {}), key: value}))
        code = main(["norms", "--spec", str(spec), "--traj", str(tmp_path / "traj"),
                     "--out", str(tmp_path / "norms.json")])
        where = f"spec[0].{key}"
    else:
        params = {"p": 2, key: value} if name == "lateral_dyadic" else {key: value}
        code = run(config(tmp_path, [{"kind": kind, "name": name, "params": params}]))
        where = f"experiments[0].params.{key}"
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith(f"config error: {where} must be ") and repr(value) in lines[0]
    assert no_compute == [] and not (tmp_path / "norms.json").exists()


def test_inf_is_accepted_for_every_float_exponent(tmp_path):
    path = config(tmp_path, [
        {"kind": "verify", "name": "lateral_dyadic",
         "params": {"grid": {"m": 16, "L": 4 * np.pi}, "p": "inf", "q": 2, "N_list": [1.0, 2.0],
                    "n_frames": 6}},
        {"kind": "verify", "name": "bernstein",
         "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0], "r_low": 2, "r_high": "inf"}},
    ])
    assert run(path) in (0, 2)
    reports = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    assert reports[0]["result"]["report"]["name"] == "lateral_dyadic_pinf_q2"
    assert reports[1]["result"]["report"]["predicted"] == 2.0  # 4/r_low - 4/inf
    ExperimentConfig.from_dict(json.loads(config(tmp_path, [
        {"kind": "verify", "name": "lateral_dyadic", "params": {"p": 2, "q": "-inf"}},
        {"kind": "verify", "name": "duhamel_retarded",
         "params": {"strichartz_pairs": [["inf", 2.0], [2.0, 4.0]]}},
        {"kind": "ensemble", "name": "Y", "params": {"s": 0.6, "alpha": "inf"}},
    ]).read_text()))
    # a norms spec takes "inf" for its exponents and evaluates as with a float inf
    g = SpectralGrid(m=8, L=8.0)
    traj = free_trajectory(random_field(g, 5, band_limit=2.0), 0.0, 0.05, 3).in_domain("physical")
    write_trajectory(traj, tmp_path / "traj")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "strichartz", "q": "inf", "r": 2},
                                {"kind": "lateral", "p": "inf", "q": 2, "axis": 1}]))
    out = tmp_path / "norms.json"
    assert main(["norms", "--spec", str(spec), "--traj", str(tmp_path / "traj"), "--out", str(out)]) == 0
    values = [rep["value"] for rep in json.loads(out.read_text())["reports"]]
    back = read_trajectory(tmp_path / "traj")
    assert values == [strichartz_norm(back, np.inf, 2), lateral_norm(back, np.inf, 2, 1)]


def test_example_configs_are_valid(no_compute):
    paths = sorted((README.parent / "configs").glob("*.json"))
    assert [p.name for p in paths] == ["ensembles_s04.json", "ensembles_s06.json", "exponent_fits.json"]
    for path in paths:
        assert ExperimentConfig.from_dict(json.loads(path.read_text())).experiments
    assert no_compute == []


@pytest.mark.parametrize("exploratory", [False, True])
def test_ensemble_of_zero_s_runs_at_zero_s(tmp_path, capsys, exploratory):
    # epsilon.s = 0 is the config's s, not a missing one; the weighted bound needs s > 0
    path = config(tmp_path, [{"kind": "ensemble", "name": "weighted_L2Linf", "id": "w",
                              "params": {"exploratory": exploratory}}],
                  epsilon={"eps": 0.05, "s": 0.0}, draws=60)
    if not exploratory:
        assert run(path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiments[0] (w): ") and "s > 0" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return
    assert run(path) in (0, 2)
    result = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]["result"]
    assert result["metadata"]["s"] == 0.0
    assert result["metadata"]["exploratory_flags"]


def _keys(obj, path="result"):
    """(path, key) of every key of every object nested in obj."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield path, k
            yield from _keys(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _keys(v, f"{path}[{i}]")


def test_ensemble_report_keys_are_names(tmp_path):
    # a key that is a float's repr (a p or a lambda) is compared exactly by a
    # report diff, so a 1-ulp change of a data quantile would rename it
    path = config(tmp_path, [{"kind": "ensemble", "name": "L3L6", "id": "l3l6",
                              "params": {"n_frames": 3}}], draws=60)
    assert run(path) in (0, 2)
    result = json.loads((tmp_path / "out" / "report.json").read_text())["reports"][0]["result"]
    assert [(where, k) for where, k in _keys(result) if not k.isidentifier()] == []
    assert len(result["lp_norms"]) == len(result["p_list"]) > 0
    assert len(result["exceedances"]) == len(result["lambda_grid"]) > 0


def test_run_never_evaluates_more_draws_at_once_than_its_thread_budget(tmp_path, monkeypatch):
    # two ensembles at DLAB_THREADS=2 share one budget of 2 workers; the
    # report is the one-thread report byte for byte
    import threading
    import time

    from dlab import montecarlo

    path = config(tmp_path, [{"kind": "ensemble", "name": "L3L6", "id": "a"},
                             {"kind": "ensemble", "name": "LinfL2", "id": "b",
                              "params": {"exploratory": True}}], draws=60)
    lock, running, peak = threading.Lock(), [0], [0]
    make = montecarlo.make_norm_statistic

    def counted(*args, **kwargs):
        statistic = make(*args, **kwargs)

        def draw(d):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                time.sleep(0.002)  # holds the draw open so that concurrent ones overlap
                return statistic(d)
            finally:
                with lock:
                    running[0] -= 1

        return draw

    monkeypatch.setattr(montecarlo, "make_norm_statistic", counted)
    bodies = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("DLAB_THREADS", threads)
        peak[0] = 0
        assert run(path) == 0
        assert 1 <= peak[0] <= int(threads)
        bodies[threads] = (tmp_path / "out" / "report.json").read_bytes()
    assert bodies["1"] == bodies["2"]

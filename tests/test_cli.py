import json

import numpy as np
import pytest

from dlab.cli import (
    ExperimentConfig,
    main,
    parse_band,
    read_trajectory,
    report_merge,
    run,
    write_report,
    write_trajectory,
)
from dlab.errors import ConfigError
from dlab.grid import SpectralGrid, Trajectory, random_field, read_snapshot, write_snapshot


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "grid": {"m": 8, "L": 8.0},
        "time": {"T": 0.2, "dt": 0.05},
        "epsilon": {"eps": 0.05},
        "data": {"profile": {"kind": "gaussian_bump", "width": 1.0}},
        "seed": 3,
        "draws": 2,
        "experiments": [],
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def test_config_roundtrip_and_canonical():
    cfg = ExperimentConfig.from_dict(base_config())
    again = ExperimentConfig.from_dict(cfg.canonical())
    assert again.canonical() == cfg.canonical()


def test_config_unknown_keys_all_reported():
    bad = base_config(bogus=1)
    bad["grid"]["nope"] = 2
    bad["time"]["T"] = -1.0
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(bad)
    msgs = "\n".join(exc.value.violations)
    assert "bogus" in msgs and "nope" in msgs and "positive" in msgs
    assert len(exc.value.violations) >= 3


def test_run_empty_experiment_list(tmp_path):
    path = tmp_path / "cfg.json"
    cfg = base_config(output_dir=str(tmp_path / "out"))
    path.write_text(json.dumps(cfg))
    assert run(path) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["reports"] == []


def test_run_malformed_config_exit_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(bogus=True, schema_version=99)))
    assert run(path) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "schema_version" in err


def test_run_verify_experiment(tmp_path):
    cfg = base_config(
        output_dir=str(tmp_path / "out"),
        experiments=[
            {
                "kind": "verify",
                "name": "bernstein",
                "id": "bern",
                "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]},
            }
        ],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(path)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["reports"][0]["id"] == "bern"
    assert code in (0, 2)
    assert "content_hash" in report


def test_rerun_byte_identical(tmp_path):
    cfg = base_config(
        output_dir=str(tmp_path / "out"),
        experiments=[
            {
                "kind": "verify",
                "name": "bernstein",
                "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]},
            }
        ],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    run(path)
    first = (tmp_path / "out" / "report.json").read_bytes()
    run(path)
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second


def test_parse_band_specs():
    assert parse_band("dyadic:2").N == 2.0
    assert parse_band("unit:1,0,0,-1").k == (1, 0, 0, -1)
    b = parse_band("directional:2,axis=3")
    assert b.N == 2.0 and b.axis == 3
    with pytest.raises(ValueError):
        parse_band("weird:1")


def test_trajectory_directory_roundtrip(tmp_path):
    g = SpectralGrid(m=8, L=8.0)
    frames = tuple(random_field(g, s).in_domain("physical") for s in range(3))
    traj = Trajectory(g, 0.0, 0.1, frames)
    write_trajectory(traj, tmp_path / "traj")
    back = read_trajectory(tmp_path / "traj")
    assert back.n_frames == 3 and back.dt == 0.1
    for a, b in zip(traj.frames, back.frames):
        assert np.array_equal(a.values, b.values)


def test_report_merge_dedupe(tmp_path, capsys):
    r1 = {"reports": [{"id": "a", "seed": 1, "x": 1}, {"id": "b", "seed": 1, "x": 2}]}
    r2 = {"reports": [{"id": "a", "seed": 1, "x": 99}, {"id": "c", "seed": 2, "x": 3}]}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(p1, r1)
    write_report(p2, r2)
    merged = report_merge([p1, p2])
    ids = [(r["id"], r["seed"]) for r in merged["reports"]]
    assert ids == [("a", 1), ("b", 1), ("c", 2)]
    kept = {r["id"]: r["x"] for r in merged["reports"]}
    assert kept["a"] == 1  # first wins
    assert "duplicate" in capsys.readouterr().err
    single = report_merge([p1])
    assert [(r["id"], r["seed"]) for r in single["reports"]] == [("a", 1), ("b", 1)]


def test_cli_project_and_snapshot(tmp_path):
    g = SpectralGrid(m=8, L=8.0)
    f = random_field(g, 5).in_domain("physical")
    src = tmp_path / "in.dlab"
    dst = tmp_path / "out.dlab"
    write_snapshot(f, src)
    code = main(["project", "--band", "dyadic:1", "--in", str(src), "--out", str(dst)])
    assert code == 0
    out = read_snapshot(dst)
    from dlab.projections import Band, dyadic_projection

    expected = dyadic_projection(f, Band.dyadic(1.0))
    assert np.abs(out.values - expected.values).max() < 1e-12


def test_cli_randomize_manifest(tmp_path):
    outdir = tmp_path / "draws"
    code = main(
        [
            "randomize",
            "--seed",
            "7",
            "--draws",
            "3",
            "--grid",
            "8,12.0",
            "--out",
            str(outdir),
        ]
    )
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["draws"] == 3
    assert manifest["active_cells"] > 0
    assert len(manifest["files"]) == 3
    f0 = read_snapshot(outdir / manifest["files"][0])
    assert f0.grid.m == 8


def test_cli_evolve_and_norms(tmp_path):
    traj_dir = tmp_path / "traj"
    code = main(
        [
            "evolve",
            "--flow",
            "schrodinger",
            "--t",
            "0.2",
            "--dt",
            "0.1",
            "--grid",
            "8,8.0",
            "--out",
            str(traj_dir),
        ]
    )
    assert code == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "strichartz", "q": 2, "r": 4}, {"kind": "Z"}]))
    out = tmp_path / "norms.json"
    code = main(
        ["norms", "--spec", str(spec), "--traj", str(traj_dir), "--out", str(out)]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert len(body["reports"]) == 2
    assert body["reports"][0]["value"] > 0


def test_cli_verify_exit_codes(tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]}))
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--estimate", "bernstein", "--config", str(cfg), "--out", str(out),
         "--csv", str(tmp_path / "pts.csv")]
    )
    assert code == 0
    assert (tmp_path / "pts.csv").read_text().startswith("abscissa,value")


def test_cli_solve_nls(tmp_path):
    cfg = base_config(
        output_dir=str(tmp_path / "run"),
        grid={"m": 8, "L": 8.0},
        time={"T": 0.1, "dt": 0.05},
        data={"profile": {"kind": "gaussian_bump", "width": 0.4}},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["solve", "--mode", "nls", "--config", str(path)])
    assert code == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert len(manifest["mass"]) == 3
    drift = abs(manifest["mass"][-1] - manifest["mass"][0]) / manifest["mass"][0]
    assert drift < 1e-8


def test_run_unknown_verifier_rejected_before_any_experiment(tmp_path, capsys):
    cfg = base_config(
        output_dir=str(tmp_path / "out"),
        experiments=[
            {"kind": "verify", "name": "bernstein",
             "params": {"grid": {"m": 16, "L": 4.0}, "N_list": [2.0, 4.0]}},
            {"kind": "verify", "name": "no_such_verifier"},
        ],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(path) == 1
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.startswith("config error:")]
    assert any("experiments[1]" in ln and "no_such_verifier" in ln for ln in lines)
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "section, where",
    [({"time": [1]}, "config.time must be an object"), ({"time": {"T": "x"}}, "time: could not convert")],
)
def test_run_malformed_section_is_a_config_error(tmp_path, capsys, section, where):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "grid": {"m": 12}, **section}))
    assert run(path) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert all(ln.startswith("config error: ") for ln in lines)
    assert any(where in ln for ln in lines) and any(ln.startswith("config error: grid:") for ln in lines)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["12", "12,4", "8,x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["randomize", "--seed", "1", "--draws", "1"],
        ["evolve", "--flow", "schrodinger", "--t", "0.1", "--dt", "0.1"],
        ["ensemble", "--stat", "L3L6", "--draws", "1", "--seed", "1"],
    ],
)
def test_bad_grid_flag_is_one_error_line(tmp_path, capsys, argv, flag):
    assert main([*argv, "--grid", flag, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --grid '{flag}'") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--out", "{tmp}/merged.json", "{tmp}/missing.json"],
        ["report", "--out", "{tmp}/merged.json", "{tmp}/not_json.json"],
        ["norms", "--spec", "{tmp}/spec.json", "--traj", "{tmp}/missing", "--out", "{tmp}/n.json"],
        ["project", "--band", "dyadic:1", "--in", "{tmp}/missing.dlab", "--out", "{tmp}/o.dlab"],
        ["project", "--band", "bogus:1", "--in", "{tmp}/snap.dlab", "--out", "{tmp}/o.dlab"],
        ["project", "--band", "unit:1,x", "--in", "{tmp}/snap.dlab", "--out", "{tmp}/o.dlab"],
        ["evolve", "--flow", "schrodinger", "--t", "0.1", "--dt", "0", "--out", "{tmp}/ev"],
    ],
)
def test_bad_outside_input_is_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "not_json.json").write_text("{not json")
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "Z"}))
    write_snapshot(random_field(SpectralGrid(m=8, L=8.0), 1), tmp_path / "snap.dlab")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "o.dlab").exists() and not (tmp_path / "ev").exists()


@pytest.mark.parametrize("manifest", [
    {"frames": 3},
    {"frames": ["frame_00000.dlab"], "t0": 0.0},
    {"frames": ["frame_00000.dlab", "m16.dlab"], "t0": 0.0, "dt": 0.1},
])
def test_malformed_trajectory_manifest_is_one_error_line(tmp_path, capsys, manifest):
    g = SpectralGrid(m=8, L=8.0)
    write_trajectory(Trajectory(g, 0.0, 0.1, [random_field(g, 1)]), tmp_path / "traj")
    write_snapshot(random_field(SpectralGrid(m=16, L=8.0), 1), tmp_path / "traj" / "m16.dlab")
    (tmp_path / "traj" / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "Z"}))
    argv = ["norms", "--spec", str(tmp_path / "spec.json"), "--traj", str(tmp_path / "traj"),
            "--out", str(tmp_path / "n.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json" in err and "Traceback" not in err
    assert err.count("\n") == 1 and not (tmp_path / "n.json").exists()


def _refuse_allocation(*args, **kwargs):
    raise MemoryError("Unable to allocate 250. GiB for an array with shape "
                      "(1001, 64, 64, 64, 64) and data type complex128")


@pytest.mark.parametrize("command", ["run", "solve"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    import dlab.solver

    cfg = base_config(output_dir=str(tmp_path / "out"),
                      experiments=[{"kind": "solve", "name": "nls", "id": "big"}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(dlab.solver, "_splitstep", _refuse_allocation)
    argv = ["run", str(path)] if command == "run" else ["solve", "--mode", "nls", "--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: experiments[0] (") and "out of memory: Unable to allocate 250. GiB" in err
    assert not (tmp_path / "out").exists()


def _no_datum(*args, **kwargs):
    raise AssertionError("a datum was built")


@pytest.mark.parametrize("name, params", [
    *((name, params) for name in ("duhamel_retarded", "main_linear")
      for params in ({"n_frames": 1}, {"n_frames": 0}, {"T": 0}, {"T": -1})),
    ("main_linear", {"n_samples": 0}),
    ("main_linear", {"bands": []}),
])
def test_verifier_time_lattice_or_samples_out_of_range_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                                         name, params):
    # one frame divides T by zero, no frames or T <= 0 makes dt <= 0, no sample leaves no
    # constant and no band none to cycle through: each is refused before any datum is built
    import dlab.estimates

    monkeypatch.setattr(dlab.estimates, "shell_field", _no_datum)
    cfg = base_config(output_dir=str(tmp_path / "out"), experiments=[
        {"kind": "verify", "name": name, "id": "v", "params": {"grid": {"m": 8, "L": 2 * np.pi}, **params}}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (v): need ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_verifier_exponent_pair_below_one_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"grid": {"m": 8, "L": 2 * np.pi}, "strichartz_pairs": [[0.5, 2.0]]}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--estimate", "duhamel_retarded", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: experiments[0] (duhamel_retarded): exponents must be >= 1, got q=0.5, r=2.0\n"
    assert not out.exists()


def test_out_of_memory_outside_an_experiment_is_one_error_line(tmp_path, capsys, monkeypatch):
    import dlab.cli

    monkeypatch.setattr(dlab.cli, "free_trajectory", _refuse_allocation)
    assert main(["evolve", "--flow", "schrodinger", "--t", "0.1", "--dt", "0.05",
                 "--grid", "8,8.0", "--out", str(tmp_path / "ev")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 250. GiB") and err.count("\n") == 1


@pytest.mark.parametrize("interval", [[0.05, 0.1], [0.2, 0.0], [float("nan"), 0.1], [0.0, float("inf")]],
                         ids=["off_lattice", "reversed", "nan", "infinity"])
def test_norms_interval_off_the_frame_lattice_is_one_error_line(tmp_path, capsys, interval):
    g = SpectralGrid(m=8, L=8.0)
    write_trajectory(Trajectory(g, 0.0, 0.1, [random_field(g, s) for s in range(3)]), tmp_path / "traj")
    (tmp_path / "spec.json").write_text(json.dumps({"kind": "strichartz", "q": 2, "r": 4, "interval": interval}))
    argv = ["norms", "--spec", str(tmp_path / "spec.json"), "--traj", str(tmp_path / "traj"),
            "--out", str(tmp_path / "n.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "n.json").exists()


def _no_draw(*args, **kwargs):
    raise AssertionError("a draw was made")


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_ensemble_of_one_frame_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # one frame divides T by zero; it is refused before any draw
    import dlab.montecarlo

    monkeypatch.setattr(dlab.montecarlo, "evaluate_draws", _no_draw)
    cfg = base_config(output_dir=str(tmp_path / "out"), experiments=[
        {"kind": "ensemble", "name": "L3L6", "id": "e", "params": {"n_frames": 1}}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = (["run", str(path)] if command == "run" else
            ["ensemble", "--stat", "L3L6", "--draws", "2", "--seed", "1", "--grid", "8,8.0",
             "--frames", "1", "--out", str(tmp_path / "e.json")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiments[0] (") and "need T > 0 and n_frames >= 2" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "e.json").exists()


def test_randomize_negative_draws_is_one_error_line(tmp_path, capsys, monkeypatch):
    import dlab.cli

    monkeypatch.setattr(dlab.cli, "make_radial_data", _no_datum)
    assert main(["randomize", "--seed", "1", "--draws", "-1", "--grid", "8,8.0",
                 "--out", str(tmp_path / "draws")]) == 1
    err = capsys.readouterr().err
    assert err == "error: --draws must be nonnegative, got -1\n"
    assert not (tmp_path / "draws").exists()

"""Smoke tests: each script under scripts/ runs at a small size as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)


def _value(out: str, label: str) -> float:
    line = next(ln for ln in out.splitlines() if ln.startswith(label))
    return float(line.split("=")[1])


def test_short_time_perturbation_prints_its_constant(tmp_path):
    res = _run("short_time_perturbation.py", "--T", "0.05", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lhs = _value(res.stdout, "||v-u||_(Linf Hdot1)") + _value(res.stdout, "||v-u||_(discrete X)")
    rhs = _value(res.stdout, "data gap + forcing size")
    assert 0.0 < lhs and 0.0 < rhs
    assert _value(res.stdout, "recorded C0") == pytest.approx(lhs / rhs, abs=1e-3)


def test_unit_maximal_tensor_fits_two_points(tmp_path):
    res = _run("unit_maximal_tensor.py", "--k", "10", "14", "--csv", "points.csv", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert sum(ln.startswith("|k|=") and ": ratio " in ln for ln in lines) == 2
    slope = next(ln for ln in lines if ln.startswith("fitted slope: "))
    assert 0.0 < float(slope.split()[2]) < 1.0
    assert (tmp_path / "points.csv").read_text().splitlines()[0] == "abs_k,ratio"


@pytest.mark.parametrize("args", [
    ("--k", "10"),  # one point
    ("--m1", "1024", "--dxi1", "0.2"),  # every |k| wraps the smaller box
])
def test_unit_maximal_tensor_without_two_points_exits_nonzero(tmp_path, args):
    res = _run("unit_maximal_tensor.py", *args, "--csv", "points.csv", cwd=tmp_path)
    assert res.returncode != 0
    assert "fitted slope" not in res.stdout and "Traceback" not in res.stderr
    assert "a slope needs at least two" in res.stderr
    assert not (tmp_path / "points.csv").exists()


def test_peak_rss_reports_one_node(tmp_path):
    res = _run("peak_rss.py", "tests/test_grid.py::test_trapezoid_weights", cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.startswith("pytest: 1 passed")
    assert _value(res.stdout, "wall_s") > 0.0
    assert _value(res.stdout, "peak_rss_mb") > 0.0

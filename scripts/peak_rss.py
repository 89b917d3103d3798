"""Wall time and peak RSS of pytest nodes, each run alone in its own child process.

    python3 scripts/peak_rss.py tests/test_acceptance.py::test_criterion_9_morawetz_identity_and_bulk
    python3 scripts/peak_rss.py NODE [NODE ...]

Each child is ``python -m pytest -q -p no:cacheprovider NODE``, started in the
repository root with ``src`` on PYTHONPATH and the rest of the environment
inherited (set OPENBLAS_NUM_THREADS yourself to pin BLAS threads).  The nodes
run one after another.  A child's peak RSS is the ``ru_maxrss`` that
``os.wait4`` returns for that child alone; ``RUSAGE_CHILDREN`` would give the
largest of every child waited for so far, so it cannot tell nodes apart.
Prints, per node, pytest's summary line, then ``node = ...``, ``wall_s = ...``
and ``peak_rss_mb = ...`` (MiB), with a blank line between nodes; a failing
node's whole pytest output goes to standard error.  The exit status is that
of the first node whose pytest failed, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(node: str, env: dict) -> tuple:
    """(pytest's exit status, its output, wall seconds, peak RSS in KiB) of ``node`` in one child."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
                             cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return child.returncode, out, wall, usage.ru_maxrss  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("nodes", nargs="+", metavar="node", help="pytest node id, relative to the repository root")
    args = ap.parse_args(argv)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    status = 0
    for i, node in enumerate(args.nodes):
        code, out, wall, peak_kib = measure(node, env)
        lines = [ln for ln in out.splitlines() if ln.strip()]
        if code != 0:
            print(out, file=sys.stderr)
            status = status or code
        if i:
            print()
        print(f"pytest: {lines[-1] if lines else '(no output)'}")
        print(f"node = {node}")
        print(f"wall_s = {wall:.2f}")
        print(f"peak_rss_mb = {peak_kib / 1024:.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())

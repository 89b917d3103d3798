"""Wall time and peak RSS of one pytest node, run alone in a child process.

    python3 scripts/peak_rss.py tests/test_acceptance.py::test_criterion_9_morawetz_identity_and_bulk

The child is ``python -m pytest -q -p no:cacheprovider NODE``, started in the
repository root with ``src`` on PYTHONPATH and the rest of the environment
inherited (set OPENBLAS_NUM_THREADS yourself to pin BLAS threads).  Its peak
RSS is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` read after it ends: the
largest resident set of any child this process has waited for, and this
process starts only the one.  Prints pytest's summary line, then
``wall_s = ...`` and ``peak_rss_mb = ...`` (MiB); the whole pytest output goes
to standard error when the node fails.  The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("node", help="pytest node id, relative to the repository root")
    args = ap.parse_args(argv)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", args.node],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    if res.returncode != 0:
        print(res.stdout, file=sys.stderr)
    print(f"pytest: {lines[-1] if lines else '(no output)'}")
    print(f"wall_s = {wall:.2f}")
    print(f"peak_rss_mb = {peak_kib / 1024:.1f}")
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate perfbench/reference.json from the dlab sources in this checkout.

    python3 perfbench/make_reference.py

Records each workload's outputs for the default seed at the default run
length: every ensemble draw value and the Y fits, the forced-NLS audit for
all eight (axis, sign) choices a seed can pick, and the ``dlab run`` exit
code, verdict lines and reports.  The run compares against these with
relative tolerance ``workloads.RTOL``.  Regenerate only when a change is
meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def ops_outputs(wl) -> list:
    return [wl.outputs(i, wl.run_op(i)) for i in range(wl.n_ops)]


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seed = W.DEFAULT_SEED
    out = {"seed": seed, "seconds": seconds, "rtol": W.RTOL, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        wl = W.EnsembleY(seed, seconds, work)
        outs = ops_outputs(wl)
        out["workloads"][wl.name] = {
            "draws": {str(o["draw"]): o["value"] for o in outs},
            "fits": wl.final(outs),
        }
        choices = {}
        for choice_seed in range(8):
            wl = W.ForcedNLS(choice_seed, seconds, work)
            res = wl.outputs(0, wl.run_op(0))
            choices[res["choice"]] = res
        out["workloads"][W.ForcedNLS.name] = {"n_steps": W.ForcedNLS.n_steps, "choices": choices}
        wl = W.VerifyRun(seed, seconds, work)
        res = wl.outputs(0, wl.run_op(0))
        out["workloads"][W.VerifyRun.name] = res
    W.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

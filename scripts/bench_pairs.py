"""Paired benchmark runs of a parent revision against the working tree.

    python3 scripts/bench_pairs.py --pr N --workload verify_run --seeds 12 41 --pairs 10
    python3 scripts/bench_pairs.py --pr N --workload ensemble_y --pairs 3

The parent revision (``--parent``, default HEAD) is exported with
``git archive`` into a scratch directory; ``perfbench/run.py --workload W
--seed S --trace 0`` then runs alternately there and in the working tree,
and the side that goes first swaps on every pair.  The result goes to
BENCH_<pr>.json in the repository root: per workload, seed and side, the
median, quartiles and values of every end-to-end metric in BENCHMARK.json,
the correctness counts and the environment records the runs printed, and per
metric the pairs the working tree wins.  Entries for other workloads or seeds
already in the file are kept, so workloads can be run one invocation at a time.

Each workload/seed entry records under ``revisions`` what it compared:
``parent``'s commit id, and as ``change`` HEAD's commit id, whether the
tracked files differ from HEAD (staged or not; stage new files first) and
the SHA-256 of ``git diff HEAD``, BENCH_*.json excluded.  A run whose parent
has HEAD's tree on a clean working tree would compare the code with itself,
so it stops with an error instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
RUN_TIMEOUT_S = 600


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def change_identity() -> dict:
    """HEAD's commit id, a dirty flag and the hash of the working tree's diff against HEAD."""
    diff = git("diff", "HEAD", "--", ".", ":(exclude)BENCH_*.json")
    return {"head": git("rev-parse", "HEAD").strip(), "dirty": bool(diff),
            "diff_sha256": hashlib.sha256(diff.encode()).hexdigest()}


def export_parent(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return its full commit id."""
    sha = git("rev-parse", rev).strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run: its result line plus the env record it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}")
    env = next((json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: ")), None)
    return dict(json.loads(lines[-1]), env=env)


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def side_record(runs: list) -> dict:
    envs = []
    for r in runs:
        if r["env"] not in envs:
            envs.append(r["env"])
    return {
        "correct": sum(r["correct"] for r in runs),
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "env": envs,
        "metrics": {k: summary([r["metrics"][k]["value"] for r in runs]) for k in METRICS},
    }


def compare(parent: list, change: list) -> dict:
    out = {}
    for k, better in METRICS.items():
        p = [r["metrics"][k]["value"] for r in parent]
        c = [r["metrics"][k]["value"] for r in change]
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        gain = pm - cm if better == "lower" else cm - pm
        out[k] = {"wins": wins, "pairs": len(p), "median_rel_change": (cm - pm) / pm,
                  "gain_exceeds_parent_iqr": gain > q3 - q1}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="the record goes to BENCH_<pr>.json")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=[12])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--scratch", type=Path, default=None,
                    help="directory for the exported parent (a temporary one by default)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")

    change = change_identity()
    if not change["dirty"] and (git("rev-parse", f"{args.parent}^{{tree}}")
                                == git("rev-parse", "HEAD^{tree}")):
        ap.error(f"--parent {args.parent} has HEAD's tree and the working tree is clean: "
                 "the run would compare the code with itself")
    out_path = ROOT / f"BENCH_{args.pr}.json"
    body = json.loads(out_path.read_text()) if out_path.exists() else {
        "pr": args.pr, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        parent_dir = Path(tmp)
        sha = export_parent(args.parent, parent_dir)
        body["command"] = "perfbench/run.py --workload W --seed S --trace 0"
        for seed in args.seeds:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_bench(parent_dir if side == "parent" else ROOT, args.workload, seed)
                    runs[side].append(r)
                    p50 = r["metrics"]["draw_p50_s"]["value"]
                    print(f"{args.workload} seed {seed} pair {i + 1}/{args.pairs} {side}: "
                          f"draw_p50_s {p50:.3f} correct {r['correct']}", flush=True)
            body["workloads"].setdefault(args.workload, {})[str(seed)] = {
                "pairs": args.pairs,
                "first_side": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
                "revisions": {"parent": sha, "change": change},
                "parent": side_record(runs["parent"]),
                "change": side_record(runs["change"]),
                "comparison": compare(runs["parent"], runs["change"]),
                "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
            out_path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

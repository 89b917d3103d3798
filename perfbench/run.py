"""dlab benchmark: three closed-loop workloads, each in child processes.

    python3 perfbench/run.py                                 # every workload
    python3 perfbench/run.py --workload ensemble_y --seed 12 --seconds 20 --trace 0

With ``--trace 0`` a workload reports its end-to-end metrics, measured
untraced; with ``--trace 1`` it reports its per-layer metrics from a separate
traced phase.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names,
units and bounds are in BENCHMARK.json; what each metric means and which it
should move is in perfbench/NOTES.md.

Every child gets OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 before numpy
loads; DLAB_THREADS stays at its default of 1.  Peak RSS is read for our own
children only, with getrusage(RUSAGE_CHILDREN).  The run reads and writes
only inside its checkout: results and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the seed perfbench/reference.json holds outputs for
DEFAULT_SEED = json.loads((HERE / "reference.json").read_text())["seed"]
DEADLINE_S = 170.0  # a single-workload run must end within 180 s
SETUP_REPEATS = 3  # the main child plus two set-up-only children
TAIL_BEYOND = 10  # draws required beyond the tail percentile


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("DLAB_THREADS", None)
    return env


def run_child(args, deadline: float, setup_only: bool = False) -> tuple:
    """Start one child; return (monotonic start time, its JSON record)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(OUT / f"{args.workload}-seed{args.seed}"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_start = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: child exceeded the run deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload}: child exited with code {proc.returncode}")
    return t_start, json.loads(lines[-1])


def tail(times: list) -> tuple:
    """(seconds, percentile, draws beyond it) at the highest percentile with
    TAIL_BEYOND draws beyond it; the slowest draw when the run has too few
    draws for that."""
    xs = sorted(times)
    rank = len(xs) - TAIL_BEYOND  # 1-based
    if rank >= 1:
        return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND
    return xs[-1], 100.0, 0


def end_to_end(args, deadline: float) -> tuple:
    t_start, rec = run_child(args, deadline)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    setups = [rec["t_ready"] - t_start]
    for _ in range(SETUP_REPEATS - 1):
        t0, srec = run_child(args, deadline, setup_only=True)
        setups.append(srec["t_ready"] - t0)
    times = rec["op_times"]
    tail_s, tail_p, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": rec["wall_s"],
        "draw_p50_s": statistics.median(times),
        "draw_tail_s": tail_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    rec["details"] = {
        "setup_samples_s": setups,
        "draws": len(times),
        "draw_tail_percentile": tail_p,
        "draws_beyond_tail": beyond,
    }
    return metrics, rec


def per_layer(args, deadline: float) -> tuple:
    _, rec = run_child(args, deadline)
    tr = rec["trace"]
    special = {
        "fft.calls": tr["fft_calls"],
        "fft.points": tr["fft_points"],
        "fft.shift_s": tr["fft_shift_s"],
        "fft.shift_calls": tr["fft_shift_calls"],
        "grid.fields_built": tr["fields_built"],
        "grid.field_bytes": tr["field_bytes"],
        "projections.symbol_cache_hits": tr["cache_hits"],
        "projections.symbol_cache_lookups": tr["cache_lookups"],
        "projections.symbol_cache_hit_ratio": (
            tr["cache_hits"] / tr["cache_lookups"] if tr["cache_lookups"] else 0.0
        ),
        "trace.coverage": tr["coverage"],
        "trace.overhead_ratio": tr["overhead_ratio"],
    }
    metrics = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = tr["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = tr["calls"].get(name[: -len(".calls")], 0)
        else:
            raise BenchError(f"no rule derives per-layer metric {name!r}")
    rec["details"] = {"spans": tr["spans"], "traced_ops": tr["traced_ops"]}
    return metrics, rec


def run_one(args) -> int:
    if not (ROOT / "src" / "dlab" / "__init__.py").is_file():
        print(f"error: no dlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, rec = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    attempted, failed = rec["attempted"], len(rec["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": rec["env"], "details": rec["details"],
        "failures": rec["failures"], "op_times": rec["op_times"], "final": rec["final"],
        "outputs": rec["outputs"], "result": result,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env: {json.dumps(rec['env'])}")
    print(f"details: {json.dumps(rec['details'])}")
    width = max(len(k) for k in units)
    for k, unit in units.items():
        v = metrics[k]
        print(f"  {k:<{width}}  {v:>14.6g}  {unit}")
    print(f"  {'fail_ratio':<{width}}  {failed / attempted:>14.6g}  1  ({failed} of {attempted})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each through its own run.py process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", w,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and res["correct"]
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            totals["metrics"][f"{w}.{k}"] = v
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")  # numpy generators reject negative seeds
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

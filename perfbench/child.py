"""One workload in one process; started by run.py with the thread variables
already pinned in its environment, before numpy loads.

Prints one JSON object as the last line of standard output.  In set-up mode
it stops right before the first timed operation and reports only that
moment; otherwise it runs the timed phase, checks every output and, with
tracing on, runs the workload's traced operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import FFT_SHIFTS, FFT_TRANSFORMS, Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DLAB_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _symbol_cache_stats() -> tuple:
    from dlab import projections

    hits = lookups = 0
    for obj in vars(projections).values():
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
    return hits, lookups


class Runner:
    """Times, checks and counts the operations of one workload."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list = []

    def attempt(self, label: str, fn):
        """Run fn(); count it, and count it as failed on any exception."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.failures.append(f"{label}: raised")
            return None

    def checked(self, label: str, check, out) -> None:
        """Record the failures of an output check; one failed operation at most."""
        try:
            bad = check(out)
        except Exception:
            traceback.print_exc()
            bad = [f"{label}: check raised"]
        if bad:
            for line in bad:
                print(f"check failed: {line}", file=sys.stderr)
            self.failures.append(label)

    def timed_op(self, i: int):
        t0 = time.perf_counter()
        result = self.wl.run_op(i)
        return time.perf_counter() - t0, result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    wl.warm_up()
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    run = Runner(wl)
    op_times, outs = [], []
    for i in range(wl.n_ops):
        timed = run.attempt(f"op {i}", lambda: run.timed_op(i))
        if timed is None:
            continue
        dt, result = timed
        out = run.attempt(f"op {i} outputs", lambda: wl.outputs(i, result))
        del result, timed  # free this operation's arrays before the next one
        if out is None:
            continue
        op_times.append(dt)
        outs.append(out)
        run.checked(f"op {i}", lambda o: wl.check(i, o), out)
    wall = sum(op_times)
    final_out = None
    if outs and wl.has_final:
        t0 = time.perf_counter()
        final_out = run.attempt("final", lambda: wl.final(outs))
        wall += time.perf_counter() - t0
        if final_out is not None:
            run.checked("final", wl.check_final, final_out)

    record = {
        "t_ready": t_ready,
        "env": environment(),
        "op_times": op_times,
        "wall_s": wall,
        "final": final_out,
        "outputs": outs,
    }
    if args.trace:
        record["trace"] = traced_phase(wl, run, op_times, workdir, args)
    record["attempted"] = run.attempted
    record["failures"] = run.failures
    print(json.dumps(record))
    return 0


def traced_phase(wl, run: Runner, op_times: list, workdir: Path, args) -> dict:
    """Re-run the workload's first trace_ops operations (and its final step)
    with every layer wrapped; return the raw per-layer counts and times."""
    tracer = Tracer()
    hits0, lookups0 = _symbol_cache_stats()
    tracer.install()
    results, traced_times, fin = [], [], None
    t0 = time.perf_counter()
    try:
        for i in range(wl.trace_ops):
            timed = run.attempt(f"traced op {i}", lambda: run.timed_op(i))
            if timed is not None:
                traced_times.append(timed[0])
                results.append((i, timed[1]))
        if results and wl.has_final:
            # the ensembles' outputs are their results: no work outside dlab
            fin = run.attempt("traced final", lambda: wl.final([wl.outputs(i, r) for i, r in results]))
    finally:
        traced_wall = time.perf_counter() - t0
        tracer.uninstall()
    hits1, lookups1 = _symbol_cache_stats()
    for i, result in results:
        out = run.attempt(f"traced op {i} outputs", lambda: wl.outputs(i, result))
        if out is not None:
            run.checked(f"traced op {i}", lambda o: wl.check(i, o), out)
    if fin is not None:
        run.checked("traced final", wl.check_final, fin)
    # the traced operations against the untraced ones of the same kinds that
    # ran just before them, so both sides see the machine in a similar state
    paired = min(len(traced_times), len(op_times))
    base = sum(op_times[len(op_times) - paired:])
    summary = tracer.summary()
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(workdir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return {
        "self_s": summary["self_s"],
        "calls": summary["calls"],
        "fft_calls": sum(summary["calls"].get(f"fft.{t}", 0) for t in FFT_TRANSFORMS),
        "fft_points": tracer.fft_points,
        "fft_shift_s": sum(summary["self_s"].get(f"fft.{s}", 0.0) for s in FFT_SHIFTS),
        "fft_shift_calls": sum(summary["calls"].get(f"fft.{s}", 0) for s in FFT_SHIFTS),
        "fields_built": tracer.fields_built,
        "field_bytes": tracer.field_bytes,
        "cache_hits": hits1 - hits0,
        "cache_lookups": lookups1 - lookups0,
        "coverage": tracer.root_seconds() / traced_wall,
        "overhead_ratio": (sum(traced_times[:paired]) - base) / base if base > 0 else 0.0,
        "spans": len(tracer.names),
        "traced_ops": len(traced_times),
    }


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""atmoe benchmark: runs the real `atmoe` CLI stages at the default model and
data shapes, with short epoch counts, in this one process.

    python3 perfbench/run.py --workload {experts,router,eval} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. Inputs (config, data, starting checkpoints)
are made from --seed under .perfbench_work/, which is removed afterwards.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced unit of work. The line
before it holds provenance and details. The exit code is 0 only when every
operation succeeded and every correctness check passed; 2 when the program's
sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experts", "router", "eval")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
OPENBLAS_THREAD_FNS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_THREAD_FNS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `kind` metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def provenance(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run(args, work: Path):
    from layertrace import Tracer
    from workloads import SETUP_REPEATS, Bench, OperationFailed, busy_since, mark, measure

    tracer = Tracer()
    b = Bench(args.workload, args.seed, work, tracer)
    wall_start = mark()
    metrics: dict = {}
    try:
        if args.trace:
            b.setup(0, trace_data=True)
            m = measure(b, args.seconds, trace=True)
            untraced, traced = m["untraced"]["samples_per_s"], m["traced"]["samples_per_s"]
            metrics = tracer.metrics()
            metrics["trace.overhead_samples_per_s"] = traced - untraced
            b.info.update(m)
        else:
            setups = [b.setup(k) for k in range(SETUP_REPEATS)]
            m = measure(b, args.seconds, trace=False)
            metrics = {
                "setup_s": statistics.median(setups),
                "samples_per_s": m["samples_per_s"],
                "loss": m["loss"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            b.info.update(m, setup_s=setups)
    except OperationFailed:
        pass
    wall = perf_counter() - wall_start[0]
    b.info.update(run_wall_s=wall, run_stolen_s=wall - busy_since(wall_start))
    # a function removed by a later change is reported, not failed: its
    # metrics read 0
    b.info.update(not_traced=sorted(tracer.missing))
    return b, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "atmoe" / "cli.py").is_file():
        print(f"error: no atmoe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        b, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass
    units = declared_units("per_layer" if args.trace else "end_to_end")
    unmeasured = [name for name in units if name not in metrics]
    if unmeasured and not b.failed:
        b.problems.append(f"declared metrics not measured: {unmeasured}")
    correct = not b.problems
    detail = {"provenance": provenance(args.seed), "workload": args.workload,
              "problems": b.problems, "details": b.info}
    print(json.dumps(detail, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

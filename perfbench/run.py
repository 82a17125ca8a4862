"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload weak-train --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src, so the
benchmark measures the checked-out source. The last line of standard output
is {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it and
.perfbench_runs/results/<workload>-s<seed>-trace<t>.json also hold the
machine, the library versions, the thread settings, the checks and the loss
digest. Exit code 2 means the program could not be imported.
"""

import os

# single-threaded BLAS, pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")


def _import_program():
    """Import weakbox_kit from ./src only; returns an error message or None."""
    sys.path.insert(0, SRC)
    try:
        import weakbox_kit
    except ImportError as exc:
        return f"cannot import weakbox_kit from {SRC}: {exc}"
    if not os.path.abspath(weakbox_kit.__file__).startswith(SRC + os.sep):
        return f"weakbox_kit imported from {weakbox_kit.__file__}, not from {SRC}"
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("weak-train", "refine-train", "infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    error = _import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    work = os.path.join(RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        out = workloads.run(args.workload, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = out.per_layer if args.trace else out.end_to_end()
    result = {
        "correct": out.correct,
        "attempted": len(out.op_s),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "digest": out.digest,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.checks],
    }
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    path = os.path.join(RUNS, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**info, **result}, f, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the flowopt benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 1

``--trace 0`` measures for ``--seconds`` and prints every end-to-end metric;
``--trace 1`` runs each of the workload's own units once untraced and once
traced, and prints every per-layer metric. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run metadata. Both, with the
samples behind each metric, are also written to
``.bench_runs/<workload>-seed<n>-trace<t>/result.json``; a traced run also
writes its spans there. Exit code 2 means the benchmark could not run (for
example, ``src/flowopt`` is missing).
"""

import time

_T0 = time.perf_counter()  # the benchmark's process start, for setup_s

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The tapes are small matrices; one BLAS thread is as fast and far steadier.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "sweep", "budgeted"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import flowopt from this checkout's ``src``; None when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowopt
    except ImportError as e:
        print(f"cannot import flowopt from {src}: {e}", file=sys.stderr)
        return None
    if Path(flowopt.__file__).resolve().parent.parent != src.resolve():
        print(f"flowopt was imported from {flowopt.__file__}, not from {src}", file=sys.stderr)
        return None
    import workloads
    return workloads


def run_metadata() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_flowopt_lines": sum(len(p.read_text().splitlines())
                                 for p in (ROOT / "src" / "flowopt").glob("*.py")),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workloads = import_program()
    if workloads is None:
        return 2
    import_s = time.perf_counter() - _T0
    out_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    settings = workloads.default_settings(BENCH)
    result, details = workloads.run(settings, args.workload, args.seed, args.seconds,
                                    args.trace, str(out_dir), import_s)
    meta = run_metadata()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"metadata": meta, "details": details, "result": result}, fh, indent=2,
                  sort_keys=True)
    print("metadata: " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

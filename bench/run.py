"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload small-full --seed 0 --seconds 20 --trace 0

Run from a checkout holding src/groundbox. --trace 0 measures the
end-to-end metrics untraced; --trace 1 runs a separate traced pass and
prints the per-layer metrics (see bench/README.md). Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
correctness gate passed.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: two threads on a two-CPU machine spread paper-shape train
# time by about 25% between runs, one thread by about 8%.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time an untraced run spends in train+eval rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_runtime():
    """OpenBLAS's own report of its build and thread count, if it is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_threads.argtypes = []
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    return {"blas": get_config().decode(), "blas_threads": get_threads()}
    return {"blas": "unknown", "blas_threads": None}


def main(argv=None):
    src = ROOT / "src"
    if not (src / "groundbox" / "__init__.py").is_file():
        print(f"bench: no groundbox sources under {src}", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count once, when numpy first loads it.
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import numpy as np
    import pipeline
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    env = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "numpy": np.__version__,
           **blas_runtime(), "blas_threads_pinned": threads,
           "nproc": os.cpu_count(), "train_segments": workload.config["train_segments"]}
    print("env " + json.dumps(env))

    work_dir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    bench = pipeline.Bench(workload, args.seed, work_dir)
    try:
        if args.trace:
            tracer = Tracer()
            metrics = pipeline.trace(bench, tracer)
            out = ROOT / ".bench_out" / f"trace-{workload.name}-seed{args.seed}.json"
            pipeline.write_trace(out, tracer, {"env": env})
            print(f"spans written to {out.relative_to(ROOT)}")
            for layer, seconds in sorted(tracer.layer_self_seconds().items()):
                print(f"self time {layer}: {seconds:.4f} s")
        else:
            metrics = pipeline.measure(bench, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if bench.test_acc is not None:
        print(f"test_acc {bench.test_acc} (random-proposal baseline {bench.baseline})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for failure in bench.failures:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": bench.correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if bench.correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())

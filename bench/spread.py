"""Run the benchmark over several seeds and report, per metric, the median
and the quartile spread of the per-seed values.

    python3 bench/spread.py --workloads small-dvsa --seeds 11-15
    python3 bench/spread.py --seeds 201-210 --sets 2 --trace --out bench/baseline.json

The spread is the distance between the first and third quartiles of the
values (statistics.quantiles(values, n=4)) as a share of their median: the
figure a metric's bound in BENCHMARK.json is held against. Each run is a
fresh `python3 bench/run.py` process; a run that fails stops the script.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    """(result line, env line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summary(results):
    """One result object holding the median of every metric over the runs."""
    names = results[0]["metrics"]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": statistics.median(r["attempted"] for r in results),
        "failed": statistics.median(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                       for r in results),
                           "unit": results[0]["metrics"][name]["unit"]}
                    for name in names}}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/spread.py")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("201-210"),
                        help="a seed or a range such as 201-210")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--sets", type=int, default=1,
                        help="untraced sets of runs, one after the other")
    parser.add_argument("--trace", action="store_true",
                        help="also one traced run per seed, reported as medians")
    parser.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    sets, env = [], None
    for number in range(1, args.sets + 1):
        per_workload = {}
        for workload in args.workloads:
            results = []
            for seed in args.seeds:
                result, env = run(workload, seed, args.seconds, 0)
                results.append(result)
                print(f"set {number} {workload} seed {seed}: " + " ".join(
                    f"{name} {result['metrics'][name]['value']:.6g}" for name in bounds),
                    flush=True)
            per_workload[workload] = results
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                print(f"set {number} {workload} {name}: median "
                      f"{statistics.median(values):.6g} spread {spread(values):.3f} "
                      f"(bound {bound})", flush=True)
        sets.append(per_workload)
    traced = {}
    if args.trace:
        for workload in args.workloads:
            traced[workload] = summary([run(workload, seed, args.seconds, 1)[0]
                                        for seed in args.seeds])

    if args.out is None:
        return 0
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True, check=False).stdout.strip()
    baseline = {
        "commit": commit or "unknown",
        "what": ("results: median over the seeds of each metric, untraced (trace0, "
                 "first set) and traced (trace1) runs; spread: quartile distance over "
                 "median of the untraced runs of the first set; second_set: the same "
                 "seeds untraced again, later, for run-to-run agreement"),
        "seeds": args.seeds,
        "run_seconds": args.seconds,
        "env": {"machine": platform.machine(),
                **{k: env[k] for k in ("python", "numpy", "blas", "blas_threads", "nproc")}},
        "results": {w: {"trace0": summary(sets[0][w]),
                        **({"trace1": traced[w]} if w in traced else {})}
                    for w in args.workloads},
        "spread": {w: {name: spread([r["metrics"][name]["value"] for r in sets[0][w]])
                       for name in bounds} for w in args.workloads},
    }
    if len(sets) > 1:
        baseline["second_set"] = {
            w: {name: {"median": statistics.median(values), "spread": spread(values)}
                for name in bounds
                for values in [[r["metrics"][name]["value"] for r in sets[1][w]]]}
            for w in args.workloads}
    args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

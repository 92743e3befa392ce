"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --workloads worked-example,holonomy --seeds 1-10 \
        [--trace 0|1] [--out FILE]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, with the metric's unit and
bound from BENCHMARK.json. With ``--out`` it also writes every run's metrics and the
summary as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    declared = spec["end_to_end"] + spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    import numpy

    report = {"environment": {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {result['attempted']} jobs", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name] for r in runs])
            s = summary[name]
            bound = bounds.get(name)
            print(f"{workload:15s} {name:32s} {units[name]:6s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else ""))
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

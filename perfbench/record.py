#!/usr/bin/env python3
"""Run the benchmark over several seeds and append one trajectory point.

Run from the repository root:

    python3 perfbench/record.py --label seed

For each workload this runs ``run.py --trace 0`` with seeds 0..RUNS-1
and ``run.py --trace 1`` once with seed 0.  It prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile range
over median) next to the metric's bound, and appends the point to
``perfbench/trajectory.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: seeds per workload in one trajectory point
RUNS = 10


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("report: ")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    point = {"label": args.label, "runs": RUNS, "seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        results = [run(name, seed, spec["run_seconds"], 0) for seed in range(RUNS)]
        traced, report = run(name, 0, spec["run_seconds"], 1)
        entry = {"correct": all(r["correct"] for r, _ in results) and traced["correct"],
                 "end_to_end": {}, "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{name}: correct={entry['correct']}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry["end_to_end"][metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                                    "values": values}
            print(f"  {metric['name']:14s} median {median:.6g} {metric['unit']}  spread {spread:.4f}"
                  f"  (bound {metric['bound']}, a third of it {metric['bound'] / 3:.4f})")
        entry["report"] = json.loads(report[-1][len("report: "):]) if report else None
        point["workloads"][name] = entry
    path = HERE / "trajectory.json"
    points = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

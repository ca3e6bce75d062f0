#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

    python3 perfbench/spread.py --workloads creation data_link --runs 10
    python3 perfbench/spread.py --runs 10 --out perfbench/spread.json

Runs perfbench/run.py once per seed (seeds 0..runs-1) on each workload with
the run length BENCHMARK.json fixes, and reports for every end-to-end metric
the median and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. A
spread is steady when it is below a third of the metric's bound in
BENCHMARK.json. It also checks that every run was correct and that the run
emitted exactly the metrics BENCHMARK.json declares, with their units.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    took = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    # The run's own record names the host it ran on.
    result = os.path.join(ROOT, ".bench_run", workload + ("-trace" if trace else ""),
                          "result.json")
    with open(result) as f:
        context = json.load(f).get("context")
    return json.loads(lines[-1]), took, context


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the spreads as JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    report = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "seeds": [0, args.runs - 1],
              "trace": args.trace, "workloads": {}}
    steady = True
    for workload in workloads:
        values = {name: [] for name in units}
        took = []
        for seed in range(args.runs):
            line, t, context = run_once(spec, workload, seed, args.trace)
            took.append(t)
            report.setdefault("host", context)
            if not line["correct"] or line["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {line}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != units:
                sys.exit(f"{workload}: emitted metrics {got} != declared {units}")
            for name in units:
                values[name].append(line["metrics"][name]["value"])
        rows = {}
        print(f"== {workload}: {args.runs} runs, {statistics.median(took):.1f} s "
              f"median per run ({max(took):.1f} s max)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            ok = bound is None or spread < bound / 3
            steady = steady and ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            mark = ("" if bound is None else "steady" if ok
                    else "within bound" if spread <= bound else "OVER bound")
            print(f"  {name:<34} median {med:12.6g}  spread {spread:7.4f}  {mark}")
        report["workloads"][workload] = {"seconds_per_run": took, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

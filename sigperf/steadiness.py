#!/usr/bin/env python3
"""Steadiness report: run each workload several times, one seed per run,
and print the median, quartiles and spread of every metric.

    python3 sigperf/steadiness.py [--runs 10] [--trace 0] [--workloads A,B]

Run it from the root of the repository.  The spread of a metric is the
distance between its first and third quartile (Python's
`statistics.quantiles(values, n=4)`) as a share of its median; BENCHMARK.json
bounds each end-to-end metric's spread.  The report starts with the host:
CPU count, CPU model and compiler version.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return f"nproc {os.cpu_count()}; cpu {model}; {rustc}"


# A printed metric line: name, value, unit.
LINE = re.compile(r"^([A-Za-z0-9_.-]+)\s+(-?[0-9.]+(?:e-?[0-9]+)?)\s+(\S+)$")


def run_once(workload, seed, seconds, trace):
    """The run's result object, with the printed-only figures (unit
    latencies, rates) added to its metrics."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(1) not in result["metrics"]:
            result["metrics"][m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    print(f"# {host()}")
    print(f"# {args.runs} runs per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{args.seconds} s each, trace {args.trace}")
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n## {workload}: {failed} of {attempted} checks failed")
        print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            med, q1, q3, s = spread(values)
            bound = bounds.get(name)
            flag = " !" if bound is not None and name != "setup_s" and s > bound / 3 else ""
            print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}  {first['unit']}")


if __name__ == "__main__":
    main()

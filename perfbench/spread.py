#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance rule
measures it: run one workload on several seeds and report, per metric, the
median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), beside the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload kv_tcp --seeds 1 10

A spread above a third of its bound is flagged: the benchmark is meant to
stay well inside its own bounds. setup_s is exempt from the spread rule.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        if proc.returncode or not result["correct"]:
            sys.stdout.write("\n".join(l for l in lines if "CHECK" in l) + "\n")
            sys.exit("seed %d: run failed (exit %d)" % (seed, proc.returncode))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("%-16s %14s %10s %8s %8s" % ("metric", "median", "spread",
                                        "bound", "status"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        if name == "setup_s":
            status = "exempt"
        elif spread < bound / 3:
            status = "ok"
        elif spread < bound:
            status = "WIDE"
        else:
            status = "FAIL"
        print("%-16s %14.6g %10.4f %8.3f %8s" % (name, med, spread, bound,
                                                 status))


if __name__ == "__main__":
    main()

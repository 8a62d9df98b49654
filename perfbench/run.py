#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload kv_sim --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Run from the repository root. The benchmark is built (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on first use,
with the workload parameters of perfbench/workloads.json compiled in (a
change to that file rebuilds the benchmark). The last stdout line
is the result JSON of the workload (for --workload all, an object keyed by
workload). The exit code is nonzero when the build fails or a correctness
check fails.
"""
import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    exe = os.path.join(build_dir, "allconcur_perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))
    return exe


def fixed_layout():
    """Turns off address-space randomization for the benchmark process (runs
    in the child before exec). With randomized placement the speed of one
    build varies by up to half between runs; fixed, runs of a build agree."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xffffffff)
    if persona != -1:
        libc.personality(persona | addr_no_randomize)


def run_workload(exe, name, args):
    cmd = [exe, "--workload=" + name, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=fixed_layout)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.exit("workload %s printed no result (exit %d)" %
                 (name, proc.returncode))
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            sys.exit("unknown workload %r (have: %s, all)" %
                     (name, ", ".join(workloads)))

    exe = build()
    results = {}
    worst = 0
    for name in names:
        code, result = run_workload(exe, name, args)
        worst = worst or code
        results[name] = result
        sys.stdout.flush()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print("summary (seed %d, %gs, trace %d):" %
              (args.seed, args.seconds, args.trace))
        for name, res in results.items():
            print("  %-10s correct=%s attempted=%d failed=%d" %
                  (name, res["correct"], res["attempted"], res["failed"]))
            for metric, m in res["metrics"].items():
                print("    %-32s %16.6g %s" % (metric, m["value"], m["unit"]))
        print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the darnet serving benchmark.

    python3 perfbench/run.py --workload edge_closed|router_open|router_burst \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a darnet checkout. The first call configures and
builds perfbench/ (which builds the darnet tree from source) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
`--workload all` runs the three workloads one after another and ends with
a table of their end-to-end metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["edge_closed", "router_open", "router_burst"]
BUILD_DIR = ".bench_build"
# A run trains, serves and replays well within this; a hung run is killed.
RUN_TIMEOUT_S = 170


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def run_one(binary, root, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, BUILD_DIR, "trace-%s-seed%d.json" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout or "")
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.workload != "all":
        code, _ = run_one(binary, root, args.workload, args)
        return code

    results = {}
    for workload in WORKLOADS:
        code, result = run_one(binary, root, workload, args)
        if code != 0 or result is None:
            return code or 1
        results[workload] = result
    rows = [("%s (%s)" % (name, metric["unit"]),
             [results[w]["metrics"][name]["value"] for w in WORKLOADS])
            for name, metric in results[WORKLOADS[0]]["metrics"].items()]
    rows.append(("error_rate (ratio)",
                 [results[w]["failed"] / results[w]["attempted"]
                  for w in WORKLOADS]))
    print("\n%-26s" % "metric" + "".join("%16s" % w for w in WORKLOADS))
    for label, values in rows:
        print("%-26s" % label + "".join("%16.6g" % v for v in values))
    print(json.dumps({w: results[w] for w in WORKLOADS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

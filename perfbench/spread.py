#!/usr/bin/env python3
"""Runs workloads over several seeds, interleaved, and prints each
end-to-end metric's median and quartile spread (Q3 - Q1 over the median).

    python3 perfbench/spread.py --seeds 10

Workloads are interleaved (build, serve_read, cluster_mixed, build, ...) so
host drift hits each alike. A spread at or above a third of the metric's
bound in BENCHMARK.json is flagged.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    for i in range(args.seeds):
        for w in workloads:
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed",
                                    str(args.first_seed + i), "--seconds",
                                    str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d failed:\n%s" % (w, args.first_seed + i,
                                                 out.stderr[-2000:]))
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect" % (w, args.first_seed + i))
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            print("done %s seed %d" % (w, args.first_seed + i), flush=True)
    for w in workloads:
        print("== %s" % w)
        for k, vals in sorted(values[w].items()):
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else 0.0
            else:
                spread = 0.0
            flag = ""
            if k in bounds and k != "setup_s" and spread >= bounds[k] / 3:
                flag = "  <-- above bound/3 (%.3f)" % (bounds[k] / 3)
            print("  %-16s median %14.4f  spread %.4f%s" % (k, med, spread,
                                                          flag))
            if flag:
                print("      values: " + " ".join("%.4g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())

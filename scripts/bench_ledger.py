#!/usr/bin/env python3
"""Perf ledger: runs one perfbench workload as alternating parent/change
pairs on two checkouts and writes BENCH_<workload>.json at the repo root.

    git worktree add ../parent HEAD~1      # or any copy of the parent tree
    python3 scripts/bench_ledger.py --parent ../parent --workload build \\
        --pairs 10

Pair i (from 0) runs `python3 perfbench/run.py --workload <w> --seed <i + 1>`
once in each checkout, so run.py's own run length and trace defaults apply;
parent first on even pairs and change first on odd ones, so drift and warm
caches hit both sides alike. Each checkout builds its own binaries
(perfbench builds into its own .bench_build/).

The file holds, per metric, each side's values, median, quartiles and
spread ((Q3 - Q1) / median), the change/parent ratio of the medians and the
number of pairs the change won; plus the seeds, the run order and each
run's host calibration record (perfbench's "host:" line). A markdown table
of the medians goes to stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(checkout, workload, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d failed in %s:\n%s" %
                           (workload, seed, checkout, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    hosts = [json.loads(line[len("host: "):])
             for line in out.stderr.splitlines() if line.startswith("host: ")]
    return result, hosts[-1]


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", default=ROOT, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="default: BENCH_<workload>.json at the "
                    "repo root")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    values = {"parent": {}, "change": {}}
    units = {}
    runs = []
    seeds = [i + 1 for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result, host = run_bench(sides[side], args.workload, seed)
            for k, v in result["metrics"].items():
                values[side].setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
            runs.append({"pair": i, "side": side, "seed": seed,
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "host": host})
            print("pair %d seed %d %s done" % (i, seed, side),
                  file=sys.stderr, flush=True)

    metrics = {}
    for k in sorted(units):
        p, c = values["parent"].get(k), values["change"].get(k)
        if not p or not c or len(p) != len(c):
            continue
        lower = better.get(k, "lower") == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        ps, cs = summary(p), summary(c)
        metrics[k] = {"unit": units[k], "better": "lower" if lower else
                      "higher", "parent": ps, "change": cs,
                      "ratio": cs["median"] / ps["median"] if ps["median"]
                      else None, "change_better_pairs": wins}

    ledger = {"workload": args.workload, "pairs": args.pairs,
              "seeds": seeds,
              "trace": runs[0]["host"]["trace"],
              "command": "python3 perfbench/run.py --workload %s --seed "
                         "<seed>" % args.workload,
              "metrics": metrics, "runs": runs}
    out = args.out or os.path.join(ROOT, "BENCH_%s.json" % args.workload)
    with open(out, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print("| metric | parent median (spread) | change median (spread) | "
          "change/parent | change better |")
    print("|---|---|---|---|---|")
    for k, m in metrics.items():
        print("| `%s` (%s) | %.4g (%.3f) | %.4g (%.3f) | %s | %d/%d |" % (
            k, m["unit"], m["parent"]["median"], m["parent"]["spread"],
            m["change"]["median"], m["change"]["spread"],
            "%.3f" % m["ratio"] if m["ratio"] is not None else "-",
            m["change_better_pairs"], args.pairs))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny scale.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json at --scale tiny (200 proteins,
one ladder rung), untraced and traced, and fails loudly unless each run is
correct with no failed operation, emits exactly the end-to-end (untraced) or
per-layer (traced) metrics BENCHMARK.json names, each with its unit, and
reports ok_share 1. A renamed or dropped metric or workload fails here.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--scale", "tiny"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            tag = "%s --trace %d" % (workload, trace)
            if out.returncode != 0:
                problems.append("%s exited %d: %s" % (tag, out.returncode,
                                                      out.stderr[-1500:]))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    tag, result["correct"], result["attempted"],
                    result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and
                               got[k] != expected[trace][k])
                problems.append("%s: missing %s extra %s wrong unit %s" % (
                    tag, missing, extra, wrong))
            if trace == 0 and result["metrics"].get("ok_share", {}).get(
                    "value") != 1.0:
                problems.append("%s: ok_share is not 1" % tag)
            print("ok  " if not problems else "..  ", tag, flush=True)
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

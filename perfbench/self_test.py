#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Usage (from the repository root):

    python3 perfbench/self_test.py

Runs every workload of BENCHMARK.json once untraced and once traced on a
small dataset, and fails when a run exits nonzero, reports correct=false,
or leaves out any metric BENCHMARK.json names (or gives it another unit).
Then runs one read workload and follow_rw with a deliberately wrong
expected count and fails unless each of those runs is caught: exit code
nonzero and correct=false.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--objects", "20000"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    cmd += SMALL + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = run(name, trace)
            tag = f"{name} --trace {trace}"
            if code != 0 or res is None or res.get("correct") is not True:
                failures.append(f"{tag}: exit {code}, result {res}\n{err}")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{tag}: result keys {sorted(res)}")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    failures.append(f"{tag}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"]:
                    failures.append(f"{tag}: metric {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{tag}: unlisted metrics {sorted(extra)}")
            print(f"ok   {tag}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations", flush=True)
    for name in ("mem_read", "follow_rw"):
        code, res, _ = run(name, 0, ["--corrupt-reference"])
        caught = code != 0 and res is not None and res["correct"] is False
        print(f"{'ok  ' if caught else 'FAIL'} {name}: wrong expected count "
              f"{'caught' if caught else 'NOT caught'} (exit {code})",
              flush=True)
        if not caught:
            failures.append(f"{name}: wrong expected count not caught")
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

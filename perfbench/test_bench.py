#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_bench.py

1. Negative controls: the verifier, fed forged histories, must catch a
   wrong-value read and a Def-1-late read (and pass a clean history).
2. Smoke: a 1-second run of every workload, untraced and traced, must be
   correct and print every metric BENCHMARK.json names as a finite number.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    failures = []
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = run.build(build_dir)

    r = subprocess.run([os.path.join(bin_dir, "perfbench-load"), "--self-test"],
                       stdout=subprocess.PIPE, text=True)
    print(r.stdout, end="")
    if r.returncode != 0:
        failures.append("verifier self-test missed a forged history")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   w["name"], "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            name = f"{w['name']} trace={trace}"
            if r.returncode != 0:
                failures.append(f"{name}: exit code {r.returncode}")
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failures.append(f"{name}: not correct")
            for m in spec[kind]:
                value = result["metrics"].get(m["name"], {}).get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{name}: {m['name']} = {value!r}")
            print(f"{name}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")

    for f in failures:
        print("FAIL:", f)
    print("perfbench tests", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

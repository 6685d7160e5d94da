#!/usr/bin/env python3
"""End-to-end benchmark entry point: TSC clients against timedc-server.

Run from the repository root:

    python3 perfbench/run.py --workload write_wal --seed 1 --seconds 10 --trace 0

Builds timedc-server and perfbench-load from source (Release) into
$CARGO_TARGET_DIR or .bench_build, runs one measured run of the workload,
and prints the run's metrics as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. The full result, with sample counts and a hardware
fingerprint, is also written under <build dir>/results/. Exits nonzero,
printing no result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("write_wal", "cluster_ring")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (Release) and build the two binaries; returns their dir."""
    out = os.path.join(build_dir, "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench-load",
                  "timedc-server", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return out


def fingerprint(build_type):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "build_type": build_type,
    }


def die_with_parent():
    # perfbench-load (and through it every server) dies if this script is killed.
    try:
        import ctypes
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bin_dir = build(build_dir)
    work = os.path.join(build_dir, "work")
    results = os.path.join(build_dir, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(bin_dir, "perfbench-load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(bin_dir, "timedc-server"),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans-out", os.path.join(results, tag + ".spans.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        log("perfbench: perfbench-load timed out")
        sys.exit(1)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"perfbench: perfbench-load failed with exit code {r.returncode}")
        sys.exit(1)
    raw = json.loads(lines[-1])

    source = raw["per_layer"] if args.trace else raw["end_to_end"]
    metrics = {}
    finite = True
    for m in wanted:
        value = source.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            finite = False
            log(f"perfbench: metric {m['name']} missing or not finite")
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(raw["correct"]) and finite
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}

    full = dict(raw, fingerprint=fingerprint(raw["build_type"]),
                seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(full, f, indent=1)
    print("fingerprint " + json.dumps(full["fingerprint"]))
    print("counts " + json.dumps(raw["counts"]))
    print("setup_s " + json.dumps(raw["setup_s_all"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

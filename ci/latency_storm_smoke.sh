#!/usr/bin/env bash
# NET-C: clock sync + adaptive Delta through a latency storm.
#
# One timedc-server, three timedc-load runs through per-run chaos proxies
# that inject asymmetric base delay (3ms up / 1ms down — the worst case for
# Cristian's midpoint estimate) plus a triangular latency storm ramping to
# 25ms with 30% jitter:
#
#   A  adaptive: +-60ms injected clock skew, time sync on, adaptive Delta.
#      Must pass timedc-check TSC at Delta=100ms with the measured epsilon
#      ingested from the trace, abandon zero ops, and beat run B's mean
#      read latency.
#   B  static-conservative: same skew and sync, adaptive off, Delta=5ms —
#      below the stormed RTT, so reads keep revalidating. Still correct
#      (checked at Delta=100ms) but pays for it in read latency.
#   C  mis-calibrated: same +-60ms skew, NO sync. Its trace carries raw
#      skewed timestamps and no measured epsilon; the checker at eps=0 must
#      catch the violation (exit non-zero) — the negative control showing
#      the check has teeth.
#
# usage: ci/latency_storm_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail

BUILD=${1:-build}
OUT=${2:-storm-artifacts}
mkdir -p "$OUT"

SRV_PORT=7301
PA_PORT=7401 PB_PORT=7402 PC_PORT=7403

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

"$BUILD"/tools/timedc-server --port $SRV_PORT --shards 1 --duration-s 180 \
  --metrics-out "$OUT/server_metrics.json" \
  >"$OUT/server_out.txt" 2>"$OUT/server_err.txt" &
SRV_PID=$!
PIDS+=("$SRV_PID")
for _ in $(seq 1 50); do
  grep -q LISTENING "$OUT/server_out.txt" 2>/dev/null && break
  sleep 0.1
done
grep -q LISTENING "$OUT/server_out.txt" || { echo "FAIL: server never listened"; exit 1; }

# One proxy per run so each sees the storm from its own t=0 (the ramp is
# anchored to proxy start). Storm window 0..10s, peak 25ms extra one-way.
start_proxy() { # $1 local port, $2 tag
  "$BUILD"/tools/timedc-chaos --route "$1":127.0.0.1:$SRV_PORT \
    --latency-up-ms 3 --latency-down-ms 1 \
    --storm-ms 0:10000 --storm-peak-ms 25 --storm-jitter-pct 30 \
    --seed 7 --duration-s 60 \
    --metrics-out "$OUT/chaos_$2_metrics.json" \
    >"$OUT/chaos_$2_out.txt" 2>"$OUT/chaos_$2_err.txt" &
  PROXY_PID=$!
  PIDS+=("$PROXY_PID")
  # Poll finely (5 ms steps, 5 s budget): the storm ramp starts with the
  # proxy, so every coarse step is time the next run loses to it.
  for _ in $(seq 1 1000); do
    grep -q PROXYING "$OUT/chaos_$2_out.txt" 2>/dev/null && break
    sleep 0.005
  done
  grep -q PROXYING "$OUT/chaos_$2_out.txt" || { echo "FAIL: proxy $2 never proxied"; exit 1; }
}

# The op count stays modest (2x2x30 = 120 ops) so the exhaustive TSC
# serializability search in timedc-check terminates; distinct site/object
# bases per run keep the server's (site, request_id) write dedup and the
# traces' value-uniqueness invariant happy across runs.
COMMON="--threads 2 --clients 2 --ops 30 --duration-s 0 --write-pct 25 \
  --objects 12 --seed 11 --clock-offset-us 60000 \
  --max-attempts 8 --retry-base-ms 100 --max-abandoned 0"

echo "--- run A: sync + adaptive Delta"
start_proxy $PA_PORT a
timeout 90 "$BUILD"/tools/timedc-load --ports $PA_PORT $COMMON \
  --delta-us 100000 --time-sync-ms 100 --adaptive-delta \
  --site-base 3000 --object-base 610000 \
  --history-out "$OUT/a.trace" --trace-out "$OUT/a_events.jsonl" \
  --metrics-out "$OUT/a_metrics.json" \
  >"$OUT/a_out.txt" 2>"$OUT/a_err.txt" || { cat "$OUT/a_err.txt"; echo "FAIL: run A load"; exit 1; }
cat "$OUT/a_out.txt"
kill -TERM "$PROXY_PID" 2>/dev/null || true; wait "$PROXY_PID" 2>/dev/null || true

echo "--- run B: sync, static conservative Delta"
start_proxy $PB_PORT b
timeout 90 "$BUILD"/tools/timedc-load --ports $PB_PORT $COMMON \
  --delta-us 5000 --time-sync-ms 100 \
  --site-base 4000 --object-base 620000 \
  --history-out "$OUT/b.trace" \
  --metrics-out "$OUT/b_metrics.json" \
  >"$OUT/b_out.txt" 2>"$OUT/b_err.txt" || { cat "$OUT/b_err.txt"; echo "FAIL: run B load"; exit 1; }
cat "$OUT/b_out.txt"
kill -TERM "$PROXY_PID" 2>/dev/null || true; wait "$PROXY_PID" 2>/dev/null || true

echo "--- run C: no sync, raw +-60ms skew (negative control)"
start_proxy $PC_PORT c
timeout 90 "$BUILD"/tools/timedc-load --ports $PC_PORT $COMMON \
  --delta-us 100000 \
  --site-base 5000 --object-base 630000 \
  --history-out "$OUT/c.trace" \
  --metrics-out "$OUT/c_metrics.json" \
  >"$OUT/c_out.txt" 2>"$OUT/c_err.txt" || { cat "$OUT/c_err.txt"; echo "FAIL: run C load"; exit 1; }
cat "$OUT/c_out.txt"
kill -TERM "$PROXY_PID" 2>/dev/null || true; wait "$PROXY_PID" 2>/dev/null || true

kill -TERM "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
PIDS=()

# A: the trace records the measured pairwise epsilon; the checker must
# ingest it (Definition 2's eps-shrunken interference set) and say yes.
"$BUILD"/tools/timedc-check --delta 100000 "$OUT/a.trace" | tee "$OUT/a_check.txt"
grep -q "eps ingested from trace" "$OUT/a_check.txt" \
  || { echo "FAIL: run A check did not ingest the recorded eps"; exit 1; }
grep -Eq "TSC\(Delta=[0-9]+us, eps=[0-9]+us\): yes" "$OUT/a_check.txt" \
  || { echo "FAIL: run A is not timed-consistent"; exit 1; }

# B: synced clocks, so also correct at the wide Delta.
"$BUILD"/tools/timedc-check --delta 100000 "$OUT/b.trace" | tee "$OUT/b_check.txt"
grep -Eq "TSC\(Delta=[0-9]+us, eps=[0-9]+us\): yes" "$OUT/b_check.txt" \
  || { echo "FAIL: run B is not timed-consistent"; exit 1; }

# C: raw skewed clocks must NOT pass at eps=0 — the checker has to catch it.
C_RC=0
"$BUILD"/tools/timedc-check --delta 100000 "$OUT/c.trace" \
  >"$OUT/c_check.txt" 2>&1 || C_RC=$?
cat "$OUT/c_check.txt"
[ "$C_RC" -ne 0 ] || { echo "FAIL: mis-calibrated run C passed the checker"; exit 1; }

python3 ci/validate_trace.py --jsonl "$OUT/a_events.jsonl"
python3 ci/validate_trace.py --metrics "$OUT/a_metrics.json" \
  --require-histogram latency_us --require-histogram read_latency_us
python3 ci/validate_trace.py --metrics "$OUT/b_metrics.json"
python3 ci/validate_trace.py --metrics "$OUT/chaos_a_metrics.json"

# Cross-run assertions: sync actually ran and adapted, the storm actually
# delayed traffic in both directions, and adaptation bought read latency.
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
def load(name):
    with open(f"{out}/{name}") as f:
        return json.load(f)
a, b = load("a_metrics.json"), load("b_metrics.json")
chaos = load("chaos_a_metrics.json")

for name in ("client.sync.rounds_accepted",):
    if a["counters"].get(name, 0) <= 0:
        sys.exit(f"expected {name} > 0 in run A, got {a['counters'].get(name, 0)}")
if a["counters"].get("client.delta_adaptations", 0) <= 0:
    sys.exit("run A never adapted Delta")
if b["counters"].get("client.delta_adaptations", 0) != 0:
    sys.exit("run B adapted Delta with --adaptive-delta off")
for run in (a, b):
    if run["counters"].get("client.ops_abandoned", 0) != 0:
        sys.exit("abandoned operations slipped past the --max-abandoned gate")

eps = a["gauges"].get("load.eps_us", -1)
if not 0 <= eps < 100000:
    sys.exit(f"run A measured eps {eps}us is not a finite bound below Delta")

for h in ("chaos.delay_up_us", "chaos.delay_down_us"):
    hist = chaos["histograms"].get(h)
    if not hist or hist["count"] <= 0:
        sys.exit(f"storm proxy recorded no samples in {h}")
if chaos["histograms"]["chaos.delay_up_us"]["max"] < 3000:
    sys.exit("storm never exceeded the base uplink delay")

ra = a["gauges"]["load.read_latency_mean_us"]
rb = b["gauges"]["load.read_latency_mean_us"]
if ra >= rb:
    sys.exit(f"adaptive run A mean read latency {ra}us not below "
             f"static-conservative run B {rb}us")
print(f"latency storm OK: eps {eps}us, adaptations "
      f"{a['counters']['client.delta_adaptations']}, read latency "
      f"A {ra:.0f}us < B {rb:.0f}us")
EOF

echo "latency storm smoke passed"

#!/usr/bin/env bash
# NET-B: timedc-load driven through timedc-chaos against a 2-replica
# timedc-server cluster, with injected resets, a healing partition, and a
# hard kill + WAL restart of one replica mid-run. The captured trace must
# still satisfy TSC at a Delta that covers the worst outage, the load run
# must abandon zero operations, and the supervision counters (reconnects,
# heartbeats, failovers) must be visible in the exported metrics.
#
# usage: ci/chaos_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail

BUILD=${1:-build}
OUT=${2:-chaos-artifacts}
mkdir -p "$OUT"
rm -f "$OUT"/a.wal.* "$OUT"/b.wal.*

A_PORT=7101 B_PORT=7102   # real replicas (site 0 and site 1)
CA_PORT=7201 CB_PORT=7202 # chaos-proxied client-facing ports

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

start_server_a() {
  "$BUILD"/tools/timedc-server --port $A_PORT --shards 1 --site-base 0 \
    --cluster-size 2 --peer 1:127.0.0.1:$B_PORT \
    --state-file "$OUT/a.wal" --duration-s 60 --drain-ms 300 \
    --metrics-out "$OUT/server_a_metrics.json" \
    >>"$OUT/server_a_out.txt" 2>>"$OUT/server_a_err.txt" &
  A_PID=$!
  PIDS+=("$A_PID")
}

: >"$OUT/server_a_out.txt"
: >"$OUT/server_a_err.txt"
start_server_a
"$BUILD"/tools/timedc-server --port $B_PORT --shards 1 --site-base 1 \
  --cluster-size 2 --peer 0:127.0.0.1:$A_PORT \
  --state-file "$OUT/b.wal" --duration-s 60 --drain-ms 300 \
  --metrics-out "$OUT/server_b_metrics.json" \
  >"$OUT/server_b_out.txt" 2>"$OUT/server_b_err.txt" &
B_PID=$!
PIDS+=("$B_PID")

for f in server_a_out server_b_out; do
  for _ in $(seq 1 50); do
    grep -q LISTENING "$OUT/$f.txt" 2>/dev/null && break
    sleep 0.1
  done
  grep -q LISTENING "$OUT/$f.txt" || { echo "FAIL: $f never listened"; exit 1; }
done

"$BUILD"/tools/timedc-chaos \
  --route $CA_PORT:127.0.0.1:$A_PORT --route $CB_PORT:127.0.0.1:$B_PORT \
  --latency-ms 2 --jitter-ms 3 --reset-every-ms 1500 \
  --partition-ms 4000:4200 --seed 7 --duration-s 45 \
  --metrics-out "$OUT/chaos_metrics.json" \
  >"$OUT/chaos_out.txt" 2>"$OUT/chaos_err.txt" &
CHAOS_PID=$!
PIDS+=("$CHAOS_PID")
for _ in $(seq 1 50); do
  grep -q PROXYING "$OUT/chaos_out.txt" 2>/dev/null && break
  sleep 0.1
done
grep -q PROXYING "$OUT/chaos_out.txt" || { echo "FAIL: chaos never proxied"; exit 1; }

# Clients reach the replicas only through the proxy. Retries + failover are
# on; --max-abandoned 0 makes any abandoned operation a hard failure. The
# op count is capped and think time stretches the run across the kill +
# partition window: the exhaustive TSC check is exponential in concurrent
# conflicting operations, so the traced run stays modest (~200 ops) while
# still living through every injected fault.
timeout 60 "$BUILD"/tools/timedc-load --ports $CA_PORT,$CB_PORT \
  --threads 2 --clients 3 --ops 33 --duration-s 0 --write-pct 40 \
  --think-us 300000 \
  --objects 16 --object-base 500000 --delta-us 50000 --seed 11 \
  --max-attempts 8 --retry-base-ms 100 --max-abandoned 0 \
  --min-ops-per-sec 5 \
  --history-out "$OUT/chaos.trace" \
  --metrics-out "$OUT/load_metrics.json" \
  >"$OUT/load_out.txt" 2>"$OUT/load_err.txt" &
LOAD_PID=$!
PIDS+=("$LOAD_PID")

# Mid-run crash: SIGKILL replica A (no drain; its WAL group commit, which
# runs before any reply leaves, is all the durability it gets), then
# restart it from its write log a second later.
sleep 3
kill -KILL "$A_PID"
wait "$A_PID" 2>/dev/null || true
sleep 1
start_server_a

LOAD_RC=0
wait "$LOAD_PID" || LOAD_RC=$?
cat "$OUT/load_out.txt"
[ "$LOAD_RC" -eq 0 ] || { echo "FAIL: timedc-load exited $LOAD_RC"; exit 1; }

# Replay must actually have run: A acked writes before the kill, so its
# restart has to find their records (the first start, on an empty log,
# prints no "restored" line).
RESTORED=$(sed -n 's/^timedc-server: restored \([0-9]*\) WAL records$/\1/p' \
  "$OUT/server_a_err.txt" | tail -n 1)
[ "${RESTORED:-0}" -gt 0 ] || { echo "FAIL: restarted replica A replayed no WAL records"; exit 1; }
echo "replica A restart replayed $RESTORED WAL records"

kill -TERM "$A_PID" "$B_PID" 2>/dev/null || true
wait "$A_PID" 2>/dev/null || true
wait "$B_PID" 2>/dev/null || true
kill -TERM "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
PIDS=()

# The trace must serialize with every write visible within Delta=3s: the
# budget covers the 1s replica outage plus retry backoff and the partition.
"$BUILD"/tools/timedc-check --delta 3000000 "$OUT/chaos.trace"

python3 ci/validate_trace.py --metrics "$OUT/load_metrics.json" \
  --require-histogram latency_us --require-histogram staleness_us
python3 ci/validate_trace.py --metrics "$OUT/chaos_metrics.json"
python3 ci/validate_trace.py --metrics "$OUT/server_b_metrics.json"

# The supervision machinery must actually have been exercised: the load saw
# resets and an outage, so its transport reconnected, heartbeats flowed,
# and at least one operation failed over to the healthy replica.
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
with open(f"{out}/load_metrics.json") as f:
    load = json.load(f)["counters"]
with open(f"{out}/chaos_metrics.json") as f:
    chaos = json.load(f)["counters"]
for name in ("net.reconnects", "net.heartbeats_sent",
             "client.retries", "client.failovers"):
    if load.get(name, 0) <= 0:
        sys.exit(f"expected {name} > 0, got {load.get(name, 0)}")
if load.get("client.ops_abandoned", 0) != 0:
    sys.exit("abandoned operations slipped past the --max-abandoned gate")
for name in ("chaos.resets_injected", "chaos.partitions_healed",
             "chaos.bytes_forwarded"):
    if chaos.get(name, 0) <= 0:
        sys.exit(f"expected {name} > 0, got {chaos.get(name, 0)}")
print("chaos smoke OK:",
      {k: load[k] for k in ("net.reconnects", "net.heartbeats_sent",
                            "client.retries", "client.failovers")},
      "resets", chaos["chaos.resets_injected"])
EOF

echo "chaos smoke passed"

#!/usr/bin/env bash
# bench_snapshot.sh — record benchmark artifacts at the repository root:
#   BENCH_phase3.json  `prqbench phase3` — Phase-3 kernel comparison
#                      (per-candidate, shared-flat, shared-grid, shared-early
#                      and tiered, incl. the tiered kernel's tier-mix counters
#                      and tier_closure_rate)
#   BENCH_churn.json   `prqbench churn`  — read latency under live mutations,
#                      sweeping write fraction, plus the group-commit ingest
#                      section (sync vs grouped wal insert throughput at 64
#                      writers and the sync/grouped/follower identity
#                      booleans)
#   BENCH_shard.json   `prqbench shard`  — sharded scatter-gather serving:
#                      aggregate throughput at K ∈ {1,2,4} capacity-modelled
#                      shards, mean fan-out, answer identity and the
#                      router's scatter overhead
#   BENCH_phase1.json  `prqbench phase1` — packed+fused Phase-1/2 front half
#                      vs the pointer tree: per-query front-half time,
#                      certificate counters (f32 rechecks), answer and
#                      counter identity, the front-half speedup, and the
#                      build block (load/fold time, allocations, bytes)
# Pass an output path as $1 to redirect the phase3 artifact (legacy usage);
# the churn artifact always lands next to it as BENCH_churn.json.
#
# Environment:
#   GO         go binary (default: go)
#   QUERIES    queries per kernel for phase3 (default: 16)
#   SAMPLES    Monte Carlo samples per object (default: 100000)
#   SEED       dataset / cloud seed (default: 1)
#   CHURN_OPS  operations per churn cell (default: 6000)
#   WORKERS    concurrent workers for churn (default: 8)
#   SHARD_QUERIES  queries per shard-count cell (default: 1200)
#   SHARD_WORKERS  concurrent clients driving the router (default: 64)
#   PHASE1_QUERIES queries per front-half arm for phase1 (default: 64)
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
QUERIES="${QUERIES:-16}"
SAMPLES="${SAMPLES:-100000}"
SEED="${SEED:-1}"
CHURN_OPS="${CHURN_OPS:-6000}"
WORKERS="${WORKERS:-8}"
SHARD_QUERIES="${SHARD_QUERIES:-1200}"
SHARD_WORKERS="${SHARD_WORKERS:-64}"
PHASE1_QUERIES="${PHASE1_QUERIES:-64}"
OUT="${1:-BENCH_phase3.json}"
CHURN_OUT="$(dirname "$OUT")/BENCH_churn.json"
SHARD_OUT="$(dirname "$OUT")/BENCH_shard.json"
PHASE1_OUT="$(dirname "$OUT")/BENCH_phase1.json"

echo "bench-snapshot: running prqbench phase3 (queries=$QUERIES samples=$SAMPLES seed=$SEED)"
"$GO" run ./cmd/prqbench -queries "$QUERIES" -samples "$SAMPLES" -seed "$SEED" \
    -json "$OUT" phase3

echo "bench-snapshot: wrote $OUT"

echo "bench-snapshot: running prqbench churn (ops=$CHURN_OPS workers=$WORKERS seed=$SEED)"
"$GO" run ./cmd/prqbench -queries "$CHURN_OPS" -workers "$WORKERS" -seed "$SEED" \
    -json "$CHURN_OUT" churn

echo "bench-snapshot: wrote $CHURN_OUT"

echo "bench-snapshot: running prqbench shard (queries=$SHARD_QUERIES workers=$SHARD_WORKERS seed=$SEED)"
"$GO" run ./cmd/prqbench -queries "$SHARD_QUERIES" -workers "$SHARD_WORKERS" -seed "$SEED" \
    -json "$SHARD_OUT" shard

echo "bench-snapshot: wrote $SHARD_OUT"

echo "bench-snapshot: running prqbench phase1 (queries=$PHASE1_QUERIES seed=$SEED)"
"$GO" run ./cmd/prqbench -queries "$PHASE1_QUERIES" -seed "$SEED" \
    -json "$PHASE1_OUT" phase1

echo "bench-snapshot: wrote $PHASE1_OUT"

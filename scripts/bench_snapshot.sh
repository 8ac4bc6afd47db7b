#!/usr/bin/env bash
# bench_snapshot.sh — record benchmark artifacts at the repository root:
#   BENCH_churn.json   `prqbench churn`  — read latency under live mutations,
#                      sweeping write fraction, plus the group-commit ingest
#                      section (sync vs grouped wal insert throughput at 64
#                      writers and the sync/grouped/follower identity
#                      booleans)
#   BENCH_shard.json   `prqbench shard`  — sharded scatter-gather serving:
#                      aggregate throughput at K ∈ {1,2,4} capacity-modelled
#                      shards, mean fan-out, answer identity and the
#                      router's scatter overhead
#   BENCH_phase1.json  `prqbench phase1` — the packed Phase-1/2 front half:
#                      per-query front-half time, the summed node, recheck
#                      and prune counters, the FNV-64a hash of the answer
#                      ids, and the build block (load/fold time,
#                      allocations, bytes)
#
# Environment:
#   GO         go binary (default: go)
#   SEED       dataset seed (default: 1)
#   CHURN_OPS  operations per churn cell (default: 6000)
#   WORKERS    concurrent workers for churn (default: 8)
#   SHARD_QUERIES  queries per shard-count cell (default: 1200)
#   SHARD_WORKERS  concurrent clients driving the router (default: 64)
#   PHASE1_QUERIES queries per timed pass for phase1 (default: 64)
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
SEED="${SEED:-1}"
CHURN_OPS="${CHURN_OPS:-6000}"
WORKERS="${WORKERS:-8}"
SHARD_QUERIES="${SHARD_QUERIES:-1200}"
SHARD_WORKERS="${SHARD_WORKERS:-64}"
PHASE1_QUERIES="${PHASE1_QUERIES:-64}"
CHURN_OUT=BENCH_churn.json
SHARD_OUT=BENCH_shard.json
PHASE1_OUT=BENCH_phase1.json

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

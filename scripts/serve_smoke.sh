#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the network query service:
# datagen → prqserved → one query through the client → graceful SIGTERM,
# then the sharded path: prqshard splits the same dataset into 2 shards,
# prqserved -router scatters over them, the routed answer must be
# byte-identical to the direct single-node answer, and the router must serve
# the server's /statsz schema (with its router section) and /v1/shardmap. A
# final replication step boots a leader with a group-commit wal and a
# read-only follower tailing it: an insert on the leader must become
# readable on the follower at ≥ the published epoch with id-identical query
# answers, and the follower must refuse mutations. On the single node, on a
# shard and through the router, prqquery's answer (the client streams its
# queries over /v1/query/stream) must hold the ids a plain curl /v1/query
# gets.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
tmp="$(mktemp -d)"
pid=""
pids=()
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
    fi
    for p in "${pids[@]}"; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# wait_addr FILE PID — wait until FILE holds a bound address.
wait_addr() {
    local file="$1" watch="$2"
    for _ in $(seq 1 100); do
        [ -s "$file" ] && return 0
        if ! kill -0 "$watch" 2>/dev/null; then
            echo "serve-smoke: server exited before listening" >&2
            return 1
        fi
        sleep 0.1
    done
    [ -s "$file" ] || { echo "serve-smoke: no address file $file" >&2; return 1; }
}

smoke_query='{"center":[500,500],"cov":[[70,34.6],[34.6,30]],"delta":25,"theta":0.01}'

# same_ids URL JSON — JSON, prqquery's answer from URL, must hold the same
# ids as a plain curl /v1/query to URL; they are left in $tmp/plain.ids.
same_ids() {
    grep -o '"ids":\[[0-9,]*\]' "$2" > "$tmp/streamed.ids"
    curl -sfS -X POST "$1/v1/query" -d "$smoke_query" | grep -o '"ids":\[[0-9,]*\]' > "$tmp/plain.ids"
    if ! diff "$tmp/streamed.ids" "$tmp/plain.ids"; then
        echo "serve-smoke: prqquery and curl answers from $1 differ" >&2
        exit 1
    fi
}

echo "serve-smoke: building binaries"
"$GO" build -o "$tmp/bin/" ./cmd/datagen ./cmd/prqserved ./cmd/prqquery ./cmd/prqshard

echo "serve-smoke: generating dataset"
"$tmp/bin/datagen" -seed 1 -n 5000 clustered "$tmp/points.csv"

echo "serve-smoke: starting prqserved"
"$tmp/bin/prqserved" -csv "$tmp/points.csv" -addr 127.0.0.1:0 -addr-file "$tmp/addr" &
pid=$!

for _ in $(seq 1 100); do
    [ -s "$tmp/addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: prqserved exited before listening" >&2
        exit 1
    fi
    sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "serve-smoke: no address file" >&2; exit 1; }
addr="$(cat "$tmp/addr")"
echo "serve-smoke: server listening on $addr"

echo "serve-smoke: querying through the client"
"$tmp/bin/prqquery" -server "http://$addr" -json \
    -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
    | tee "$tmp/result.json"
grep -q '"ids"' "$tmp/result.json"

echo "serve-smoke: querying direct answer for the router diff"
"$tmp/bin/prqquery" -server "http://$addr" -json \
    -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
    > "$tmp/direct.json"
same_ids "http://$addr" "$tmp/direct.json"
grep -q '[0-9]' "$tmp/plain.ids" || { echo "serve-smoke: direct answer empty — diff proves nothing" >&2; exit 1; }

echo "serve-smoke: draining with SIGTERM"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "serve-smoke: splitting the dataset into 2 shards"
"$tmp/bin/prqshard" -csv "$tmp/points.csv" -k 2 -out "$tmp/shards"

echo "serve-smoke: starting 2 shard servers"
shard_urls=""
for i in 0 1; do
    "$tmp/bin/prqserved" -snapshot "$tmp/shards/shard-$i.grdb" \
        -addr 127.0.0.1:0 -addr-file "$tmp/shard$i.addr" &
    pids+=($!)
    wait_addr "$tmp/shard$i.addr" "${pids[-1]}"
    shard_urls="$shard_urls,http://$(cat "$tmp/shard$i.addr")"
done
shard_urls="${shard_urls#,}"

echo "serve-smoke: querying each shard through the client and with curl"
answered=0
for i in 0 1; do
    "$tmp/bin/prqquery" -server "http://$(cat "$tmp/shard$i.addr")" -json \
        -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
        > "$tmp/shard$i.json"
    same_ids "http://$(cat "$tmp/shard$i.addr")" "$tmp/shard$i.json"
    if grep -q '[0-9]' "$tmp/plain.ids"; then answered=$((answered + 1)); fi
done
[ "$answered" -gt 0 ] || { echo "serve-smoke: no shard answered — the shard diffs prove nothing" >&2; exit 1; }

echo "serve-smoke: starting the router over $shard_urls"
"$tmp/bin/prqserved" -router -shard-map "$tmp/shards/shardmap.json" \
    -shards "$shard_urls" -addr 127.0.0.1:0 -addr-file "$tmp/router.addr" &
pids+=($!)
wait_addr "$tmp/router.addr" "${pids[-1]}"
router_addr="$(cat "$tmp/router.addr")"

echo "serve-smoke: querying through the router"
"$tmp/bin/prqquery" -server "http://$router_addr" -json \
    -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
    > "$tmp/routed.json"
same_ids "http://$router_addr" "$tmp/routed.json"

# The routed answer ids must be non-empty and byte-identical to the direct
# single-node ids.
grep -o '"ids":\[[0-9,]*\]' "$tmp/direct.json" > "$tmp/direct.ids"
grep -o '"ids":\[[0-9,]*\]' "$tmp/routed.json" > "$tmp/routed.ids"
grep -q '[0-9]' "$tmp/direct.ids" || { echo "serve-smoke: direct answer empty — diff proves nothing" >&2; exit 1; }
if ! diff "$tmp/direct.ids" "$tmp/routed.ids"; then
    echo "serve-smoke: routed answer differs from direct answer" >&2
    exit 1
fi
echo "serve-smoke: routed answer matches direct answer: $(cat "$tmp/direct.ids")"

echo "serve-smoke: checking the router's /statsz and /v1/shardmap"
curl -sfS "http://$router_addr/statsz" > "$tmp/rstats.json"
for key in admission router; do
    grep -q "\"$key\":" "$tmp/rstats.json" || { echo "serve-smoke: router /statsz has no \"$key\" section: $(cat "$tmp/rstats.json")" >&2; exit 1; }
done
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$router_addr/v1/shardmap")"
if [ "$code" != "200" ]; then
    echo "serve-smoke: router answered $code to /v1/shardmap, want 200" >&2
    exit 1
fi

echo "serve-smoke: draining shard cluster with SIGTERM"
for p in "${pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "${pids[@]}"; do
    wait "$p" 2>/dev/null || true
done
pids=()

echo "serve-smoke: starting a leader with a group-commit wal"
"$tmp/bin/prqserved" -csv "$tmp/points.csv" -wal "$tmp/wal" \
    -addr 127.0.0.1:0 -addr-file "$tmp/leader.addr" &
pids+=($!)
wait_addr "$tmp/leader.addr" "${pids[-1]}"
leader_addr="$(cat "$tmp/leader.addr")"

echo "serve-smoke: inserting two points on the leader"
curl -sfS -X POST "http://$leader_addr/v1/points" \
    -d '{"points":[[500,500],[501,501]]}' > "$tmp/insert.json"
grep -q '"ids"' "$tmp/insert.json"
epoch="$(grep -o '"epoch":[0-9]*' "$tmp/insert.json" | head -1 | cut -d: -f2)"
[ -n "$epoch" ] || { echo "serve-smoke: insert response has no epoch" >&2; exit 1; }
echo "serve-smoke: leader published epoch $epoch"

echo "serve-smoke: starting a follower tailing the wal"
# The follower bootstraps from the same CSV the leader loaded — the wal only
# carries history after that base state.
"$tmp/bin/prqserved" -csv "$tmp/points.csv" -follow "$tmp/wal" -follow-interval 10ms \
    -addr 127.0.0.1:0 -addr-file "$tmp/follower.addr" &
pids+=($!)
wait_addr "$tmp/follower.addr" "${pids[-1]}"
follower_addr="$(cat "$tmp/follower.addr")"

echo "serve-smoke: waiting for the follower to reach epoch $epoch"
caught_up=""
for _ in $(seq 1 100); do
    curl -sfS "http://$follower_addr/healthz" > "$tmp/fhealth.json" || true
    fepoch="$(grep -o '"epoch":[0-9]*' "$tmp/fhealth.json" | head -1 | cut -d: -f2)"
    if [ -n "$fepoch" ] && [ "$fepoch" -ge "$epoch" ]; then
        caught_up=1
        break
    fi
    sleep 0.1
done
[ -n "$caught_up" ] || { echo "serve-smoke: follower never reached epoch $epoch: $(cat "$tmp/fhealth.json")" >&2; exit 1; }
grep -q '"read_only":true' "$tmp/fhealth.json" || { echo "serve-smoke: follower health does not report read_only" >&2; exit 1; }

echo "serve-smoke: diffing leader and follower answers"
"$tmp/bin/prqquery" -server "http://$leader_addr" -json \
    -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
    > "$tmp/leader.json"
"$tmp/bin/prqquery" -server "http://$follower_addr" -json \
    -center 500,500 -cov "70,34.6;34.6,30" -delta 25 -theta 0.01 \
    > "$tmp/follower.json"
grep -o '"ids":\[[0-9,]*\]' "$tmp/leader.json" > "$tmp/leader.ids"
grep -o '"ids":\[[0-9,]*\]' "$tmp/follower.json" > "$tmp/follower.ids"
grep -q '[0-9]' "$tmp/leader.ids" || { echo "serve-smoke: leader answer empty — diff proves nothing" >&2; exit 1; }
if ! diff "$tmp/leader.ids" "$tmp/follower.ids"; then
    echo "serve-smoke: follower answer differs from leader answer" >&2
    exit 1
fi
echo "serve-smoke: follower answer matches leader answer at epoch >= $epoch"

echo "serve-smoke: checking the follower refuses mutations"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$follower_addr/v1/points" \
    -d '{"points":[[1,1]]}')"
if [ "$code" != "403" ]; then
    echo "serve-smoke: follower answered $code to an insert, want 403" >&2
    exit 1
fi

echo "serve-smoke: draining leader and follower with SIGTERM"
for p in "${pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "${pids[@]}"; do
    wait "$p" 2>/dev/null || true
done
pids=()

echo "serve-smoke: OK"

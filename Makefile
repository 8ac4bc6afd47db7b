GO ?= go

.PHONY: build test bench verify race vet fmt-check fuzz-smoke serve-smoke bench-snapshot bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem .

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt-check fails if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# fuzz-smoke runs the R*-tree fuzzers briefly — enough to catch invariant
# regressions in insert/delete/rebuild, packed-vs-pointer search parity, and
# the flat STR build against its pointer-tree reference — the Ruben-kernel
# fuzzer, which checks the linear-time series (value, certified bound, early
# decisions) against its O(K²) reference, the answer-region hull fuzzer,
# which checks every inside/outside verdict of a random query shape's hull
# against the exact evaluator, and the two wire-codec fuzzers, which check
# that the single-pass /v1/query request and reply decoders agree with
# encoding/json on arbitrary bytes (error or not, same value, same float
# bits). `go test` accepts only one -fuzz target per invocation, so the 24s
# budget is split across the seven fuzzers.
fuzz-smoke:
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzTreeOps -fuzztime 4s
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzPackedSearch -fuzztime 4s
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzPackedBuild -fuzztime 4s
	$(GO) test ./internal/quadform -run '^$$' -fuzz FuzzRubenCDF -fuzztime 3s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHullClassify -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzQueryResponseDecode -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzQueryRequestDecode -fuzztime 3s

# verify is the pre-merge gate: formatting, static analysis, and the
# race-enabled test suite (the storage engine, plan cache, worker pools,
# QueryBatch and the query server are concurrency-heavy).
verify: fmt-check vet race
	@echo "verify: OK"

# bench-snapshot regenerates the committed benchmark artifacts:
# BENCH_churn.json (read latency under live mutations), BENCH_shard.json
# (sharded scatter-gather serving) and BENCH_phase1.json (packed+fused front
# half vs pointer tree, plus the index build cost).
bench-snapshot:
	GO="$(GO)" ./scripts/bench_snapshot.sh

# bench-compare runs three gates. The first gates the sharded serving path
# on the committed BENCH_shard.json: routed answers must stay id-identical
# to the unsharded DB, K=4 must keep its modelled >=3x speedup (2.7x with
# CI jitter headroom), viewport fan-out must stay below K, and the router's
# scatter overhead must not regress more than 25% against the baseline.
# The second run gates the group-commit write pipeline on the committed
# BENCH_churn.json ingest section: grouped commit must sustain >=5x the
# synchronous per-batch-fsync insert rate at 64 concurrent writers in the
# same run, and a deterministic mutation sequence must stay byte-identical
# (epochs and answers) across synchronous commit, grouped commit, and
# follower replay of the grouped log. The third run gates the packed+fused
# Phase-1/2 front half on the committed BENCH_phase1.json: the fused arm's
# answer ids and per-phase counters must stay identical to the pointer
# baseline's (which now runs on the tree unpacked from the packed base), and
# the build block must stay scale-free sane: an index load in <=64 allocations
# that never materialises the pointer tree, and packed_bytes/points <= 32 at
# d=2, because a leaf stores its point once (16 B) with its id (8 B) and a
# return of duplicated leaf copies (bounds and float32 mirrors) reads ~74.
# The front-half ratio is printed, not gated: a floor on the timing of two
# ~20us loops is a gate on the box.
SHARD_COMPARE_QUERIES ?= 1200
SHARD_COMPARE_WORKERS ?= 64
bench-compare:
	$(GO) run ./cmd/prqbench -queries $(SHARD_COMPARE_QUERIES) \
		-workers $(SHARD_COMPARE_WORKERS) -seed 1 \
		-compare BENCH_shard.json shard
	$(GO) run ./cmd/prqbench -seed 1 -compare BENCH_churn.json churn
	$(GO) run ./cmd/prqbench -seed 1 -compare BENCH_phase1.json phase1

# serve-smoke boots the full network stack once: generate a dataset, start
# prqserved, answer one query through the Go client (prqquery -server), and
# shut the server down gracefully with SIGTERM.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

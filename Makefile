GO ?= go

.PHONY: build test bench verify race vet fmt-check deadcode fuzz-smoke serve-smoke bench-snapshot bench-compare

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

# deadcode fails when a function declared outside the main packages is
# linked into none of them (cmd/*, examples/*, bench) and is not on
# scripts/deadcode/allow.txt, or when an allowlist entry is linked or gone.
deadcode:
	$(GO) run ./scripts/deadcode

# fuzz-smoke runs the ten fuzzers briefly: the three R-tree fuzzers —
# packed-vs-pointer search parity on STR-loaded trees, the flat STR build
# against its pointer-tree reference, and the packed k-NN walk against a
# brute-force (distance, id) sort — the Ruben-kernel fuzzer, which checks
# the linear-time series (value, certified bound, early decisions) against
# its O(K²) reference, the answer-region hull fuzzer, which checks every
# inside/outside verdict of a random query shape's hull against the exact
# evaluator, the two wire-codec fuzzers, which check that the single-pass
# /v1/query request and reply decoders agree with encoding/json on arbitrary
# bytes (error or not, same value, same float bits), and the id-block fuzzer,
# which checks that the block decoder agrees with encoding/json on arbitrary
# block text and that any []int64 — unsorted, repeated, extreme —
# round-trips through a block, the query-stream fuzzer, which feeds
# arbitrary bytes to the stream handler as a stream's body and checks that it
# never panics, answers each complete well-formed frame exactly as /v1/query
# answers its body, and ends the stream at a malformed or oversized length,
# and the snapshot fuzzer, which feeds arbitrary bytes to Restore and checks
# that it never panics or sizes memory from an unverified header, and that a
# snapshot it accepts saves back to the bytes it read.
# `go test` accepts only one -fuzz target per invocation, so the 30s budget
# is split across the ten fuzzers.
fuzz-smoke:
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzPackedSearch -fuzztime 3s
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzPackedBuild -fuzztime 3s
	$(GO) test ./internal/rtree -run '^$$' -fuzz FuzzPackedKNN -fuzztime 3s
	$(GO) test ./internal/quadform -run '^$$' -fuzz FuzzRubenCDF -fuzztime 3s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzHullClassify -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzQueryResponseDecode -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzQueryRequestDecode -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzIDBlock -fuzztime 3s
	$(GO) test ./server -run '^$$' -fuzz FuzzQueryStream -fuzztime 3s
	$(GO) test . -run '^$$' -fuzz FuzzRestore -fuzztime 3s

# verify is the pre-merge gate: formatting, static analysis, and the
# race-enabled test suite (the storage engine, the plan cache and its shared
# hull, QueryBatch's worker pool, the wal pipeline and the query server are
# concurrency-heavy).
verify: fmt-check vet race
	@echo "verify: OK"

# bench-snapshot regenerates the committed benchmark artifacts:
# BENCH_churn.json (read latency under live mutations), BENCH_shard.json
# (sharded scatter-gather serving) and BENCH_phase1.json (the packed front
# half's counters and answer hash, plus the index build cost).
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
# follower replay of the grouped log. The third run gates the packed
# Phase-1/2 front half on the committed BENCH_phase1.json: its summed
# counters and the FNV-64a hash of its answer ids (ids_fnv64) must equal the
# baseline's, so a change that moves one answer or one node visit fails
# across commits, and the build block must stay scale-free sane: an index
# load in <=64 allocations, and packed_bytes/points <= 32 at d=2, because a
# leaf stores its point once (16 B) with its id (8 B) and a return of
# duplicated leaf copies (bounds and float32 mirrors) reads ~74. The
# front-half time is printed, not gated: a floor on the timing of a ~20us
# loop is a gate on the box.
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

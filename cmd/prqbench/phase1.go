package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"gaussrange"
	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/internal/vecmat"
)

// phase1Counts is the front half's counters summed over every timed query
// (answers over the first timed pass alone).
type phase1Counts struct {
	NodesRead    int `json:"nodes_read"`
	F32Rechecks  int `json:"f32_rechecks"`
	Retrieved    int `json:"retrieved"`
	PrunedFringe int `json:"pruned_fringe"`
	PrunedOR     int `json:"pruned_or"`
	PrunedBF     int `json:"pruned_bf"`
	AcceptedBF   int `json:"accepted_bf"`
	Answers      int `json:"answers"`
}

// phase1Build is the build block: what it costs to make the index the
// queries search. Times are medians on the machine that wrote the file; the
// allocation count and the bytes per point are scale-free and gated.
type phase1Build struct {
	BuildMS     float64 `json:"build_ms"` // core.NewIndex on the dataset
	BuildAllocs int     `json:"build_allocs"`
	PackedBytes int     `json:"packed_bytes"`
	FoldMS      float64 `json:"fold_ms"` // the Apply that folds a full overlay
}

// buildAllocsCeiling is the -compare gate on build_allocs: a few dozen
// allocations for the whole load; per-point cloning would be 50 000+.
const buildAllocsCeiling = 64

// packedBytesPerPointCeiling is the -compare gate on packed_bytes / points
// (d = 2): a leaf holds a point once (16 B) and its id (4 B), and the node
// levels add ≈ 2 B a point; eight-byte ids read 26.4, and leaves that
// carried bounds and float32 mirrors too read ≈ 74.
const packedBytesPerPointCeiling = 24

// phase1Report is the JSON document written by -json and committed as
// BENCH_phase1.json.
type phase1Report struct {
	Dataset string  `json:"dataset"`
	Points  int     `json:"points"`
	Queries int     `json:"queries"`
	Passes  int     `json:"passes"`
	Gamma   float64 `json:"gamma"`
	Delta   float64 `json:"delta"`
	Theta   float64 `json:"theta"`
	Seed    uint64  `json:"seed"`
	// FrontNSPerQuery is the mean Phase-1 + Phase-2 time of a timed query:
	// printed beside the baseline's, never gated.
	FrontNSPerQuery int64        `json:"front_ns_per_query"`
	Counts          phase1Counts `json:"counts"`
	// IDsFNV64 is the FNV-64a hash, in hex, of the first timed pass's answer
	// ids, query after query, each id as 8 little-endian bytes.
	IDsFNV64 string      `json:"ids_fnv64"`
	Build    phase1Build `json:"build"`
}

// runPhase1 runs the paper's Table-I workload (Long Beach roads, γ=1, δ=25,
// θ=0.01) through the front half with the exact Phase-3 evaluator and
// records its summed counters, a hash of its answers and the index build
// cost; -compare gates the counters and the hash on the committed report,
// so a change that moves Phase 1 or 2 by one id or one node shows.
func runPhase1(cfg experiments.Config, queries int, jsonPath, comparePath string) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1, got %d", queries)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	points := data.LongBeach(seed)
	raw := make([][]float64, len(points))
	for i, p := range points {
		raw[i] = p
	}

	const (
		gamma = 1.0
		delta = 25.0
		theta = 0.01
	)
	sigma := experiments.PaperSigmaBase().Scale(gamma)
	covRows := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}
	specs := make([]gaussrange.QuerySpec, queries)
	for i := range specs {
		c := points[(i*7919)%len(points)]
		specs[i] = gaussrange.QuerySpec{
			Center: []float64{c[0], c[1]},
			Cov:    covRows,
			Delta:  delta,
			Theta:  theta,
		}
	}
	// Several timed passes amortize timer and scheduler noise on the small
	// query counts bench-compare runs with.
	passes := 1
	if queries*passes < 256 {
		passes = (255 + queries) / queries
	}

	report := phase1Report{
		Dataset: "longbeach",
		Points:  len(raw),
		Queries: queries,
		Passes:  passes,
		Gamma:   gamma,
		Delta:   delta,
		Theta:   theta,
		Seed:    seed,
	}

	db, err := gaussrange.Load(raw)
	if err != nil {
		return err
	}
	ctx := context.Background()
	// Warmup pass: compiles the plan into the cache and faults the index
	// into cache, so the timed passes measure steady-state serving.
	for _, spec := range specs {
		if _, err := db.QueryCtx(ctx, spec); err != nil {
			return err
		}
	}
	var (
		frontNS int64
		c       = &report.Counts
		h       = fnv.New64a()
		idBuf   [8]byte
	)
	for pass := 0; pass < passes; pass++ {
		for _, spec := range specs {
			res, err := db.QueryCtx(ctx, spec)
			if err != nil {
				return err
			}
			st := res.Stats
			frontNS += (st.IndexTime + st.FilterTime).Nanoseconds()
			c.NodesRead += st.NodesRead
			c.F32Rechecks += st.F32Rechecks
			c.Retrieved += st.Retrieved
			c.PrunedFringe += st.PrunedFringe
			c.PrunedOR += st.PrunedOR
			c.PrunedBF += st.PrunedBF
			c.AcceptedBF += st.AcceptedBF
			if pass == 0 {
				c.Answers += len(res.IDs)
				for _, id := range res.IDs {
					binary.LittleEndian.PutUint64(idBuf[:], uint64(id))
					h.Write(idBuf[:])
				}
			}
		}
	}
	report.FrontNSPerQuery = frontNS / int64(queries*passes)
	report.IDsFNV64 = fmt.Sprintf("%016x", h.Sum64())
	if report.Build, err = measureBuild(points); err != nil {
		return err
	}

	fmt.Printf("phase-1/2 front half (%d points, %d queries × %d passes, γ=%g, δ=%g, θ=%g)\n",
		len(raw), queries, passes, gamma, delta, theta)
	fmt.Printf("  front half   : %8.1f µs/query\n", float64(report.FrontNSPerQuery)/1e3)
	fmt.Printf("  counters     : nodes %d, f32 rechecks %d, retrieved %d, pruned fringe/or/bf %d/%d/%d, accepted bf %d, answers %d\n",
		c.NodesRead, c.F32Rechecks, c.Retrieved, c.PrunedFringe, c.PrunedOR, c.PrunedBF, c.AcceptedBF, c.Answers)
	fmt.Printf("  ids fnv64    : %s\n", report.IDsFNV64)
	fmt.Printf("  build        : %.1f ms, %d allocs, %d packed bytes; fold %.1f ms\n",
		report.Build.BuildMS, report.Build.BuildAllocs, report.Build.PackedBytes, report.Build.FoldMS)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if comparePath != "" {
		return comparePhase1(&report, comparePath)
	}
	return nil
}

// measureBuild fills the build block on an index of its own: five loads
// (median time, fewest mallocs — nothing else runs meanwhile, so the count is
// the load's own), then three overlay folds driven by insert+delete pairs.
func measureBuild(points []vecmat.Vector) (phase1Build, error) {
	var (
		b          = phase1Build{BuildAllocs: math.MaxInt}
		idx        *core.Index
		loads      []float64
		folds      []float64
		mem0, mem1 runtime.MemStats
	)
	for range 5 {
		var err error
		runtime.ReadMemStats(&mem0)
		t0 := time.Now()
		if idx, err = core.NewIndex(points, 2); err != nil {
			return b, err
		}
		loads = append(loads, float64(time.Since(t0).Nanoseconds())/1e6)
		runtime.ReadMemStats(&mem1)
		b.BuildAllocs = min(b.BuildAllocs, int(mem1.Mallocs-mem0.Mallocs))
	}
	for i := 0; len(folds) < 3; i++ {
		before, _ := idx.Current().OverlaySize()
		t0 := time.Now()
		ids, _, _, err := idx.Apply([]vecmat.Vector{points[(i*7919)%len(points)]}, nil)
		if err == nil {
			_, _, _, err = idx.Apply(nil, ids)
		}
		if err != nil {
			return b, err
		}
		if after, _ := idx.Current().OverlaySize(); after < before {
			folds = append(folds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	sort.Float64s(loads)
	sort.Float64s(folds)
	b.BuildMS, b.FoldMS = loads[len(loads)/2], folds[len(folds)/2]
	b.PackedBytes = idx.Current().Packed().Bytes()
	return b, nil
}

// comparePhase1 gates a fresh phase1 run against the committed report. The
// workload must be the baseline's; then the summed counters and the answer
// hash must equal it exactly — the front half is deterministic, so any
// difference is a changed answer or a changed walk, not noise — and the
// build must stay a few dozen allocations and keep each point once (packed
// bytes per point). The front-half time is printed beside the baseline's
// without a floor: it is a timing of a ≈ 10–50 µs loop on whatever box runs
// the gate, and the serving benchmark (bench/, `query_p50_ms`) is what
// measures the front half.
func comparePhase1(report *phase1Report, baselinePath string) error {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base phase1Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if report.Points != base.Points || report.Queries != base.Queries || report.Passes != base.Passes || report.Seed != base.Seed {
		return fmt.Errorf("baseline %s ran %d points, %d queries × %d passes, seed %d; this run %d, %d × %d, seed %d — rerun with the baseline's -queries and -seed",
			baselinePath, base.Points, base.Queries, base.Passes, base.Seed, report.Points, report.Queries, report.Passes, report.Seed)
	}
	if report.Counts != base.Counts {
		return fmt.Errorf("front-half counters %+v, baseline %+v — Phase 1 or 2 changed", report.Counts, base.Counts)
	}
	if report.IDsFNV64 != base.IDsFNV64 {
		return fmt.Errorf("answer ids hash to %s, baseline %s — the answers changed", report.IDsFNV64, base.IDsFNV64)
	}
	bytesPerPoint := float64(report.Build.PackedBytes) / float64(report.Points)
	fmt.Printf("bench-compare: counters and ids_fnv64 %s equal the baseline\n", report.IDsFNV64)
	fmt.Printf("bench-compare: build %d allocs (baseline %d, ceiling %d), %.1f ms (baseline %.1f ms); fold %.1f ms (baseline %.1f ms); packed %.1f B/point (baseline %.1f, ceiling %d)\n",
		report.Build.BuildAllocs, base.Build.BuildAllocs, buildAllocsCeiling,
		report.Build.BuildMS, base.Build.BuildMS, report.Build.FoldMS, base.Build.FoldMS,
		bytesPerPoint, float64(base.Build.PackedBytes)/float64(base.Points), packedBytesPerPointCeiling)
	if report.Build.BuildAllocs > buildAllocsCeiling {
		return fmt.Errorf("build made %d allocations, ceiling %d — per-point copying is back", report.Build.BuildAllocs, buildAllocsCeiling)
	}
	if bytesPerPoint > packedBytesPerPointCeiling {
		return fmt.Errorf("packed index holds %.1f B/point, ceiling %d — duplicated leaf copies are back", bytesPerPoint, packedBytesPerPointCeiling)
	}
	fmt.Printf("bench-compare: front half %.1f µs/query (baseline %.1f, not gated)\n",
		float64(report.FrontNSPerQuery)/1e3, float64(base.FrontNSPerQuery)/1e3)
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"gaussrange"
	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/internal/vecmat"
)

// phase1ArmResult is one front-half implementation's measurement: the summed
// Phase-1 + Phase-2 time over every timed query, with the packed kernel's
// certificate counters.
type phase1ArmResult struct {
	Arm             string `json:"arm"` // "pointer" or "packed-fused"
	FrontNS         int64  `json:"front_ns"`
	FrontNSPerQuery int64  `json:"front_ns_per_query"`
	NodesRead       int    `json:"nodes_read"`
	NodesReadPacked int    `json:"nodes_read_packed"`
	F32Rechecks     int    `json:"f32_rechecks"`
	Retrieved       int    `json:"retrieved"`
	PrunedFringe    int    `json:"pruned_fringe"`
	PrunedOR        int    `json:"pruned_or"`
	PrunedBF        int    `json:"pruned_bf"`
	AcceptedBF      int    `json:"accepted_bf"`
	Answers         int    `json:"answers"`
}

// phase1Build is the build block: what it costs to make the structure the
// arms search. Times are medians on the machine that wrote the file; the
// allocation count and the materialised flag are scale-free and gated.
type phase1Build struct {
	BuildMS     float64 `json:"build_ms"` // core.NewIndex on the dataset
	BuildAllocs int     `json:"build_allocs"`
	PackedBytes int     `json:"packed_bytes"`
	FoldMS      float64 `json:"fold_ms"` // the Apply that folds a full overlay
	// PointerTreeMaterialised reports whether load or fold built the derived
	// pointer tree (they must not: only its few remaining callers do).
	PointerTreeMaterialised bool `json:"pointer_tree_materialised"`
}

// buildAllocsCeiling is the -compare gate on build_allocs: a few dozen
// allocations for the whole load; per-point cloning would be 50 000+.
const buildAllocsCeiling = 64

// packedBytesPerPointCeiling is the -compare gate on packed_bytes / points
// (d = 2): a leaf holds a point once (16 B) and its id (8 B), and the node
// levels add ≈ 2 B a point; leaves that carried bounds and float32 mirrors
// too read ≈ 74.
const packedBytesPerPointCeiling = 32

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
	// IDsIdentical reports the two arms returned byte-identical answer id
	// sequences for every query; CountsIdentical extends that to the
	// per-query Retrieved and per-phase prune/accept counters.
	IDsIdentical    bool `json:"ids_identical"`
	CountsIdentical bool `json:"counts_identical"`
	// Speedup is pointer front-half time over packed-fused front-half time.
	Speedup float64           `json:"speedup_front_half"`
	Arms    []phase1ArmResult `json:"arms"`
	Build   phase1Build       `json:"build"`
}

// phase1Counts is one query's front-half counter tuple, compared across arms.
type phase1Counts struct {
	retrieved, fringe, or, bf, acc int
}

// runPhase1 measures the packed+fused Phase-1/2 kernel against the
// pointer-tree baseline on the paper's Table-I workload (Long Beach roads,
// γ=1, δ=25, θ=0.01). Both arms answer the identical query set with the exact
// Phase-3 evaluator; the report records the front-half (IndexTime+FilterTime)
// speedup and gates on identity of answer ids and per-phase counters.
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

	type armRun struct {
		res    phase1ArmResult
		ids    [][]int64
		counts []phase1Counts
	}
	runArm := func(arm string, opts ...gaussrange.Option) (*armRun, error) {
		db, err := gaussrange.Load(raw, opts...)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		out := &armRun{res: phase1ArmResult{Arm: arm}}
		// Warmup pass: compiles the plan into the cache and faults the index
		// into cache, so the timed passes measure steady-state serving.
		for _, spec := range specs {
			if _, err := db.QueryCtx(ctx, spec); err != nil {
				return nil, err
			}
		}
		for pass := 0; pass < passes; pass++ {
			for _, spec := range specs {
				res, err := db.QueryCtx(ctx, spec)
				if err != nil {
					return nil, err
				}
				st := res.Stats
				out.res.FrontNS += (st.IndexTime + st.FilterTime).Nanoseconds()
				out.res.NodesRead += st.NodesRead
				out.res.NodesReadPacked += st.NodesReadPacked
				out.res.F32Rechecks += st.F32Rechecks
				out.res.Retrieved += st.Retrieved
				out.res.PrunedFringe += st.PrunedFringe
				out.res.PrunedOR += st.PrunedOR
				out.res.PrunedBF += st.PrunedBF
				out.res.AcceptedBF += st.AcceptedBF
				if pass == 0 {
					out.res.Answers += len(res.IDs)
					out.ids = append(out.ids, res.IDs)
					out.counts = append(out.counts, phase1Counts{
						retrieved: st.Retrieved, fringe: st.PrunedFringe,
						or: st.PrunedOR, bf: st.PrunedBF, acc: st.AcceptedBF,
					})
				}
			}
		}
		out.res.FrontNSPerQuery = out.res.FrontNS / int64(queries*passes)
		return out, nil
	}

	pointer, err := runArm("pointer", gaussrange.WithPointerPhase1())
	if err != nil {
		return err
	}
	fused, err := runArm("packed-fused")
	if err != nil {
		return err
	}

	report.IDsIdentical = slices.EqualFunc(pointer.ids, fused.ids, slices.Equal[[]int64])
	report.CountsIdentical = len(pointer.counts) == len(fused.counts)
	if report.CountsIdentical {
		for i := range pointer.counts {
			if pointer.counts[i] != fused.counts[i] {
				report.CountsIdentical = false
				break
			}
		}
	}
	if fused.res.FrontNS > 0 {
		report.Speedup = float64(pointer.res.FrontNS) / float64(fused.res.FrontNS)
	}
	report.Arms = []phase1ArmResult{pointer.res, fused.res}
	if report.Build, err = measureBuild(points); err != nil {
		return err
	}

	fmt.Printf("phase-1/2 front half (%d points, %d queries × %d passes, γ=%g, δ=%g, θ=%g)\n",
		len(raw), queries, passes, gamma, delta, theta)
	for _, arm := range report.Arms {
		fmt.Printf("  %-13s: %8.1f µs/query  (nodes %d, packed %d, f32 rechecks %d, retrieved %d, answers %d)\n",
			arm.Arm, float64(arm.FrontNSPerQuery)/1e3, arm.NodesRead, arm.NodesReadPacked,
			arm.F32Rechecks, arm.Retrieved, arm.Answers)
	}
	fmt.Printf("  speedup      : %.2fx front-half (pointer / packed-fused)\n", report.Speedup)
	fmt.Printf("  identity     : ids=%v counts=%v\n", report.IDsIdentical, report.CountsIdentical)
	fmt.Printf("  build        : %.1f ms, %d allocs, %d packed bytes; fold %.1f ms; pointer tree materialised: %v\n",
		report.Build.BuildMS, report.Build.BuildAllocs, report.Build.PackedBytes, report.Build.FoldMS,
		report.Build.PointerTreeMaterialised)
	if !report.IDsIdentical {
		for i := range pointer.ids {
			if !slices.Equal(pointer.ids[i], fused.ids[i]) {
				fmt.Printf("  first divergence: query %d differs by ids %v\n",
					i, symmetricDiff(pointer.ids[i], fused.ids[i]))
				break
			}
		}
	}

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
	b.PointerTreeMaterialised = idx.Current().TreeBuilt()
	return b, nil
}

// comparePhase1 gates a fresh phase1 run on what does not depend on the box:
// answer-id and counter identity between the arms is non-negotiable (the
// pointer arm runs on the tree unpacked from the packed base, so this is also
// the Unpack identity gate), and the build must stay a few dozen allocations,
// keep each point once (packed bytes per point) and never materialise the
// pointer tree. The front-half ratio is printed
// beside the baseline's without a floor: it is a timing of two ≈ 10–50 µs
// loops on whatever box runs the gate (1.06–2.4× across the boxes and commits
// that have run it), and the serving benchmark (bench/, `query_p50_ms`) is
// what measures the front half now.
func comparePhase1(report *phase1Report, baselinePath string) error {
	if !report.IDsIdentical {
		return fmt.Errorf("packed-fused answers differ from the pointer path — identity broken, not a perf question")
	}
	if !report.CountsIdentical {
		return fmt.Errorf("packed-fused per-phase counters differ from the pointer path — identity broken, not a perf question")
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base phase1Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if !base.IDsIdentical || !base.CountsIdentical {
		return fmt.Errorf("baseline %s recorded an identity failure — refusing to gate against it", baselinePath)
	}
	bytesPerPoint := float64(report.Build.PackedBytes) / float64(report.Points)
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
	if report.Build.PointerTreeMaterialised {
		return fmt.Errorf("load or fold materialised the pointer tree")
	}
	fmt.Printf("bench-compare: packed-fused front half %.2fx faster than pointer (baseline %.2fx, not gated)\n",
		report.Speedup, base.Speedup)
	return nil
}

// symmetricDiff returns the ids present in exactly one of the two ascending
// slices.
func symmetricDiff(a, b []int64) []int64 {
	var out []int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

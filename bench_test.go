// Benchmarks regenerating the paper's evaluation, one per table and figure,
// plus ablations of the design choices called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: "integrations/query" is the paper's Table II/III quantity
// (candidates needing numerical probability computation); "answers/query" is
// the result cardinality.
package gaussrange

import (
	"context"
	"math"
	"sync"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/internal/gauss"
	"gaussrange/internal/geom"
	"gaussrange/internal/mc"
	"gaussrange/internal/quadform"
	"gaussrange/internal/rtree"
	"gaussrange/internal/stats"
	"gaussrange/internal/ucatalog"
	"gaussrange/internal/vecmat"
)

// Shared datasets and indexes, built once.
var (
	lbOnce  sync.Once
	lbIndex *core.Index
	lbPts   []vecmat.Vector

	cmOnce  sync.Once
	cmIndex *core.Index
	cmPts   []vecmat.Vector
)

func longBeachIndex(b *testing.B) *core.Index {
	b.Helper()
	lbOnce.Do(func() {
		lbPts = data.LongBeach(1)
		ix, err := core.NewIndex(lbPts, 2)
		if err != nil {
			panic(err)
		}
		lbIndex = ix
	})
	return lbIndex
}

func colorMomentsIndex(b *testing.B) *core.Index {
	b.Helper()
	cmOnce.Do(func() {
		cmPts = data.ColorMoments(1)
		ix, err := core.NewIndex(cmPts, 9)
		if err != nil {
			panic(err)
		}
		cmIndex = ix
	})
	return cmIndex
}

func paperQuery2D(b *testing.B, ix *core.Index, gamma float64) core.Query {
	b.Helper()
	cov := experiments.PaperSigmaBase().Scale(gamma)
	rng := mc.NewRNG(7)
	center := lbPts[rng.Intn(len(lbPts))]
	g, err := gauss.New(center, cov)
	if err != nil {
		b.Fatal(err)
	}
	return core.Query{Dist: g, Delta: 25, Theta: 0.01}
}

// BenchmarkTable1 measures end-to-end query latency per strategy and γ with
// the paper's Monte Carlo evaluator (10 000 samples/object — scaled down
// from the paper's 100 000 to keep bench runs short; Phase 3 still
// dominates, preserving the Table I shape).
func BenchmarkTable1(b *testing.B) {
	ix := longBeachIndex(b)
	for _, gamma := range []float64{1, 10, 100} {
		for _, strat := range core.PaperStrategies {
			b.Run(strat.String()+"/gamma="+formatGamma(gamma), func(b *testing.B) {
				integ, err := mc.NewIntegrator(10000, 42)
				if err != nil {
					b.Fatal(err)
				}
				engine, err := core.NewEngine(ix, integ, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				q := paperQuery2D(b, ix, gamma)
				b.ResetTimer()
				var integrations, answers int
				for i := 0; i < b.N; i++ {
					res, err := engine.Search(q, strat)
					if err != nil {
						b.Fatal(err)
					}
					integrations = res.Stats.Integrations
					answers = res.Stats.Answers
				}
				b.ReportMetric(float64(integrations), "integrations/query")
				b.ReportMetric(float64(answers), "answers/query")
			})
		}
	}
}

// BenchmarkTable2 reports the Table II candidate counts using the exact
// evaluator (latency here reflects filtering power, the table's subject).
func BenchmarkTable2(b *testing.B) {
	ix := longBeachIndex(b)
	for _, gamma := range []float64{1, 10, 100} {
		for _, strat := range core.PaperStrategies {
			b.Run(strat.String()+"/gamma="+formatGamma(gamma), func(b *testing.B) {
				engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				q := paperQuery2D(b, ix, gamma)
				b.ResetTimer()
				var integrations int
				for i := 0; i < b.N; i++ {
					res, err := engine.Search(q, strat)
					if err != nil {
						b.Fatal(err)
					}
					integrations = res.Stats.Integrations
				}
				b.ReportMetric(float64(integrations), "integrations/query")
			})
		}
	}
}

// BenchmarkTable3 runs the 9-D pseudo-feedback query per strategy (exact
// evaluator; the paper's Table III reports candidate counts).
func BenchmarkTable3(b *testing.B) {
	ix := colorMomentsIndex(b)
	// Build the pseudo-feedback Gaussian once (paper §VI-A).
	rng := mc.NewRNG(11)
	q0 := cmPts[rng.Intn(len(cmPts))]
	nn, err := ix.NearestNeighbors(q0, 20)
	if err != nil {
		b.Fatal(err)
	}
	sample := make([]vecmat.Vector, len(nn))
	for i, nb := range nn {
		sample[i], _ = ix.Point(nb.ID)
	}
	st, err := vecmat.SampleCovariance(sample)
	if err != nil {
		b.Fatal(err)
	}
	det, err := st.Det()
	if err != nil {
		b.Fatal(err)
	}
	cov := st.AddScaledIdentity(math.Pow(math.Abs(det), 1.0/9))
	g, err := gauss.New(q0, cov)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Dist: g, Delta: 0.7, Theta: 0.4}

	for _, strat := range core.PaperStrategies {
		b.Run(strat.String(), func(b *testing.B) {
			engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var integrations int
			for i := 0; i < b.N; i++ {
				res, err := engine.Search(q, strat)
				if err != nil {
					b.Fatal(err)
				}
				integrations = res.Stats.Integrations
			}
			b.ReportMetric(float64(integrations), "integrations/query")
		})
	}
}

// BenchmarkFig13to16 regenerates the integration-region geometry of
// Figures 13–16 (one sub-benchmark per γ).
func BenchmarkFig13to16(b *testing.B) {
	for _, gamma := range []float64{1, 10, 100} {
		b.Run("gamma="+formatGamma(gamma), func(b *testing.B) {
			var area float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRegions(gamma)
				if err != nil {
					b.Fatal(err)
				}
				area = res.AllArea
			}
			b.ReportMetric(area, "ALL-area")
		})
	}
}

// BenchmarkFig17 regenerates the probability-of-existence curves.
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig17(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationEvaluator compares the paper's Monte Carlo evaluator
// against the exact Ruben-series evaluator on a single qualification
// computation.
func BenchmarkAblationEvaluator(b *testing.B) {
	cov := experiments.PaperSigmaBase().Scale(10)
	g, err := gauss.New(vecmat.Vector{500, 500}, cov)
	if err != nil {
		b.Fatal(err)
	}
	o := vecmat.Vector{520, 510}

	b.Run("mc-100k", func(b *testing.B) {
		integ, err := mc.NewIntegrator(100000, 3)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := integ.Qualification(g, o, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mc-10k", func(b *testing.B) {
		integ, err := mc.NewIntegrator(10000, 3)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := integ.Qualification(g, o, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-ruben", func(b *testing.B) {
		ev := core.NewExactEvaluator()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Qualification(g, o, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFringe compares the RR fringe filter modes (off / the
// paper's d=2 rule / the all-dimensions extension) by integration counts.
func BenchmarkAblationFringe(b *testing.B) {
	ix := longBeachIndex(b)
	modes := []struct {
		name string
		mode core.FringeMode
	}{
		{"off", core.FringeOff},
		{"paper-2d", core.FringePaper},
		{"all-dims", core.FringeAllDims},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{Fringe: m.mode})
			if err != nil {
				b.Fatal(err)
			}
			q := paperQuery2D(b, ix, 10)
			b.ResetTimer()
			var integrations int
			for i := 0; i < b.N; i++ {
				res, err := engine.Search(q, core.StrategyRR)
				if err != nil {
					b.Fatal(err)
				}
				integrations = res.Stats.Integrations
			}
			b.ReportMetric(float64(integrations), "integrations/query")
		})
	}
}

// BenchmarkAblationCatalog compares exact radius derivation against the
// U-catalog lookup (the paper's table-based approach).
func BenchmarkAblationCatalog(b *testing.B) {
	ix := longBeachIndex(b)
	rcat, err := newRCat()
	if err != nil {
		b.Fatal(err)
	}
	bfcat, err := newBFCat()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts core.Options
	}{
		{"exact-radii", core.Options{}},
		{"ucatalog", core.Options{UseCatalogs: true, RCatalog: rcat, BFCatalog: bfcat}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			engine, err := core.NewEngine(ix, core.NewExactEvaluator(), c.opts)
			if err != nil {
				b.Fatal(err)
			}
			q := paperQuery2D(b, ix, 10)
			b.ResetTimer()
			var integrations int
			for i := 0; i < b.N; i++ {
				res, err := engine.Search(q, core.StrategyAll)
				if err != nil {
					b.Fatal(err)
				}
				integrations = res.Stats.Integrations
			}
			b.ReportMetric(float64(integrations), "integrations/query")
		})
	}
}

// BenchmarkAblationPageSize sweeps the R-tree page size (node fan-out).
func BenchmarkAblationPageSize(b *testing.B) {
	pts := data.LongBeach(1)
	for _, page := range []int{512, 1024, 4096} {
		b.Run(formatGamma(float64(page))+"B", func(b *testing.B) {
			db, err := Load(toRaw(pts), WithPageSize(page))
			if err != nil {
				b.Fatal(err)
			}
			spec := QuerySpec{
				Center: []float64{500, 500},
				Cov:    [][]float64{{70, 2 * math.Sqrt(3) * 10}, {2 * math.Sqrt(3) * 10, 30}},
				Delta:  25, Theta: 0.01,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMCSamples sweeps the Monte Carlo sample count, showing
// the precision/latency trade of Phase 3.
func BenchmarkAblationMCSamples(b *testing.B) {
	cov := experiments.PaperSigmaBase().Scale(10)
	g, err := gauss.New(vecmat.Vector{500, 500}, cov)
	if err != nil {
		b.Fatal(err)
	}
	o := vecmat.Vector{515, 505}
	exactP := 0.0
	{
		ev := core.NewExactEvaluator()
		exactP, err = ev.Qualification(g, o, 25)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(formatGamma(float64(n)), func(b *testing.B) {
			integ, err := mc.NewIntegrator(n, 5)
			if err != nil {
				b.Fatal(err)
			}
			var p float64
			for i := 0; i < b.N; i++ {
				p, err = integ.Qualification(g, o, 25)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(math.Abs(p-exactP), "abs-error")
		})
	}
}

// BenchmarkRTreeBulkLoad measures STR loading of the road dataset. Allocs/op
// is the number to watch: a few dozen for the whole load, so a return of
// per-point cloning shows as a jump of 50 000 or more.
func BenchmarkRTreeBulkLoad(b *testing.B) {
	pts := data.LongBeach(1)
	raw := toRaw(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTreeInsert measures one DB.Insert: an overlay insert, with the
// folds into a fresh STR base it triggers.
func BenchmarkRTreeInsert(b *testing.B) {
	rng := mc.NewRNG(1)
	db, err := Open(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert([]float64{rng.Float64() * 1000, rng.Float64() * 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyInsertDelete measures one churn write pair on Long Beach —
// insert a point, then delete it, each its own Apply — behind the overlay
// the churn_mixed bench workload starts from: 1 536 prefilled pairs, so
// 1 536 overlay inserts, all tombstoned. Every 512 timed pairs, just short
// of the fold at 4 096 overlay entries, the set is reloaded and prefilled
// again off the clock, so no fold is timed and MaxID stays ≈ 52 k. B/op is
// the number to watch: about 6.6 KB of it is the per-delete copy of the
// tombstone bitset (one bit per id below MaxID), so B/op back in the tens of
// KB means that copy grew again.
func BenchmarkApplyInsertDelete(b *testing.B) {
	const prefill, timedPerLoad = 1536, 512
	pts := data.LongBeach(1)
	raw := toRaw(pts)
	rng := mc.NewRNG(3)
	var db *DB
	pair := func() {
		p := pts[rng.Intn(len(pts))]
		ids, _, _, err := db.Apply([][]float64{{p[0] + rng.Float64(), p[1] + rng.Float64()}}, nil)
		if err == nil {
			_, _, _, err = db.Apply(nil, ids)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%timedPerLoad == 0 {
			b.StopTimer()
			var err error
			if db, err = Load(raw); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < prefill; j++ {
				pair()
			}
			b.StartTimer()
		}
		pair()
	}
}

// BenchmarkChurnedQuery measures a cached hull query of the coarse_read
// bench workload's shape (Σ = 100·PaperSigmaBase, δ = 5, θ = 0.01, centred on
// Long Beach points) behind the overlay churn_mixed reads through: 1 536
// insert+delete pairs, so 1 536 tombstoned overlay inserts, plus 256 live
// ones, jittered off the streets as the bench's writes are. A read merges
// the overlay's axis-0 slab around its box, not all 3 328 rows: ns/op back
// near twice coarse_read's means the per-query overlay scan returned.
func BenchmarkChurnedQuery(b *testing.B) {
	const pairs, live = 1536, 256
	pts := data.LongBeach(1)
	db, err := Load(toRaw(pts))
	if err != nil {
		b.Fatal(err)
	}
	rng := mc.NewRNG(5)
	write := func() [][]float64 {
		p := pts[rng.Intn(len(pts))]
		return [][]float64{{p[0] + 2*rng.NormFloat64(), p[1] + 2*rng.NormFloat64()}}
	}
	for i := 0; i < pairs+live; i++ {
		ids, _, _, err := db.Apply(write(), nil)
		if err == nil && i < pairs {
			_, _, _, err = db.Apply(nil, ids)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	sigma := experiments.PaperSigmaBase().Scale(100)
	cov := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}
	specs := make([]QuerySpec, 64)
	for i := range specs {
		c := pts[rng.Intn(len(pts))]
		specs[i] = QuerySpec{Center: []float64{c[0], c[1]}, Cov: cov, Delta: 5, Theta: 0.01}
	}
	// The shape's first query compiles, its second builds the hull.
	for _, s := range specs[:2] {
		if _, err := db.Query(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(specs[i%len(specs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNN measures the best-first k-NN used by the 9-D pseudo-feedback
// setup.
func BenchmarkKNN(b *testing.B) {
	ix := colorMomentsIndex(b)
	rng := mc.NewRNG(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cmPts[rng.Intn(len(cmPts))]
		if _, err := ix.NearestNeighbors(q, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers -------------------------------------------------------------

func toRaw(pts []vecmat.Vector) [][]float64 {
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	return raw
}

func formatGamma(g float64) string {
	switch g {
	case 1:
		return "1"
	case 10:
		return "10"
	case 100:
		return "100"
	default:
		return trimFloat(g)
	}
}

func trimFloat(f float64) string {
	s := make([]byte, 0, 8)
	v := int(f)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		s = append([]byte{byte('0' + v%10)}, s...)
		v /= 10
	}
	return string(s)
}

func newRCat() (*ucatalog.RCatalog, error)   { return ucatalog.NewRCatalog(2, nil) }
func newBFCat() (*ucatalog.BFCatalog, error) { return ucatalog.NewBFCatalog(2, nil, nil) }

// silence unused-import guards for stats (used in doc examples).
var _ = stats.ErrDomain

// BenchmarkAblationBufferPool measures simulated page-I/O hit rates across
// pool sizes on the Table II workload: Phase 1's rect walk for one ALL plan
// over the pointer form of the index (rtree.Unpack), the paged structure
// the pool models.
func BenchmarkAblationBufferPool(b *testing.B) {
	ix := longBeachIndex(b)
	engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.Compile(paperQuery2D(b, ix, 10), core.StrategyAll)
	if err != nil {
		b.Fatal(err)
	}
	box := plan.SearchRect()
	for _, pages := range []int{16, 128, 1024} {
		b.Run(trimFloat(float64(pages))+"pages", func(b *testing.B) {
			bp, err := rtree.NewBufferPool(pages)
			if err != nil {
				b.Fatal(err)
			}
			tree := rtree.Unpack(ix.Current().Packed())
			tree.AttachBufferPool(bp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.SearchRect(box, func(geom.Rect, int64) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bp.HitRate(), "hit-rate")
		})
	}
}

// BenchmarkPNN measures the probabilistic-nearest-neighbor extension.
func BenchmarkPNN(b *testing.B) {
	ix := longBeachIndex(b)
	engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cov := experiments.PaperSigmaBase().Scale(10)
	g, err := gauss.New(vecmat.Vector{500, 500}, cov)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PNN(g, 0.01, 10000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeteroTargets measures the uncertain-target query against the
// exact-target baseline on equal data.
func BenchmarkHeteroTargets(b *testing.B) {
	pts := data.LongBeach(1)[:10000]
	covs := make([]*vecmat.Symmetric, len(pts))
	for i := range covs {
		if i%2 == 0 {
			covs[i] = vecmat.Identity(2).Scale(4)
		}
	}
	h, err := core.NewHeteroIndex(pts, covs, 2)
	if err != nil {
		b.Fatal(err)
	}
	cov := experiments.PaperSigmaBase().Scale(10)
	g, err := gauss.New(pts[100].Clone(), cov)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{Dist: g, Delta: 25, Theta: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadformEvaluators compares the Ruben series the executor runs
// with the Imhof inversion tests check it against, on one anisotropic
// noncentral form.
func BenchmarkQuadformEvaluators(b *testing.B) {
	lambda := []float64{90, 10}
	offs := []float64{0.7, 1.9}
	const t = 625.0
	b.Run("ruben", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := quadform.RubenCDF(lambda, offs, t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("imhof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := quadform.ImhofCDF(lambda, offs, t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSpecs returns n query specs sharing one covariance shape with centers
// drawn from the Long Beach dataset — the repeated-query workload the plan
// cache targets.
func benchSpecs(b *testing.B, n int) []QuerySpec {
	b.Helper()
	longBeachIndex(b) // populate lbPts
	sigma := experiments.PaperSigmaBase().Scale(10)
	cov := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}
	rng := mc.NewRNG(11)
	specs := make([]QuerySpec, n)
	for i := range specs {
		c := lbPts[rng.Intn(len(lbPts))]
		specs[i] = QuerySpec{
			Center: []float64{c[0], c[1]},
			Cov:    cov,
			Delta:  25,
			Theta:  0.01,
		}
	}
	return specs
}

// BenchmarkQueryRepeated contrasts the cached-plan path (same query shape,
// moving center — every query after the first is a cache hit rebound in
// O(d)) against cold compilation (plan cache disabled, so each query pays
// the eigendecomposition and noncentral-χ² root finds again).
func BenchmarkQueryRepeated(b *testing.B) {
	specs := benchSpecs(b, 64)
	raw := toRaw(lbPts)
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"cached", nil},
		{"cold", []Option{WithPlanCacheSize(0)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := Load(raw, mode.opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(specs[i%len(specs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBatch measures DB.QueryBatch throughput at several pool
// sizes against the serial per-spec loop ("workers=1" is the pooled path
// with one worker; "serial" is repeated QueryCtx).
func BenchmarkQueryBatch(b *testing.B) {
	specs := benchSpecs(b, 32)
	db, err := Load(toRaw(lbPts))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				if _, err := db.QueryCtx(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+trimFloat(float64(workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryBatch(ctx, specs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

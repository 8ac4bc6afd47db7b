package gaussrange

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"gaussrange/internal/data"
	"gaussrange/internal/gauss"
	"gaussrange/internal/quadform"
	"gaussrange/internal/vecmat"
)

// longBeachRows returns every stride-th Long Beach point as Load input.
func longBeachRows(stride int) [][]float64 {
	pts := data.LongBeach(1)
	rows := make([][]float64, 0, len(pts)/stride+1)
	for i := 0; i < len(pts); i += stride {
		rows = append(rows, []float64(pts[i]))
	}
	return rows
}

// TestQueryLargeDeltaOverLambda: at γ = 0.1 and 0.01 the default evaluator's
// series has x = δ²/λmin = 6 250 and 62 500 — past the old fixed term limit,
// and with a leading coefficient that underflows float64. The out-of-the-box
// DB must answer, and agree with a brute force that settles every object in
// the uncertain shell by Imhof's independent inversion.
func TestQueryLargeDeltaOverLambda(t *testing.T) {
	rows := longBeachRows(4)
	db, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	const delta, theta, imhofTol = 25.0, 0.01, 1e-6
	for _, gamma := range []float64{0.1, 0.01} {
		reach := 6 * math.Sqrt(9*gamma) // 6·σmax: beyond δ ± reach the answer is trivial
		for _, c := range []int{10, 2000, 7777} {
			spec := QuerySpec{Center: rows[c], Cov: paperCov(gamma), Delta: delta, Theta: theta}
			res, err := db.Query(spec)
			if err != nil {
				t.Fatalf("γ=%g centre %d: %v", gamma, c, err)
			}
			dist, err := gauss.New(vecmat.Vector(spec.Center), vecmat.MustFromRows(spec.Cov))
			if err != nil {
				t.Fatal(err)
			}
			lambda, basis := dist.EigenValuesCov(), dist.EigenBasis()
			shell := 0
			for id, o := range rows {
				_, got := slices.BinarySearch(res.IDs, int64(id))
				r := math.Hypot(o[0]-spec.Center[0], o[1]-spec.Center[1])
				want := r < delta
				if math.Abs(r-delta) <= reach {
					u := make(vecmat.Vector, 2)
					basis.MulVecTransTo(dist.Mean().Sub(vecmat.Vector(o)), u)
					b := []float64{u[0] / math.Sqrt(lambda[0]), u[1] / math.Sqrt(lambda[1])}
					p, err := quadform.ImhofCDF(lambda, b, delta*delta)
					if err != nil {
						t.Fatal(err)
					}
					shell++
					if math.Abs(p-theta) < imhofTol {
						continue
					}
					want = p >= theta
				}
				if got != want {
					t.Errorf("γ=%g centre %d object %d (r=%.3f): in answer = %v, want %v", gamma, c, id, r, got, want)
				}
			}
			// The shape's first query runs a fresh plan — the paper's filter
			// chain in front of the series; the later ones reuse it, and its
			// answer-region hull leaves the series almost nothing.
			if fresh := c == 10; shell == 0 || fresh && res.Stats.Integrations == 0 {
				t.Errorf("γ=%g centre %d: %d shell objects, %d integrations — the series was not exercised",
					gamma, c, shell, res.Stats.Integrations)
			} else if !fresh && res.Stats.Integrations > 3 {
				t.Errorf("γ=%g centre %d: reused plan integrated %d candidates, want ≤ 3", gamma, c, res.Stats.Integrations)
			}
		}
	}
}

// TestExactPathsAgree: Query and QueryBatch run the same serial executor
// with the exact evaluator's decide entry, so their answers are identical on
// the three read shapes of the serving benchmark.
func TestExactPathsAgree(t *testing.T) {
	rows := longBeachRows(1)
	db, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ gamma, delta float64 }{{10, 25}, {100, 5}, {1, 25}} {
		specs := make([]QuerySpec, 12)
		for i := range specs {
			specs[i] = QuerySpec{Center: rows[(i*4099+17)%len(rows)], Cov: paperCov(shape.gamma), Delta: shape.delta, Theta: 0.01}
		}
		// The shape's first query compiles a fresh plan and runs the paper's
		// filter chain in front of the series; everything after it reuses the
		// plan, whose answer-region hull leaves the series almost nothing.
		first, err := db.Query(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.Integrations == 0 {
			t.Errorf("γ=%g: the first query did not reach Phase 3", shape.gamma)
		}
		batch, err := db.QueryBatch(context.Background(), specs, 3)
		if err != nil {
			t.Fatal(err)
		}
		integrations := 0
		for i, spec := range specs {
			want, err := db.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && !slices.Equal(first.IDs, want.IDs) {
				t.Errorf("γ=%g: the reused plan's ids differ from the fresh plan's", shape.gamma)
			}
			integrations += want.Stats.Integrations
			if !slices.Equal(batch[i].IDs, want.IDs) {
				t.Errorf("γ=%g query %d: QueryBatch ids differ from Query", shape.gamma, i)
			}
		}
		if integrations > 3*len(specs) {
			t.Errorf("γ=%g: reused plans integrated %d candidates over %d queries, want ≤ 3 a query", shape.gamma, integrations, len(specs))
		}
	}
}

// TestCachedQueryAllocs pins the allocations of the served hot path: a
// query whose shape is cached and whose plan decides from its answer-region
// hull (bench/'s paper_read shape on the Long Beach set). The plan rebind,
// one exact evaluator and the result are most of it; a closure or slice per
// query in the Phase-3 loop would show in the count. The bytes are the
// answer's one exact-size id slice plus a fixed few KiB: Phase 2's id slices
// and the rect search's context come from pools, so an id slice that grows
// by append, or a second copy of the answer, shows there.
func TestCachedQueryAllocs(t *testing.T) {
	rows := longBeachRows(1)
	db, err := Load(rows)
	if err != nil {
		t.Fatal(err)
	}
	// At this centre the hull leaves two candidates to the series, so the
	// evaluator's per-query spectral cache is paid too.
	spec := QuerySpec{Center: rows[17], Cov: paperCov(10), Delta: 25, Theta: 0.01}
	// The first query compiles the shape, the second rebinds it and builds
	// the hull; from the third on every query is the cached, hull path.
	for i := 0; i < 3; i++ {
		if _, err := db.Query(spec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrunedFringe+res.Stats.PrunedBF != 0 || res.Stats.AcceptedBF == 0 || res.Stats.Integrations == 0 {
		t.Fatalf("the query did not run on the hull into Phase 3: %+v", res.Stats)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(spec); err != nil {
			t.Fatal(err)
		}
	})
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := db.Query(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("cached hull query: %.0f allocations, %.0f bytes, %d answers, %d integrations", allocs, bytes, len(res.IDs), res.Stats.Integrations)
	if allocs > 26 {
		t.Errorf("cached hull query made %.0f allocations, want ≤ 26", allocs)
	}
	// Under -race sync.Pool drops a share of what is put back, so the pooled
	// slices are reallocated now and then: the count holds, the bytes do not.
	if ceiling := 8*len(res.IDs) + 3<<10; bytes > float64(ceiling) && !raceEnabled {
		t.Errorf("cached hull query allocated %.0f bytes for %d ids, want ≤ 8·ids + 3 KiB = %d", bytes, len(res.IDs), ceiling)
	}
}

// TestQueryNotConvergedIsAnError pins the serving contract for a candidate
// the certified series cannot settle: Σ = diag(1e-9, 1) puts δ²/λmin at 10⁹,
// past quadform.MaxTerms, for the stored point at the mean. There is no
// sampled fallback, so the query fails with an error wrapping
// quadform.ErrNotConverged under every strategy — and the DB keeps answering
// other shapes.
func TestQueryNotConvergedIsAnError(t *testing.T) {
	db, err := Load([][]float64{{0, 0}, {0.5, 0.2}, {3, 3}, {10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range liveStrategies {
		spec := QuerySpec{Center: []float64{0, 0}, Cov: [][]float64{{1e-9, 0}, {0, 1}}, Delta: 1, Theta: 0.01, Strategy: s}
		for _, round := range []string{"cold", "cached"} {
			if _, err := db.QueryCtx(context.Background(), spec); !errors.Is(err, quadform.ErrNotConverged) {
				t.Errorf("strategy %s, %s plan: got %v, want quadform.ErrNotConverged", s, round, err)
			}
		}
	}
	res, err := db.Query(QuerySpec{Center: []float64{0, 0}, Cov: paperCov(0.01), Delta: 1, Theta: 0.01})
	if err != nil || !slices.Equal(res.IDs, []int64{0, 1}) {
		t.Errorf("healthy query after the failures: %v, %v", res, err)
	}
}

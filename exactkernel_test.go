package gaussrange

import (
	"context"
	"math"
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

// TestExactPathsAgree: the serial executor, the parallel executor at several
// worker counts and the batch executor all route the default exact evaluator
// through the same decide entry, so their answers are identical on the three
// read shapes of the serving benchmark.
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
			for _, w := range []int{1, 2, 7} {
				par, err := db.QueryParallel(spec, w)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(par.IDs, want.IDs) {
					t.Errorf("γ=%g query %d: QueryParallel(%d) ids differ from Query", shape.gamma, i, w)
				}
				if par.Stats.Integrations != want.Stats.Integrations {
					t.Errorf("γ=%g query %d: QueryParallel(%d) integrated %d, Query %d",
						shape.gamma, i, w, par.Stats.Integrations, want.Stats.Integrations)
				}
			}
		}
		if integrations > 3*len(specs) {
			t.Errorf("γ=%g: reused plans integrated %d candidates over %d queries, want ≤ 3 a query", shape.gamma, integrations, len(specs))
		}
	}
}

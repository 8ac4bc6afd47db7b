package core

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

// paperSigma returns the paper's Eq. (34) covariance γ·[[7, 2√3],[2√3, 3]].
func paperSigma(gamma float64) *vecmat.Symmetric {
	s := math.Sqrt(3)
	return vecmat.MustFromRows([][]float64{
		{7 * gamma, 2 * s * gamma},
		{2 * s * gamma, 3 * gamma},
	})
}

func paperQuery(t testing.TB, center vecmat.Vector, gamma, delta, theta float64) Query {
	t.Helper()
	g, err := gauss.New(center, paperSigma(gamma))
	if err != nil {
		t.Fatal(err)
	}
	return Query{Dist: g, Delta: delta, Theta: theta}
}

// uniformIndex builds an index of n uniform points in [0, extent]^d.
func uniformIndex(t testing.TB, rng *rand.Rand, n, d int, extent float64) *Index {
	t.Helper()
	pts := make([]vecmat.Vector, n)
	for i := range pts {
		p := make(vecmat.Vector, d)
		for j := range p {
			p[j] = rng.Float64() * extent
		}
		pts[i] = p
	}
	ix, err := NewIndex(pts, d)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newExactEngine(t testing.TB, ix *Index, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(ix, NewExactEvaluator(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	ix := uniformIndex(t, rand.New(rand.NewSource(1)), 10, 2, 100)
	if _, err := NewEngine(nil, NewExactEvaluator(), Options{}); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := NewEngine(ix, nil, Options{}); err == nil {
		t.Error("nil evaluator accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	ix := uniformIndex(t, rand.New(rand.NewSource(2)), 10, 2, 100)
	e := newExactEngine(t, ix, Options{})
	good := paperQuery(t, vecmat.Vector{50, 50}, 1, 10, 0.1)

	bad := []Query{
		{Dist: nil, Delta: 10, Theta: 0.1},
		{Dist: good.Dist, Delta: 0, Theta: 0.1},
		{Dist: good.Dist, Delta: -1, Theta: 0.1},
		{Dist: good.Dist, Delta: math.Inf(1), Theta: 0.1},
		{Dist: good.Dist, Delta: 10, Theta: 0},
		{Dist: good.Dist, Delta: 10, Theta: 1},
	}
	for i, q := range bad {
		if _, err := e.Search(q, StrategyAll); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	// Dimension mismatch.
	g3, err := gauss.New(vecmat.Vector{0, 0, 0}, vecmat.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(Query{Dist: g3, Delta: 5, Theta: 0.1}, StrategyAll); err == nil {
		t.Error("dim mismatch accepted")
	}
	// OR alone is invalid.
	if _, err := e.Search(good, StrategyOR); err == nil {
		t.Error("OR-only strategy accepted")
	}
	if _, err := e.Search(good, Strategy(0)); err == nil {
		t.Error("empty strategy accepted")
	}
}

func idsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// removeBoundary filters out ids whose qualification probability is within
// tol of θ — those can legitimately differ between implementations due to
// floating-point rounding at the threshold.
func removeBoundary(t *testing.T, e *Engine, q Query, ids []int64, tol float64) []int64 {
	t.Helper()
	ev := NewExactEvaluator()
	out := ids[:0:0]
	for _, id := range ids {
		p, err := ev.Qualification(q.Dist, mustPoint(t, e.idx.Current(), id), q.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-q.Theta) > tol {
			out = append(out, id)
		}
	}
	return out
}

// TestNoLostAnswers is the central correctness property: every strategy
// combination returns exactly the brute-force answer set (modulo objects
// sitting numerically on the θ boundary).
func TestNoLostAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	e := newExactEngine(t, ix, Options{})

	for trial := 0; trial < 8; trial++ {
		center := vecmat.Vector{100 + rng.Float64()*800, 100 + rng.Float64()*800}
		gamma := []float64{1, 10, 100}[trial%3]
		delta := 10 + rng.Float64()*40
		theta := []float64{0.001, 0.01, 0.1, 0.4}[trial%4]
		q := paperQuery(t, center, gamma, delta, theta)

		want, err := e.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := removeBoundary(t, e, q, want.IDs, 1e-9)

		for _, strat := range PaperStrategies {
			got, err := e.Search(q, strat)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			gotIDs := removeBoundary(t, e, q, got.IDs, 1e-9)
			if !idsEqual(gotIDs, wantIDs) {
				t.Fatalf("trial %d strategy %v: %d answers, brute force %d (δ=%g θ=%g γ=%g)",
					trial, strat, len(gotIDs), len(wantIDs), delta, theta, gamma)
			}
		}
	}
}

// TestNoLostAnswersHighDim runs the same invariant in 5-D and 9-D with
// anisotropic covariances.
func TestNoLostAnswersHighDim(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	for _, d := range []int{5, 9} {
		ix := uniformIndex(t, rng, 3000, d, 10)
		e := newExactEngine(t, ix, Options{})
		for trial := 0; trial < 3; trial++ {
			center := make(vecmat.Vector, d)
			for j := range center {
				center[j] = 2 + rng.Float64()*6
			}
			// Random diagonal-dominant SPD covariance.
			cov := vecmat.NewSymmetric(d)
			for i := 0; i < d; i++ {
				cov.Set(i, i, 0.2+rng.Float64()*2)
			}
			for i := 0; i < d-1; i++ {
				v := (rng.Float64() - 0.5) * 0.2
				cov.Set(i, i+1, v)
			}
			g, err := gauss.New(center, cov)
			if err != nil {
				t.Fatal(err)
			}
			q := Query{Dist: g, Delta: 1 + rng.Float64()*3, Theta: 0.05 + rng.Float64()*0.3}

			want, err := e.BruteForce(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := removeBoundary(t, e, q, want.IDs, 1e-9)
			for _, strat := range PaperStrategies {
				got, err := e.Search(q, strat)
				if err != nil {
					t.Fatalf("d=%d %v: %v", d, strat, err)
				}
				gotIDs := removeBoundary(t, e, q, got.IDs, 1e-9)
				if !idsEqual(gotIDs, wantIDs) {
					t.Fatalf("d=%d trial %d strategy %v: %d answers vs %d",
						d, trial, strat, len(gotIDs), len(wantIDs))
				}
			}
		}
	}
}

// TestFilterMonotonicity: adding strategies can only shrink the candidate
// set needing integration, and ALL is the minimum (paper Tables II–III).
func TestFilterMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	ix := uniformIndex(t, rng, 20000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)

	integ := map[Strategy]int{}
	for _, strat := range PaperStrategies {
		res, err := e.Search(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		integ[strat] = res.Stats.Integrations
	}
	if integ[StrategyRRBF] > integ[StrategyRR] || integ[StrategyRRBF] > integ[StrategyBF] {
		t.Errorf("RR+BF (%d) above RR (%d) or BF (%d)", integ[StrategyRRBF], integ[StrategyRR], integ[StrategyBF])
	}
	if integ[StrategyRROR] > integ[StrategyRR] {
		t.Errorf("RR+OR (%d) above RR (%d)", integ[StrategyRROR], integ[StrategyRR])
	}
	if integ[StrategyBFOR] > integ[StrategyBF] {
		t.Errorf("BF+OR (%d) above BF (%d)", integ[StrategyBFOR], integ[StrategyBF])
	}
	for _, strat := range PaperStrategies[:5] {
		if integ[StrategyAll] > integ[strat] {
			t.Errorf("ALL (%d) above %v (%d)", integ[StrategyAll], strat, integ[strat])
		}
	}
	// All strategies produce the same answers.
	var first []int64
	for i, strat := range PaperStrategies {
		res, _ := e.Search(q, strat)
		if i == 0 {
			first = res.IDs
		} else if !idsEqual(first, res.IDs) {
			t.Errorf("%v answers differ from RR", strat)
		}
	}
}

// TestPaperGeometryAnchors verifies the derived region parameters against
// the values the paper reports for its default setting (γ=10, δ=25, θ=0.01):
// rθ = 2.79(7) and RR half-widths w₁ = 23.4, w₂ = 15.3 (Fig. 13); and for
// γ=1 / γ=100, w = (7.4, 4.8) / (74.1, 48.5) (Figs. 15–16).
func TestPaperGeometryAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	ix := uniformIndex(t, rng, 100, 2, 1000)
	e := newExactEngine(t, ix, Options{})

	anchors := []struct {
		gamma, w1, w2 float64
	}{
		{1, 7.4, 4.8},
		{10, 23.4, 15.3},
		{100, 74.1, 48.5},
	}
	for _, a := range anchors {
		q := paperQuery(t, vecmat.Vector{500, 500}, a.gamma, 25, 0.01)
		res, err := e.Search(q, StrategyRR)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Stats.RTheta-2.797) > 0.001 {
			t.Errorf("rθ = %g, want 2.797", res.Stats.RTheta)
		}
		w1 := q.Dist.SigmaAxis(0) * res.Stats.RTheta
		w2 := q.Dist.SigmaAxis(1) * res.Stats.RTheta
		if math.Abs(w1-a.w1) > 0.1 || math.Abs(w2-a.w2) > 0.1 {
			t.Errorf("γ=%g: (w1, w2) = (%.1f, %.1f), paper (%g, %g)", a.gamma, w1, w2, a.w1, a.w2)
		}
	}
}

// TestBFRadiiSanity: α∥ > α⊥ > 0 for the paper's default; pruning at α∥ and
// accepting at α⊥ must be consistent with exact probabilities.
func TestBFRadiiSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	ix := uniformIndex(t, rng, 100, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	res, err := e.Search(q, StrategyBF)
	if err != nil {
		t.Fatal(err)
	}
	au, al := res.Stats.AlphaUpper, res.Stats.AlphaLower
	if !(au > al && al > 0) {
		t.Fatalf("α∥ = %g, α⊥ = %g: want α∥ > α⊥ > 0", au, al)
	}
	// Probe the exact probability just inside/outside each radius along a
	// few directions; bounding properties must hold.
	ev := NewExactEvaluator()
	for _, angle := range []float64{0, 0.7, 1.3, 2.1, 3.0, 4.4, 5.5} {
		dir := vecmat.Vector{math.Cos(angle), math.Sin(angle)}
		along := func(r float64) vecmat.Vector { // mean + r·dir
			o := dir.Scale(r)
			for i, m := range q.Dist.Mean() {
				o[i] += m
			}
			return o
		}
		oOut := along(au * 1.001)
		p, err := ev.Qualification(q.Dist, oOut, q.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if p >= q.Theta {
			t.Errorf("object just beyond α∥ (angle %g) has p = %g ≥ θ", angle, p)
		}
		oIn := along(al * 0.999)
		p, err = ev.Qualification(q.Dist, oIn, q.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if p < q.Theta {
			t.Errorf("object just inside α⊥ (angle %g) has p = %g < θ", angle, p)
		}
	}
}

// TestIsotropicBFIsExact: for a spherical Gaussian, λ∥ = λ⊥, so BF decides
// every candidate without integration (paper §VI-B's closing remark).
func TestIsotropicBFIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(239))
	ix := uniformIndex(t, rng, 5000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	g, err := gauss.New(vecmat.Vector{500, 500}, vecmat.Identity(2).Scale(40))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 25, Theta: 0.05}
	res, err := e.Search(q, StrategyBF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Integrations > 2 {
		// Allow a couple of boundary stragglers from float rounding.
		t.Errorf("isotropic BF still integrates %d objects", res.Stats.Integrations)
	}
	want, err := e.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := removeBoundary(t, e, q, want.IDs, 1e-9)
	gotIDs := removeBoundary(t, e, q, res.IDs, 1e-9)
	if !idsEqual(gotIDs, wantIDs) {
		t.Errorf("isotropic BF answers differ: %d vs %d", len(gotIDs), len(wantIDs))
	}
}

// TestCatalogModeConservative: catalog-based radii must not lose answers and
// can only increase integration counts.
func TestCatalogModeConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	ix := uniformIndex(t, rng, 8000, 2, 1000)
	exactE := newExactEngine(t, ix, Options{})
	catE := newExactEngine(t, ix, Options{UseCatalogs: true})

	for trial := 0; trial < 4; trial++ {
		q := paperQuery(t, vecmat.Vector{200 + rng.Float64()*600, 200 + rng.Float64()*600},
			10, 25, []float64{0.01, 0.03, 0.07, 0.2}[trial])
		for _, strat := range PaperStrategies {
			exact, err := exactE.Search(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			cat, err := catE.Search(q, strat)
			if err != nil {
				t.Fatalf("%v catalog: %v", strat, err)
			}
			a := removeBoundary(t, exactE, q, exact.IDs, 1e-9)
			b := removeBoundary(t, catE, q, cat.IDs, 1e-9)
			if !idsEqual(a, b) {
				t.Fatalf("trial %d %v: catalog answers differ (%d vs %d)", trial, strat, len(b), len(a))
			}
		}
	}
}

// TestFringeModes: FringeAllDims never loses answers and prunes at least as
// much as FringeOff.
func TestFringeModes(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	ix := uniformIndex(t, rng, 6000, 3, 100)
	q3 := func() Query {
		cov := vecmat.Diagonal(40, 10, 4)
		g, err := gauss.New(vecmat.Vector{50, 50, 50}, cov)
		if err != nil {
			t.Fatal(err)
		}
		return Query{Dist: g, Delta: 8, Theta: 0.02}
	}()

	var results [3]*Result
	for i, mode := range []FringeMode{FringeOff, FringePaper, FringeAllDims} {
		e := newExactEngine(t, ix, Options{Fringe: mode})
		res, err := e.Search(q3, StrategyRR)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	// In 3-D, FringePaper behaves like FringeOff (paper restricts to d=2).
	if results[0].Stats.PrunedFringe != 0 || results[1].Stats.PrunedFringe != 0 {
		t.Error("fringe pruning active when it should be off in 3-D")
	}
	if results[2].Stats.PrunedFringe == 0 {
		t.Error("FringeAllDims pruned nothing in 3-D (expected corner candidates)")
	}
	for i := 1; i < 3; i++ {
		if !idsEqual(results[0].IDs, results[i].IDs) {
			t.Errorf("fringe mode %d changed the answer set", i)
		}
	}
}

// TestMCEvaluatorEndToEnd runs the full pipeline with the paper's Monte
// Carlo evaluator and verifies agreement with exact answers away from the
// θ boundary.
func TestMCEvaluatorEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(257))
	ix := uniformIndex(t, rng, 3000, 2, 1000)
	integ, err := mc.NewIntegrator(20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	mcE, err := NewEngine(ix, integ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactE := newExactEngine(t, ix, Options{})

	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	got, err := mcE.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exactE.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	// MC can flip only near-boundary objects; 20k samples → SE(0.01) ≈ 7e-4;
	// use a 5σ exclusion band.
	a := removeBoundary(t, exactE, q, want.IDs, 0.0035)
	b := removeBoundary(t, exactE, q, got.IDs, 0.0035)
	if !idsEqual(a, b) {
		t.Errorf("MC answers differ beyond the boundary band: %d vs %d", len(b), len(a))
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	ix := uniformIndex(t, rng, 10000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	res, err := e.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Retrieved != st.PrunedFringe+st.PrunedOR+st.PrunedBF+st.AcceptedBF+st.Integrations {
		t.Errorf("candidate accounting broken: %+v", st)
	}
	if st.Answers != len(res.IDs) {
		t.Errorf("Answers = %d but %d ids", st.Answers, len(res.IDs))
	}
	if st.NodesRead <= 0 {
		t.Error("NodesRead not recorded")
	}
	if st.RTheta <= 0 || st.AlphaUpper <= 0 {
		t.Errorf("radii not recorded: %+v", st)
	}
	// IDs sorted ascending.
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] < res.IDs[i-1] {
			t.Fatal("result ids not sorted")
		}
	}
}

func TestEmptyResultViaBFProof(t *testing.T) {
	// θ so high that even the centered upper bound cannot reach it: the
	// engine must prove emptiness without any integration.
	rng := rand.New(rand.NewSource(269))
	ix := uniformIndex(t, rng, 1000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 100, 1, 0.999)
	res, err := e.Search(q, StrategyBF)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 || res.Stats.Integrations != 0 || res.Stats.Retrieved != 0 {
		t.Errorf("expected proven-empty result, got %+v", res.Stats)
	}
	// Cross-check with brute force.
	bf, err := e.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.IDs) != 0 {
		t.Errorf("brute force found %d answers for the 'empty' query", len(bf.IDs))
	}
}

func TestHighThetaClamp(t *testing.T) {
	// θ ≥ 0.5 exercises the θ-region clamp; answers must match brute force.
	rng := rand.New(rand.NewSource(271))
	ix := uniformIndex(t, rng, 3000, 2, 200)
	e := newExactEngine(t, ix, Options{})
	g, err := gauss.New(vecmat.Vector{100, 100}, vecmat.Identity(2).Scale(4))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 20, Theta: 0.7}
	for _, strat := range PaperStrategies {
		got, err := e.Search(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		a := removeBoundary(t, e, q, want.IDs, 1e-9)
		b := removeBoundary(t, e, q, got.IDs, 1e-9)
		if !idsEqual(a, b) {
			t.Fatalf("%v at θ=0.7: %d vs %d answers", strat, len(b), len(a))
		}
	}
}

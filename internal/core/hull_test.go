package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/mc"
	"gaussrange/internal/quadform"
	"gaussrange/internal/vecmat"
)

// hullShapes are bench/'s three read shapes — Σ = γ·PaperSigmaBase, δ, θ — and
// the two long-series shapes past them.
var hullShapes = []struct {
	name                string
	gamma, delta, theta float64
}{
	{"coarse", 100, 5, 0.01},
	{"paper", 10, 25, 0.01},
	{"tight", 1, 25, 0.01},
	{"gamma=0.1", 0.1, 25, 0.01},
	{"gamma=0.01", 0.01, 25, 0.01},
}

// hullPlan compiles (cov, δ, θ) under ALL on a two-point index and rebinds it
// once, which is what builds the hull; the returned plan has it when the
// build succeeded.
func hullPlan(t testing.TB, cov *vecmat.Symmetric, delta, theta float64) *Plan {
	t.Helper()
	ix, err := NewIndex([]vecmat.Vector{{0, 0}, {1, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gauss.New(vecmat.Vector{0, 0}, cov)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := newExactEngine(t, ix, Options{}).Compile(Query{Dist: g, Delta: delta, Theta: theta}, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := plan.Rebind(g)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// rotatedCov returns the 2×2 covariance with eigenvalues l1 ≤ l2 whose minor
// axis points along angle phi.
func rotatedCov(l1, l2, phi float64) *vecmat.Symmetric {
	c, s := math.Cos(phi), math.Sin(phi)
	return vecmat.MustFromRows([][]float64{
		{l1*c*c + l2*s*s, (l1 - l2) * c * s},
		{(l1 - l2) * c * s, l1*s*s + l2*c*c},
	})
}

// hullShape draws one query shape from the range the hull claims: λmin ∈
// [e⁻², e⁶], condition number ≤ 500, any rotation, δ/√λmin ∈ [e⁻²·⁵, e²·⁵],
// θ ∈ [e⁻¹², 0.95]. u are five uniforms in [0, 1].
func hullShape(u [5]float64) (cov *vecmat.Symmetric, delta, theta float64) {
	l1 := math.Exp(-2 + 8*u[0])
	l2 := l1 * math.Exp(u[1]*math.Log(500))
	delta = math.Sqrt(l1) * math.Exp(-2.5+5*u[2])
	theta = math.Exp(-12 + u[3]*(12+math.Log(0.95)))
	return rotatedCov(l1, l2, math.Pi*u[4]), delta, theta
}

// checkHullVerdicts classifies n points spread over 1.05× the OR box of the
// plan's shape and adjudicates every verdict with the exact evaluator: an
// inside verdict needs p + bound ≥ θ, an outside verdict p − bound < θ. It
// returns how many of the n/2 uniformly spread points stayed undecided.
func checkHullVerdicts(t testing.TB, plan *Plan, rng *rand.Rand, n int) (undecided int) {
	t.Helper()
	h := plan.hull
	ex := quadform.NewExact()
	basis := plan.dist.EigenBasis()
	mean := plan.dist.Mean()
	y, o := vecmat.NewVector(2), vecmat.NewVector(2)
	for i := 0; i < n; i++ {
		for j := range y {
			y[j] = (2*rng.Float64() - 1) * 1.05 * plan.orBound[j]
		}
		basis.MulVecTo(y, o)
		if i%2 == 1 {
			// Every other point goes to the band where the verdicts change:
			// bisect its ray for the edge of the inner polygon, then step off
			// it by a relative 1e-7 … 1e-2 either way.
			lo, hi := 0.0, 1.0
			for hi-lo > 1e-12 {
				if mid := (lo + hi) / 2; h.classify(mid*o[0], mid*o[1]) == hullInside {
					lo = mid
				} else {
					hi = mid
				}
			}
			t := lo * (1 + math.Copysign(math.Pow(10, -2-5*rng.Float64()), rng.Float64()-0.5))
			o[0], o[1] = t*o[0], t*o[1]
		}
		verdict := h.classify(o[0], o[1])
		o[0], o[1] = o[0]+mean[0], o[1]+mean[1]
		p, bound, err := ex.QualificationBound(plan.dist, o, plan.delta)
		if err != nil {
			t.Fatal(err)
		}
		switch verdict {
		case hullInside:
			if !(p+bound >= plan.theta) {
				t.Fatalf("inside verdict at o−q=%v with p=%.12g < θ=%g", o.Sub(mean), p, plan.theta)
			}
		case hullOutside:
			if !(p-bound < plan.theta) {
				t.Fatalf("outside verdict at o−q=%v with p=%.12g ≥ θ=%g", o.Sub(mean), p, plan.theta)
			}
		default:
			if i%2 == 0 {
				undecided++
			}
		}
	}
	return undecided
}

// TestHullMatchesExact is the hull's differential test: random shapes over
// the whole claimed range, every verdict checked against the exact evaluator.
// Every shape whose centre is an answer must build.
func TestHullMatchesExact(t *testing.T) {
	shapes, perShape := 300, 3000
	if testing.Short() {
		shapes = 40
	}
	rng := rand.New(rand.NewSource(22))
	ex := quadform.NewExact()
	var built, points, undecided, evals, maxEvals int
	for built < shapes {
		var u [5]float64
		for j := range u {
			u[j] = rng.Float64()
		}
		cov, delta, theta := hullShape(u)
		plan := hullPlan(t, cov, delta, theta)
		if plan.hull == nil {
			centre, err := ex.Qualification(plan.dist, plan.dist.Mean(), delta)
			if err != nil {
				t.Fatal(err)
			}
			if centre >= theta+2*hullGuard {
				t.Fatalf("no hull for λ=%v δ=%g θ=%g although p(q)=%g", plan.dist.EigenValuesCov(), delta, theta, centre)
			}
			continue // an empty answer region
		}
		built++
		n := int(plan.shared.hullEvals.Load())
		evals, maxEvals = evals+n, max(maxEvals, n)
		points += perShape / 2
		undecided += checkHullVerdicts(t, plan, rng, perShape)
	}
	t.Logf("%d shapes built (%.0f evaluations each, at most %d); of %d uniform points %.2f%% undecided",
		built, float64(evals)/float64(built), maxEvals, points, 100*float64(undecided)/float64(points))
	if undecided*100 > points {
		t.Errorf("%d of %d uniform points undecided: the sliver should stay under 1%%", undecided, points)
	}
}

func FuzzHullClassify(f *testing.F) {
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, int64(1))
	f.Add(0.0, 0.999, 0.999, 0.0, 0.25, int64(2))
	f.Add(0.999, 0.0, 0.0, 0.999, 0.9, int64(3))
	f.Fuzz(func(t *testing.T, u0, u1, u2, u3, u4 float64, seed int64) {
		// Any finite float is a shape: its fractional part is the uniform.
		u := [5]float64{u0, u1, u2, u3, u4}
		for i, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
			u[i] = math.Abs(v) - math.Floor(math.Abs(v))
		}
		cov, delta, theta := hullShape(u)
		plan := hullPlan(t, cov, delta, theta)
		if plan.hull == nil {
			t.Skip()
		}
		checkHullVerdicts(t, plan, rand.New(rand.NewSource(seed)), 200)
	})
}

// TestHullFallbacks drives every reason a plan keeps the paper's chain and
// checks that such a plan still answers.
func TestHullFallbacks(t *testing.T) {
	paper := paperSigma(10)
	g, err := gauss.New(vecmat.Vector{0, 0}, paper)
	if err != nil {
		t.Fatal(err)
	}
	centre, err := NewExactEvaluator().Qualification(g, vecmat.Vector{0, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		cov          *vecmat.Symmetric
		delta, theta float64
		wantEvals    bool
	}{
		{"theta above the centre's probability", paper, 5, centre + 1e-3, true},
		{"theta within the guard of the centre's probability", paper, 5, centre, true},
		{"theta too small to step outside by the guard", paper, 25, 1e-9, true},
		{"condition number 1e4", rotatedCov(1, 1e4, 0.3), 5, 0.01, false},
		{"series does not converge", rotatedCov(1e-5, 1e-3, 0.3), 25, 0.5, true},
	}
	for _, c := range cases {
		plan := hullPlan(t, c.cov, c.delta, c.theta)
		if plan.hull != nil {
			t.Errorf("%s: hull built", c.name)
		}
		if got := plan.shared.hullEvals.Load() > 0; got != c.wantEvals {
			t.Errorf("%s: build evaluations spent = %v, want %v", c.name, got, c.wantEvals)
		}
		if _, err := plan.Execute(context.Background()); err != nil && !errors.Is(err, quadform.ErrNotConverged) {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// θ = 0.95 is inside the claimed range when the centre clears it.
	if plan := hullPlan(t, vecmat.Identity(2), 4, 0.95); plan.hull == nil {
		t.Error("θ = 0.95 under a wide ball: no hull")
	}

	// Not the default path: sub-strategies, a sampling evaluator and d ≠ 2
	// never build one.
	ix := uniformIndex(t, rand.New(rand.NewSource(3)), 50, 2, 100)
	q := paperQuery(t, vecmat.Vector{50, 50}, 10, 25, 0.01)
	never := func(name string, e *Engine, q Query, strat Strategy) {
		t.Helper()
		plan, err := e.Compile(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := plan.Rebind(q.Dist)
		if err != nil {
			t.Fatal(err)
		}
		if bound.hull != nil || bound.shared.hullTried.Load() {
			t.Errorf("%s: hull attempted", name)
		}
	}
	never("RR+BF", newExactEngine(t, ix, Options{}), q, StrategyRRBF)
	integ, err := mc.NewIntegrator(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	mcEngine, err := NewEngine(ix, integ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	never("Monte Carlo evaluator", mcEngine, q, StrategyAll)
	g3, err := gauss.New(vecmat.Vector{50, 50, 50}, vecmat.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	ix3 := uniformIndex(t, rand.New(rand.NewSource(3)), 50, 3, 100)
	never("d = 3", newExactEngine(t, ix3, Options{}), Query{Dist: g3, Delta: 5, Theta: 0.01}, StrategyAll)
}

// TestCompileBuildsNoHull pins the first-Rebind rule: Compile spends nothing
// on the hull, the first Rebind builds it, later ones reuse it.
func TestCompileBuildsNoHull(t *testing.T) {
	ix := uniformIndex(t, rand.New(rand.NewSource(4)), 50, 2, 100)
	q := paperQuery(t, vecmat.Vector{50, 50}, 10, 25, 0.01)
	plan, err := newExactEngine(t, ix, Options{}).Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if plan.hull != nil || plan.shared.hullTried.Load() || plan.shared.hullEvals.Load() != 0 {
		t.Fatal("Compile touched the hull")
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if plan.shared.hullTried.Load() {
		t.Fatal("Execute of a fresh plan touched the hull")
	}
	first, err := plan.Rebind(q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	evals := plan.shared.hullEvals.Load()
	if first.hull == nil || evals == 0 {
		t.Fatalf("first Rebind: hull %v after %d evaluations", first.hull != nil, evals)
	}
	if evals > 120 {
		t.Errorf("hull build took %d evaluations, want ≤ 120", evals)
	}
	second, err := first.Rebind(q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if second.hull != first.hull || plan.shared.hullEvals.Load() != evals {
		t.Error("second Rebind rebuilt the hull")
	}
	if plan.hull != nil {
		t.Error("the compiled plan itself changed")
	}
	for i, hw := range first.searchHW {
		if hw > plan.searchHW[i] {
			t.Errorf("axis %d: hull search half-width %g wider than compiled %g", i, hw, plan.searchHW[i])
		}
	}
}

// TestHullPlanIdentity: for the three bench shapes and the two long-series
// shapes, a fresh plan, a rebound (hull) plan, brute force and the pointer
// front half return the same ids over a snapshot with overlay inserts and
// tombstones, and the hull leaves the evaluator almost nothing.
func TestHullPlanIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]vecmat.Vector, 5400)
	for i := range pts {
		pts[i] = vecmat.Vector{rng.Float64() * 300, rng.Float64() * 300}
	}
	ix, err := NewIndex(pts[:5000], 2)
	if err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for id := int64(0); id < 5000; id += 15 {
		dead = append(dead, id)
	}
	if _, _, _, err := ix.Apply(pts[5000:], dead); err != nil {
		t.Fatal(err)
	}
	if snap := ix.Current(); len(snap.mem) == 0 || snap.ndead == 0 {
		t.Fatal("snapshot has no overlay to merge")
	}
	e := newExactEngine(t, ix, Options{})
	ctx := context.Background()
	for _, sh := range hullShapes {
		q := paperQuery(t, vecmat.Vector{150, 150}, sh.gamma, sh.delta, sh.theta)
		fresh, err := e.Compile(q, StrategyAll)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := e.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(want.IDs, brute.IDs) {
			t.Fatalf("%s: fresh plan and brute force disagree (%d vs %d ids)", sh.name, len(want.IDs), len(brute.IDs))
		}
		bound, err := fresh.Rebind(q.Dist)
		if err != nil {
			t.Fatal(err)
		}
		if bound.hull == nil {
			t.Fatalf("%s: no hull", sh.name)
		}
		got, err := bound.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("%s: hull plan returned %d ids, fresh plan %d", sh.name, len(got.IDs), len(want.IDs))
		}
		st := got.Stats
		if st.Retrieved != st.PrunedOR+st.AcceptedBF+st.Integrations || st.PrunedFringe+st.PrunedBF != 0 {
			t.Errorf("%s: counters do not add up: %+v", sh.name, st)
		}
		if st.Retrieved > want.Stats.Retrieved || st.Integrations > max(3, want.Stats.Integrations/20) {
			t.Errorf("%s: hull retrieved %d / integrated %d, chain %d / %d", sh.name,
				st.Retrieved, st.Integrations, want.Stats.Retrieved, want.Stats.Integrations)
		}
		e.opts.PointerPhase1 = true
		ptr, err := bound.Execute(ctx)
		e.opts.PointerPhase1 = false
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(ptr.IDs, want.IDs) || ptr.Stats.AcceptedBF != st.AcceptedBF || ptr.Stats.PrunedOR != st.PrunedOR {
			t.Errorf("%s: pointer front half disagrees with the fused one", sh.name)
		}
	}
}

// TestHullBuiltOnce: 16 goroutines make a compilation's first Rebind at once;
// exactly one builds the hull, nobody waits for it, and all agree on the ids.
func TestHullBuiltOnce(t *testing.T) {
	ix := uniformIndex(t, rand.New(rand.NewSource(6)), 3000, 2, 300)
	q := paperQuery(t, vecmat.Vector{150, 150}, 10, 25, 0.01)
	e := newExactEngine(t, ix, Options{})
	alone, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	want, err := alone.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alone.Rebind(q.Dist); err != nil {
		t.Fatal(err)
	}
	oneBuild := alone.shared.hullEvals.Load()

	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		mu    sync.Mutex
		hulls = map[*hull]int{}
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			bound, err := plan.Rebind(q.Dist)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := bound.ExecuteEval(context.Background(), NewExactEvaluator())
			if err != nil {
				t.Error(err)
				return
			}
			if !idsEqual(res.IDs, want.IDs) {
				t.Errorf("concurrent first Rebind returned %d ids, want %d", len(res.IDs), len(want.IDs))
			}
			mu.Lock()
			hulls[bound.hull]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	delete(hulls, nil) // the plans bound while the build ran
	if len(hulls) != 1 || plan.shared.hullEvals.Load() != oneBuild {
		t.Errorf("%d distinct hulls after %d evaluations, want 1 after %d",
			len(hulls), plan.shared.hullEvals.Load(), oneBuild)
	}
}

func TestHullClassifyZeroAllocs(t *testing.T) {
	plan := hullPlan(t, paperSigma(10), 25, 0.01)
	if plan.hull == nil {
		t.Fatal("no hull")
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for x := -60.0; x <= 60; x += 7 {
			sink += plan.hull.classify(x, 0.3*x+11)
		}
	})
	if allocs != 0 {
		t.Errorf("classify allocates %.0f times per run", allocs)
	}
	_ = sink
}

var hullSink int

// BenchmarkHullBuild measures the one-off cost a compilation pays at its
// first reuse, on bench/'s three read shapes and γ = 0.1.
func BenchmarkHullBuild(b *testing.B) {
	for _, sh := range hullShapes[:4] {
		b.Run(sh.name, func(b *testing.B) {
			plan := hullPlan(b, paperSigma(sh.gamma), sh.delta, sh.theta)
			if plan.hull == nil {
				b.Fatal("no hull")
			}
			evals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hb := newHullBuilder(plan)
				if hb.build() == nil {
					b.Fatal("no hull")
				}
				evals += hb.evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evaluations/op")
		})
	}
}

func BenchmarkHullClassify(b *testing.B) {
	plan := hullPlan(b, paperSigma(10), 25, 0.01)
	if plan.hull == nil {
		b.Fatal("no hull")
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([][2]float64, 1024)
	for i := range pts {
		pts[i] = [2]float64{(2*rng.Float64() - 1) * plan.searchHW[0], (2*rng.Float64() - 1) * plan.searchHW[1]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := pts[i%len(pts)]
		hullSink += plan.hull.classify(pt[0], pt[1])
	}
}

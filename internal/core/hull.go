package core

import (
	"math"
	"sync/atomic"

	"gaussrange/internal/quadform"
	"gaussrange/internal/vecmat"
)

// The answer-region hull (DESIGN.md "Answer-region hull"). In the eigenbasis
// of Σ the answer region A = {y : p(y) ≥ θ} of a 2-D query is a convex body,
// symmetric under both axis reflections, that depends on (Σ, δ, θ) only. The
// hull tabulates it once per compilation as two polygons — one certified
// inside A, one certified to contain it — so that Phase 2 decides a candidate
// with one 2×2 map and at most three dot products, and only the sliver between
// the polygons reaches the Phase-3 evaluator.

const (
	// hullK is the number of sectors per quadrant; boundary points are found
	// on hullK+1 rays spaced uniformly in s = b/(a+b) of the intercept-scaled
	// coordinates a = |y₁|/r₁, b = |y₂|/r₂.
	hullK = 16
	// hullGuard is how far a vertex's certified probability bracket must clear
	// θ. It is twice the evaluator's own guard: the second half absorbs the
	// series bound of the evaluator the hull speaks for and the rounding of
	// the classification map (both ≪ 1e-9; hullMaxReach enforces the latter).
	hullGuard = 2 * quadform.DecideGuard
	// hullGap is the relative distance aimed for between the inner and the
	// outer point of one ray; it widens only where p is too flat for two
	// points that close to be told apart from θ by hullGuard.
	hullGap = 1e-5
	// hullMaxReach bounds r₂/√λmin. p is Lipschitz with constant below
	// 0.4/√λmin, and the map, the sector index and the dot products move a
	// point by a few ulps of its distance from q, so under this bound rounding
	// moves p by less than 1e-10 — inside the spare half of hullGuard.
	hullMaxReach = 1e5
	// hullMaxCondition is the eigenvalue ratio λmax/λmin beyond which no hull
	// is built: Ruben's series converges like (1 − λmin/λmax)^k per term, so
	// past this ratio each of the build's evaluations would burn thousands of
	// terms.
	hullMaxCondition = 500.0
	// hullRootTol ends a ray's secant once an iterate moves by less than this
	// relative step.
	hullRootTol = 1e-4
)

const (
	hullUndecided = iota
	hullInside
	hullOutside
)

// hullLine is the line n·x = 1 in scaled coordinates; the origin satisfies
// n·x < 1.
type hullLine [2]float64

// within and beyond are both false for a NaN point, which therefore stays
// undecided.
func (l hullLine) within(a, b float64) bool { return l[0]*a+l[1]*b <= 1 }
func (l hullLine) beyond(a, b float64) bool { return l[0]*a+l[1]*b > 1 }

// hullSector holds the three lines of one sector: the chord between the inner
// points of its two rays, and the two outer lines through a neighbouring
// sector's inner point and this sector's outer points.
type hullSector struct {
	chord, outLo, outHi hullLine
}

type hull struct {
	// m maps o − q to the signed scaled coordinates: the rows of Eᵗ divided
	// by the inner axis intercepts r₁, r₂.
	m   [4]float64
	sec [hullK]hullSector
	// searchHW are the Phase-1 half-widths: the data-space bounding box of the
	// outer polygon, never wider than the compiled ones.
	searchHW vecmat.Vector
}

// classify decides the candidate at offset (dx, dy) = o − q from the two
// polygons. It calls nothing and touches no scratch.
func (h *hull) classify(dx, dy float64) int {
	a := math.Abs(h.m[0]*dx + h.m[1]*dy)
	b := math.Abs(h.m[2]*dx + h.m[3]*dy)
	sum := a + b
	if sum <= 1 {
		return hullInside
	}
	k := uint(b / sum * hullK)
	if k >= hullK { // b/sum = 1, or a non-finite offset
		k = hullK - 1
	}
	s := &h.sec[k]
	if s.chord.within(a, b) {
		return hullInside
	}
	if s.outLo.beyond(a, b) || s.outHi.beyond(a, b) {
		return hullOutside
	}
	return hullUndecided
}

// planShared is the state every Rebind copy of one compilation shares.
type planShared struct {
	// hullTried is set by the one Rebind that builds the hull; hull stays nil
	// while that build runs and for good when it fails, and every plan bound
	// meanwhile runs the paper's filter chain. hullEvals is the build's
	// evaluation count.
	hullTried atomic.Bool
	hull      atomic.Pointer[hull]
	hullEvals atomic.Int64
}

// hullEligible reports whether the plan's answers are the exact evaluator's
// — the only configuration whose answer region the hull certifies. Explicit
// sub-strategies and engines with a sampling evaluator keep the paper's chain,
// as does a Σ more elongated than hullMaxCondition.
func (p *Plan) hullEligible() bool {
	_, exact := p.engine.eval.(*ExactEvaluator)
	ev := p.dist.EigenValuesCov()
	return exact && p.dist.Dim() == 2 && p.strat == StrategyAll &&
		!p.geo.empty && ev[1] <= hullMaxCondition*ev[0]
}

// attachHull points the plan at its compilation's hull, building it when this
// is the compilation's first Rebind. A concurrent Rebind does not wait for
// the build: its plan runs the filter chain and returns the same ids.
func (p *Plan) attachHull() {
	sh := p.shared
	h := sh.hull.Load()
	if h == nil && !sh.hullTried.Load() && p.hullEligible() && sh.hullTried.CompareAndSwap(false, true) {
		b := newHullBuilder(p)
		h = b.build()
		sh.hullEvals.Store(int64(b.evals))
		if h != nil {
			sh.hull.Store(h)
		}
	}
	if h != nil {
		p.hull = h
		p.searchHW = h.searchHW
		p.useFringe = false
	}
}

// hullBuilder evaluates p at eigen-space points of the plan's shape.
type hullBuilder struct {
	plan     *Plan
	ex       *quadform.Exact
	dist     quadform.GaussDist // the plan's Σ at mean 0, so o = E·y exactly
	basis    *vecmat.Dense
	o        vecmat.Vector
	delta    float64
	theta    float64
	logTheta float64
	evals    int
	// slope is d ln p / d ln t at the last boundary found, carried from ray
	// to ray as the first Newton step's derivative.
	slope float64
}

// eval returns the certified bracket [lo, hi] of p at y = (y1, y2).
func (b *hullBuilder) eval(y1, y2 float64) (lo, hi float64, ok bool) {
	b.basis.MulVecTo(vecmat.Vector{y1, y2}, b.o)
	b.evals++
	p, bound, err := b.ex.QualificationBound(b.dist, b.o, b.delta)
	if err != nil || !(bound <= quadform.DecideGuard/2) {
		return 0, 0, false
	}
	return p - bound, p + bound, true
}

func (b *hullBuilder) inner(lo float64) bool { return lo >= b.theta+hullGuard }
func (b *hullBuilder) outer(hi float64) bool { return hi <= b.theta-hullGuard }

// ray finds, on the ray t·(d1, d2), a certified inner point tin and a
// certified outer point tout about hullGap apart. lo must be a certified inner
// t and hi a t beyond the boundary; t is the first guess.
//
// f(t) = ln p(t·d) − ln θ is concave and decreasing in ln t (p is log-concave
// and maximal at the centre), so a secant on (ln t, f) converges from any
// bracket; each iterate tightens the bracket and, when its own bracket clears
// θ by hullGuard, the certified pair as well.
func (b *hullBuilder) ray(d1, d2, lo, hi, t float64) (tin, tout float64, ok bool) {
	tin, tout = lo, math.Inf(1)
	probe := func(t float64) (f, width float64, ok bool) {
		pl, ph, ok := b.eval(t*d1, t*d2)
		if !ok {
			return 0, 0, false
		}
		switch {
		case b.inner(pl):
			tin = math.Max(tin, t)
		case b.outer(ph):
			tout = math.Min(tout, t)
		}
		f = -745.0 // p underflowed: as far outside as a float64 can say
		if pm := (pl + ph) / 2; pm > 0 {
			f = math.Log(pm) - b.logTheta
		}
		return f, (ph - pl) / 2, true
	}

	var (
		root, width  float64
		uPrev, fPrev float64
		havePrev     bool
	)
	for i := 0; ; i++ {
		if i == 40 {
			return 0, 0, false
		}
		f, w, ok := probe(t)
		if !ok {
			return 0, 0, false
		}
		width = w
		if f > 0 {
			lo = math.Max(lo, t)
		} else {
			hi = math.Min(hi, t)
		}
		u := math.Log(t)
		if havePrev && f != fPrev {
			b.slope = (f - fPrev) / (u - uPrev)
		}
		next := t * math.Exp(-f/b.slope)
		if !(b.slope < 0 && next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if math.Abs(next-t) <= hullRootTol*t {
			root = next
			break
		}
		uPrev, fPrev, havePrev = u, f, true
		t = next
	}

	if !(b.slope < 0) {
		return 0, 0, false
	}
	// Step off the root far enough for hullGuard to be visible in p.
	step := math.Max(hullGap/2, 1.5*(hullGuard+width)/(b.theta*-b.slope))
	certify := func(side float64) bool {
		for s, try := step, 0; try < 4; s, try = 4*s, try+1 {
			t := root * (1 + side*s)
			if _, _, ok := probe(t); !ok {
				return false
			}
			if (side < 0 && tin >= t) || (side > 0 && tout <= t) {
				return true
			}
		}
		return false
	}
	if tin < root*(1-4*step) && !certify(-1) {
		return 0, 0, false
	}
	if tout > root*(1+4*step) && !certify(+1) {
		return 0, 0, false
	}
	return tin, tout, tin < tout
}

// lineThrough returns the line n·x = 1 through P and Q, which must not be
// collinear with the origin.
func lineThrough(pa, pb, qa, qb float64) (hullLine, bool) {
	det := pa*qb - pb*qa
	l := hullLine{(qb - pb) / det, (pa - qa) / det}
	ok := det != 0 && !math.IsInf(l[0], 0) && !math.IsInf(l[1], 0) && !math.IsNaN(l[0]) && !math.IsNaN(l[1])
	return l, ok
}

func newHullBuilder(p *Plan) *hullBuilder {
	// WithMean fails only on a mean of the wrong dimension.
	zero, _ := p.dist.WithMean(vecmat.NewVector(2))
	return &hullBuilder{
		plan:     p,
		ex:       quadform.NewExact(),
		dist:     zero,
		basis:    p.dist.EigenBasis(),
		o:        vecmat.NewVector(2),
		delta:    p.delta,
		theta:    p.theta,
		logTheta: math.Log(p.theta),
	}
}

// build tabulates the plan's answer region, or returns nil when any step
// fails to certify — the plan then keeps the paper's filter chain.
func (b *hullBuilder) build() *hull {
	p := b.plan
	lam := p.dist.EigenValuesCov()

	// The centre is the maximum of p: it must itself be a certified answer.
	pl, _, ok := b.eval(0, 0)
	if !ok || !b.inner(pl) {
		return nil
	}
	// Axis intercepts, in data units, bracketed by the centre and the paper's
	// own bounds. p ∝ exp(−t²/2λ) would make the log-log slope at the boundary
	// −2·ln(p(q)/θ); a ball that outweighs Σ makes it steeper, which the secant
	// learns from the second point on.
	f0 := math.Log(pl) - b.logTheta
	var rIn, rOut [2]float64
	for i := range rIn {
		d := [2]float64{}
		d[i] = 1
		hi := math.Min(p.orBound[i], p.geo.alphaUpper)
		b.slope = -2*f0 - 1
		if rIn[i], rOut[i], ok = b.ray(d[0], d[1], 0, hi, 0.7*hi); !ok {
			return nil
		}
	}
	if !(math.Hypot(rOut[0], rOut[1]) <= hullMaxReach*math.Sqrt(lam[0])) {
		return nil
	}

	// Boundary points V (inner) and W (outer) on every ray, in coordinates
	// scaled by the inner intercepts: V₀ = (1, 0), V_K = (0, 1), the boundary
	// lies between the line a + b = 1 (convexity) and the corner (1, 1)
	// (reflection symmetry), so on the rays between t ∈ [1, 2].
	var va, vb, wa, wb [hullK + 1]float64
	va[0], wa[0] = 1, rOut[0]/rIn[0]
	vb[hullK], wb[hullK] = 1, rOut[1]/rIn[1]
	circle := func(s float64) float64 { return 1 / math.Hypot(1-s, s) }
	ratio, prevRatio := 1.0, 1.0 // boundary t over the unit circle's, per ray
	for k := 1; k < hullK; k++ {
		s := float64(k) / hullK
		guess := (2*ratio - prevRatio) * circle(s)
		tin, tout, ok := b.ray((1-s)*rIn[0], s*rIn[1], 1, 2.01, math.Min(math.Max(guess, 1.0001), 2))
		if !ok {
			return nil
		}
		va[k], vb[k] = tin*(1-s), tin*s
		wa[k], wb[k] = tout*(1-s), tout*s
		prevRatio, ratio = ratio, tin/circle(s)
	}

	h := &hull{searchHW: vecmat.NewVector(2)}
	e := b.basis
	h.m = [4]float64{e.At(0, 0) / rIn[0], e.At(1, 0) / rIn[0], e.At(0, 1) / rIn[1], e.At(1, 1) / rIn[1]}
	widen := func(a, b float64) {
		for i := range h.searchHW {
			h.searchHW[i] = math.Max(h.searchHW[i],
				math.Abs(e.At(i, 0))*a*rIn[0]+math.Abs(e.At(i, 1))*b*rIn[1])
		}
	}
	for k := 0; k < hullK; k++ {
		// The inner points one ray before and one ray after the sector; past
		// an axis that is the mirror image of the sector's own far point.
		pa, pb := va[1], -vb[1]
		if k > 0 {
			pa, pb = va[k-1], vb[k-1]
		}
		na, nb := -va[hullK-1], vb[hullK-1]
		if k+2 <= hullK {
			na, nb = va[k+2], vb[k+2]
		}
		sec := &h.sec[k]
		var ok1, ok2, ok3 bool
		sec.chord, ok1 = lineThrough(va[k], vb[k], va[k+1], vb[k+1])
		sec.outLo, ok2 = lineThrough(pa, pb, wa[k], wb[k])
		sec.outHi, ok3 = lineThrough(wa[k+1], wb[k+1], na, nb)
		if !(ok1 && ok2 && ok3) {
			return nil
		}
		// The apex of the two outer lines must lie in the sector: then the
		// outer polygon's vertices are the W's and the apexes, and its
		// bounding box bounds every point the outer test lets through.
		det := sec.outLo[0]*sec.outHi[1] - sec.outLo[1]*sec.outHi[0]
		aa, ab := (sec.outHi[1]-sec.outLo[1])/det, (sec.outLo[0]-sec.outHi[0])/det
		if !(aa >= 0 && ab >= 0 && ab*hullK >= float64(k)*(aa+ab) && ab*hullK <= float64(k+1)*(aa+ab)) {
			return nil
		}
		widen(wa[k], wb[k])
		widen(aa, ab)
	}
	widen(wa[hullK], wb[hullK])
	for i, hw := range p.searchHW {
		h.searchHW[i] = math.Min(h.searchHW[i], hw)
	}
	return h
}

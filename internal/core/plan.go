package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"gaussrange/internal/gauss"
	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// Plan is a compiled query: everything derivable from (Σ, δ, θ, strategy)
// alone — the eigensystem-dependent radii rθ, α∥, α⊥, the Phase-1 search
// rectangle, the fringe geometry and the OR bounds — computed once by
// Engine.Compile and reused across executions. Compilation is the expensive
// part of a query after Phase 3 (eigendecomposition, noncentral-χ² root
// finding), so repeated queries (plan caches) and batches pay it once.
//
// A Plan's compiled fields are immutable and it is safe for concurrent use as
// long as each execution supplies its own evaluator (ExecuteEval,
// ExecuteFunc, SearchProbs) or the engine's evaluator is not shared across
// goroutines; what its Rebind copies learn for each other lives behind
// atomics in shared.
type Plan struct {
	engine *Engine
	dist   *gauss.Dist
	delta  float64
	theta  float64
	strat  Strategy

	geo queryGeometry

	// Mean-independent half-widths, derived from Σ, δ, θ only.
	thetaHW  vecmat.Vector // θ-box half-widths σᵢ·rθ (nil when RR and fallback unused)
	searchHW vecmat.Vector // Phase-1 rectangle half-widths around the query mean
	orBound  vecmat.Vector // OR per-axis bounds in the eigenbasis (nil when OR unused)

	useFringe bool

	// shared is the one piece of mutable state: what the Rebind copies of this
	// compilation learn for each other (the answer-region hull, the Phase-2
	// output sizes). hull is shared.hull as this copy saw it at Rebind — nil
	// on a freshly compiled plan, which therefore runs the paper's chain.
	shared *planShared
	hull   *hull

	// Mean-dependent geometry, rebuilt cheaply by Rebind.
	searchBox geom.Rect
	fringe    *geom.MinkowskiRegion
}

// Compile derives the query plan for (q, strat): it validates the query,
// computes rθ and the BF radii as the strategy requires, and freezes the
// Phase-1 search region and Phase-2 filter geometry. The returned plan can be
// executed any number of times; Rebind retargets it to a new query mean with
// the same covariance in O(d).
func (e *Engine) Compile(q Query, strat Strategy) (*Plan, error) {
	if err := q.Validate(e.idx.Dim()); err != nil {
		return nil, err
	}
	if !strat.Valid() {
		return nil, fmt.Errorf("core: strategy %v cannot run alone (OR is filter-only)", strat)
	}

	geo, err := e.deriveGeometry(q, strat)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		engine: e,
		dist:   q.Dist,
		delta:  q.Delta,
		theta:  q.Theta,
		strat:  strat,
		geo:    geo,
		shared: new(planShared),
	}
	dim := e.idx.Dim()

	// θ-box half-widths: needed by RR, and as the conservative Phase-1
	// fallback when BF alone yields no finite pruning radius.
	rFallback := geo.rTheta
	if !strat.Has(StrategyRR) && math.IsInf(geo.alphaUpper, 1) && !geo.empty {
		thetaEff := math.Min(q.Theta, 0.4999)
		rFallback, err = e.rTheta(dim, thetaEff)
		if err != nil {
			return nil, err
		}
	}
	if strat.Has(StrategyRR) || math.IsInf(geo.alphaUpper, 1) {
		p.thetaHW = make(vecmat.Vector, dim)
		for i := 0; i < dim; i++ {
			p.thetaHW[i] = q.Dist.SigmaAxis(i) * rFallback
		}
	}

	// Phase-1 half-widths. With RR the region is the θ-box expanded by δ,
	// intersected with the BF α∥ box when available (both are centered on the
	// query mean, so the intersection is the per-axis minimum). With BF alone
	// it is the α∥ box, falling back to the RR box when α∥ is unbounded.
	p.searchHW = make(vecmat.Vector, dim)
	switch {
	case strat.Has(StrategyRR):
		for i := range p.searchHW {
			hw := p.thetaHW[i] + q.Delta
			if strat.Has(StrategyBF) && !math.IsInf(geo.alphaUpper, 1) && geo.alphaUpper < hw {
				hw = geo.alphaUpper
			}
			p.searchHW[i] = hw
		}
	case math.IsInf(geo.alphaUpper, 1):
		for i := range p.searchHW {
			p.searchHW[i] = p.thetaHW[i] + q.Delta
		}
	default:
		for i := range p.searchHW {
			p.searchHW[i] = geo.alphaUpper
		}
	}

	if strat.Has(StrategyOR) {
		p.orBound = make(vecmat.Vector, dim)
		for i, ev := range q.Dist.EigenValuesCov() {
			p.orBound[i] = geo.rTheta*math.Sqrt(ev) + q.Delta
		}
	}

	p.useFringe = strat.Has(StrategyRR) && e.opts.Fringe != FringeOff &&
		(e.opts.Fringe == FringeAllDims || dim == 2)

	if err := p.bind(); err != nil {
		return nil, err
	}
	return p, nil
}

// bind (re)builds the mean-dependent geometry around the current query mean.
func (p *Plan) bind() error {
	box, err := geom.RectAround(p.dist.Mean(), p.searchHW)
	if err != nil {
		return err
	}
	p.searchBox = box
	p.fringe = nil
	if p.useFringe {
		tb, err := geom.RectAround(p.dist.Mean(), p.thetaHW)
		if err != nil {
			return err
		}
		m, err := geom.NewMinkowskiRegion(tb, p.delta)
		if err != nil {
			return err
		}
		p.fringe = &m
	}
	return nil
}

// Rebind returns a plan for the same (Σ, δ, θ, strategy) retargeted to a new
// distribution, which must share the plan's covariance — only the mean may
// differ. All compiled radii and half-widths are reused; only the O(d)
// mean-dependent rectangles are rebuilt. Use gauss.Dist.WithMean to derive
// the distribution without re-decomposing Σ.
//
// Rebind is what says a compilation is being reused, so the first Rebind of
// an eligible plan (hullEligible) also tabulates its answer region — 50–90
// exact evaluations, once — and every plan rebound after that decides its
// candidates from the table and searches the table's tighter rectangle. The
// ids are the ones the compiled plan itself would return.
func (p *Plan) Rebind(dist *gauss.Dist) (*Plan, error) {
	if dist == nil {
		return nil, fmt.Errorf("core: Rebind with nil distribution")
	}
	if dist.Dim() != p.dist.Dim() {
		return nil, fmt.Errorf("core: Rebind dim %d vs plan dim %d", dist.Dim(), p.dist.Dim())
	}
	if !dist.Cov().Equal(p.dist.Cov(), 0) {
		return nil, fmt.Errorf("core: Rebind requires the plan's covariance (recompile for a new Σ)")
	}
	out := *p
	out.dist = dist
	out.attachHull()
	if err := out.bind(); err != nil {
		return nil, err
	}
	return &out, nil
}

// Dist returns the query distribution the plan is bound to.
func (p *Plan) Dist() *gauss.Dist { return p.dist }

// AlphaUpper returns the BF pruning radius α∥ (+Inf when unbounded).
func (p *Plan) AlphaUpper() float64 { return p.geo.alphaUpper }

// AlphaLower returns the BF acceptance radius α⊥ (0 when no acceptance hole).
func (p *Plan) AlphaLower() float64 { return p.geo.alphaLower }

// Empty reports whether compilation proved the result empty (the BF upper
// bound stays below θ everywhere), so execution skips all three phases.
func (p *Plan) Empty() bool { return p.geo.empty }

// SearchRect returns a copy of the Phase-1 search rectangle bound to the
// current query mean. Every answer point lies inside it, which makes it the
// routing key for scatter-gather serving: a shard whose region misses this
// rectangle cannot contribute. Meaningless when Empty reports true.
func (p *Plan) SearchRect() geom.Rect { return p.searchBox.Clone() }

// baseStats seeds the per-execution statistics with the compiled radii.
func (p *Plan) baseStats() PhaseStats {
	var st PhaseStats
	st.RTheta = p.geo.rTheta
	if !math.IsInf(p.geo.alphaUpper, 1) {
		st.AlphaUpper = p.geo.alphaUpper
	}
	st.AlphaLower = p.geo.alphaLower
	return st
}

// phase2State is one execution's scratch: the statistics, Phase 2's output
// (accepted goes on to collect the Phase-3 survivors as well), the overlay
// rows inside the search box and the filters' buffers. It comes from
// phase2Pool through getPhase2, and the execution that took it puts it back
// with release on every path — error, cancellation, an ExecuteFunc callback
// stopping early — so a served query allocates its id slices only when they
// outgrow every earlier one. No slice
// of it may outlive the execution: what a caller keeps is copied out.
type phase2State struct {
	st            PhaseStats
	pst           rtree.SearchStats
	accepted      []int64
	needEval      []int64
	rows          []int32
	scratch, yBuf vecmat.Vector
	qCenter       vecmat.Vector
	auSq, alSq    float64
}

var phase2Pool = sync.Pool{New: func() any { return new(phase2State) }}

// maxPooledIDs keeps a one-off huge query from pinning its id slices in the
// pool.
const maxPooledIDs = 1 << 16

func getPhase2() *phase2State { return phase2Pool.Get().(*phase2State) }

func (s *phase2State) release() {
	if cap(s.accepted) > maxPooledIDs || cap(s.needEval) > maxPooledIDs || cap(s.rows) > maxPooledIDs {
		s.accepted, s.needEval, s.rows = nil, nil, nil
	}
	s.accepted, s.needEval, s.rows = s.accepted[:0], s.needEval[:0], s.rows[:0]
	s.qCenter = nil
	phase2Pool.Put(s)
}

// bindPhase2 readies s for filtering under p in dim dimensions.
func (p *Plan) bindPhase2(s *phase2State, dim int) {
	s.pst = rtree.SearchStats{}
	s.qCenter = p.dist.Mean()
	s.auSq = p.geo.alphaUpper * p.geo.alphaUpper
	s.alSq = p.geo.alphaLower * p.geo.alphaLower
	if p.hull == nil && p.orBound != nil {
		if cap(s.scratch) < dim {
			s.scratch, s.yBuf = make(vecmat.Vector, dim), make(vecmat.Vector, dim)
		}
		s.scratch, s.yBuf = s.scratch[:dim], s.yBuf[:dim]
	}
}

// filterOne decides one candidate without integration where it can, updating
// the prune counters and routing the rest to accepted or needEval. A plan
// with a hull asks the hull alone: inside counts into AcceptedBF, outside into
// PrunedOR, and only the sliver between its polygons needs evaluation. Any
// other plan streams the candidate through the compiled fringe →
// oblique-region → BF α∥/α⊥ chain. The decision depends only on o's
// float64 values, which are bit-identical whether o comes from the snapshot's
// id-indexed slice or the packed leaf block (both are clones of the same
// inserted point), so both front halves produce identical id sequences.
func (p *Plan) filterOne(s *phase2State, id int64, o vecmat.Vector) {
	if p.hull != nil {
		s.takeHull(id, p.hull.classify(o[0]-s.qCenter[0], o[1]-s.qCenter[1]))
		return
	}
	if p.fringe != nil && !p.fringe.Contains(o) {
		s.st.PrunedFringe++
		return
	}
	if p.orBound != nil {
		p.dist.TransformToEigen(o, s.scratch, s.yBuf)
		for i := range s.yBuf {
			if math.Abs(s.yBuf[i]) > p.orBound[i] {
				s.st.PrunedOR++
				return
			}
		}
	}
	if p.strat.Has(StrategyBF) {
		d2 := o.Dist2(s.qCenter)
		if d2 > s.auSq {
			s.st.PrunedBF++
			return
		}
		if p.geo.alphaLower > 0 && d2 <= s.alSq {
			s.st.AcceptedBF++
			s.accepted = append(s.accepted, id)
			return
		}
	}
	s.needEval = append(s.needEval, id)
}

// takeHull routes a candidate by the hull's verdict v.
func (s *phase2State) takeHull(id int64, v int) {
	switch v {
	case hullInside:
		s.st.AcceptedBF++
		s.accepted = append(s.accepted, id)
	case hullOutside:
		s.st.PrunedOR++
	default:
		s.needEval = append(s.needEval, id)
	}
}

// filterPhases pins the index's current snapshot and executes Phases 1 and
// 2 against it using the compiled geometry into s: the statistics so far,
// the directly-accepted ids (BF α⊥ or the hull) and the candidates requiring
// probability computation. It returns the pinned snapshot, which every later
// phase must resolve ids against, so a concurrent mutation can never produce
// a torn answer.
//
// Phases 1 and 2 run fused, in filterPhasesFused.
func (p *Plan) filterPhases(ctx context.Context, s *phase2State) (*Snapshot, error) {
	snap := p.engine.idx.Current()
	s.st = p.baseStats()
	s.st.Epoch = snap.epoch
	if p.geo.empty {
		return snap, nil
	}
	if err := ctx.Err(); err != nil {
		return snap, err
	}
	p.bindPhase2(s, snap.dim)
	return snap, p.filterPhasesFused(snap, s)
}

// filterPhasesFused is the front half: the packed rect walk hands each leaf
// block to the Phase-2 filters, run over it with no call per point and no
// materialized candidate slice (PhaseDurations[0]), then the overlay rows in
// the box are merged through the same filters (PhaseDurations[1]).
// Candidates come in base DFS order minus tombstones, then overlay rows
// ascending, so ExecuteFunc streams ids in a fixed order.
func (p *Plan) filterPhasesFused(snap *Snapshot, s *phase2State) error {
	st := &s.st
	t0 := time.Now()
	d, dead, box := snap.dim, snap.dead, p.searchBox
	leaf := func(ids []int64, pts []float64) bool {
		if p.hull != nil {
			p.hullLeaf(s, dead, ids, pts)
			return true
		}
		for j, id := range ids {
			o := pts[j*d : j*d+d : j*d+d]
			if box.Contains(o) && !tombstoned(dead, id) {
				st.Retrieved++
				p.filterOne(s, id, o)
			}
		}
		return true
	}
	if err := snap.base.SearchRectLeaves(p.searchBox, leaf, &s.pst); err != nil {
		return err
	}
	st.NodesRead = int(s.pst.Nodes)
	st.F32Rechecks = int(s.pst.F32Rechecks)
	st.PhaseDurations[0] = time.Since(t0)

	t1 := time.Now()
	st.OverlayScanned += len(snap.mem)
	s.rows = snap.overlayRows(box, s.rows[:0])
	for _, row := range s.rows {
		if id := snap.mem[row]; !tombstoned(dead, id) {
			st.Retrieved++
			p.filterOne(s, id, snap.overlayPoint(int(row)))
		}
	}
	st.PhaseDurations[1] = time.Since(t1)
	return nil
}

// hullLeaf is a hull plan's leaf loop (a hull is built for d = 2 only): the
// rect test, the tombstone test and the hull's verdict inline over one
// point block — Rect.Contains and filterOne's decisions, in their order.
func (p *Plan) hullLeaf(s *phase2State, dead []uint64, ids []int64, pts []float64) {
	h := p.hull
	x0, x1 := p.searchBox.Lo[0], p.searchBox.Hi[0]
	y0, y1 := p.searchBox.Lo[1], p.searchBox.Hi[1]
	qx, qy := s.qCenter[0], s.qCenter[1]
	pts = pts[:2*len(ids)]
	for j, id := range ids {
		x, y := pts[2*j], pts[2*j+1]
		if x < x0 || x > x1 || y < y0 || y > y1 || tombstoned(dead, id) {
			continue
		}
		s.st.Retrieved++
		s.takeHull(id, h.classify(x-qx, y-qy))
	}
}

// Execute runs the compiled plan serially with the engine's evaluator.
// Cancelling ctx aborts Phase 3 between candidates and returns ctx.Err().
func (p *Plan) Execute(ctx context.Context) (*Result, error) {
	return p.ExecuteEval(ctx, p.engine.eval)
}

// ExecuteEval runs the compiled plan serially with an explicit evaluator —
// the entry point for callers that share one immutable plan across
// goroutines, each with its own evaluator. The answer's ids are one slice of
// exactly their count, the caller's own.
func (p *Plan) ExecuteEval(ctx context.Context, eval Evaluator) (*Result, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: ExecuteEval with nil evaluator")
	}
	s := getPhase2()
	defer s.release()
	snap, err := p.filterPhases(ctx, s)
	if err != nil {
		return nil, err
	}
	err = p.phase3(ctx, eval, snap, &s.st, s.needEval, func(id int64) bool {
		s.accepted = append(s.accepted, id)
		return true
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(s.accepted))
	copy(ids, s.accepted)
	sortIDs(ids)
	res := &Result{IDs: ids, Stats: s.st}
	res.Stats.Answers = len(ids)
	return res, nil
}

// ExecuteFunc runs the compiled plan serially with eval and streams the
// qualifying ids to fn instead of collecting them: the ids Phase 2 accepted
// outright first, then each Phase-3 survivor as it is decided, so ids arrive
// unsorted. Returning false from fn stops the query; the statistics then
// count only the candidates evaluated and the ids delivered so far.
func (p *Plan) ExecuteFunc(ctx context.Context, eval Evaluator, fn func(id int64) bool) (*PhaseStats, error) {
	s := getPhase2()
	defer s.release()
	snap, err := p.filterPhases(ctx, s)
	if err != nil {
		return nil, err
	}
	st := s.st
	emit := func(id int64) bool {
		st.Answers++
		return fn(id)
	}
	for _, id := range s.accepted {
		if !emit(id) {
			return &st, nil
		}
	}
	if err := p.phase3(ctx, eval, snap, &st, s.needEval, emit); err != nil {
		return nil, err
	}
	return &st, nil
}

// phase3 is the one Phase-3 loop. It decides the needEval candidates in
// order with eval — the decide form when eval offers one, which stops as soon
// as the answer is settled, else the probability against θ — and hands each
// qualifying id to emit; emit returning false ends the loop. Integrations
// counts the candidates decided. Cancelling ctx stops the loop between
// candidates with ctx.Err(); the first evaluator error stops it with an error
// naming the object.
func (p *Plan) phase3(ctx context.Context, eval Evaluator, snap *Snapshot, st *PhaseStats, needEval []int64, emit func(id int64) bool) error {
	t2 := time.Now()
	de, _ := eval.(DecisionEvaluator)
	done := ctx.Done()
	for _, id := range needEval {
		if stopped(done) {
			return ctx.Err()
		}
		o := snap.point(id)
		var qual bool
		var err error
		if de != nil {
			qual, err = de.DecideQualifies(p.dist, o, p.delta, p.theta)
		} else {
			var pr float64
			pr, err = eval.Qualification(p.dist, o, p.delta)
			qual = pr >= p.theta
		}
		if err != nil {
			return fmt.Errorf("core: qualification of object %d: %w", id, err)
		}
		st.Integrations++
		if qual && !emit(id) {
			break
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	return nil
}

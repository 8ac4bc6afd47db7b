package core

import (
	"context"
	"fmt"
	"math"
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
// finding), so standing queries (Monitor), repeated queries (plan caches)
// and batches pay it once.
//
// A Plan's compiled fields are immutable and it is safe for concurrent use as
// long as each execution supplies its own evaluator (ExecuteWith) or the
// engine's evaluator is not shared across goroutines; what its Rebind copies
// learn for each other lives behind atomics in shared.
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

// Strategy returns the compiled filter combination.
func (p *Plan) Strategy() Strategy { return p.strat }

// Dist returns the query distribution the plan is bound to.
func (p *Plan) Dist() *gauss.Dist { return p.dist }

// Delta returns the compiled distance threshold δ.
func (p *Plan) Delta() float64 { return p.delta }

// Theta returns the compiled probability threshold θ.
func (p *Plan) Theta() float64 { return p.theta }

// RTheta returns the compiled θ-region radius (0 when RR and OR are unused).
func (p *Plan) RTheta() float64 { return p.geo.rTheta }

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

// phase2State carries the per-execution Phase-2 scratch and output slices so
// the pointer and fused front halves share one filter implementation.
type phase2State struct {
	st            *PhaseStats
	accepted      []int64
	needEval      []int64
	scratch, yBuf vecmat.Vector
	qCenter       vecmat.Vector
	auSq, alSq    float64
}

func (p *Plan) newPhase2State(st *PhaseStats, dim int) *phase2State {
	s := &phase2State{
		st: st,
		// accepted goes on to collect the Phase-3 survivors as well.
		accepted: make([]int64, 0, p.shared.lastAccepted.Load()+p.shared.lastNeedEval.Load()),
		needEval: make([]int64, 0, p.shared.lastNeedEval.Load()),
		qCenter:  p.dist.Mean(),
		auSq:     p.geo.alphaUpper * p.geo.alphaUpper,
		alSq:     p.geo.alphaLower * p.geo.alphaLower,
	}
	if p.hull == nil && p.orBound != nil {
		s.scratch, s.yBuf = make(vecmat.Vector, dim), make(vecmat.Vector, dim)
	}
	return s
}

// finish hands the Phase-2 output over and leaves its sizes for the next
// execution of this compilation to size its slices from.
func (p *Plan) finish(s *phase2State) (accepted, needEval []int64) {
	p.shared.lastAccepted.Store(int64(len(s.accepted)))
	p.shared.lastNeedEval.Store(int64(len(s.needEval)))
	return s.accepted, s.needEval
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
		switch p.hull.classify(o[0]-s.qCenter[0], o[1]-s.qCenter[1]) {
		case hullInside:
			s.st.AcceptedBF++
			s.accepted = append(s.accepted, id)
		case hullOutside:
			s.st.PrunedOR++
		default:
			s.needEval = append(s.needEval, id)
		}
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

// filterPhases pins the index's current snapshot and executes Phases 1 and
// 2 against it using the compiled geometry, returning the pinned snapshot
// (which every later phase must resolve ids against, so a concurrent
// mutation can never produce a torn answer), the statistics so far, the
// directly-accepted ids (BF α⊥), and the candidates requiring probability
// computation.
//
// The default front half is fused: the packed mirror's leaf scan streams
// point blocks straight through the Phase-2 filters with no materialized
// candidate slice and no id→point lookups, then the overlay is merged
// exactly as the pointer path does. Options.PointerPhase1 selects the
// original two-pass pointer-tree implementation; both produce identical ids,
// id order, and per-phase prune counts.
func (p *Plan) filterPhases(ctx context.Context) (*Snapshot, PhaseStats, []int64, []int64, error) {
	snap := p.engine.idx.Current()
	st := p.baseStats()
	st.Epoch = snap.epoch
	if p.geo.empty {
		return snap, st, nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return snap, st, nil, nil, err
	}
	if p.engine.opts.PointerPhase1 {
		return p.filterPhasesPointer(snap, st)
	}
	return p.filterPhasesFused(snap, st)
}

// filterPhasesPointer is the baseline front half: Phase 1 materializes the
// candidate ids via the pointer tree, Phase 2 filters them in a second pass.
func (p *Plan) filterPhasesPointer(snap *Snapshot, st PhaseStats) (*Snapshot, PhaseStats, []int64, []int64, error) {
	// ---- Phase 1: index-based search -------------------------------------
	t0 := time.Now()
	tree := snap.Tree()
	nodesBefore := tree.NodesRead()
	candidates, err := snap.searchRect(p.searchBox, true)
	if err != nil {
		return snap, st, nil, nil, err
	}
	st.Retrieved = len(candidates)
	st.NodesRead = tree.NodesRead() - nodesBefore
	st.OverlayScanned = len(snap.mem)
	st.PhaseDurations[0] = time.Since(t0)

	// ---- Phase 2: filtering ----------------------------------------------
	t1 := time.Now()
	s := p.newPhase2State(&st, snap.dim)
	for _, id := range candidates {
		p.filterOne(s, id, snap.point(id))
	}
	st.PhaseDurations[1] = time.Since(t1)
	accepted, needEval := p.finish(s)
	return snap, st, accepted, needEval, nil
}

// filterPhasesFused is the packed front half: one pass over the cache-linear
// mirror runs the float32-certified rect test and the Phase-2 filter chain
// per leaf block (PhaseDurations[0]), then the overlay inserts are merged
// through the same filters (PhaseDurations[1]). Candidate order — base DFS
// order minus tombstones, then overlay ascending — matches the pointer path
// exactly, which the per-candidate evaluator forks in ExecuteWith rely on.
func (p *Plan) filterPhasesFused(snap *Snapshot, st PhaseStats) (*Snapshot, PhaseStats, []int64, []int64, error) {
	t0 := time.Now()
	s := p.newPhase2State(&st, snap.dim)
	var pst rtree.SearchStats
	err := snap.base.packed.SearchRect(p.searchBox, func(id int64, pt []float64) bool {
		if _, gone := snap.dead[id]; gone {
			return true
		}
		st.Retrieved++
		p.filterOne(s, id, vecmat.Vector(pt))
		return true
	}, &pst)
	if err != nil {
		return snap, st, nil, nil, err
	}
	st.NodesRead = int(pst.Nodes)
	st.NodesReadPacked = int(pst.Nodes)
	st.F32Rechecks = int(pst.F32Rechecks)
	st.PhaseDurations[0] = time.Since(t0)

	t1 := time.Now()
	st.OverlayScanned += len(snap.mem)
	for i, id := range snap.mem {
		// The box test on the contiguous row first: most overlay inserts lie
		// outside it, and they then cost no tombstone lookup.
		o := snap.overlayPoint(i)
		if !p.searchBox.Contains(o) {
			continue
		}
		if _, gone := snap.dead[id]; gone {
			continue
		}
		st.Retrieved++
		p.filterOne(s, id, o)
	}
	st.PhaseDurations[1] = time.Since(t1)
	accepted, needEval := p.finish(s)
	return snap, st, accepted, needEval, nil
}

// Execute runs the compiled plan serially with the engine's evaluator.
// Cancelling ctx aborts Phase 3 between candidates and returns ctx.Err().
func (p *Plan) Execute(ctx context.Context) (*Result, error) {
	return p.executeSerial(ctx, p.engine.eval)
}

// ExecuteEval runs the compiled plan serially with an explicit evaluator —
// the entry point for callers that share one immutable plan across
// goroutines, each with its own evaluator.
func (p *Plan) ExecuteEval(ctx context.Context, eval Evaluator) (*Result, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: ExecuteEval with nil evaluator")
	}
	return p.executeSerial(ctx, eval)
}

// qualifier returns eval's threshold test for the plan's (dist, δ, θ): the
// decide form when eval offers one — it stops as soon as the answer is
// settled — else the qualification probability compared against θ.
func (p *Plan) qualifier(eval Evaluator) func(o vecmat.Vector) (bool, error) {
	if de, ok := eval.(DecisionEvaluator); ok {
		return func(o vecmat.Vector) (bool, error) {
			qual, _, err := de.DecideQualifies(p.dist, o, p.delta, p.theta)
			return qual, err
		}
	}
	return func(o vecmat.Vector) (bool, error) {
		pr, err := eval.Qualification(p.dist, o, p.delta)
		return pr >= p.theta, err
	}
}

// executeSerial is the single-goroutine Phase-3 executor.
func (p *Plan) executeSerial(ctx context.Context, eval Evaluator) (*Result, error) {
	snap, st, accepted, needEval, err := p.filterPhases(ctx)
	if err != nil {
		return nil, err
	}
	// ---- Phase 3: probability computation --------------------------------
	t2 := time.Now()
	st.Integrations = len(needEval)
	result := accepted
	qualifies := p.qualifier(eval)
	done := ctx.Done()
	for _, id := range needEval {
		if stopped(done) {
			return nil, ctx.Err()
		}
		qual, err := qualifies(snap.point(id))
		if err != nil {
			return nil, fmt.Errorf("core: qualification of object %d: %w", id, err)
		}
		if qual {
			result = append(result, id)
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(result)

	sortIDs(result)
	return &Result{IDs: result, Stats: st}, nil
}

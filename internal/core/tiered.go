package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange/internal/mc"
	"gaussrange/internal/quadform"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

const (
	// tierEnvMargin pads the tier-1 envelope comparison against θ. The
	// noncentral-χ² CDF is evaluated to ~1e-12 relative accuracy, so a 1e-9
	// guard band keeps every envelope decision certified despite the CDF's
	// own floating-point error; candidates inside the band fall through to
	// the exact tier, which keeps the same band (quadform.DecideGuard) on top
	// of Ruben's certified error bound.
	tierEnvMargin = 1e-9
	// tierMaxCondition is the eigenvalue ratio λmax/λmin beyond which tier 2
	// is skipped outright: Ruben's series converges like (1 − λmin/λmax)^k
	// per term, so past this ratio a candidate would burn thousands of terms
	// — ill-conditioned Σ goes straight to the MC fallback.
	tierMaxCondition = 500.0
)

// TierEvaluator is the compiled state of the tiered Phase-3 kernel
// (KernelTiered): a per-candidate decision pipeline that tries cheap
// conservative bounds first, exact math second, and sampling last.
//
//	tier 0  BF radii        d(o, q) vs the compiled α∥/α⊥ spheres
//	tier 1  χ'² envelope    bracket Pr(‖x−o‖ ≤ δ) via λmin/λmax of Σ
//	tier 2  Ruben exact     certified series bracket, decided against θ
//	tier 3  shared cloud    the existing MC decide kernel, drawn lazily
//
// Every field is mean-independent (derived from Σ, δ, θ only), so Rebind's
// shallow plan copy shares the evaluator — including the lazily drawn tier-3
// cloud, which is mean-free like the shared kernels'. Decisions read the
// plan's current distribution for the mean.
//
// Tiers 0–2 are pure functions of the candidate: no randomness, no shared
// mutable state. Queries that never reach tier 3 are therefore deterministic
// and seed-independent, and every query is worker-count invariant.
type TierEvaluator struct {
	theta   float64
	deltaSq float64

	// Spectral data of Σ shared read-only by all executions.
	lambda         []float64
	lamMin, lamMax float64

	// Compiled BF radii, squared. auSq is +Inf and alSq is 0 when the
	// corresponding radius is unavailable, making tier 0 a no-op then.
	auSq, alSq float64

	// skipExact routes ill-conditioned Σ straight from tier 1 to tier 3.
	skipExact bool

	// Tier-3 configuration: the cloud is drawn on first use only.
	samples  int
	needHits int
	seed     uint64
	cloud    lazyCloud

	// exact is the family parent of the per-execution Ruben evaluators;
	// scratches Fork it so all evaluation counts share one atomic total.
	exact *quadform.Exact
}

// lazyCloud draws the tier-3 sample cloud (and its count grid) at most once
// per evaluator, on the first candidate that reaches tier 3. sync.Once gives
// the necessary happens-before for readers; drawn is an atomic so executions
// that never triggered the draw can still report SamplesDrawn correctly when
// a concurrent execution did.
type lazyCloud struct {
	once     sync.Once
	cloud    *mc.SampleCloud
	grid     *mc.CloudGrid
	fallback bool
	err      error
	drawn    atomic.Int64
}

// attachTier compiles the tiered kernel's evaluator onto the plan.
func (p *Plan) attachTier(opts Phase3Options) error {
	n := opts.Samples
	if n <= 0 {
		n = mc.DefaultSamples
	}
	lambda := p.dist.EigenValuesCov()
	lamMin, lamMax := lambda[0], lambda[0]
	for _, l := range lambda[1:] {
		lamMin = math.Min(lamMin, l)
		lamMax = math.Max(lamMax, l)
	}
	p.tier = &TierEvaluator{
		theta:     p.theta,
		deltaSq:   p.delta * p.delta,
		lambda:    lambda,
		lamMin:    lamMin,
		lamMax:    lamMax,
		auSq:      p.geo.alphaUpper * p.geo.alphaUpper,
		alSq:      p.geo.alphaLower * p.geo.alphaLower,
		skipExact: lamMax/lamMin > tierMaxCondition,
		samples:   n,
		needHits:  qualifyThreshold(p.theta, n),
		seed:      opts.Seed,
		exact:     quadform.NewExact(),
	}
	p.p3kernel = KernelTiered
	p.needHits = p.tier.needHits
	return nil
}

// Tier returns the plan's tiered evaluator (nil unless KernelTiered).
func (p *Plan) Tier() *TierEvaluator { return p.tier }

// tierScratch is one execution's (or one worker's) mutable tier state: the
// transform buffers and a forked Ruben evaluator. Owners must Fold the fork
// when done so its evaluation count reaches the family total.
type tierScratch struct {
	rel   vecmat.Vector
	eig   vecmat.Vector
	y     vecmat.Vector
	exact *quadform.Exact
}

func (te *TierEvaluator) newScratch(dim int) *tierScratch {
	return &tierScratch{
		rel:   make(vecmat.Vector, dim),
		eig:   make(vecmat.Vector, dim),
		y:     make(vecmat.Vector, dim),
		exact: te.exact.Fork(),
	}
}

// cloudState returns the lazily drawn tier-3 cloud, drawing it on first use.
// The cloud is mean-free, keyed only by (Σ, samples, seed) like the shared
// kernels', so one draw serves every execution and rebind of the plan.
func (te *TierEvaluator) cloudState(p *Plan) (*mc.SampleCloud, *mc.CloudGrid, bool, error) {
	te.cloud.once.Do(func() {
		c, err := mc.NewSampleCloud(p.dist, te.samples, te.seed)
		if err != nil {
			te.cloud.err = err
			return
		}
		te.cloud.cloud = c
		te.cloud.drawn.Store(int64(c.Len()))
		g, err := mc.NewCloudGrid(c, p.delta)
		if err != nil {
			// Dense cell directory over cap (δ tiny relative to the cloud
			// extent): decide against the flat cloud, still correct, and
			// surface the degradation like the shared kernels do.
			te.cloud.fallback = true
			return
		}
		te.cloud.grid = g
	})
	return te.cloud.cloud, te.cloud.grid, te.cloud.fallback, te.cloud.err
}

// drawnSamples reports the tier-3 cloud size, 0 while no candidate has ever
// reached tier 3.
func (te *TierEvaluator) drawnSamples() int { return int(te.cloud.drawn.Load()) }

// tieredQualifies decides candidate o through the tier pipeline, charging the
// decision to the tier that closed it in st. Only tier 3 is stochastic, and
// it reproduces exactly the shared-early kernel's decision (same cloud
// construction, same integer threshold), so a tiered answer differs from a
// shared-kernel answer only where an exact tier certifiably outranks the
// cloud's sampling error.
func (p *Plan) tieredQualifies(o vecmat.Vector, w *tierScratch, st *PhaseStats) (bool, error) {
	te := p.tier

	// ---- Tier 0: compiled BF radii --------------------------------------
	// filterPhases already applies these when StrategyBF is active; this
	// tier makes the kernel self-contained for BF-less strategies.
	d2 := o.Dist2(p.dist.Mean())
	if d2 > te.auSq {
		st.TierBF++
		return false, nil
	}
	if te.alSq > 0 && d2 <= te.alSq {
		st.TierBF++
		return true, nil
	}

	// ---- Tier 1: noncentral-χ² envelope ---------------------------------
	// In the eigenbasis, ‖x−o‖² = Σ λⱼ(zⱼ+bⱼ)² with Σbⱼ² = α² (the squared
	// Mahalanobis offset). Pinching every λⱼ to λmin/λmax brackets the form
	// by λ·S with S ~ χ'²(d, α²), so
	//   F(δ²/λmax) ≤ Pr(‖x−o‖ ≤ δ) ≤ F(δ²/λmin),  F = CDF of χ'²(d, α²).
	// For isotropic Σ the bracket is tight and tier 1 is itself exact.
	p.dist.TransformToEigen(o, w.eig, w.y)
	var nc float64
	for j, yj := range w.y {
		nc += yj * yj / te.lambda[j]
	}
	dof := float64(len(w.y))
	pLow, err := stats.NoncentralChiSquareCDF(dof, nc, te.deltaSq/te.lamMax)
	if err != nil {
		return false, err
	}
	if pLow >= te.theta+tierEnvMargin {
		st.TierEnvelope++
		return true, nil
	}
	pHigh, err := stats.NoncentralChiSquareCDF(dof, nc, te.deltaSq/te.lamMin)
	if err != nil {
		return false, err
	}
	if pHigh < te.theta-tierEnvMargin {
		st.TierEnvelope++
		return false, nil
	}

	// ---- Tier 2: Ruben exact, certified decide ---------------------------
	// The series stops as soon as its bracket clears θ by the guard band; a
	// θ inside the band of the converged value cannot be certified and falls
	// through to the MC fallback, as does a series refused for its length.
	if !te.skipExact {
		ok, certified, err := w.exact.Decide(p.dist, o, p.delta, te.theta)
		if err != nil && !errors.Is(err, quadform.ErrNotConverged) {
			return false, err
		}
		if certified {
			st.TierExact++
			return ok, nil
		}
	}

	// ---- Tier 3: shared-cloud MC fallback -------------------------------
	cloud, grid, fallback, err := te.cloudState(p)
	if err != nil {
		return false, err
	}
	o.SubTo(p.dist.Mean(), w.rel)
	var ok bool
	var ds mc.DecideStats
	if grid != nil {
		ok, ds = grid.DecideBall(w.rel, te.needHits)
	} else {
		ok, ds = cloud.CountBallDecide(w.rel, p.delta, te.needHits)
	}
	st.TierMC++
	st.SamplesTouched += ds.Touched
	st.CellsSkipped += ds.CellsSkipped
	st.CellsFullInside += ds.CellsFullInside
	if ds.Early {
		st.EarlyDecisions++
	}
	if fallback {
		st.GridFallback = true
	}
	return ok, nil
}

// executeTiered runs Phase 3 through the tier pipeline, serially.
func (p *Plan) executeTiered(ctx context.Context, snap *Snapshot, st *PhaseStats, accepted, needEval []int64) (*Result, error) {
	t2 := time.Now()
	st.Integrations = len(needEval)
	w := p.tier.newScratch(p.dist.Dim())
	defer w.exact.Fold()
	result := accepted
	done := ctx.Done()
	for _, id := range needEval {
		if stopped(done) {
			return nil, ctx.Err()
		}
		ok, err := p.tieredQualifies(snap.point(id), w, st)
		if err != nil {
			return nil, fmt.Errorf("core: qualification of object %d: %w", id, err)
		}
		if ok {
			result = append(result, id)
		}
	}
	st.SamplesDrawn = p.tier.drawnSamples()
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(result)
	sortIDs(result)
	return &Result{IDs: result, Stats: *st}, nil
}

// executeTieredParallel is executeTiered with candidates spread over a
// worker pool. Every tier is a pure per-candidate function (tier 3 counts
// against one read-only cloud), so the answer set is identical for every
// worker count by construction.
func (p *Plan) executeTieredParallel(ctx context.Context, snap *Snapshot, st *PhaseStats, accepted, needEval []int64, workers int) (*Result, error) {
	t2 := time.Now()
	n := len(needEval)
	st.Integrations = n
	if workers > n {
		workers = n
	}
	qualifies := make([]bool, n)

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := execCtx.Done()
	var (
		next     atomic.Int64
		total    sharedTotals
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := p.tier.newScratch(p.dist.Dim())
			// Worker-local stats and evaluation counts, flushed exactly once
			// on the way out. Both defers run before wg.Done's (LIFO), so
			// after wg.Wait every worker's contribution is in total and in
			// the exact-evaluator family — complete even when the context
			// cancels mid-query, never partially flushed.
			var local PhaseStats
			defer func() { total.add(&local) }()
			defer ws.exact.Fold()
			for {
				if stopped(done) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ok, err := p.tieredQualifies(snap.point(needEval[i]), ws, &local)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("core: qualification of object %d: %w", needEval[i], err)
					}
					errMu.Unlock()
					cancel()
					return
				}
				qualifies[i] = ok
			}
		}()
	}
	wg.Wait()
	// Fold the worker totals into st before the cancellation check, like the
	// shared executor: the caller's PhaseStats always reflects every flushed
	// worker, whether the query completed or was cancelled mid-phase.
	st.SamplesTouched += int(total.touched.Load())
	st.CellsSkipped += int(total.skipped.Load())
	st.CellsFullInside += int(total.fullInside.Load())
	st.EarlyDecisions += int(total.early.Load())
	st.TierBF += int(total.tierBF.Load())
	st.TierEnvelope += int(total.tierEnvelope.Load())
	st.TierExact += int(total.tierExact.Load())
	st.TierMC += int(total.tierMC.Load())
	if total.gridFallback.Load() {
		st.GridFallback = true
	}
	st.SamplesDrawn = p.tier.drawnSamples()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ids := accepted
	for i, ok := range qualifies {
		if ok {
			ids = append(ids, needEval[i])
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(ids)
	sortIDs(ids)
	return &Result{IDs: ids, Stats: *st}, nil
}

package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

// Phase3Kernel selects how Phase 3 (probability computation) evaluates the
// candidates that survive filtering.
type Phase3Kernel int

const (
	// KernelPerCandidate is the paper's method: every candidate draws its
	// own Gaussian sample stream (or uses the exact evaluator). Independent
	// streams, O(samples·d²) Cholesky work per candidate.
	KernelPerCandidate Phase3Kernel = iota
	// KernelSharedFlat draws one mean-free sample cloud per compiled plan
	// and reduces every candidate to a flat squared-distance scan over it
	// (common random numbers across candidates).
	KernelSharedFlat
	// KernelSharedGrid adds a uniform grid with cell side δ over the shared
	// cloud, so each candidate's hit count visits only the ≤3^d cells its
	// δ-ball intersects — exact counts, typically 10–100× fewer samples
	// touched at paper-scale δ.
	KernelSharedGrid
	// KernelSharedEarly decides each candidate instead of counting it:
	// covered cells are first classified against the δ-ball by corner
	// distance (fully-inside cells credit their samples with zero tests,
	// fully-outside cells are skipped), and the remaining boundary cells are
	// scanned nearest-first under running accept/reject bounds that stop the
	// moment the threshold comparison is settled. The decision is exactly
	// the full count's decision — answers stay byte-identical to
	// shared-flat/shared-grid — with another order of magnitude fewer
	// samples touched at paper-scale δ.
	KernelSharedEarly
	// KernelTiered replaces sampling with a tiered decision pipeline: tier 0
	// reuses the compiled BF α∥/α⊥ radii, tier 1 brackets the qualification
	// probability with a noncentral-χ² envelope from the eigenvalue extremes
	// of Σ, tier 2 evaluates Ruben's series with a certified truncation
	// bound, and only candidates the exact tiers cannot certify (θ inside
	// the error bound, or ill-conditioned Σ) fall back to a lazily drawn
	// shared cloud. Most candidates touch zero samples and the answer is a
	// deterministic, seed-independent function of the query whenever tier 3
	// never fires.
	KernelTiered
	// KernelSharedBatch is the early-exit kernel restructured for batches of
	// query centers sharing one compiled plan: ExecuteBatch merges every
	// member's Phase-3 candidates into one job schedule and sweeps the shared
	// cloud/grid once, advancing all members' accept/reject bounds per block
	// over float32 sample mirrors (half the memory traffic, SIMD rows on
	// amd64). Decisions are byte-identical to shared-early — a float32
	// distance only classifies samples provably clear of δ², anything inside
	// the rounding band is retested in float64 — so answers match the per-
	// query kernels bit for bit. A plan compiled for this kernel executed
	// singly (Execute/ExecuteWith) runs the per-query early-exit path.
	KernelSharedBatch
)

// String names the kernel as the benchmarks report it.
func (k Phase3Kernel) String() string {
	switch k {
	case KernelPerCandidate:
		return "per-candidate"
	case KernelSharedFlat:
		return "shared-flat"
	case KernelSharedGrid:
		return "shared-grid"
	case KernelSharedEarly:
		return "shared-early"
	case KernelTiered:
		return "tiered"
	case KernelSharedBatch:
		return "shared-batch"
	default:
		return fmt.Sprintf("Phase3Kernel(%d)", int(k))
	}
}

// Phase3Options configure the shared-sample Phase-3 kernel. The zero value
// selects the per-candidate path (no cloud is attached to compiled plans).
type Phase3Options struct {
	// Kernel selects the Phase-3 evaluation path.
	Kernel Phase3Kernel
	// Samples is the shared-cloud size; 0 selects mc.DefaultSamples.
	Samples int
	// Seed seeds the cloud's deterministic sample stream. With a shared
	// cloud the answer set is a pure function of (plan, Seed) — independent
	// of worker count and execution order.
	Seed uint64
}

// attachCloud draws the plan's shared sample cloud (and count grid for the
// grid-backed kernels) per the engine's Phase-3 options. Called once per
// compilation; rebound plans share the cloud because it is mean-free.
func (p *Plan) attachCloud(opts Phase3Options) error {
	if opts.Kernel == KernelPerCandidate || p.geo.empty {
		return nil
	}
	if opts.Kernel == KernelTiered {
		return p.attachTier(opts)
	}
	n := opts.Samples
	if n <= 0 {
		n = mc.DefaultSamples
	}
	cloud, err := mc.NewSampleCloud(p.dist, n, opts.Seed)
	if err != nil {
		return err
	}
	p.cloud = cloud
	p.p3kernel = opts.Kernel
	p.needHits = qualifyThreshold(p.theta, n)
	if opts.Kernel == KernelSharedGrid || opts.Kernel == KernelSharedEarly || opts.Kernel == KernelSharedBatch {
		grid, err := mc.NewCloudGrid(cloud, p.delta)
		if err != nil {
			// The dense cell directory would exceed its cap (δ tiny relative
			// to the cloud extent): fall back to the flat shared scan, still
			// correct. The fallback is surfaced via PhaseStats.GridFallback
			// so operators can see a grid kernel silently running flat.
			p.gridFallback = true
			return nil
		}
		p.grid = grid
	}
	return nil
}

// qualifyThreshold returns the smallest hit count h for which the kernel's
// acceptance test float64(h)/float64(n) ≥ theta holds, in [0, n+1] (n+1
// means unattainable). The early-exit kernel compares integer hits against
// this threshold, so its decisions reproduce the full count's floating-point
// comparison exactly — a naive ⌈θ·n⌉ can be off by one when θ·n rounds
// across an integer (θ=0.01, n=20000 rounds to 200.00000000000003).
func qualifyThreshold(theta float64, n int) int {
	fn := float64(n)
	h := int(math.Ceil(theta * fn))
	if h < 0 {
		h = 0
	}
	if h > n+1 {
		h = n + 1
	}
	for h > 0 && float64(h-1)/fn >= theta {
		h--
	}
	for h <= n && float64(h)/fn < theta {
		h++
	}
	return h
}

// Cloud returns the plan's shared sample cloud (nil when the per-candidate
// kernel is active or the plan is proven empty).
func (p *Plan) Cloud() *mc.SampleCloud { return p.cloud }

// Grid returns the plan's fixed-radius count grid (nil unless the grid
// kernel is active).
func (p *Plan) Grid() *mc.CloudGrid { return p.grid }

// sharedCount counts cloud samples within δ of candidate o under the plan's
// current mean, via the grid when present. rel is scratch of dim d.
func (p *Plan) sharedCount(o, rel vecmat.Vector) (hits, touched int) {
	o.SubTo(p.dist.Mean(), rel)
	if p.grid != nil {
		return p.grid.CountBall(rel)
	}
	return p.cloud.CountBall(rel, p.delta)
}

// sharedQualifies decides candidate o against the plan's cloud under the
// compiled kernel, with rel as scratch of dim d. The counting kernels
// compare the exhaustive hit count against θ; the early kernel reproduces
// exactly that comparison (needHits is qualifyThreshold of the same θ and
// n) via classification and decision bounds, so the three agree bit for
// bit and only the per-candidate statistics differ.
func (p *Plan) sharedQualifies(o, rel vecmat.Vector, st *PhaseStats) bool {
	if p.p3kernel == KernelSharedEarly || p.p3kernel == KernelSharedBatch {
		o.SubTo(p.dist.Mean(), rel)
		var ok bool
		var ds mc.DecideStats
		if p.grid != nil {
			ok, ds = p.grid.DecideBall(rel, p.needHits)
		} else {
			ok, ds = p.cloud.CountBallDecide(rel, p.delta, p.needHits)
		}
		st.SamplesTouched += ds.Touched
		st.CellsSkipped += ds.CellsSkipped
		st.CellsFullInside += ds.CellsFullInside
		if ds.Early {
			st.EarlyDecisions++
		}
		return ok
	}
	hits, touched := p.sharedCount(o, rel)
	st.SamplesTouched += touched
	return float64(hits)/float64(p.cloud.Len()) >= p.theta
}

// executeShared runs Phase 3 against the plan's shared cloud, serially.
// accepted, needEval and snap come from filterPhases; st is mutated in place.
func (p *Plan) executeShared(ctx context.Context, snap *Snapshot, st *PhaseStats, accepted, needEval []int64) (*Result, error) {
	t2 := time.Now()
	st.Integrations = len(needEval)
	st.SamplesDrawn = p.cloud.Len()
	rel := make(vecmat.Vector, p.dist.Dim())
	result := accepted
	done := ctx.Done()
	for _, id := range needEval {
		if stopped(done) {
			return nil, ctx.Err()
		}
		if p.sharedQualifies(snap.point(id), rel, st) {
			result = append(result, id)
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(result)
	sortIDs(result)
	return &Result{IDs: result, Stats: *st}, nil
}

// executeSharedParallel is executeShared with candidates spread over a
// worker pool. Workers share the read-only cloud and grid — no per-worker
// or per-candidate streams exist, so the answer is identical for every
// worker count by construction.
func (p *Plan) executeSharedParallel(ctx context.Context, snap *Snapshot, st *PhaseStats, accepted, needEval []int64, workers int) (*Result, error) {
	t2 := time.Now()
	n := len(needEval)
	st.Integrations = n
	st.SamplesDrawn = p.cloud.Len()
	if workers > n {
		workers = n
	}
	qualifies := make([]bool, n)

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := execCtx.Done()
	var (
		next  atomic.Int64
		total sharedTotals
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel := make(vecmat.Vector, p.dist.Dim())
			// Worker-local stats, flushed exactly once on the way out. The
			// flush defer runs before wg.Done's (LIFO), so after wg.Wait
			// every worker's contribution is in total — complete even when
			// the context cancels mid-query, never partially flushed.
			var local PhaseStats
			defer func() { total.add(&local) }()
			for {
				if stopped(done) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				qualifies[i] = p.sharedQualifies(snap.point(needEval[i]), rel, &local)
			}
		}()
	}
	wg.Wait()
	// Fold the worker totals into st before the cancellation check: the
	// caller's PhaseStats then always reflects every flushed worker, whether
	// the query completed or was cancelled mid-phase.
	st.SamplesTouched += int(total.touched.Load())
	st.CellsSkipped += int(total.skipped.Load())
	st.CellsFullInside += int(total.fullInside.Load())
	st.EarlyDecisions += int(total.early.Load())
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

// sharedTotals accumulates the per-worker Phase-3 sample accounting. The
// tier counters stay zero on the shared kernels and the sample counters stay
// zero on exact-tier decisions, so one totals struct serves both executors.
type sharedTotals struct {
	touched    atomic.Int64
	skipped    atomic.Int64
	fullInside atomic.Int64
	early      atomic.Int64

	tierBF       atomic.Int64
	tierEnvelope atomic.Int64
	tierExact    atomic.Int64
	tierMC       atomic.Int64
	gridFallback atomic.Bool
}

// add folds one worker's local stats into the totals.
func (t *sharedTotals) add(local *PhaseStats) {
	t.touched.Add(int64(local.SamplesTouched))
	t.skipped.Add(int64(local.CellsSkipped))
	t.fullInside.Add(int64(local.CellsFullInside))
	t.early.Add(int64(local.EarlyDecisions))
	t.tierBF.Add(int64(local.TierBF))
	t.tierEnvelope.Add(int64(local.TierEnvelope))
	t.tierExact.Add(int64(local.TierExact))
	t.tierMC.Add(int64(local.TierMC))
	if local.GridFallback {
		t.gridFallback.Store(true)
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gaussrange/internal/gauss"
	"gaussrange/internal/stats"
	"gaussrange/internal/ucatalog"
	"gaussrange/internal/vecmat"
)

// Evaluator computes qualification probabilities Pr(‖x − o‖ ≤ delta) for
// x ~ dist. internal/mc.Integrator (the paper's importance sampling) and the
// adapter over internal/quadform.Exact both satisfy it.
type Evaluator interface {
	Qualification(dist *gauss.Dist, o vecmat.Vector, delta float64) (float64, error)
}

// FringeMode selects how the RR strategy's Phase-2 fringe filter behaves.
type FringeMode int

const (
	// FringePaper applies the fringe filter only for d = 2, as the paper's
	// Algorithm 1 does ("computation of fringe part is not easy for d ≥ 3").
	FringePaper FringeMode = iota
	// FringeAllDims applies the exact Minkowski-region membership test in
	// every dimension (clamped point-to-box distance) — a strict improvement
	// this implementation offers over the paper.
	FringeAllDims
	// FringeOff disables the fringe filter (ablation).
	FringeOff
)

// Options configures an Engine beyond its strategy.
type Options struct {
	// Fringe selects the RR fringe filter behaviour; default FringePaper.
	Fringe FringeMode
	// UseCatalogs switches the derivation of rθ and the BF radii from exact
	// computation (the default; the paper's own experiments use exact BF
	// radii, §V-A) to U-catalog lookup with the paper's conservative
	// fallback rules.
	UseCatalogs bool
	// RCatalog and BFCatalog supply the tables when UseCatalogs is set; when
	// nil NewEngine builds them with default grids.
	RCatalog  *ucatalog.RCatalog
	BFCatalog *ucatalog.BFCatalog
}

// Engine compiles and executes probabilistic range queries against an Index.
//
// An Engine holds one Evaluator, and both are single-goroutine (quadform.Exact
// caches per-distribution state, mc.Integrator owns its random stream): eight
// goroutines sharing one engine's BruteForce got a wrong answer. So Search,
// BruteForce and Plan.Execute are single-goroutine per engine; Compile may be
// shared. Concurrent callers run Plan.ExecuteEval, each with its own
// evaluator (NewExactEvaluator), as gaussrange.DB does.
type Engine struct {
	idx  *Index
	eval Evaluator
	opts Options
}

// NewEngine returns an engine over idx using eval for Phase 3. When
// Options.UseCatalogs is set without supplying tables, the default catalogs
// are built here, up front, so compilations never mutate shared state. eval
// is used by one goroutine at a time (see Engine).
func NewEngine(idx *Index, eval Evaluator, opts Options) (*Engine, error) {
	if idx == nil {
		return nil, errors.New("core: nil index")
	}
	if eval == nil {
		return nil, errors.New("core: nil evaluator")
	}
	if opts.UseCatalogs {
		if opts.RCatalog == nil {
			rc, err := ucatalog.NewRCatalog(idx.Dim(), nil)
			if err != nil {
				return nil, err
			}
			opts.RCatalog = rc
		}
		if opts.BFCatalog == nil {
			bc, err := ucatalog.NewBFCatalog(idx.Dim(), nil, nil)
			if err != nil {
				return nil, err
			}
			opts.BFCatalog = bc
		}
	}
	return &Engine{idx: idx, eval: eval, opts: opts}, nil
}

// Query is a probabilistic range query PRQ(q, Σ, δ, θ) (Definition 2).
type Query struct {
	// Dist is the Gaussian location distribution N(q, Σ) of the query object.
	Dist *gauss.Dist
	// Delta is the distance threshold δ > 0.
	Delta float64
	// Theta is the probability threshold, 0 < θ < 1.
	Theta float64
}

// Validate checks the query against the index dimensionality.
func (q Query) Validate(dim int) error {
	if q.Dist == nil {
		return errors.New("core: query without distribution")
	}
	if q.Dist.Dim() != dim {
		return fmt.Errorf("core: query dim %d vs index dim %d", q.Dist.Dim(), dim)
	}
	if q.Delta <= 0 || math.IsNaN(q.Delta) || math.IsInf(q.Delta, 0) {
		return fmt.Errorf("core: delta must be a positive finite number, got %g", q.Delta)
	}
	if !(q.Theta > 0 && q.Theta < 1) {
		return fmt.Errorf("core: theta must satisfy 0 < θ < 1, got %g", q.Theta)
	}
	return nil
}

// PhaseStats reports where candidates were spent during one query — the
// quantities the paper's Tables I–III are built from.
type PhaseStats struct {
	Retrieved    int // Phase 1: candidates returned by the index search
	PrunedFringe int // Phase 2: removed by the RR Minkowski fringe test
	PrunedOR     int // Phase 2: removed by a certified outer bound (the oblique-region box, or the plan's hull)
	PrunedBF     int // Phase 2: removed by the α∥ distance bound
	AcceptedBF   int // Phase 2: accepted outright by a certified inner bound (the α⊥ sphere, or the plan's hull)
	Integrations int // Phase 3: candidates requiring probability computation
	Answers      int // final result size
	NodesRead    int // packed base nodes visited during Phase 1
	// OverlayScanned is how many overlay inserts the query was merged
	// against, and F32Rechecks how many node entries straddled the float32
	// certificate bands and needed an exact float64 recheck.
	OverlayScanned int
	F32Rechecks    int
	// Epoch is the storage epoch the query pinned for all three phases: the
	// whole answer is consistent with exactly this published snapshot.
	Epoch          uint64
	PhaseDurations [3]time.Duration
	// AlphaUpper and AlphaLower are the BF radii used (0 when BF unused or
	// the radius is undefined); RTheta is the θ-region radius (0 when RR and
	// OR unused).
	AlphaUpper, AlphaLower, RTheta float64
}

// Result is a completed query: answer identifiers (ascending) and statistics.
type Result struct {
	IDs   []int64
	Stats PhaseStats
}

// queryGeometry bundles the derived per-query constants.
type queryGeometry struct {
	rTheta     float64 // θ-region Mahalanobis radius (RR/OR)
	alphaUpper float64 // BF pruning radius (+Inf disables)
	alphaLower float64 // BF acceptance radius (0 disables)
	empty      bool    // proven-empty result (BF bound below θ everywhere)
}

// DecisionEvaluator is an optional Evaluator refinement that answers the
// threshold question "is the probability at least theta?" directly — the
// exact evaluator's series stops as soon as the answer is settled. Phase 3
// uses it when available.
type DecisionEvaluator interface {
	DecideQualifies(dist *gauss.Dist, o vecmat.Vector, delta, theta float64) (qualifies bool, err error)
}

// Search executes the query with the given strategy combination. It is a
// compatibility wrapper over the compile/plan/execute path: Compile derives
// the per-query geometry once and Execute runs the three phases.
// Single-goroutine per engine (see Engine): concurrent callers use ExecuteEval.
func (e *Engine) Search(q Query, strat Strategy) (*Result, error) {
	plan, err := e.Compile(q, strat)
	if err != nil {
		return nil, err
	}
	return plan.Execute(context.Background())
}

// deriveGeometry computes rθ and the BF radii as required by the strategy.
func (e *Engine) deriveGeometry(q Query, strat Strategy) (queryGeometry, error) {
	geo := queryGeometry{alphaUpper: math.Inf(1)}
	dim := e.idx.Dim()

	if strat.Has(StrategyRR) || strat.Has(StrategyOR) {
		// The θ-region needs θ < 1/2; for θ ≥ 1/2 any smaller θ' yields a
		// strictly larger (hence still conservative) region.
		thetaEff := math.Min(q.Theta, 0.4999)
		r, err := e.rTheta(dim, thetaEff)
		if err != nil {
			return geo, err
		}
		geo.rTheta = r
	}

	if strat.Has(StrategyBF) {
		up, lo, empty, err := e.bfRadii(q)
		if err != nil {
			return geo, err
		}
		geo.alphaUpper, geo.alphaLower, geo.empty = up, lo, empty
	}
	return geo, nil
}

// rTheta returns the θ-region radius, via the exact inverse or the catalog.
func (e *Engine) rTheta(dim int, theta float64) (float64, error) {
	if !e.opts.UseCatalogs {
		return stats.SphereRadiusForMass(dim, 1-2*theta)
	}
	r, err := e.opts.RCatalog.Lookup(theta)
	if errors.Is(err, ucatalog.ErrNoEntry) {
		// θ below the smallest table entry: fall back to the exact value,
		// as a real system would extend the table offline.
		return stats.SphereRadiusForMass(dim, 1-2*theta)
	}
	return r, err
}

// bfRadii derives α∥ (pruning) and α⊥ (acceptance) per Property 5 /
// Eqs. (28)–(31). The returned empty flag is set when even the upper
// bounding function cannot reach mass θ anywhere, proving the result empty.
func (e *Engine) bfRadii(q Query) (alphaUpper, alphaLower float64, empty bool, err error) {
	d := float64(e.idx.Dim())
	lamPar := q.Dist.LambdaPar()
	lamPerp := q.Dist.LambdaPerp()
	logHalfDet := 0.5 * q.Dist.LogDet()

	alphaUpper = math.Inf(1)
	alphaLower = 0

	// Scaled probability targets of Eqs. (29)–(30), computed in log space:
	// tp = λ^{d/2}·|Σ|^{1/2}·θ.
	logTpPar := d/2*math.Log(lamPar) + logHalfDet + math.Log(q.Theta)
	logTpPerp := d/2*math.Log(lamPerp) + logHalfDet + math.Log(q.Theta)

	// Upper radius α∥: scaled sphere radius √λ∥·δ, target mass tp∥.
	if logTpPar > math.Log(1e-280) {
		tp := math.Exp(logTpPar)
		if tp < 1 {
			scaledDelta := math.Sqrt(lamPar) * q.Delta
			beta, aerr := e.bfAlpha(scaledDelta, tp, true)
			switch {
			case errors.Is(aerr, stats.ErrNoSolution):
				// Even a sphere centered at q captures less than θ of the
				// upper bound: nothing can qualify.
				return 0, 0, true, nil
			case aerr == nil:
				alphaUpper = beta / math.Sqrt(lamPar)
			case errors.Is(aerr, ucatalog.ErrNoEntry):
				// Catalog gap: keep +Inf (no pruning) — conservative.
			default:
				return 0, 0, false, aerr
			}
		}
		// tp ≥ 1 can only occur transiently from rounding; treat as no
		// pruning information.
	}

	// Lower radius α⊥: scaled sphere radius √λ⊥·δ, target mass tp⊥. The
	// target often exceeds 1 for anisotropic Σ — then no acceptance "hole"
	// exists (paper's discussion around Eq. 37).
	if logTpPerp < 0 {
		tp := math.Exp(logTpPerp)
		scaledDelta := math.Sqrt(lamPerp) * q.Delta
		beta, aerr := e.bfAlpha(scaledDelta, tp, false)
		switch {
		case aerr == nil:
			alphaLower = beta / math.Sqrt(lamPerp)
		case errors.Is(aerr, stats.ErrNoSolution), errors.Is(aerr, ucatalog.ErrNoEntry):
			// No hole / no table entry: no direct acceptance.
		default:
			return 0, 0, false, aerr
		}
	}
	return alphaUpper, alphaLower, false, nil
}

// bfAlpha returns the offset β at which a sphere of the given radius captures
// mass tp of the normalized Gaussian, exactly or via the catalog with the
// paper's conservative fallback (Eq. 32 for the upper radius, Eq. 33 for the
// lower).
func (e *Engine) bfAlpha(delta, tp float64, upper bool) (float64, error) {
	if !e.opts.UseCatalogs {
		nc, err := stats.NoncentralityForCDF(float64(e.idx.Dim()), delta*delta, tp)
		if err != nil {
			return 0, err
		}
		return math.Sqrt(nc), nil
	}
	if upper {
		return e.opts.BFCatalog.LookupUpper(delta, tp)
	}
	return e.opts.BFCatalog.LookupLower(delta, tp)
}

// stopped reports, without blocking, whether done — a context's Done channel,
// hoisted out of the candidate loop by the caller — has been closed. It is
// the per-candidate cancellation poll: a receive on a closed (or nil, for a
// context that can never be cancelled) channel takes no lock, where
// ctx.Err() on a cancelCtx locks and unlocks the context's mutex every call.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

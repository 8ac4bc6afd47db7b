// Package gaussrange implements probabilistic spatial range queries for
// Gaussian-based imprecise query objects, reproducing Ishikawa, Iijima & Yu,
// "Spatial Range Querying for Gaussian-Based Imprecise Query Objects"
// (ICDE 2009).
//
// A database holds exact d-dimensional points in an R-tree. A query object
// has an uncertain location modeled as a Gaussian N(q, Σ); the query
// PRQ(q, Σ, δ, θ) returns every point whose probability of lying within
// distance δ of the query object is at least θ:
//
//	db, _ := gaussrange.Load(points)
//	res, _ := db.Query(gaussrange.QuerySpec{
//	    Center: []float64{500, 500},
//	    Cov:    [][]float64{{70, 34.6}, {34.6, 30}},
//	    Delta:  25,
//	    Theta:  0.01,
//	})
//
// Query processing runs the paper's three-phase pipeline: R-tree search
// over a conservative rectangle, candidate filtering by the RR / OR / BF
// strategies (configurable; default ALL), and qualification decided by an
// exact Ruben-series evaluator with a certified error bound (this library's
// extension; the paper estimates the probability by Monte Carlo sampling).
package gaussrange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange/internal/core"
	"gaussrange/internal/gauss"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// DB is a queryable collection of exact points. All methods are safe for
// concurrent use, and reads never block behind writes: every query pins an
// immutable epoch snapshot with a single atomic load, while Insert, Delete
// and Apply build the next epoch behind a writer mutex and publish it
// atomically. A query's whole answer is therefore consistent with exactly
// one published epoch (reported in Result.Epoch), even while mutations land
// mid-flight.
type DB struct {
	idx     *core.Index
	dim     int
	options options

	// writeMu serializes the mutation path's epoch transitions. With a wal
	// attached the group-commit flusher is the only writer that takes it per
	// group, so the log's record order always equals the epoch order.
	writeMu sync.Mutex
	wal     atomic.Pointer[walPipeline]

	// plans caches compiled query plans by query shape; compileEng is the
	// long-lived engine that compiles them (lazily built, guarded by
	// compileMu — execution always supplies its own evaluator).
	plans      *planCache
	compileMu  sync.Mutex
	compileEng *core.Engine
}

type options struct {
	pageSize      int
	seed          uint64
	planCacheSize int
}

// Option configures Open and Load.
type Option func(*options) error

// WithPageSize sets the simulated R-tree page size in bytes (default 1024,
// the paper's setting).
func WithPageSize(bytes int) Option {
	return func(o *options) error {
		if bytes < 128 {
			return fmt.Errorf("gaussrange: page size %d too small", bytes)
		}
		o.pageSize = bytes
		return nil
	}
}

// WithSeed fixes the random stream PNN samples query locations from.
func WithSeed(seed uint64) Option {
	return func(o *options) error { o.seed = seed; return nil }
}

// WithPlanCacheSize sets how many compiled query plans the database retains
// (default DefaultPlanCacheSize). Zero disables the cache, forcing every
// query to recompile its geometry.
func WithPlanCacheSize(n int) Option {
	return func(o *options) error {
		if n < 0 {
			return fmt.Errorf("gaussrange: negative plan cache size %d", n)
		}
		o.planCacheSize = n
		return nil
	}
}

func buildOptions(opts []Option) (options, error) {
	o := options{pageSize: rtree.DefaultPageSize, seed: 1, planCacheSize: DefaultPlanCacheSize}
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Open creates an empty database for dim-dimensional points.
func Open(dim int, opts ...Option) (*DB, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("gaussrange: invalid dimension %d", dim)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.NewDynamicIndex(dim, rtree.WithPageSize(o.pageSize))
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx, dim: dim, options: o, plans: newPlanCache(o.planCacheSize)}, nil
}

// Load bulk-loads points (all rows must share one dimensionality) using STR
// packing — the fastest way to build a static database.
func Load(points [][]float64, opts ...Option) (*DB, error) {
	if len(points) == 0 {
		return nil, errors.New("gaussrange: Load requires at least one point (use Open for an empty database)")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("gaussrange: zero-dimensional points")
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	vecs := make([]vecmat.Vector, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("gaussrange: point %d has dim %d, want %d", i, len(p), dim)
		}
		vecs[i] = p // NewIndex copies
	}
	idx, err := core.NewIndex(vecs, dim, rtree.WithPageSize(o.pageSize))
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx, dim: dim, options: o, plans: newPlanCache(o.planCacheSize)}, nil
}

// LoadWithIDs bulk-loads points under caller-assigned identifiers: points[i]
// is stored as id ids[i], and unused identifiers below the maximum become
// permanent holes. This is how a shard loads its slice of a globally
// partitioned data set while keeping the global ids, so sharded answers are
// id-identical to an unsharded Load of the full set. The ids must be unique
// and non-negative; they need not be sorted.
func LoadWithIDs(points [][]float64, ids []int64, opts ...Option) (*DB, error) {
	if len(points) == 0 {
		return nil, errors.New("gaussrange: LoadWithIDs requires at least one point (use Open for an empty database)")
	}
	if len(ids) != len(points) {
		return nil, fmt.Errorf("gaussrange: %d ids for %d points", len(ids), len(points))
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("gaussrange: zero-dimensional points")
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	var maxID int64 = -1
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("gaussrange: negative point id %d", id)
		}
		if id > maxID {
			maxID = id
		}
	}
	addressed := make([]vecmat.Vector, maxID+1)
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("gaussrange: point %d has dim %d, want %d", i, len(p), dim)
		}
		if addressed[ids[i]] != nil {
			return nil, fmt.Errorf("gaussrange: duplicate point id %d", ids[i])
		}
		addressed[ids[i]] = p // RestoreIndex copies
	}
	idx, err := core.RestoreIndex(addressed, 1, dim, rtree.WithPageSize(o.pageSize))
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx, dim: dim, options: o, plans: newPlanCache(o.planCacheSize)}, nil
}

// Insert adds one point, publishing a new epoch, and returns its identifier.
// Identifiers are assigned sequentially and never reused.
func (db *DB) Insert(p []float64) (int64, error) {
	ids, _, _, err := db.Apply([][]float64{p}, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Delete removes one point, publishing a new epoch, and reports whether the
// id was live. Deleting an unknown or already-deleted id is a no-op
// (false, nil), so retries and log replay stay idempotent.
func (db *DB) Delete(id int64) (bool, error) {
	_, deleted, _, err := db.Apply(nil, []int64{id})
	if err != nil {
		return false, err
	}
	return deleted[0], nil
}

// Apply atomically applies one mutation batch — deletes first, then inserts
// — and publishes the result as a single new epoch: concurrent queries see
// either all of the batch or none of it. It returns the identifiers assigned
// to the inserts (in order), a per-delete liveness report, and the published
// epoch (a no-op batch publishes nothing and returns the current epoch).
// When a wal is attached (AttachWAL), the batch rides the group-commit
// pipeline and Apply returns only after its group's fsync durability point.
func (db *DB) Apply(inserts [][]float64, deletes []int64) (ids []int64, deleted []bool, epoch uint64, err error) {
	if p := db.wal.Load(); p != nil {
		return p.apply(inserts, nil, deletes)
	}
	vecs := make([]vecmat.Vector, len(inserts))
	for i, p := range inserts {
		vecs[i] = vecmat.Vector(p)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.idx.Apply(vecs, deletes)
}

// ApplyWithIDs is Apply with caller-assigned insert identifiers, for when an
// external allocator — typically a shard router that owns a global id space —
// decides what each inserted point is called. insertIDs must be strictly
// increasing and at least MaxID; skipped identifiers become permanent holes.
// With a wal attached the batch rides the group-commit pipeline like Apply,
// and its record carries the ids, so replay reproduces the exact assignment.
func (db *DB) ApplyWithIDs(inserts [][]float64, insertIDs []int64, deletes []int64) (deleted []bool, epoch uint64, err error) {
	if p := db.wal.Load(); p != nil {
		if insertIDs != nil && len(insertIDs) != len(inserts) {
			return nil, 0, fmt.Errorf("core: %d insert ids for %d inserts", len(insertIDs), len(inserts))
		}
		if insertIDs == nil {
			insertIDs = []int64{}
		}
		_, deleted, epoch, err = p.apply(inserts, insertIDs, deletes)
		return deleted, epoch, err
	}
	vecs := make([]vecmat.Vector, len(inserts))
	for i, p := range inserts {
		vecs[i] = vecmat.Vector(p)
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.idx.ApplyWithIDs(vecs, insertIDs, deletes)
}

// MaxID returns the exclusive upper bound of identifiers ever assigned
// (deleted and skipped ids remain burned). An external id allocator seeds its
// counter from the maximum MaxID across shards.
func (db *DB) MaxID() int64 { return db.idx.Current().MaxID() }

// Epoch returns the current storage epoch: 1 after the initial load, +1 per
// published mutation batch.
func (db *DB) Epoch() uint64 { return db.idx.Epoch() }

// Len returns the number of stored points.
func (db *DB) Len() int { return db.idx.Len() }

// Dim returns the point dimensionality.
func (db *DB) Dim() int { return db.dim }

// Point returns a copy of the identified point's coordinates.
func (db *DB) Point(id int64) ([]float64, error) {
	p, err := db.idx.Point(id)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), p...), nil
}

// QuerySpec describes one probabilistic range query.
type QuerySpec struct {
	// Center is the mean q of the query object's Gaussian location.
	Center []float64
	// Cov is the d×d covariance Σ (symmetric positive definite).
	Cov [][]float64
	// Delta is the distance threshold δ > 0.
	Delta float64
	// Theta is the probability threshold, 0 < θ < 1.
	Theta float64
	// Strategy names the filter combination: "RR", "BF", "RR+BF", "RR+OR",
	// "BF+OR" or "ALL"; "AUTO" picks BF for near-spherical covariances and
	// ALL otherwise. Empty selects ALL.
	Strategy string
	// TargetCov, when non-nil, models the stored points as uncertain too:
	// each target's true location follows a Gaussian centered at its stored
	// coordinates with this (shared) covariance. Because the difference of
	// independent Gaussians is Gaussian, the query is answered exactly by
	// widening the query covariance to Cov + TargetCov. This implements the
	// paper's future-work extension to uncertain target objects for the
	// homoscedastic case (all targets share one error model, as with a
	// common sensor).
	TargetCov [][]float64
}

// Stats mirrors the engine's per-phase accounting.
type Stats struct {
	Retrieved    int           // Phase-1 candidates from the R-tree
	PrunedFringe int           // removed by the RR Minkowski fringe filter
	PrunedOR     int           // removed by a certified outer bound: the oblique-region box, or a reused plan's answer-region hull
	PrunedBF     int           // removed beyond the α∥ bound
	AcceptedBF   int           // accepted by a certified inner bound (no integration): the α⊥ sphere, or a reused plan's answer-region hull
	Integrations int           // candidates that needed probability computation
	NodesRead    int           // packed base nodes visited
	IndexTime    time.Duration // Phase 1
	FilterTime   time.Duration // Phase 2
	ProbTime     time.Duration // Phase 3
	// OverlayScanned is how many overlay inserts the query was merged
	// against, and F32Rechecks how many index entries straddled the float32
	// certificate bands and were rechecked in float64.
	OverlayScanned int
	F32Rechecks    int
	// TierMC, SamplesTouched and SampleFreeDecisions are filled by nothing:
	// they remain only for the bench ladder's core.sample_free_ratio, which
	// reads 1.0 on the one exact Phase-3 path, until that metric is retired.
	TierMC         int
	SamplesTouched int
}

// SampleFreeDecisions is always 0; see Stats.TierMC.
func (s Stats) SampleFreeDecisions() int { return 0 }

// Add accumulates other into s. Long-running services that track per-phase
// totals across many queries (the server's /statsz endpoint, load
// generators) sum per-query Stats with it.
func (s *Stats) Add(other Stats) {
	s.Retrieved += other.Retrieved
	s.PrunedFringe += other.PrunedFringe
	s.PrunedOR += other.PrunedOR
	s.PrunedBF += other.PrunedBF
	s.AcceptedBF += other.AcceptedBF
	s.Integrations += other.Integrations
	s.NodesRead += other.NodesRead
	s.OverlayScanned += other.OverlayScanned
	s.F32Rechecks += other.F32Rechecks
	s.IndexTime += other.IndexTime
	s.FilterTime += other.FilterTime
	s.ProbTime += other.ProbTime
}

// Result is a completed query.
type Result struct {
	// IDs are the qualifying point identifiers, ascending.
	IDs []int64
	// Epoch is the storage epoch the query pinned: the whole answer is
	// consistent with exactly this published snapshot.
	Epoch uint64
	// Stats reports where candidates were spent.
	Stats Stats
}

// Query runs PRQ(Center, Cov, Delta, Theta) and returns the qualifying
// point identifiers.
func (db *DB) Query(spec QuerySpec) (*Result, error) {
	return db.QueryCtx(context.Background(), spec)
}

// QueryCtx runs the query with cancellation and deadline support: a
// cancelled or expired ctx aborts Phase 3 between candidates and returns
// ctx.Err(). The query shape (Σ, δ, θ, strategy) is compiled into a plan at
// most once — repeated queries with the same shape, at any center, reuse the
// cached plan and skip the eigendecomposition and bounding-radius
// derivation entirely. The plan runs serially with the exact evaluator.
//
// Every answer is certified: a candidate's membership is decided by the
// Ruben series with a proven error bound, never estimated. A candidate whose
// series would need more than quadform.MaxTerms terms (δ²/λmin ≳ 4·10⁶ — say
// Σ = diag(1e-9, 1) at δ = 1, for a point near the mean) therefore fails the
// query with an error wrapping quadform.ErrNotConverged rather than being
// answered from a guess.
func (db *DB) QueryCtx(ctx context.Context, spec QuerySpec) (*Result, error) {
	plan, err := db.planFor(spec)
	if err != nil {
		return nil, err
	}
	res, err := plan.ExecuteEval(ctx, core.NewExactEvaluator())
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// QueryBatch runs many queries, spreading them over a pool of worker
// goroutines that claim the next spec in turn (work stealing over the spec
// list) and run it through QueryCtx. All workers share the plan cache, so
// batches of same-shape queries — the standing-query and load-test patterns —
// compile once. Results align with specs. The first error (or ctx
// cancellation) stops the batch promptly.
func (db *DB) QueryBatch(ctx context.Context, specs []QuerySpec, workers int) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]*Result, len(specs))
	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for execCtx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res, err := db.QueryCtx(execCtx, specs[i])
				if err != nil {
					fail(batchErr(i, err))
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

func batchErr(i int, err error) error {
	return fmt.Errorf("gaussrange: batch query %d: %w", i, err)
}

// PlanFingerprint returns the opaque fingerprint of the spec's compiled
// query shape — Σ (with TargetCov folded in), δ, θ and the normalized
// strategy, excluding the center. It is the key under which plans cache;
// the shard router keys its compiled-rectangle cache by it.
func (db *DB) PlanFingerprint(spec QuerySpec) (string, error) {
	return db.planFingerprint(spec)
}

func (db *DB) planFingerprint(spec QuerySpec) (string, error) {
	if len(spec.Center) != db.dim {
		return "", fmt.Errorf("gaussrange: center dim %d vs db dim %d", len(spec.Center), db.dim)
	}
	cov, err := db.specCov(spec)
	if err != nil {
		return "", err
	}
	stratName := spec.Strategy
	if stratName == "" {
		stratName = "ALL"
	}
	return planKey(cov, spec.Delta, spec.Theta, stratName), nil
}

// PlanCacheStats returns the cumulative plan-cache hit and miss counts —
// the hit rate shows how often queries skipped compilation.
func (db *DB) PlanCacheStats() (hits, misses uint64) {
	return db.plans.stats()
}

// QueryProb returns the exact qualification probability of one stored point
// for the given query parameters — useful for inspecting why a point did or
// did not qualify.
func (db *DB) QueryProb(spec QuerySpec, id int64) (float64, error) {
	q, _, err := db.compile(spec)
	if err != nil {
		return 0, err
	}
	p, err := db.idx.Point(id)
	if err != nil {
		return 0, err
	}
	return core.NewExactEvaluator().Qualification(q.Dist, p, q.Delta)
}

// RangeSearch is a conventional (certain) range query: ids of points within
// Euclidean distance radius of center, ascending. The whole answer comes
// from one pinned epoch snapshot.
func (db *DB) RangeSearch(center []float64, radius float64) ([]int64, error) {
	var ids []int64
	err := db.idx.Current().SearchSphere(vecmat.Vector(center), radius,
		func(id int64) bool {
			ids = append(ids, id)
			return true
		})
	if err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}

// specCov parses the query covariance, folding in TargetCov (homoscedastic
// uncertain targets) when present.
func (db *DB) specCov(spec QuerySpec) (*vecmat.Symmetric, error) {
	cov, err := vecmat.FromRows(spec.Cov)
	if err != nil {
		return nil, err
	}
	if spec.TargetCov != nil {
		tc, err := vecmat.FromRows(spec.TargetCov)
		if err != nil {
			return nil, fmt.Errorf("gaussrange: target covariance: %w", err)
		}
		cov, err = cov.Add(tc)
		if err != nil {
			return nil, fmt.Errorf("gaussrange: target covariance: %w", err)
		}
	}
	return cov, nil
}

// planFor returns the compiled plan for spec, consulting the plan cache.
// On a hit the cached plan is rebound to the spec's center in O(d); on a
// miss the full compilation (eigendecomposition, rθ, BF radii, regions)
// runs once and the result is cached for every later same-shape query.
func (db *DB) planFor(spec QuerySpec) (*core.Plan, error) {
	key, err := db.planFingerprint(spec)
	if err != nil {
		return nil, err
	}
	if cached, ok := db.plans.get(key); ok {
		dist, err := cached.Dist().WithMean(vecmat.Vector(spec.Center))
		if err != nil {
			return nil, err
		}
		return cached.Rebind(dist)
	}
	q, strat, err := db.compile(spec)
	if err != nil {
		return nil, err
	}
	eng, err := db.compileEngine()
	if err != nil {
		return nil, err
	}
	plan, err := eng.Compile(q, strat)
	if err != nil {
		return nil, err
	}
	db.plans.put(key, plan)
	return plan, nil
}

// PlanRegion compiles (or fetches from the plan cache) the spec's plan and
// returns its Phase-1 search rectangle as per-axis [lo, hi] bounds. Every
// answer point lies inside the rectangle, which makes it the routing key for
// scatter-gather serving: shards whose regions miss it cannot contribute.
// empty reports that compilation proved the whole answer empty (the bounds
// are then nil). The DB's points are never touched — an empty DB of the
// right dimensionality works as a pure planner.
func (db *DB) PlanRegion(spec QuerySpec) (lo, hi []float64, empty bool, err error) {
	plan, err := db.planFor(spec)
	if err != nil {
		return nil, nil, false, err
	}
	if plan.Empty() {
		return nil, nil, true, nil
	}
	r := plan.SearchRect()
	return r.Lo, r.Hi, false, nil
}

// compile converts the public spec to engine types, with no plan caching:
// planFor's compilation on a cache miss, and QueryProb's raw query.
func (db *DB) compile(spec QuerySpec) (core.Query, core.Strategy, error) {
	if len(spec.Center) != db.dim {
		return core.Query{}, 0, fmt.Errorf("gaussrange: center dim %d vs db dim %d", len(spec.Center), db.dim)
	}
	cov, err := db.specCov(spec)
	if err != nil {
		return core.Query{}, 0, err
	}
	g, err := gauss.New(vecmat.Vector(spec.Center), cov)
	if err != nil {
		return core.Query{}, 0, err
	}
	stratName := spec.Strategy
	if stratName == "" {
		stratName = "ALL"
	}
	var strat core.Strategy
	if strings.EqualFold(stratName, "AUTO") {
		strat = core.ChooseStrategy(g)
	} else {
		strat, err = core.ParseStrategy(stratName)
		if err != nil {
			return core.Query{}, 0, err
		}
	}
	return core.Query{Dist: g, Delta: spec.Delta, Theta: spec.Theta}, strat, nil
}

// compileEngine returns the DB's long-lived plan-compilation engine. Its
// exact evaluator is never used for execution — DB paths supply a fresh one
// per call, keeping cached plans shareable — but it tells a plan that the
// exact evaluator's answer-region hull speaks for its executions.
func (db *DB) compileEngine() (*core.Engine, error) {
	db.compileMu.Lock()
	defer db.compileMu.Unlock()
	if db.compileEng == nil {
		eng, err := core.NewEngine(db.idx, core.NewExactEvaluator(), core.Options{})
		if err != nil {
			return nil, err
		}
		db.compileEng = eng
	}
	return db.compileEng, nil
}

func convertResult(res *core.Result) *Result {
	return &Result{
		IDs:   res.IDs,
		Epoch: res.Stats.Epoch,
		Stats: Stats{
			Retrieved:      res.Stats.Retrieved,
			PrunedFringe:   res.Stats.PrunedFringe,
			PrunedOR:       res.Stats.PrunedOR,
			PrunedBF:       res.Stats.PrunedBF,
			AcceptedBF:     res.Stats.AcceptedBF,
			Integrations:   res.Stats.Integrations,
			NodesRead:      res.Stats.NodesRead,
			OverlayScanned: res.Stats.OverlayScanned,
			F32Rechecks:    res.Stats.F32Rechecks,
			IndexTime:      res.Stats.PhaseDurations[0],
			FilterTime:     res.Stats.PhaseDurations[1],
			ProbTime:       res.Stats.PhaseDurations[2],
		},
	}
}

// Neighbor is one k-nearest-neighbor result.
type Neighbor struct {
	ID       int64
	Distance float64
}

// NearestNeighbors returns the k points closest to center, nearest first.
func (db *DB) NearestNeighbors(center []float64, k int) ([]Neighbor, error) {
	nn, err := db.idx.NearestNeighbors(vecmat.Vector(center), k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(nn))
	for i, n := range nn {
		out[i] = Neighbor{ID: n.ID, Distance: math.Sqrt(n.Dist2)}
	}
	return out, nil
}

// PNNResult is one probabilistic nearest-neighbor answer.
type PNNResult struct {
	ID          int64
	Probability float64
}

// PNN returns every point whose probability of being the nearest neighbor
// of the imprecise query object N(center, cov) is at least theta, sorted by
// descending probability. The estimate uses `samples` Monte Carlo draws
// (10 000 resolves θ ≥ 0.01 reliably). This implements the probabilistic
// nearest neighbor query the paper lists as future work.
func (db *DB) PNN(center []float64, cov [][]float64, theta float64, samples int) ([]PNNResult, error) {
	covM, err := vecmat.FromRows(cov)
	if err != nil {
		return nil, err
	}
	g, err := gauss.New(vecmat.Vector(center), covM)
	if err != nil {
		return nil, err
	}
	engine, err := db.compileEngine()
	if err != nil {
		return nil, err
	}
	res, err := engine.PNN(g, theta, samples, db.options.seed)
	if err != nil {
		return nil, err
	}
	out := make([]PNNResult, len(res))
	for i, r := range res {
		out[i] = PNNResult{ID: r.ID, Probability: r.Probability}
	}
	return out, nil
}

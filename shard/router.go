package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

// Config configures a Router.
type Config struct {
	// Map is the shard map to route with. Required.
	Map *Map
	// Endpoints are the shard base URLs, aligned with shard ids. Required;
	// must have one entry per map shard.
	Endpoints []string
	// Fanout bounds the number of shard requests in flight per routed query
	// (0 = no bound beyond the fan-out set itself).
	Fanout int
	// AllowPartial makes partial answers the default policy when shards fail
	// (individual requests can also opt in via allow_partial). Default:
	// fail-closed — any failed shard fails the query.
	AllowPartial bool
	// ClientOptions configure every per-shard client (retries, backoff,
	// timeouts, 429 policy).
	ClientOptions []client.Option
	// Planner compiles query plans; an empty DB of the map's dimensionality
	// is created when nil. The planner's data is never read — only its plan
	// cache and compiled Phase-1 rectangles.
	Planner *gaussrange.DB
	// AnswerCacheSize bounds the router's LRU of fully-merged answers, keyed
	// on (plan fingerprint, center, routing epoch, observed shard-epoch
	// frontier); any response or routed mutation revealing a higher shard
	// epoch invalidates the whole cache. 0 disables caching.
	AnswerCacheSize int
}

// Router fans probabilistic range queries out to the shards whose routing
// region overlaps the query plan's Phase-1 search rectangle, merges the
// per-shard answers into one deterministic sorted id list, and routes
// mutations by shard-map lookup under a global id allocator. It is a
// server.Backend: serve it with server.New(server.Config{Backend: router}).
// Safe for concurrent use.
type Router struct {
	m            *Map
	multi        *client.Multi
	planner      *gaussrange.DB
	fanout       int
	allowPartial bool
	cache        *answerCache // nil when Config.AnswerCacheSize == 0

	// Global id allocation: nextID is seeded lazily from the shard map and
	// the shards' live max ids, then handed out under idMu. owner remembers
	// which shard each router-allocated id landed on, so deletes of fresh ids
	// go to one shard instead of a broadcast.
	idMu   sync.Mutex
	synced bool
	nextID int64
	owner  map[int64]int

	// Counters for /statsz's router section.
	queries      atomic.Uint64
	fanoutTotal  atomic.Uint64
	emptyRoutes  atomic.Uint64
	partials     atomic.Uint64
	shardErrors  atomic.Uint64
	inserts      atomic.Uint64
	deletes      atomic.Uint64
	dedupDropped atomic.Uint64
}

// NewRouter validates cfg and returns a Router.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("shard: Config.Map is required")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Endpoints) != len(cfg.Map.Shards) {
		return nil, fmt.Errorf("shard: %d endpoints for %d shards", len(cfg.Endpoints), len(cfg.Map.Shards))
	}
	multi, err := client.NewMulti(cfg.Endpoints, cfg.ClientOptions...)
	if err != nil {
		return nil, err
	}
	planner := cfg.Planner
	if planner == nil {
		planner, err = gaussrange.Open(cfg.Map.Dim)
		if err != nil {
			return nil, err
		}
	}
	if planner.Dim() != cfg.Map.Dim {
		return nil, fmt.Errorf("shard: planner dim %d vs map dim %d", planner.Dim(), cfg.Map.Dim)
	}
	return &Router{
		m:            cfg.Map,
		multi:        multi,
		planner:      planner,
		fanout:       cfg.Fanout,
		allowPartial: cfg.AllowPartial,
		cache:        newAnswerCache(cfg.AnswerCacheSize),
		nextID:       cfg.Map.NextID,
		owner:        make(map[int64]int),
	}, nil
}

// Map returns the routing map.
func (r *Router) Map() *Map { return r.m }

// Endpoints returns the shard base URLs, aligned with shard ids.
func (r *Router) Endpoints() []string { return r.multi.Endpoints() }

// Route compiles (or fetches from the plan cache) the request's plan and
// returns the fan-out set: the ids of shards whose routing region overlaps
// the plan's Phase-1 search rectangle. empty reports a query whose answer
// compilation proved empty (no shard needs to run).
func (r *Router) Route(req server.QueryRequest) (targets []int, empty bool, err error) {
	lo, hi, empty, err := r.planner.PlanRegion(req.Spec())
	if err != nil {
		return nil, false, err
	}
	if empty {
		return nil, true, nil
	}
	return r.m.Overlapping(lo, hi), false, nil
}

// ErrPartial marks a fail-closed routed query that lost ≥1 shard.
var ErrPartial = errors.New("shard: incomplete answer")

// badGateway marks err as a shard failure, which the server answers with 502.
func badGateway(err error) error {
	return &server.StatusError{Status: http.StatusBadGateway, Err: err}
}

// shardsFailed is the error of a query that lost shards: a 502, unless the
// first failure is a shard rejecting the query itself (its 400), which is
// the caller's fault and stays a 400.
func shardsFailed(first error, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	var ae *client.APIError
	if errors.As(first, &ae) && ae.Status == http.StatusBadRequest {
		return err
	}
	return badGateway(err)
}

// allShards returns every shard id.
func (r *Router) allShards() []int {
	all := make([]int, len(r.m.Shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// candidates returns the shards that may hold id: the one this router
// placed it on, else the map's initial id intervals that cover it (a filter,
// not a partition), else every shard — an id this router never saw, e.g.
// one allocated before a restart.
func (r *Router) candidates(id int64) []int {
	r.idMu.Lock()
	home, ok := r.owner[id]
	r.idMu.Unlock()
	if ok {
		return []int{home}
	}
	if id >= 0 && id < r.m.NextID {
		if c := r.m.DeleteCandidates(id); len(c) > 0 {
			return c
		}
	}
	return r.allShards()
}

// remainingMS converts a context deadline into a wire timeout_ms (0 when the
// context has none), so every shard inherits the router's remaining budget.
func remainingMS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Query routes one query: fan out to the overlapping shards, merge ids
// (sorted, de-duplicated — a candidate whose δ-ball straddles a tile cut may
// come back from two shards), aggregate stats, and report the routing
// decision. With neither the request's allow_partial nor the router's
// AllowPartial set, any failed shard fails the whole query with ErrPartial;
// otherwise the merged partial answer is returned with Routing.Partial set.
// The shards are asked for their ids as blocks; the merged answer is always
// in IDs, whatever req.IDsFormat asks for — the server applies the caller's
// format (QueryResponse.InFormat).
func (r *Router) Query(ctx context.Context, req server.QueryRequest) (server.QueryResponse, error) {
	r.queries.Add(1)
	var cacheKey string
	if r.cache != nil {
		if fp, err := r.planner.PlanFingerprint(req.Spec()); err == nil {
			cacheKey = cacheBaseKey(fp, req.Center, r.m.RoutingEpoch)
			if resp, ok := r.cache.get(cacheKey); ok {
				return resp, nil
			}
		}
	}
	targets, empty, err := r.Route(req)
	if err != nil {
		return server.QueryResponse{}, err
	}
	info := &server.RoutingInfo{
		RoutingEpoch: r.m.RoutingEpoch,
		Shards:       len(r.m.Shards),
		Fanout:       len(targets),
	}
	if empty || len(targets) == 0 {
		r.emptyRoutes.Add(1)
		return server.QueryResponse{IDs: []int64{}, Routing: info}, nil
	}
	r.fanoutTotal.Add(uint64(len(targets)))

	shardReq := req
	shardReq.AllowPartial = false
	shardReq.TimeoutMS = remainingMS(ctx)
	shardReq.IDsFormat = server.IDsFormatDV1
	resps := make([]server.QueryResponse, len(targets))
	errs := r.multi.Scatter(ctx, targets, r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		resp, err := c.QueryRaw(ctx, shardReq)
		if err != nil {
			return err
		}
		for i, t := range targets {
			if t == shard {
				resps[i] = resp
			}
		}
		return nil
	})

	var failed []int
	var firstErr error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, targets[i])
			if firstErr == nil {
				firstErr = err
			}
			r.shardErrors.Add(1)
		}
	}
	if len(failed) > 0 {
		sort.Ints(failed)
		if !req.AllowPartial && !r.allowPartial {
			return server.QueryResponse{}, shardsFailed(firstErr, "%w: shard(s) %v failed: %w", ErrPartial, failed, firstErr)
		}
		if len(failed) == len(targets) {
			// Nothing contributed — a partial answer needs at least one shard.
			return server.QueryResponse{}, shardsFailed(firstErr, "%w: all %d routed shards failed: %w", ErrPartial, len(failed), firstErr)
		}
		info.Partial = true
		info.FailedShards = failed
		r.partials.Add(1)
	}

	out := server.QueryResponse{IDs: []int64{}, Routing: info}
	for i, t := range targets {
		if errs[i] != nil {
			continue
		}
		resp := resps[i]
		out.IDs = append(out.IDs, resp.AnswerIDs()...)
		out.Stats.Add(resp.Stats)
		if resp.Epoch > out.Epoch {
			out.Epoch = resp.Epoch
		}
		info.ShardEpochs = append(info.ShardEpochs, server.ShardEpoch{Shard: t, Epoch: resp.Epoch})
	}
	sort.Slice(info.ShardEpochs, func(i, j int) bool { return info.ShardEpochs[i].Shard < info.ShardEpochs[j].Shard })
	before := len(out.IDs)
	out.IDs = mergeIDs(out.IDs)
	r.dedupDropped.Add(uint64(before - len(out.IDs)))
	if r.cache != nil && cacheKey != "" && !info.Partial {
		r.cache.put(cacheKey, out)
	}
	return out, nil
}

// mergeIDs sorts ids ascending and drops duplicates in place, so a routed
// answer is byte-for-byte identical to the single-node answer.
func mergeIDs(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// syncIDsLocked seeds the global allocator from the shards' live max ids the
// first time a mutation needs it. Called with idMu held.
func (r *Router) syncIDsLocked(ctx context.Context) error {
	if r.synced {
		return nil
	}
	agg, _, errs := r.health(ctx)
	for i, err := range errs {
		if err != nil {
			return badGateway(fmt.Errorf("shard: syncing ids: shard %d: %w", i, err))
		}
	}
	r.nextID = max(r.nextID, agg.MaxID)
	r.synced = true
	return nil
}

// Insert routes one insert batch: every point is assigned a fresh global id
// and sent to the shard whose region contains it (boundary ties go to the
// lowest shard id), as one explicit-id sub-batch per shard. Returns the
// global ids (aligned with points) and the maximum epoch the sub-batches
// published. The router owns the id space, so explicit ids are refused. A
// batch no shard can take (wrong dimension, outside every region) is
// refused before any shard is contacted. Inserts are fail-closed: if any
// shard fails, the error (a 502) reports which — sub-batches already
// applied on other shards stay applied (their ids are burned), so a retry
// inserts the points again under fresh ids only on the shards that missed
// them... callers that need exactly-once should retry with the failing
// points only.
func (r *Router) Insert(ctx context.Context, points [][]float64, explicit []int64) (ids []int64, epoch uint64, err error) {
	if len(points) == 0 {
		return nil, 0, errors.New("shard: empty insert batch")
	}
	if len(explicit) > 0 {
		return nil, 0, errors.New("shard: the router owns the id space; omit ids")
	}
	homes := make([]int, len(points))
	for i, p := range points {
		if len(p) != r.m.Dim {
			return nil, 0, fmt.Errorf("shard: insert %d has dim %d, want %d", i, len(p), r.m.Dim)
		}
		home := r.m.Locate(p)
		if home < 0 {
			return nil, 0, fmt.Errorf("shard: no shard region contains point %d (%v)", i, p)
		}
		homes[i] = home
	}

	r.idMu.Lock()
	if err := r.syncIDsLocked(ctx); err != nil {
		r.idMu.Unlock()
		return nil, 0, err
	}
	ids = make([]int64, len(points))
	for i := range points {
		ids[i] = r.nextID
		r.nextID++
	}
	r.idMu.Unlock()

	// Group into per-shard sub-batches; allocation order keeps each group's
	// ids strictly increasing, as ApplyWithIDs requires.
	groups := make(map[int]*Part)
	var targets []int
	for i, p := range points {
		g := groups[homes[i]]
		if g == nil {
			g = &Part{}
			groups[homes[i]] = g
			targets = append(targets, homes[i])
		}
		g.Points = append(g.Points, p)
		g.IDs = append(g.IDs, ids[i])
	}
	sort.Ints(targets)

	epochs := make([]uint64, len(targets))
	errs := r.multi.Scatter(ctx, targets, r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		g := groups[shard]
		ep, err := c.InsertPointsWithIDs(ctx, g.Points, g.IDs)
		if err != nil {
			return err
		}
		for i, t := range targets {
			if t == shard {
				epochs[i] = ep
			}
		}
		return nil
	})
	var failMsgs []string
	for i, err := range errs {
		if err != nil {
			r.shardErrors.Add(1)
			failMsgs = append(failMsgs, fmt.Sprintf("shard %d: %v", targets[i], err))
			continue
		}
		if epochs[i] > epoch {
			epoch = epochs[i]
		}
		// Remember who owns the successfully applied ids so deletes route
		// point-to-point instead of broadcasting.
		r.idMu.Lock()
		for _, id := range groups[targets[i]].IDs {
			r.owner[id] = targets[i]
		}
		r.idMu.Unlock()
	}
	if r.cache != nil {
		r.cache.observeEpoch(epoch)
	}
	if len(failMsgs) > 0 {
		return ids, epoch, badGateway(fmt.Errorf("shard: insert incomplete: %s", strings.Join(failMsgs, "; ")))
	}
	r.inserts.Add(uint64(len(points)))
	return ids, epoch, nil
}

// Delete routes one delete to the shards that may hold id (candidates).
// Deletes are idempotent on every shard, so the merged result is the OR of
// the per-shard outcomes; any shard error fails the call (retry is safe).
func (r *Router) Delete(ctx context.Context, id int64) (deleted bool, epoch uint64, err error) {
	targets := r.candidates(id)

	dels := make([]bool, len(targets))
	epochs := make([]uint64, len(targets))
	errs := r.multi.Scatter(ctx, targets, r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		d, ep, err := c.DeletePoint(ctx, id)
		if err != nil {
			return err
		}
		for i, t := range targets {
			if t == shard {
				dels[i], epochs[i] = d, ep
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			r.shardErrors.Add(1)
			return false, 0, badGateway(fmt.Errorf("shard: delete %d on shard %d: %w", id, targets[i], err))
		}
		if dels[i] {
			deleted = true
		}
		if epochs[i] > epoch {
			epoch = epochs[i]
		}
	}
	if r.cache != nil {
		r.cache.observeEpoch(epoch)
	}
	if deleted {
		r.idMu.Lock()
		delete(r.owner, id)
		r.idMu.Unlock()
		r.deletes.Add(1)
	}
	return deleted, epoch, nil
}

// CountersSnapshot returns the router's counters, with its routing epoch
// and shard count; Stats adds the shards' health.
func (r *Router) CountersSnapshot() server.RouterStatsz {
	c := server.RouterStatsz{
		RoutingEpoch: r.m.RoutingEpoch,
		Shards:       len(r.m.Shards),
		Queries:      r.queries.Load(),
		FanoutTotal:  r.fanoutTotal.Load(),
		EmptyRoutes:  r.emptyRoutes.Load(),
		Partials:     r.partials.Load(),
		ShardErrors:  r.shardErrors.Load(),
		Inserts:      r.inserts.Load(),
		Deletes:      r.deletes.Load(),
		DedupDropped: r.dedupDropped.Load(),
	}
	if routed := c.Queries - c.EmptyRoutes; routed > 0 {
		c.MeanFanout = float64(c.FanoutTotal) / float64(routed)
	}
	if r.cache != nil {
		c.AnswerCacheHits, c.AnswerCacheMisses, c.AnswerCacheEntries = r.cache.stats()
	}
	return c
}

// Prob is refused with 404: /v1/prob is not routed.
func (r *Router) Prob(context.Context, server.ProbRequest) (float64, error) {
	return 0, &server.StatusError{Status: http.StatusNotFound,
		Err: errors.New("shard: the router does not serve /v1/prob; ask the shard that holds the point")}
}

// Points looks each id up on the shards that may hold it.
func (r *Router) Points(ctx context.Context, ids []int64) ([]server.Point, error) {
	out := make([]server.Point, len(ids))
	for i, id := range ids {
		var err error
		if out[i], err = r.point(ctx, id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// point asks the candidates for id in turn: 404 when none holds it, 502
// when one that might failed.
func (r *Router) point(ctx context.Context, id int64) (server.Point, error) {
	var lost error
	for _, s := range r.candidates(id) {
		coords, err := r.multi.At(s).Point(ctx, id)
		if err == nil {
			return server.Point{ID: id, Coords: coords}, nil
		}
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
			lost = err
		}
	}
	if lost != nil {
		return server.Point{}, badGateway(lost)
	}
	return server.Point{}, &server.StatusError{Status: http.StatusNotFound, Err: fmt.Errorf("core: point id %d is deleted", id)}
}

// Health aggregates the shards' /healthz.
func (r *Router) Health(ctx context.Context) server.Health {
	h, _, _ := r.health(ctx)
	return h
}

// health polls every shard's /healthz and returns the cluster's: points
// summed, epoch and max id the maximum over the reachable shards, status
// "degraded" when any is unreachable. per is each shard's own, errs why a
// shard is unreachable; both are in shard id order.
func (r *Router) health(ctx context.Context) (agg server.Health, per []server.Health, errs []error) {
	per = make([]server.Health, len(r.m.Shards))
	errs = r.multi.Scatter(ctx, r.allShards(), r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		per[shard] = h
		return nil
	})
	agg = server.Health{Status: "ok", Dim: r.m.Dim}
	for i, err := range errs {
		if err != nil {
			agg.Status = "degraded"
			per[i].Status = "unreachable"
			continue
		}
		agg.Points += per[i].Points
		agg.Epoch = max(agg.Epoch, per[i].Epoch)
		agg.MaxID = max(agg.MaxID, per[i].MaxID)
	}
	return agg, per, errs
}

// Stats is the router's part of /statsz: the cluster's points, dim and
// epoch from the shards' health, the planner's plan cache, and the router
// section.
func (r *Router) Stats(ctx context.Context) server.StatsSnapshot {
	rs := r.CountersSnapshot()
	rs.Health, rs.PerShard, _ = r.health(ctx)
	hits, misses := r.planner.PlanCacheStats()
	return server.StatsSnapshot{
		Points:    rs.Health.Points,
		Dim:       rs.Health.Dim,
		Epoch:     rs.Health.Epoch,
		PlanCache: server.PlanCacheStats{Hits: hits, Misses: misses},
		Router:    &rs,
	}
}

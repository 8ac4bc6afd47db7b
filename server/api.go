// Package server exposes a gaussrange.DB over HTTP/JSON: the network face
// of the library for deployments where one loaded dataset (and its warm plan
// cache) is shared by many clients.
//
// A Server serves a Backend: Config.DB, a local database, or Config.Backend,
// which is how a shard router (package shard) is served. The two share every
// endpoint, the admission limit, the latency histograms, the /statsz schema
// (a router's adds a "router" section) and one error→status map: an expired
// deadline is 504, a cancelled client 499, a *StatusError its own status
// (404 for an unknown point, 502 for a lost shard) and any other error 400.
//
// Endpoints:
//
//	POST   /v1/query        one PRQ(q, Σ, δ, θ); body QueryRequest, reply QueryResponse
//	POST   /v1/query/batch  many queries over the pooled batch executor
//	POST   /v1/prob         qualification probability of one stored point
//	GET    /v1/points       coordinates of stored points (?id=…&id=…)
//	POST   /v1/points       insert a batch of points as one atomic epoch
//	DELETE /v1/points/{id}  delete one point (idempotent)
//	GET    /healthz         liveness + dataset summary + storage epoch
//	GET    /statsz          plan-cache hit rates, per-phase candidate totals,
//	                        admission counters, request latency histograms
//	                        and, on a router, its routing counters
//
// A POST body is exactly one JSON value (at most 16 MiB); anything but
// whitespace after it is a 400. Replies are sent with Content-Length.
//
// A query's answer ids are a decimal JSON array ("ids"), never null in reply
// to a plain request. A query that sets ids_format "dv1" — the typed client
// always does — gets them instead as one IDBlock string ("ids_dv1"), with
// "ids" null; a server that predates the field answers in decimal, so a
// reader must take either (QueryResponse.AnswerIDs).
//
// Every query response carries the storage epoch its answer was computed
// against; mutation responses carry the epoch they published, so a client
// can await read-your-writes by comparing the two. A follower read replica
// (Config.ReadOnly + Config.Follower) refuses mutations with 403 and stamps
// replica_epoch on its query responses — the same comparison then gives
// read-your-writes against a leader write.
//
// The server admits at most Config.MaxInflight requests into query execution
// at once (a semaphore guards Phase-3 work, the dominant cost); requests
// beyond that limit are rejected immediately with 429 so overload sheds
// cheaply instead of queueing. Per-request deadlines (timeout_ms, or the
// server default) are mapped onto the query context, so an expired deadline
// aborts Phase 3 between candidates and returns 504. Handlers run queries
// synchronously, which makes http.Server.Shutdown a graceful drain: in-flight
// queries complete before the listener closes.
package server

import (
	"sort"
	"time"

	"gaussrange"
)

// QueryRequest is the wire form of gaussrange.QuerySpec plus an optional
// per-request deadline.
type QueryRequest struct {
	Center    []float64   `json:"center"`
	Cov       [][]float64 `json:"cov"`
	Delta     float64     `json:"delta"`
	Theta     float64     `json:"theta"`
	Strategy  string      `json:"strategy,omitempty"`
	TargetCov [][]float64 `json:"target_cov,omitempty"`
	// TimeoutMS bounds this query's execution in milliseconds; 0 defers to
	// the server's default timeout. Ignored for queries inside a batch
	// (BatchRequest carries the batch-wide deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// AllowPartial opts in to a partial answer from a shard router when some
	// shards fail (the response then sets Routing.Partial). Routers default
	// to fail-closed; a plain single-node server ignores the field.
	AllowPartial bool `json:"allow_partial,omitempty"`
	// IDsFormat asks for the answer in another form than the decimal "ids"
	// array. IDsFormatDV1 asks for one IDBlock (QueryResponse.IDsDV1). Any
	// other value gets decimal ids, as from a server that predates the field,
	// so a reader must accept either form (QueryResponse.AnswerIDs does).
	IDsFormat string `json:"ids_format,omitempty"`
}

// RequestFromSpec converts a QuerySpec to its wire form. It asks for
// decimal ids: IDsFormat is the caller's to set.
func RequestFromSpec(spec gaussrange.QuerySpec) QueryRequest {
	return QueryRequest{
		Center:    spec.Center,
		Cov:       spec.Cov,
		Delta:     spec.Delta,
		Theta:     spec.Theta,
		Strategy:  spec.Strategy,
		TargetCov: spec.TargetCov,
	}
}

// Spec converts the wire request back to a QuerySpec.
func (r QueryRequest) Spec() gaussrange.QuerySpec {
	return gaussrange.QuerySpec{
		Center:    r.Center,
		Cov:       r.Cov,
		Delta:     r.Delta,
		Theta:     r.Theta,
		Strategy:  r.Strategy,
		TargetCov: r.TargetCov,
	}
}

// QueryStats is the wire form of gaussrange.Stats (durations in nanoseconds).
type QueryStats struct {
	Retrieved    int   `json:"retrieved"`
	PrunedFringe int   `json:"pruned_fringe"`
	PrunedOR     int   `json:"pruned_or"`
	PrunedBF     int   `json:"pruned_bf"`
	AcceptedBF   int   `json:"accepted_bf"`
	Integrations int   `json:"integrations"`
	NodesRead    int   `json:"nodes_read"`
	IndexNS      int64 `json:"index_ns"`
	FilterNS     int64 `json:"filter_ns"`
	ProbNS       int64 `json:"prob_ns"`
	// Overlay inserts the query was merged against, and float32-certificate
	// straddles rechecked in float64.
	OverlayScanned int `json:"overlay_scanned,omitempty"`
	F32Rechecks    int `json:"f32_rechecks,omitempty"`
}

// Add accumulates another response's stats into s — the wire-level analogue
// of gaussrange.Stats.Add, used by the shard router to aggregate per-shard
// phase work into one merged response and by the server's query totals.
func (s *QueryStats) Add(o QueryStats) {
	s.Retrieved += o.Retrieved
	s.PrunedFringe += o.PrunedFringe
	s.PrunedOR += o.PrunedOR
	s.PrunedBF += o.PrunedBF
	s.AcceptedBF += o.AcceptedBF
	s.Integrations += o.Integrations
	s.NodesRead += o.NodesRead
	s.OverlayScanned += o.OverlayScanned
	s.F32Rechecks += o.F32Rechecks
	s.IndexNS += o.IndexNS
	s.FilterNS += o.FilterNS
	s.ProbNS += o.ProbNS
}

// StatsFromResult converts library stats to the wire form.
func StatsFromResult(st gaussrange.Stats) QueryStats {
	return QueryStats{
		Retrieved:      st.Retrieved,
		PrunedFringe:   st.PrunedFringe,
		PrunedOR:       st.PrunedOR,
		PrunedBF:       st.PrunedBF,
		AcceptedBF:     st.AcceptedBF,
		Integrations:   st.Integrations,
		NodesRead:      st.NodesRead,
		OverlayScanned: st.OverlayScanned,
		F32Rechecks:    st.F32Rechecks,
		IndexNS:        st.IndexTime.Nanoseconds(),
		FilterNS:       st.FilterTime.Nanoseconds(),
		ProbNS:         st.ProbTime.Nanoseconds(),
	}
}

// Stats converts the wire form back to library stats.
func (s QueryStats) Stats() gaussrange.Stats {
	return gaussrange.Stats{
		Retrieved:      s.Retrieved,
		PrunedFringe:   s.PrunedFringe,
		PrunedOR:       s.PrunedOR,
		PrunedBF:       s.PrunedBF,
		AcceptedBF:     s.AcceptedBF,
		Integrations:   s.Integrations,
		NodesRead:      s.NodesRead,
		OverlayScanned: s.OverlayScanned,
		F32Rechecks:    s.F32Rechecks,
		IndexTime:      time.Duration(s.IndexNS),
		FilterTime:     time.Duration(s.FilterNS),
		ProbTime:       time.Duration(s.ProbNS),
	}
}

// QueryResponse is one completed query. The answer is in exactly one of two
// fields. IDs is the decimal array, never null in reply to a plain request:
// an empty answer set serializes as [], so responses diff cleanly against
// other tools. A request with ids_format "dv1" is answered with "ids":null
// and the ids in IDsDV1, which is left out when the answer is empty. Epoch is
// the storage epoch the answer is consistent with (for a routed answer, the
// maximum epoch across the shards that contributed). Routing is present only
// on responses from a shard router.
type QueryResponse struct {
	IDs     []int64      `json:"ids"`
	IDsDV1  IDBlock      `json:"ids_dv1,omitempty"`
	Epoch   uint64       `json:"epoch"`
	Stats   QueryStats   `json:"stats"`
	Routing *RoutingInfo `json:"routing,omitempty"`
	// ReplicaEpoch is set only by follower read replicas: the storage epoch
	// the follower had replayed to when it answered. A client that wrote at
	// epoch E on the leader has read-your-writes on this follower once
	// ReplicaEpoch ≥ E (Epoch carries the same pinned value; the dedicated
	// field makes the replica provenance explicit on the wire).
	ReplicaEpoch uint64 `json:"replica_epoch,omitempty"`
}

// RoutingInfo reports how a shard router assembled a response: how far the
// Phase-1 rectangle pruned the fan-out, which shard epochs the merged answer
// saw, and — under allow_partial — which shards failed to contribute.
type RoutingInfo struct {
	// RoutingEpoch is the shard map version the router routed with.
	RoutingEpoch uint64 `json:"routing_epoch"`
	// Shards is the number of shards in the map; Fanout is how many the
	// Phase-1 rectangle actually overlapped (and were queried).
	Shards int `json:"shards"`
	Fanout int `json:"fanout"`
	// Partial marks an allow_partial answer missing ≥1 shard's contribution;
	// FailedShards lists the shard ids that failed (sorted).
	Partial      bool  `json:"partial,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
	// ShardEpochs reports each contributing shard's storage epoch, in shard
	// id order.
	ShardEpochs []ShardEpoch `json:"shard_epochs,omitempty"`
}

// ShardEpoch pairs a shard id with the storage epoch its answer came from.
type ShardEpoch struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

// AnswerIDs returns the answer whichever field carries it, and an empty,
// non-nil slice when neither does.
func (r *QueryResponse) AnswerIDs() []int64 {
	switch {
	case r.IDsDV1 != nil:
		return r.IDsDV1
	case r.IDs != nil:
		return r.IDs
	}
	return []int64{}
}

// InFormat returns r with its answer in the form a request's ids_format asks
// for: in IDsDV1 for IDsFormatDV1 (nil, as on the wire, when it is empty),
// in IDs for anything else.
func (r QueryResponse) InFormat(idsFormat string) QueryResponse {
	ids := r.AnswerIDs()
	r.IDs, r.IDsDV1 = nil, nil
	switch {
	case idsFormat != IDsFormatDV1:
		r.IDs = ids
	case len(ids) > 0:
		r.IDsDV1 = ids
	}
	return r
}

// Result converts the wire response back to a library result.
func (r QueryResponse) Result() *gaussrange.Result {
	return &gaussrange.Result{IDs: r.AnswerIDs(), Epoch: r.Epoch, Stats: r.Stats.Stats()}
}

// BatchRequest runs many queries under one admission slot and one deadline.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
	// TimeoutMS bounds the whole batch; 0 defers to the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchResponse aligns with BatchRequest.Queries.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// ProbRequest asks for the qualification probability of one stored point
// under the embedded query parameters.
type ProbRequest struct {
	QueryRequest
	ID int64 `json:"id"`
}

// ProbResponse is the exact qualification probability of the point.
type ProbResponse struct {
	ID          int64   `json:"id"`
	Probability float64 `json:"probability"`
}

// Point is one stored point with its identifier.
type Point struct {
	ID     int64     `json:"id"`
	Coords []float64 `json:"coords"`
}

// PointsResponse answers GET /v1/points.
type PointsResponse struct {
	Points []Point `json:"points"`
}

// InsertPointsRequest is the body of POST /v1/points: one or more points to
// insert as a single atomic batch (one published epoch). IDs, when present,
// assigns explicit identifiers (one per point, strictly increasing, ≥ the
// shard's max id) — the shard router uses this to keep the global id space
// consistent across shards; plain clients leave it empty for sequential
// assignment.
type InsertPointsRequest struct {
	Points [][]float64 `json:"points"`
	IDs    []int64     `json:"ids,omitempty"`
}

// InsertPointsResponse reports the identifiers assigned to the inserted
// points (aligned with the request) and the epoch the batch published.
type InsertPointsResponse struct {
	IDs   []int64 `json:"ids"`
	Epoch uint64  `json:"epoch"`
}

// DeletePointResponse answers DELETE /v1/points/{id}. Deleted is false when
// the id was unknown or already deleted (the request is still a 200: deletes
// are idempotent).
type DeletePointResponse struct {
	ID      int64  `json:"id"`
	Deleted bool   `json:"deleted"`
	Epoch   uint64 `json:"epoch"`
}

// Health answers GET /healthz. MaxID is the exclusive upper bound of point
// identifiers ever assigned — an id allocator (shard router) seeds its
// counter from the maximum across shards.
type Health struct {
	Status string `json:"status"`
	Points int    `json:"points"`
	Dim    int    `json:"dim"`
	Epoch  uint64 `json:"epoch"`
	MaxID  int64  `json:"max_id"`
	// ReadOnly marks a follower read replica (mutations are refused with 403).
	ReadOnly bool `json:"read_only,omitempty"`
	// ReplicaEpoch is the follower's replayed epoch (followers only).
	ReplicaEpoch uint64 `json:"replica_epoch,omitempty"`
	// ReplicaError is the follower's sticky replication error, if any: the
	// node still serves reads at ReplicaEpoch but is no longer advancing.
	ReplicaError string `json:"replica_error,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// PlanCacheStats reports the DB's compiled-plan cache counters.
type PlanCacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// AdmissionStats reports the admission controller's counters.
type AdmissionStats struct {
	MaxInflight int    `json:"max_inflight"`
	Inflight    int    `json:"inflight"`
	Admitted    uint64 `json:"admitted"`
	Rejected    uint64 `json:"rejected"`
}

// QueryTotals accumulates per-phase accounting over every successful query
// the server has answered — the paper's Tables I/II counters, live.
type QueryTotals struct {
	Queries      uint64 `json:"queries"`
	Answers      uint64 `json:"answers"`
	Retrieved    uint64 `json:"retrieved"`
	PrunedFringe uint64 `json:"pruned_fringe"`
	PrunedOR     uint64 `json:"pruned_or"`
	PrunedBF     uint64 `json:"pruned_bf"`
	AcceptedBF   uint64 `json:"accepted_bf"`
	Integrations uint64 `json:"integrations"`
	NodesRead    uint64 `json:"nodes_read"`
	// Overlay inserts merged against, and float32-certificate rechecks,
	// across all queries.
	OverlayScanned uint64 `json:"overlay_scanned"`
	F32Rechecks    uint64 `json:"f32_rechecks"`
	IndexNS        int64  `json:"index_ns"`
	FilterNS       int64  `json:"filter_ns"`
	ProbNS         int64  `json:"prob_ns"`
}

// Histogram is a fixed-bucket latency histogram. Counts has one entry per
// upper bound in BoundsMS plus a final overflow bucket.
type Histogram struct {
	BoundsMS []float64 `json:"bounds_ms"`
	Counts   []uint64  `json:"counts"`
	Count    uint64    `json:"count"`
	TotalNS  int64     `json:"total_ns"`
	MaxNS    int64     `json:"max_ns"`
}

// MeanMS returns the mean observed latency in milliseconds (0 when empty).
func (h Histogram) MeanMS() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.TotalNS) / float64(h.Count) / 1e6
}

// Quantile estimates the q-quantile latency in milliseconds by linear
// interpolation within the containing bucket (an upper-bound estimate for
// the overflow bucket, capped at the observed maximum).
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	lower := 0.0
	for i, c := range h.Counts {
		upper := float64(h.MaxNS) / 1e6
		if i < len(h.BoundsMS) {
			upper = h.BoundsMS[i]
		}
		if cum+float64(c) >= rank && c > 0 {
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			v := lower + frac*(upper-lower)
			if max := float64(h.MaxNS) / 1e6; v > max {
				v = max
			}
			return v
		}
		cum += float64(c)
		lower = upper
	}
	return float64(h.MaxNS) / 1e6
}

// EndpointStats aggregates one endpoint's request accounting.
type EndpointStats struct {
	Requests uint64    `json:"requests"`
	Errors   uint64    `json:"errors"`   // non-2xx excluding 429
	Rejected uint64    `json:"rejected"` // 429 from admission control
	Latency  Histogram `json:"latency"`
}

// WALStatsz reports the attached group-commit write pipeline's counters
// (leaders with -wal only).
type WALStatsz struct {
	Synchronous bool `json:"synchronous,omitempty"`
	// The group byte bound.
	CommitBytes int64 `json:"commit_bytes"`
	// Group-commit activity: flushed groups (≤ one fsync each), submissions
	// they carried, the largest group, and submissions not yet acknowledged.
	Groups      uint64 `json:"groups"`
	Submissions uint64 `json:"submissions"`
	MaxGroup    int    `json:"max_group"`
	Pending     int    `json:"pending"`
	// Why commit groups closed: the flusher had taken every queued
	// submission, the group hit the byte bound, or a drain on shutdown.
	WindowEmpty uint64 `json:"window_empty"`
	WindowBytes uint64 `json:"window_bytes"`
	WindowDrain uint64 `json:"window_drain"`
	// Mean per-submission latency split: time queued behind the running
	// flush vs. time inside the flush (stage+append+fsync+publish).
	QueueMeanUS float64 `json:"queue_mean_us"`
	FlushMeanUS float64 `json:"flush_mean_us"`
	// Segment store counters.
	Segments       int    `json:"segments"`
	SealedSegments int    `json:"sealed_segments"`
	Records        uint64 `json:"records"`
	AppendedBytes  int64  `json:"appended_bytes"`
	Fsyncs         uint64 `json:"fsyncs"`
	LastEpoch      uint64 `json:"last_epoch"`
}

// ReplicaStatsz reports a follower's replication counters (followers only).
type ReplicaStatsz struct {
	Epoch            uint64 `json:"epoch"`
	Applied          uint64 `json:"applied"`
	Skipped          uint64 `json:"skipped,omitempty"`
	SegmentsVerified int    `json:"segments_verified"`
	Polls            uint64 `json:"polls"`
	Error            string `json:"error,omitempty"`
}

// StatsSnapshot answers GET /statsz.
type StatsSnapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Points        int                      `json:"points"`
	Dim           int                      `json:"dim"`
	Epoch         uint64                   `json:"epoch"`
	PlanCache     PlanCacheStats           `json:"plan_cache"`
	Admission     AdmissionStats           `json:"admission"`
	Queries       QueryTotals              `json:"queries"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// WAL is present on leaders running the group-commit pipeline.
	WAL *WALStatsz `json:"wal,omitempty"`
	// Replica is present on follower read replicas.
	Replica *ReplicaStatsz `json:"replica,omitempty"`
	// Router is present on shard routers.
	Router *RouterStatsz `json:"router,omitempty"`
}

// RouterStatsz reports a shard router's routing state and its own counters
// (routers only). On a router, the snapshot's points, dim and epoch are the
// cluster's, from the shards' health, and its query totals count the merged
// answers the router served.
type RouterStatsz struct {
	RoutingEpoch uint64 `json:"routing_epoch"`
	Shards       int    `json:"shards"`
	// Health aggregates the shards' /healthz ("degraded" when any is
	// unreachable); PerShard is each shard's, in shard id order.
	Health   Health   `json:"health"`
	PerShard []Health `json:"per_shard"`
	// Routed queries, the shards they fanned out to in total and on average,
	// queries whose plan proved them empty or overlapped no shard, partial
	// answers, failed shard requests, routed mutations, and ids dropped as
	// duplicates when merging shard answers.
	Queries      uint64  `json:"queries"`
	FanoutTotal  uint64  `json:"fanout_total"`
	MeanFanout   float64 `json:"mean_fanout"`
	EmptyRoutes  uint64  `json:"empty_routes"`
	Partials     uint64  `json:"partials"`
	ShardErrors  uint64  `json:"shard_errors"`
	Inserts      uint64  `json:"inserts"`
	Deletes      uint64  `json:"deletes"`
	DedupDropped uint64  `json:"dedup_dropped"`
	// Answer-cache accounting; all zero when the cache is disabled.
	AnswerCacheHits    uint64 `json:"answer_cache_hits"`
	AnswerCacheMisses  uint64 `json:"answer_cache_misses"`
	AnswerCacheEntries int    `json:"answer_cache_entries"`
}

// EndpointNames returns the snapshot's endpoint keys, sorted.
func (s StatsSnapshot) EndpointNames() []string {
	names := make([]string, 0, len(s.Endpoints))
	for name := range s.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

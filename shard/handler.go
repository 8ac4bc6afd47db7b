package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gaussrange/client"
	"gaussrange/server"
)

// HandlerConfig configures the router's HTTP face.
type HandlerConfig struct {
	// Router is the configured query router. Required.
	Router *Router
	// DefaultTimeout bounds a routed query when the request carries no
	// timeout_ms. 0 means unbounded.
	DefaultTimeout time.Duration
	// MaxBatchSize caps /v1/query/batch (default 1024).
	MaxBatchSize int
}

// Handler serves a Router over HTTP with the same wire protocol as a plain
// prqserved shard, so existing clients and tools work unchanged — each query
// is answered in the ids_format it asked for, query responses additionally
// carry a routing report, /v1/shardmap exposes the map, and /statsz
// aggregates the shards' totals under the router's own counters.
type Handler struct {
	r       *Router
	cfg     HandlerConfig
	started time.Time
}

// NewHandler validates cfg and returns the router's HTTP face.
func NewHandler(cfg HandlerConfig) (*Handler, error) {
	if cfg.Router == nil {
		return nil, errors.New("shard: HandlerConfig.Router is required")
	}
	if cfg.MaxBatchSize <= 0 {
		cfg.MaxBatchSize = 1024
	}
	return &Handler{r: cfg.Router, cfg: cfg, started: time.Now()}, nil
}

// Mux returns the HTTP handler serving all router endpoints.
func (h *Handler) Mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", h.handleQuery)
	mux.HandleFunc("/v1/query/batch", h.handleBatch)
	mux.HandleFunc("/v1/points", h.handlePoints)
	mux.HandleFunc("/v1/points/", h.handlePointByID)
	mux.HandleFunc("/v1/shardmap", h.handleShardMap)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/statsz", h.handleStatsz)
	return mux
}

// statusForRouteErr maps a routed-query error to HTTP: a lost shard is an
// upstream failure (502), an expired deadline 504, a cancelled client 499,
// anything else a spec problem (400).
func statusForRouteErr(err error) int {
	var ae *client.APIError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.As(err, &ae) && ae.Status == http.StatusBadRequest:
		return http.StatusBadRequest
	case errors.Is(err, ErrPartial):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req server.QueryRequest
	if err := server.DecodeBody(w, r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := server.QueryContext(r.Context(), req.TimeoutMS, h.cfg.DefaultTimeout)
	defer cancel()
	resp, err := h.r.Query(ctx, req)
	if err != nil {
		server.WriteError(w, statusForRouteErr(err), "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp.InFormat(req.IDsFormat))
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req server.BatchRequest
	if err := server.DecodeBody(w, r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Queries) > h.cfg.MaxBatchSize {
		server.WriteError(w, http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(req.Queries), h.cfg.MaxBatchSize)
		return
	}
	ctx, cancel := server.QueryContext(r.Context(), req.TimeoutMS, h.cfg.DefaultTimeout)
	defer cancel()
	resp := server.BatchResponse{Results: make([]server.QueryResponse, len(req.Queries))}
	for i, q := range req.Queries {
		q.TimeoutMS = 0 // the batch-wide deadline governs
		res, err := h.r.Query(ctx, q)
		if err != nil {
			server.WriteError(w, statusForRouteErr(err), "query %d: %v", i, err)
			return
		}
		resp.Results[i] = res.InFormat(q.IDsFormat)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (h *Handler) handlePoints(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		h.handleInsert(w, r)
		return
	case http.MethodGet:
		// fall through to the lookup below
	default:
		server.WriteError(w, http.StatusMethodNotAllowed, "use GET with ?id=…&id=…, or POST to insert")
		return
	}
	raw := r.URL.Query()["id"]
	if len(raw) == 0 {
		server.WriteError(w, http.StatusBadRequest, "at least one ?id= parameter is required")
		return
	}
	resp := server.PointsResponse{Points: make([]server.Point, 0, len(raw))}
	for _, v := range raw {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "invalid id %q: %v", v, err)
			return
		}
		pt, status, err := h.lookupPoint(r.Context(), id)
		if err != nil {
			server.WriteError(w, status, "%v", err)
			return
		}
		resp.Points = append(resp.Points, pt)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// lookupPoint resolves one id across the shards that may hold it.
func (h *Handler) lookupPoint(ctx context.Context, id int64) (server.Point, int, error) {
	targets := h.r.pointCandidates(id)
	var (
		found    bool
		pt       server.Point
		hardErr  error
		hardCode int
	)
	for _, shard := range targets {
		coords, err := h.r.multi.At(shard).Point(ctx, id)
		if err == nil {
			pt, found = server.Point{ID: id, Coords: coords}, true
			break
		}
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			continue // this shard simply doesn't hold the id
		}
		hardErr, hardCode = err, http.StatusBadGateway
	}
	if found {
		return pt, http.StatusOK, nil
	}
	if hardErr != nil {
		return server.Point{}, hardCode, hardErr
	}
	return server.Point{}, http.StatusNotFound, fmt.Errorf("core: point id %d is deleted", id)
}

// pointCandidates mirrors Delete's routing precedence for read lookups.
func (r *Router) pointCandidates(id int64) []int {
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
	all := make([]int, len(r.m.Shards))
	for i := range all {
		all[i] = i
	}
	return all
}

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req server.InsertPointsRequest
	if err := server.DecodeBody(w, r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Points) == 0 {
		server.WriteError(w, http.StatusBadRequest, "points must not be empty")
		return
	}
	if len(req.IDs) > 0 {
		server.WriteError(w, http.StatusBadRequest, "the router owns the id space; omit ids")
		return
	}
	ids, epoch, err := h.r.Insert(r.Context(), req.Points)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.InsertPointsResponse{IDs: ids, Epoch: epoch})
}

func (h *Handler) handlePointByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		server.WriteError(w, http.StatusMethodNotAllowed, "use DELETE /v1/points/{id}")
		return
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/v1/points/"), 10, 64)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid point id in path: %v", err)
		return
	}
	deleted, epoch, err := h.r.Delete(r.Context(), id)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.DeletePointResponse{ID: id, Deleted: deleted, Epoch: epoch})
}

func (h *Handler) handleShardMap(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.r.Map())
}

// handleHealthz aggregates the shards' health: points and epoch sum/max over
// every reachable shard; status degrades to "degraded" when any shard is
// unreachable.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	agg, _, ok := h.r.aggregateHealth(r.Context())
	if !ok {
		agg.Status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, agg)
}

// aggregateHealth polls every shard's /healthz.
func (r *Router) aggregateHealth(ctx context.Context) (server.Health, []server.Health, bool) {
	all := make([]int, len(r.m.Shards))
	for i := range all {
		all[i] = i
	}
	per := make([]server.Health, len(all))
	errs := r.multi.Scatter(ctx, all, r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		per[shard] = h
		return nil
	})
	agg := server.Health{Status: "ok", Dim: r.m.Dim}
	ok := true
	for i, err := range errs {
		if err != nil {
			ok = false
			per[all[i]].Status = "unreachable"
			continue
		}
		agg.Points += per[all[i]].Points
		if per[all[i]].Epoch > agg.Epoch {
			agg.Epoch = per[all[i]].Epoch
		}
		if per[all[i]].MaxID > agg.MaxID {
			agg.MaxID = per[all[i]].MaxID
		}
	}
	return agg, per, ok
}

// RouterStats is the router's /statsz document: its own routing counters,
// the shard map summary, per-shard health, and the shards' query totals
// summed into one cluster-wide view.
type RouterStats struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	RoutingEpoch  uint64             `json:"routing_epoch"`
	Shards        int                `json:"shards"`
	Router        Counters           `json:"router"`
	Health        server.Health      `json:"health"`
	PerShard      []server.Health    `json:"per_shard"`
	Queries       server.QueryTotals `json:"queries"`
}

func (h *Handler) handleStatsz(w http.ResponseWriter, r *http.Request) {
	agg, per, ok := h.r.aggregateHealth(r.Context())
	if !ok {
		agg.Status = "degraded"
	}
	stats := RouterStats{
		UptimeSeconds: time.Since(h.started).Seconds(),
		RoutingEpoch:  h.r.m.RoutingEpoch,
		Shards:        len(h.r.m.Shards),
		Router:        h.r.CountersSnapshot(),
		Health:        agg,
		PerShard:      per,
	}
	all := make([]int, len(h.r.m.Shards))
	for i := range all {
		all[i] = i
	}
	totals := make([]server.QueryTotals, len(all))
	errs := h.r.multi.Scatter(r.Context(), all, h.r.fanout, func(ctx context.Context, shard int, c *client.Client) error {
		s, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		totals[shard] = s.Queries
		return nil
	})
	for i, err := range errs {
		if err == nil {
			stats.Queries.Add(totals[all[i]])
		}
	}
	server.WriteJSON(w, http.StatusOK, stats)
}

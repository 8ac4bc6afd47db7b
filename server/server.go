package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gaussrange"
	"gaussrange/replica"
)

const statusTooManyRequests = http.StatusTooManyRequests

// statusClientClosedRequest reports a request whose client went away before
// the query finished (nginx's conventional 499; the reply is rarely seen).
const statusClientClosedRequest = 499

// maxRequestBytes bounds a request body; batch requests are the largest
// legitimate payload (thousands of specs) and fit comfortably.
const maxRequestBytes = 16 << 20

// Config configures a Server.
type Config struct {
	// DB is the loaded dataset to serve. Required.
	DB *gaussrange.DB

	// MaxInflight bounds the number of requests concurrently executing
	// query work; requests beyond it receive 429 immediately.
	// Default: 2 × GOMAXPROCS.
	MaxInflight int

	// DefaultTimeout bounds query execution when the request carries no
	// timeout_ms of its own. 0 means unbounded.
	DefaultTimeout time.Duration

	// MaxBatchSize caps the number of queries in one batch request
	// (default 1024).
	MaxBatchSize int

	// BatchWorkers caps the worker-pool size a batch request may ask for
	// (default GOMAXPROCS).
	BatchWorkers int

	// ReadOnly refuses every mutation endpoint with 403 — the mode follower
	// read replicas serve in (writes must go to the leader).
	ReadOnly bool

	// Follower, when non-nil, marks this server a read replica fed by the
	// given log tailer: query responses carry replica_epoch, /healthz and
	// /statsz report replication state. Usually paired with ReadOnly.
	Follower *replica.Follower
}

// Server serves a gaussrange.DB over HTTP. Create one with New and mount
// Handler on an http.Server. Handlers execute queries synchronously, so
// http.Server.Shutdown drains in-flight queries before returning.
type Server struct {
	db    *gaussrange.DB
	cfg   Config
	adm   *admission
	met   *metrics
	start time.Time

	// preQuery, when non-nil, runs after admission with the query context —
	// a test seam for holding requests in flight deterministically.
	preQuery func(ctx context.Context)
}

// New validates cfg, applies defaults, and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatchSize <= 0 {
		cfg.MaxBatchSize = 1024
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		db:    cfg.DB,
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInflight),
		met:   newMetrics(),
		start: time.Now(),
	}
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/query/batch", s.handleBatch)
	mux.HandleFunc("/v1/prob", s.handleProb)
	mux.HandleFunc("/v1/points", s.handlePoints)
	mux.HandleFunc("/v1/points/", s.handlePointByID)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// Stats assembles the current /statsz snapshot.
func (s *Server) Stats() StatsSnapshot {
	hits, misses := s.db.PlanCacheStats()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	snap := StatsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Points:        s.db.Len(),
		Dim:           s.db.Dim(),
		Epoch:         s.db.Epoch(),
		PlanCache:     PlanCacheStats{Hits: hits, Misses: misses, HitRate: rate},
		Admission:     s.adm.snapshot(),
		Queries:       s.met.queryTotals(),
		Endpoints:     s.met.endpointSnapshots(),
	}
	if w, ok := s.db.WALStats(); ok {
		ws := &WALStatsz{
			Synchronous:    w.Synchronous,
			CommitWindowMS: float64(w.Batcher.MaxDelay) / 1e6,
			CommitBytes:    w.Batcher.MaxBytes,
			Groups:         w.Batcher.Groups,
			Submissions:    w.Batcher.Submissions,
			MaxGroup:       w.Batcher.MaxGroup,
			Pending:        w.Batcher.Pending,
			WindowTimer:    w.Batcher.WindowClosedBy.Timer,
			WindowBytes:    w.Batcher.WindowClosedBy.Bytes,
			WindowDrain:    w.Batcher.WindowClosedBy.Drain,
			Segments:       w.Store.Segments,
			SealedSegments: int(w.Store.SealedSegments),
			Records:        w.Store.Records,
			AppendedBytes:  int64(w.Store.AppendedBytes),
			Fsyncs:         w.Store.Fsyncs,
			LastEpoch:      w.Store.LastEpoch,
		}
		if n := w.Batcher.Submissions; n > 0 {
			ws.QueueMeanUS = float64(w.Batcher.QueueNanos) / float64(n) / 1e3
			ws.FlushMeanUS = float64(w.Batcher.FlushNanos) / float64(n) / 1e3
		}
		snap.WAL = ws
	}
	if s.cfg.Follower != nil {
		r := s.cfg.Follower.Stats()
		snap.Replica = &ReplicaStatsz{
			Epoch:            r.Epoch,
			Applied:          r.Applied,
			Skipped:          r.Skipped,
			SegmentsVerified: r.SegmentsVerified,
			Polls:            r.Polls,
			Error:            r.Err,
		}
	}
	return snap
}

// respond converts a query result to its wire form, with the ids in the
// form idsFormat asks for, stamping replica provenance when this server is a
// follower.
func (s *Server) respond(res *gaussrange.Result, idsFormat string) QueryResponse {
	r := ResponseFromResult(res).InFormat(idsFormat)
	if s.cfg.Follower != nil {
		r.ReplicaEpoch = res.Epoch
	}
	return r
}

// refuseReadOnly rejects a mutation on a read-only replica with 403.
func (s *Server) refuseReadOnly(w http.ResponseWriter, status *int) bool {
	if !s.cfg.ReadOnly {
		return false
	}
	*status = http.StatusForbidden
	WriteError(w, *status, "read-only replica: mutations must go to the leader")
	return true
}

// QueryContext derives the execution context for one request: the request's
// own timeout_ms when given, else deflt (the serving node's default), else
// unbounded — and then it is parent itself, with a cancel that does nothing,
// because a child context would only be cancelled with it. The parent is the
// HTTP request context, so a client disconnect cancels the query either way.
func QueryContext(parent context.Context, timeoutMS int64, deflt time.Duration) (context.Context, context.CancelFunc) {
	d := deflt
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// jsonContentType is the Content-Type every reply shares. Its len and cap
// are both 1, so a handler that adds to the header copies it rather than
// writing into it.
var jsonContentType = []string{"application/json"}

// WriteJSON replies with status and v as the JSON body — byte for byte what
// json.NewEncoder(w).Encode(v) would send — in one Write with an explicit
// Content-Length (see AppendJSON for what is encoded without reflection).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyBufs.Get().(*[]byte)
	b, err := AppendJSON((*bp)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = AppendJSON(b[:0], ErrorResponse{Error: "encoding response: " + err.Error()}) // a string always encodes
	}
	b = append(b, '\n')
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) // a failed write means the client is gone; nothing to report it to
	putBodyBuf(bp, b)
}

// WriteError replies with status and an ErrorResponse body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusForQueryErr maps a query error to an HTTP status: deadline → 504,
// client-cancelled → 499, anything else is a spec problem → 400.
func statusForQueryErr(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// DecodeBody reads the whole request body (at most 16 MiB) and decodes it
// into v with Unmarshal. The body must be exactly one JSON value: anything
// but whitespace after it is an error, not a second request to ignore.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, release, err := ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	defer release()
	if err == nil {
		err = Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// admit claims an execution slot or rejects with 429. The caller must
// release() on true.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.adm.tryAcquire() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	WriteError(w, statusTooManyRequests,
		"server overloaded: %d queries in flight (limit %d)", s.cfg.MaxInflight, s.cfg.MaxInflight)
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	const ep = "/v1/query"
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(ep, status, time.Since(t0)) }()

	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		WriteError(w, status, "use POST")
		return
	}
	var req QueryRequest
	if err := DecodeBody(w, r, &req); err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "%v", err)
		return
	}
	if !s.admit(w) {
		status = statusTooManyRequests
		return
	}
	defer s.adm.release()

	ctx, cancel := QueryContext(r.Context(), req.TimeoutMS, s.cfg.DefaultTimeout)
	defer cancel()
	if s.preQuery != nil {
		s.preQuery(ctx)
	}
	res, err := s.db.QueryCtx(ctx, req.Spec())
	if err != nil {
		status = statusForQueryErr(err)
		WriteError(w, status, "%v", err)
		return
	}
	s.met.addQuery(res.Stats, len(res.IDs))
	WriteJSON(w, status, s.respond(res, req.IDsFormat))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	const ep = "/v1/query/batch"
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(ep, status, time.Since(t0)) }()

	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		WriteError(w, status, "use POST")
		return
	}
	var req BatchRequest
	if err := DecodeBody(w, r, &req); err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "%v", err)
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchSize {
		status = http.StatusBadRequest
		WriteError(w, status, "batch of %d queries exceeds limit %d", len(req.Queries), s.cfg.MaxBatchSize)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.BatchWorkers {
		workers = s.cfg.BatchWorkers
	}
	if !s.admit(w) {
		status = statusTooManyRequests
		return
	}
	defer s.adm.release()

	ctx, cancel := QueryContext(r.Context(), req.TimeoutMS, s.cfg.DefaultTimeout)
	defer cancel()
	if s.preQuery != nil {
		s.preQuery(ctx)
	}
	specs := make([]gaussrange.QuerySpec, len(req.Queries))
	for i, q := range req.Queries {
		specs[i] = q.Spec()
	}
	results, err := s.db.QueryBatch(ctx, specs, workers)
	if err != nil {
		status = statusForQueryErr(err)
		WriteError(w, status, "%v", err)
		return
	}
	resp := BatchResponse{Results: make([]QueryResponse, len(results))}
	for i, res := range results {
		s.met.addQuery(res.Stats, len(res.IDs))
		resp.Results[i] = s.respond(res, req.Queries[i].IDsFormat)
	}
	WriteJSON(w, status, resp)
}

func (s *Server) handleProb(w http.ResponseWriter, r *http.Request) {
	const ep = "/v1/prob"
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(ep, status, time.Since(t0)) }()

	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		WriteError(w, status, "use POST")
		return
	}
	var req ProbRequest
	if err := DecodeBody(w, r, &req); err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "%v", err)
		return
	}
	if req.ID < 0 || req.ID >= int64(s.db.Len()) {
		status = http.StatusNotFound
		WriteError(w, status, "point id %d out of range [0, %d)", req.ID, s.db.Len())
		return
	}
	if !s.admit(w) {
		status = statusTooManyRequests
		return
	}
	defer s.adm.release()

	p, err := s.db.QueryProb(req.Spec(), req.ID)
	if err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "%v", err)
		return
	}
	WriteJSON(w, status, ProbResponse{ID: req.ID, Probability: p})
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	const ep = "/v1/points"
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(ep, status, time.Since(t0)) }()

	switch r.Method {
	case http.MethodGet:
		// fall through to the lookup below
	case http.MethodPost:
		s.handleInsert(w, r, &status)
		return
	default:
		status = http.StatusMethodNotAllowed
		WriteError(w, status, "use GET with ?id=…&id=…, or POST to insert")
		return
	}
	raw := r.URL.Query()["id"]
	if len(raw) == 0 {
		status = http.StatusBadRequest
		WriteError(w, status, "at least one ?id= parameter is required")
		return
	}
	resp := PointsResponse{Points: make([]Point, 0, len(raw))}
	for _, v := range raw {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			status = http.StatusBadRequest
			WriteError(w, status, "invalid id %q: %v", v, err)
			return
		}
		coords, err := s.db.Point(id)
		if err != nil {
			status = http.StatusNotFound
			WriteError(w, status, "%v", err)
			return
		}
		resp.Points = append(resp.Points, Point{ID: id, Coords: coords})
	}
	WriteJSON(w, status, resp)
}

// handleInsert serves POST /v1/points: one atomic insert batch publishing
// one epoch. Mutations go through admission like queries — an overlay
// rebuild can cost O(n), so overload sheds writes too.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, status *int) {
	if s.refuseReadOnly(w, status) {
		return
	}
	var req InsertPointsRequest
	if err := DecodeBody(w, r, &req); err != nil {
		*status = http.StatusBadRequest
		WriteError(w, *status, "%v", err)
		return
	}
	if len(req.Points) == 0 {
		*status = http.StatusBadRequest
		WriteError(w, *status, "points must not be empty")
		return
	}
	if !s.admit(w) {
		*status = statusTooManyRequests
		return
	}
	defer s.adm.release()

	var (
		ids   []int64
		epoch uint64
		err   error
	)
	if len(req.IDs) > 0 {
		// Explicit identifiers from an upstream allocator (shard router).
		_, epoch, err = s.db.ApplyWithIDs(req.Points, req.IDs, nil)
		ids = req.IDs
	} else {
		ids, _, epoch, err = s.db.Apply(req.Points, nil)
	}
	if err != nil {
		*status = http.StatusBadRequest
		WriteError(w, *status, "%v", err)
		return
	}
	WriteJSON(w, *status, InsertPointsResponse{IDs: ids, Epoch: epoch})
}

// handlePointByID serves DELETE /v1/points/{id}.
func (s *Server) handlePointByID(w http.ResponseWriter, r *http.Request) {
	const ep = "/v1/points/{id}"
	t0 := time.Now()
	status := http.StatusOK
	defer func() { s.met.observe(ep, status, time.Since(t0)) }()

	if r.Method != http.MethodDelete {
		status = http.StatusMethodNotAllowed
		WriteError(w, status, "use DELETE /v1/points/{id}")
		return
	}
	if s.refuseReadOnly(w, &status) {
		return
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/v1/points/"), 10, 64)
	if err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "invalid point id in path: %v", err)
		return
	}
	if !s.admit(w) {
		status = statusTooManyRequests
		return
	}
	defer s.adm.release()

	_, deleted, epoch, err := s.db.Apply(nil, []int64{id})
	if err != nil {
		status = http.StatusBadRequest
		WriteError(w, status, "%v", err)
		return
	}
	WriteJSON(w, status, DeletePointResponse{ID: id, Deleted: deleted[0], Epoch: epoch})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Points: s.db.Len(), Dim: s.db.Dim(), Epoch: s.db.Epoch(), MaxID: s.db.MaxID(), ReadOnly: s.cfg.ReadOnly}
	if s.cfg.Follower != nil {
		st := s.cfg.Follower.Stats()
		h.ReplicaEpoch = st.Epoch
		h.ReplicaError = st.Err
	}
	WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

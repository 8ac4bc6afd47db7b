package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// DB is a loaded dataset to serve. Exactly one of DB and Backend is set.
	DB *gaussrange.DB

	// Backend is what to serve instead of a DB — a shard router.
	Backend Backend

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

	// ReadOnly refuses every mutation endpoint with 403 — the mode follower
	// read replicas serve in (writes must go to the leader).
	ReadOnly bool

	// Follower, when non-nil, marks this server a read replica fed by the
	// given log tailer: query responses carry replica_epoch, /healthz and
	// /statsz report replication state. Usually paired with ReadOnly; needs
	// DB.
	Follower *replica.Follower
}

// Server serves a Backend over HTTP. Create one with New and mount Handler
// on an http.Server. Handlers execute queries synchronously, so
// http.Server.Shutdown drains in-flight queries before returning.
type Server struct {
	b     Backend
	cfg   Config
	adm   *admission
	met   *metrics
	start time.Time

	// preQuery, when non-nil, runs after admission with the query context —
	// a test seam for holding requests in flight deterministically.
	preQuery func(ctx context.Context)

	mu      sync.Mutex
	streams map[*stream]*http.Server // open query streams, by server
	down    map[*http.Server]bool    // servers hooked for Shutdown: has it begun
}

// New validates cfg, applies defaults, and returns a Server.
func New(cfg Config) (*Server, error) {
	b := cfg.Backend
	switch {
	case (cfg.DB == nil) == (b == nil):
		return nil, errors.New("server: set exactly one of Config.DB and Config.Backend")
	case cfg.DB != nil:
		b = dbBackend{db: cfg.DB, follower: cfg.Follower}
	case cfg.Follower != nil:
		return nil, errors.New("server: Config.Follower needs Config.DB")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatchSize <= 0 {
		cfg.MaxBatchSize = 1024
	}
	s := &Server{
		b:     b,
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
	mux.HandleFunc("/v1/query", s.endpoint("/v1/query", s.handleQuery))
	mux.HandleFunc(streamPath, s.handleStream)
	mux.HandleFunc("/v1/query/batch", s.endpoint("/v1/query/batch", s.handleBatch))
	mux.HandleFunc("/v1/prob", s.endpoint("/v1/prob", s.handleProb))
	mux.HandleFunc("/v1/points", s.endpoint("/v1/points", s.handlePoints))
	mux.HandleFunc("/v1/points/", s.endpoint("/v1/points/{id}", s.handlePointByID))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// endpoint wraps a handler that returns its reply's status, recording the
// status and latency of each request under name.
func (s *Server) endpoint(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		status := h(w, r)
		s.met.observe(name, status, time.Since(t0))
	}
}

// Stats assembles the current /statsz snapshot.
func (s *Server) Stats() StatsSnapshot { return s.stats(context.Background()) }

func (s *Server) stats(ctx context.Context) StatsSnapshot {
	snap := s.b.Stats(ctx)
	snap.UptimeSeconds = time.Since(s.start).Seconds()
	if pc := &snap.PlanCache; pc.Hits+pc.Misses > 0 {
		pc.HitRate = float64(pc.Hits) / float64(pc.Hits+pc.Misses)
	}
	snap.Admission = s.adm.snapshot()
	snap.Queries = s.met.queryTotals()
	snap.Endpoints = s.met.endpointSnapshots()
	return snap
}

// queryContext derives the execution context for one request: the request's
// own timeout_ms when given, else deflt (the serving node's default), else
// unbounded — and then it is parent itself, with a cancel that does nothing,
// because a child context would only be cancelled with it. The parent is the
// HTTP request context, so a client disconnect cancels the query either way.
func queryContext(parent context.Context, timeoutMS int64, deflt time.Duration) (context.Context, context.CancelFunc) {
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

// retryAfter is the Retry-After every 429 carries: one second. Shared like
// jsonContentType.
var retryAfter = []string{"1"}

// WriteJSON replies with status and v as the JSON body — byte for byte what
// json.NewEncoder(w).Encode(v) would send — in one Write with an explicit
// Content-Length (see AppendJSON for what is encoded without reflection).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	bp := bodyBufs.Get().(*[]byte)
	status, b := appendReply((*bp)[:0], status, v)
	writeReply(w, status, b)
	putBodyBuf(bp, b)
}

// appendReply appends the body WriteJSON sends for v to dst and returns it
// with its status: 500 and an error body when v does not encode.
func appendReply(dst []byte, status int, v any) (int, []byte) {
	b, err := AppendJSON(dst, v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = AppendJSON(dst, ErrorResponse{Error: "encoding response: " + err.Error()}) // a string always encodes
	}
	return status, append(b, '\n')
}

// appendError is appendReply of an ErrorResponse.
func appendError(dst []byte, status int, format string, args ...any) (int, []byte) {
	return appendReply(dst, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeReply sends a JSON body with status, in one Write with an explicit
// Content-Length.
func writeReply(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // a failed write means the client is gone; nothing to report it to
}

// WriteError replies with status and an ErrorResponse body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps a Backend error to its HTTP status: deadline → 504,
// client-cancelled → 499, a *StatusError → its own, anything else is a spec
// problem → 400.
func statusFor(err error) int {
	var se *StatusError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.As(err, &se):
		return se.Status
	default:
		return http.StatusBadRequest
	}
}

// fail replies with status and an ErrorResponse body, and returns status.
func fail(w http.ResponseWriter, status int, format string, args ...any) int {
	WriteError(w, status, format, args...)
	return status
}

// failErr replies with err under the status statusFor maps it to.
func failErr(w http.ResponseWriter, err error) int {
	return fail(w, statusFor(err), "%v", err)
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

// decode refuses any method but POST and decodes the body into v. A status
// other than 200 is the reply it wrote.
func decode(w http.ResponseWriter, r *http.Request, v any) int {
	if r.Method != http.MethodPost {
		return fail(w, http.StatusMethodNotAllowed, "use POST")
	}
	if err := DecodeBody(w, r, v); err != nil {
		return fail(w, http.StatusBadRequest, "%v", err)
	}
	return http.StatusOK
}

// admit claims an execution slot or rejects with 429. The caller must
// release() on true.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.adm.tryAcquire() {
		return true
	}
	status, b := s.overloaded(nil)
	w.Header()["Retry-After"] = retryAfter
	writeReply(w, status, b)
	return false
}

// overloaded appends the 429 reply to dst.
func (s *Server) overloaded(dst []byte) (int, []byte) {
	return appendError(dst, statusTooManyRequests,
		"server overloaded: %d queries in flight (limit %d)", s.cfg.MaxInflight, s.cfg.MaxInflight)
}

// queryCtx derives a query's execution context and runs the test hook on it.
func (s *Server) queryCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx, cancel := queryContext(parent, timeoutMS, s.cfg.DefaultTimeout)
	if s.preQuery != nil {
		s.preQuery(ctx)
	}
	return ctx, cancel
}

// refuseReadOnly rejects a mutation on a read-only replica with 403.
func refuseReadOnly(w http.ResponseWriter) int {
	return fail(w, http.StatusForbidden, "read-only replica: mutations must go to the leader")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return fail(w, http.StatusMethodNotAllowed, "use POST")
	}
	body, release, err := ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
	defer release()
	if err != nil {
		return fail(w, http.StatusBadRequest, "decoding request body: %v", err)
	}
	bp := bodyBufs.Get().(*[]byte)
	status, reply := s.query(r.Context(), body, (*bp)[:0])
	if status == statusTooManyRequests {
		w.Header()["Retry-After"] = retryAfter
	}
	writeReply(w, status, reply)
	putBodyBuf(bp, reply)
	return status
}

// query answers one /v1/query request body — decode, admission, the
// deadline, the backend, the answer's ids_format and the query totals — and
// appends the reply body to out, returning it with its status; the caller
// sends retryAfter with a 429. /v1/query and every query-stream frame run it,
// so the two paths answer alike.
func (s *Server) query(ctx context.Context, body, out []byte) (int, []byte) {
	var req QueryRequest
	if err := Unmarshal(body, &req); err != nil {
		return appendError(out, http.StatusBadRequest, "decoding request body: %v", err)
	}
	if !s.adm.tryAcquire() {
		return s.overloaded(out)
	}
	defer s.adm.release()

	ctx, cancel := s.queryCtx(ctx, req.TimeoutMS)
	defer cancel()
	resp, err := s.b.Query(ctx, req)
	if err != nil {
		return appendError(out, statusFor(err), "%v", err)
	}
	resp = resp.InFormat(req.IDsFormat)
	s.met.addQuery(resp.Stats, len(resp.AnswerIDs()))
	return appendReply(out, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if status := decode(w, r, &req); status != http.StatusOK {
		return status
	}
	if len(req.Queries) > s.cfg.MaxBatchSize {
		return fail(w, http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(req.Queries), s.cfg.MaxBatchSize)
	}
	if !s.admit(w) {
		return statusTooManyRequests
	}
	defer s.adm.release()

	ctx, cancel := s.queryCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	results, err := s.batch(ctx, req.Queries)
	if err != nil {
		return failErr(w, err)
	}
	for i := range results {
		results[i] = results[i].InFormat(req.Queries[i].IDsFormat)
		s.met.addQuery(results[i].Stats, len(results[i].AnswerIDs()))
	}
	WriteJSON(w, http.StatusOK, BatchResponse{Results: results})
	return http.StatusOK
}

// batch answers queries through the backend's Query, as /v1/query does, on
// up to GOMAXPROCS goroutines that claim the next query in turn, all under
// ctx: a query's own timeout_ms is ignored, and one claimed after ctx is
// done fails with ctx's error. No goroutine claims a query after a failure
// and those running finish, so every query below the first failing one has
// run, and the lowest-indexed failure fails the batch.
func (s *Server) batch(ctx context.Context, queries []QueryRequest) ([]QueryResponse, error) {
	out := make([]QueryResponse, len(queries))
	errs := make([]error, len(queries))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(queries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(queries) {
					return
				}
				q := queries[i]
				q.TimeoutMS = 0
				if errs[i] = ctx.Err(); errs[i] == nil {
					out[i], errs[i] = s.b.Query(ctx, q)
				}
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return out, nil
}

func (s *Server) handleProb(w http.ResponseWriter, r *http.Request) int {
	var req ProbRequest
	if status := decode(w, r, &req); status != http.StatusOK {
		return status
	}
	if !s.admit(w) {
		return statusTooManyRequests
	}
	defer s.adm.release()

	p, err := s.b.Prob(r.Context(), req)
	if err != nil {
		return failErr(w, err)
	}
	WriteJSON(w, http.StatusOK, ProbResponse{ID: req.ID, Probability: p})
	return http.StatusOK
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) int {
	switch r.Method {
	case http.MethodGet:
		// fall through to the lookup below
	case http.MethodPost:
		return s.handleInsert(w, r)
	default:
		return fail(w, http.StatusMethodNotAllowed, "use GET with ?id=…&id=…, or POST to insert")
	}
	raw := r.URL.Query()["id"]
	if len(raw) == 0 {
		return fail(w, http.StatusBadRequest, "at least one ?id= parameter is required")
	}
	ids := make([]int64, len(raw))
	for i, v := range raw {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fail(w, http.StatusBadRequest, "invalid id %q: %v", v, err)
		}
		ids[i] = id
	}
	points, err := s.b.Points(r.Context(), ids)
	if err != nil {
		return failErr(w, err)
	}
	WriteJSON(w, http.StatusOK, PointsResponse{Points: points})
	return http.StatusOK
}

// handleInsert serves POST /v1/points: one atomic insert batch publishing
// one epoch. Mutations go through admission like queries — an overlay
// rebuild can cost O(n), so overload sheds writes too.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) int {
	if s.cfg.ReadOnly {
		return refuseReadOnly(w)
	}
	var req InsertPointsRequest
	if status := decode(w, r, &req); status != http.StatusOK {
		return status
	}
	if len(req.Points) == 0 {
		return fail(w, http.StatusBadRequest, "points must not be empty")
	}
	if !s.admit(w) {
		return statusTooManyRequests
	}
	defer s.adm.release()

	ids, epoch, err := s.b.Insert(r.Context(), req.Points, req.IDs)
	if err != nil {
		return failErr(w, err)
	}
	WriteJSON(w, http.StatusOK, InsertPointsResponse{IDs: ids, Epoch: epoch})
	return http.StatusOK
}

// handlePointByID serves DELETE /v1/points/{id}.
func (s *Server) handlePointByID(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodDelete {
		return fail(w, http.StatusMethodNotAllowed, "use DELETE /v1/points/{id}")
	}
	if s.cfg.ReadOnly {
		return refuseReadOnly(w)
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/v1/points/"), 10, 64)
	if err != nil {
		return fail(w, http.StatusBadRequest, "invalid point id in path: %v", err)
	}
	if !s.admit(w) {
		return statusTooManyRequests
	}
	defer s.adm.release()

	deleted, epoch, err := s.b.Delete(r.Context(), id)
	if err != nil {
		return failErr(w, err)
	}
	WriteJSON(w, http.StatusOK, DeletePointResponse{ID: id, Deleted: deleted, Epoch: epoch})
	return http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.b.Health(r.Context())
	h.ReadOnly = s.cfg.ReadOnly
	WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.stats(r.Context()))
}

// Package client is a typed Go client for the prqserved HTTP API (see
// gaussrange/server). It speaks the same wire types as the server, retries
// read requests that failed on connection errors (reads are idempotent, so
// retries are safe), and propagates context deadlines end-to-end: a ctx
// deadline becomes the request's timeout_ms, so the server's query context
// expires when the caller's does.
//
// Mutations are NEVER retried on connection errors: a torn connection leaves
// the outcome unknown — the batch may have committed before the connection
// died — so a blind resend risks applying it twice (duplicate points under
// fresh ids). The connection error is surfaced instead; callers that need
// exactly-once semantics should read back (compare /healthz max_id or the
// inserted coordinates) before resending.
//
// The server's 429 admission rejection means the request was never executed,
// so retrying it is safe for every endpoint — mutations included;
// WithRetryOn429 opts into a bounded retry honoring the server's Retry-After
// hint, applied identically to query and mutation calls.
//
// Follower read replicas (prqserved -follow) answer queries with
// replica_epoch and refuse mutations with 403 (IsReadOnly). A client that
// wrote at epoch E on the leader has read-your-writes on a follower once the
// follower's epoch reaches E — WaitForEpoch blocks until it does.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"gaussrange"
	"gaussrange/server"
)

// Client talks to one prqserved instance. Safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	direct   *direct // the read path; nil when reads go through hc
	timeout  time.Duration
	retries  int
	backoff  time.Duration
	retry429 int
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (default: a client
// with a 30 s overall timeout). Every request then goes through it.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout sets the per-attempt timeout of the Client's own transport
// (default 30 s; 0 disables). A client given to WithHTTPClient keeps its own
// Timeout, whichever option comes first.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets how many times a request is retried after a connection
// error (default 2). HTTP-level errors (4xx/5xx) are never retried.
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithRetryBackoff sets the base delay between retries, doubled per attempt
// (default 50 ms).
func WithRetryBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// WithRetryOn429 opts into retrying requests the server rejected with 429
// (admission control), at most n times per request, waiting out the server's
// Retry-After hint (or the backoff schedule when absent) between attempts.
// A 429 means the request never entered execution, so the retry is safe for
// mutations too. Default 0: 429 is returned to the caller immediately.
func WithRetryOn429(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retry429 = n
		}
	}
}

// New returns a client for the server at baseURL (e.g. "http://127.0.0.1:8080").
// Unless WithHTTPClient substitutes one, the Client owns its connection pools,
// so it is meant to be long-lived: create one per server and reuse it. The
// connections of a Client that is dropped close when they have idled out.
//
// A Client that owns its transport sends reads — every method but the
// mutations — on connections it writes and reads on the caller's goroutine,
// when baseURL is plain http and http.DefaultTransport's Proxy names no proxy
// for it; those connections are dialled with its DialContext. Mutations, and
// every request otherwise, go through net/http.
func New(baseURL string, opts ...Option) *Client {
	own := &http.Client{}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      own,
		timeout: 30 * time.Second,
		retries: 2,
		backoff: 50 * time.Millisecond,
	}
	for _, fn := range opts {
		fn(c)
	}
	if c.hc == own {
		own.Timeout = c.timeout
		own.Transport = newTransport()
		if t, ok := own.Transport.(*http.Transport); ok {
			c.direct = newDirect(c.base, t)
		}
	}
	return c
}

// maxIdleConnsPerHost is how many idle connections a Client keeps to its one
// server. http.DefaultTransport keeps 2, so a caller running more than two
// requests at once — a shard router admits 2×GOMAXPROCS — would close and
// re-dial a connection for every request past the second.
const maxIdleConnsPerHost = 64

// newTransport returns the Client's own transport: the default's settings
// with the per-host idle limit raised. nil (the shared default) only if the
// program replaced http.DefaultTransport with another implementation.
func newTransport() http.RoundTripper {
	def, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return nil
	}
	t := def.Clone()
	t.MaxIdleConnsPerHost = maxIdleConnsPerHost
	return t
}

// APIError is a non-2xx reply from the server.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint (0 when absent) — how long
	// to back off before retrying a 429.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// IsOverloaded reports whether err is the server's 429 admission rejection —
// the signal to back off and retry later.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// IsReadOnly reports whether err is a follower replica's 403 mutation
// refusal — the signal to direct the write at the leader instead.
func IsReadOnly(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusForbidden
}

// IsDeadline reports whether err is the server's 504 for an expired query
// deadline (the client's own context error is reported directly, not as an
// APIError).
func IsDeadline(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusGatewayTimeout
}

// retryable reports whether err is a connection-level failure worth
// retrying: dial/read/write errors and torn connections. HTTP timeouts and
// context errors are not retried — the caller's deadline governs those.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// do runs one JSON round-trip with connection-error retries — for the read
// endpoints, where re-sending after a torn connection is safe.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, true)
}

// doMutate runs one JSON round-trip without connection-error retries: a torn
// connection leaves a mutation's outcome unknown, so the error is surfaced
// instead of re-applying the batch. 429 retries (opt-in) remain safe — the
// server rejects before executing.
func (c *Client) doMutate(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, false)
}

func (c *Client) doRetry(ctx context.Context, method, path string, in, out any, connRetry bool) error {
	var payload []byte
	if in != nil {
		var err error
		payload, err = server.AppendJSON(make([]byte, 0, 256), in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	connAttempts, overloads := 0, 0
	for {
		var err error
		if c.direct != nil && connRetry {
			err = c.direct.roundTrip(ctx, method, path, payload, out, c.timeout)
		} else {
			err = c.roundTripHTTP(ctx, method, path, payload, out)
		}
		if urlErr, ok := err.(*url.Error); ok { // no reply: a transport failure
			if retryable(urlErr.Err) && connRetry {
				connAttempts++
				if connAttempts > c.retries {
					return fmt.Errorf("client: giving up after %d attempts: %w", c.retries+1, err)
				}
				if err := sleepCtx(ctx, c.backoff<<(connAttempts-1)); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("client: %w", err)
		}
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests && overloads < c.retry429 {
			overloads++
			delay := ae.RetryAfter
			if delay <= 0 {
				delay = c.backoff << (overloads - 1)
			}
			if serr := sleepCtx(ctx, delay); serr != nil {
				return serr
			}
			continue
		}
		return err
	}
}

// roundTripHTTP is one attempt through the http.Client; a failure to get a
// reply is the *url.Error Client.Do returns.
func (c *Client) roundTripHTTP(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// maxResponseBytes bounds a response body.
const maxResponseBytes = 64 << 20

var errResponseTooLarge = fmt.Errorf("client: response body exceeds %d bytes", maxResponseBytes)

// decodeResponse consumes resp and decodes its body with decodeReply. A body
// over maxResponseBytes is an error, raised before reading when its length is
// declared.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.ContentLength > maxResponseBytes {
		return errResponseTooLarge
	}
	data, release, err := server.ReadBody(io.LimitReader(resp.Body, maxResponseBytes+1), resp.ContentLength)
	defer release() // decoding copies what it keeps out of data
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if len(data) > maxResponseBytes {
		return errResponseTooLarge
	}
	return decodeReply(resp.StatusCode, data, resp.Header.Get("Retry-After"), out)
}

// decodeReply decodes a reply body: under a non-2xx status an *APIError,
// under a 2xx one into out (when non-nil).
func decodeReply(status int, data []byte, retryAfter string, out any) error {
	if status/100 != 2 {
		var er server.ErrorResponse
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &APIError{
			Status:     status,
			Message:    msg,
			RetryAfter: parseRetryAfter(retryAfter),
		}
	}
	if out == nil {
		return nil
	}
	if err := server.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an HTTP date.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// timeoutMS derives the wire deadline from ctx: the remaining time to the
// ctx deadline in milliseconds (at least 1), or 0 when ctx has none.
func timeoutMS(ctx context.Context) int64 {
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

// Query runs one probabilistic range query on the server. A ctx deadline is
// propagated into the server-side query context. The ids are asked for as
// one block (ids_format "dv1"); a server that predates the block answers
// with the decimal array, which reads the same.
func (c *Client) Query(ctx context.Context, spec gaussrange.QuerySpec) (*gaussrange.Result, error) {
	req := server.RequestFromSpec(spec)
	req.TimeoutMS = timeoutMS(ctx)
	req.IDsFormat = server.IDsFormatDV1
	var resp server.QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", req, &resp); err != nil {
		return nil, err
	}
	return resp.Result(), nil
}

// QueryRaw runs one query at the wire level: the request is sent verbatim
// (the caller controls timeout_ms, allow_partial and ids_format) and the
// response is returned with every wire field intact — the ids in the form
// the server sent (QueryResponse.AnswerIDs reads either), epoch, stats and,
// when the server is a shard router, the routing report. Used by routers
// talking to shards and by tools that need the full response.
func (c *Client) QueryRaw(ctx context.Context, req server.QueryRequest) (server.QueryResponse, error) {
	var resp server.QueryResponse
	err := c.do(ctx, http.MethodPost, "/v1/query", req, &resp)
	return resp, err
}

// QueryBatch runs many queries in one request, under one admission slot and
// the ctx deadline. Results align with specs. Like Query, it asks for every
// answer as one id block.
func (c *Client) QueryBatch(ctx context.Context, specs []gaussrange.QuerySpec) ([]*gaussrange.Result, error) {
	req := server.BatchRequest{
		Queries:   make([]server.QueryRequest, len(specs)),
		TimeoutMS: timeoutMS(ctx),
	}
	for i, spec := range specs {
		req.Queries[i] = server.RequestFromSpec(spec)
		req.Queries[i].IDsFormat = server.IDsFormatDV1
	}
	var resp server.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query/batch", req, &resp); err != nil {
		return nil, err
	}
	out := make([]*gaussrange.Result, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = r.Result()
	}
	return out, nil
}

// QueryProb returns the qualification probability of one stored point under
// the given query parameters.
func (c *Client) QueryProb(ctx context.Context, spec gaussrange.QuerySpec, id int64) (float64, error) {
	req := server.ProbRequest{QueryRequest: server.RequestFromSpec(spec), ID: id}
	var resp server.ProbResponse
	if err := c.do(ctx, http.MethodPost, "/v1/prob", req, &resp); err != nil {
		return 0, err
	}
	return resp.Probability, nil
}

// Points fetches the coordinates of the identified points.
func (c *Client) Points(ctx context.Context, ids []int64) ([]server.Point, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteByte('&')
		}
		fmt.Fprintf(&sb, "id=%d", id)
	}
	var resp server.PointsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/points?"+sb.String(), nil, &resp); err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// Point fetches one stored point's coordinates.
func (c *Client) Point(ctx context.Context, id int64) ([]float64, error) {
	pts, err := c.Points(ctx, []int64{id})
	if err != nil {
		return nil, err
	}
	if len(pts) != 1 {
		return nil, fmt.Errorf("client: expected 1 point, got %d", len(pts))
	}
	return pts[0].Coords, nil
}

// InsertPoints inserts a batch of points as one atomic epoch and returns the
// identifiers assigned (aligned with points) plus the published epoch.
// Connection errors are not retried (the batch may or may not have applied);
// 429 rejections are retried under WithRetryOn429, which is safe.
func (c *Client) InsertPoints(ctx context.Context, points [][]float64) (ids []int64, epoch uint64, err error) {
	var resp server.InsertPointsResponse
	if err := c.doMutate(ctx, http.MethodPost, "/v1/points", server.InsertPointsRequest{Points: points}, &resp); err != nil {
		return nil, 0, err
	}
	return resp.IDs, resp.Epoch, nil
}

// InsertPointsWithIDs inserts a batch under caller-assigned identifiers (one
// per point, strictly increasing, at least the server's max id) as one atomic
// epoch. Like InsertPoints, connection errors are not retried.
func (c *Client) InsertPointsWithIDs(ctx context.Context, points [][]float64, ids []int64) (epoch uint64, err error) {
	if len(ids) != len(points) {
		return 0, fmt.Errorf("client: %d ids for %d points", len(ids), len(points))
	}
	var resp server.InsertPointsResponse
	if err := c.doMutate(ctx, http.MethodPost, "/v1/points", server.InsertPointsRequest{Points: points, IDs: ids}, &resp); err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// InsertPoint inserts one point and returns its identifier and the epoch the
// insert published.
func (c *Client) InsertPoint(ctx context.Context, p []float64) (id int64, epoch uint64, err error) {
	ids, epoch, err := c.InsertPoints(ctx, [][]float64{p})
	if err != nil {
		return 0, 0, err
	}
	return ids[0], epoch, nil
}

// DeletePoint deletes one point, reporting whether the id was live and the
// epoch the delete published (unchanged when the id was already gone —
// deletes are idempotent and never 404).
func (c *Client) DeletePoint(ctx context.Context, id int64) (deleted bool, epoch uint64, err error) {
	var resp server.DeletePointResponse
	if err := c.doMutate(ctx, http.MethodDelete, "/v1/points/"+strconv.FormatInt(id, 10), nil, &resp); err != nil {
		return false, 0, err
	}
	return resp.Deleted, resp.Epoch, nil
}

// WaitForEpoch polls /healthz until the server's storage epoch reaches
// epoch, returning the first epoch observed at or past it. On a follower the
// health epoch is the replay epoch, so WaitForEpoch(ctx, E) after a leader
// write that published epoch E is the read-your-writes barrier: once it
// returns, every query on this server answers at ≥ E. interval ≤ 0 polls
// every 10ms; the ctx deadline bounds the wait. A follower that reports a
// sticky replication error fails the wait immediately — its epoch will never
// advance.
func (c *Client) WaitForEpoch(ctx context.Context, epoch uint64, interval time.Duration) (uint64, error) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	for {
		h, err := c.Health(ctx)
		if err != nil {
			return 0, err
		}
		if h.Epoch >= epoch {
			return h.Epoch, nil
		}
		if h.ReplicaError != "" {
			return h.Epoch, fmt.Errorf("client: replica stalled at epoch %d with error: %s", h.Epoch, h.ReplicaError)
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return h.Epoch, err
		}
	}
}

// Health checks liveness and returns the dataset summary.
func (c *Client) Health(ctx context.Context) (server.Health, error) {
	var h server.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Stats fetches the server's /statsz snapshot.
func (c *Client) Stats(ctx context.Context) (server.StatsSnapshot, error) {
	var s server.StatsSnapshot
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &s)
	return s, err
}

package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/server"
)

// withoutStream serves h as a server that predates the query stream: its
// endpoint is unknown there (404), so queries go per request.
func withoutStream(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == streamPath {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// perRequest puts cl on the per-request exchange from its first query, as a
// refused stream leaves it: a test that counts the exchange's connections
// then does not count the one the refusal closes.
func perRequest(cl *Client) *Client {
	cl.direct.noStream.Store(true)
	return cl
}

func okHandler(t *testing.T, check func(req server.QueryRequest)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding request: %v", err)
		}
		if check != nil {
			check(req)
		}
		json.NewEncoder(w).Encode(server.QueryResponse{IDs: []int64{1, 2}})
	}
}

func testQuerySpec() gaussrange.QuerySpec {
	return gaussrange.QuerySpec{
		Center: []float64{1, 2},
		Cov:    [][]float64{{1, 0}, {0, 1}},
		Delta:  1,
		Theta:  0.5,
	}
}

// flakyTransport fails the first `failures` round trips with a connection
// error, then delegates to the real transport.
type flakyTransport struct {
	failures int32
	err      error
	inner    http.RoundTripper
	calls    atomic.Int32
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.calls.Add(1) <= f.failures {
		return nil, f.err
	}
	return f.inner.RoundTrip(r)
}

// TestRetriesConnectionErrors proves a request that fails twice with a
// connection error succeeds on the third attempt.
func TestRetriesConnectionErrors(t *testing.T) {
	ts := httptest.NewServer(withoutStream(okHandler(t, nil)))
	defer ts.Close()

	ft := &flakyTransport{
		failures: 2,
		err:      &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED},
		inner:    http.DefaultTransport,
	}
	cl := New(ts.URL,
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetries(2),
		WithRetryBackoff(time.Millisecond))
	res, err := cl.Query(context.Background(), testQuerySpec())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Errorf("round trips = %d, want 3", got)
	}
	if len(res.IDs) != 2 {
		t.Errorf("IDs = %v", res.IDs)
	}
}

// TestRetriesExhausted proves the client gives up after retries+1 attempts
// and surfaces the connection error.
func TestRetriesExhausted(t *testing.T) {
	ft := &flakyTransport{
		failures: 100,
		err:      &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET},
		inner:    http.DefaultTransport,
	}
	cl := New("http://127.0.0.1:0",
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetries(2),
		WithRetryBackoff(time.Millisecond))
	if _, err := cl.Query(context.Background(), testQuerySpec()); err == nil {
		t.Fatal("expected an error after exhausting retries")
	}
	if got := ft.calls.Load(); got != 3 {
		t.Errorf("round trips = %d, want 3 (retries exhausted)", got)
	}
}

// TestNoRetryOnHTTPError proves HTTP-level failures (here 429) are returned
// as APIError without any retry.
func TestNoRetryOnHTTPError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "server overloaded"})
	})))
	defer ts.Close()

	cl := New(ts.URL, WithRetries(3), WithRetryBackoff(time.Millisecond))
	_, err := cl.Query(context.Background(), testQuerySpec())
	if !IsOverloaded(err) {
		t.Fatalf("expected overload APIError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want exactly 1 (no retries on HTTP errors)", calls.Load())
	}
	var ae *APIError
	if ok := asAPIError(err, &ae); !ok || ae.Status != http.StatusTooManyRequests || ae.Message != "server overloaded" {
		t.Errorf("APIError = %+v", ae)
	}
}

func asAPIError(err error, target **APIError) bool {
	ae, ok := err.(*APIError)
	if !ok {
		return false
	}
	*target = ae
	return true
}

// TestDeadlinePropagation proves a ctx deadline becomes the request's
// timeout_ms, so the server-side query context expires with the caller's.
func TestDeadlinePropagation(t *testing.T) {
	var gotTimeout atomic.Int64
	ts := httptest.NewServer(withoutStream(okHandler(t, func(req server.QueryRequest) {
		gotTimeout.Store(req.TimeoutMS)
	})))
	defer ts.Close()

	cl := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Query(ctx, testQuerySpec()); err != nil {
		t.Fatalf("Query: %v", err)
	}
	ms := gotTimeout.Load()
	if ms <= 0 || ms > 5000 {
		t.Errorf("timeout_ms = %d, want within (0, 5000]", ms)
	}

	gotTimeout.Store(-1)
	if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
		t.Fatalf("Query without deadline: %v", err)
	}
	if ms := gotTimeout.Load(); ms != 0 {
		t.Errorf("timeout_ms without a ctx deadline = %d, want 0", ms)
	}
}

// TestContextCancelStopsRetries proves a cancelled context aborts the retry
// loop instead of sleeping through the backoff schedule.
func TestContextCancelStopsRetries(t *testing.T) {
	ft := &flakyTransport{
		failures: 100,
		err:      &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED},
		inner:    http.DefaultTransport,
	}
	cl := New("http://127.0.0.1:0",
		WithHTTPClient(&http.Client{Transport: ft}),
		WithRetries(50),
		WithRetryBackoff(50*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := cl.Query(ctx, testQuerySpec())
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled retry loop took %v", elapsed)
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"conn refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"conn reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		{"context canceled", context.Canceled, false},
		{"context deadline", context.DeadlineExceeded, false},
	} {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

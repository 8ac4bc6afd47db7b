package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gaussrange/server"
)

// overloadedHandler answers 429 with a Retry-After header for the first
// `rejections` requests, then succeeds.
func overloadedHandler(rejections int32, retryAfter string, hits *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= rejections {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(server.QueryResponse{IDs: []int64{7}})
	}
}

// TestRetryOn429 proves the opt-in: with WithRetryOn429 the client waits out
// the server's Retry-After hint and succeeds on the next attempt; the default
// client surfaces the 429 immediately.
func TestRetryOn429(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedHandler(2, "0", &hits)))
	defer ts.Close()

	cl := New(ts.URL, WithRetryOn429(3), WithRetryBackoff(time.Millisecond))
	res, err := cl.Query(context.Background(), testQuerySpec())
	if err != nil {
		t.Fatalf("query with 429 retry: %v", err)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 7 {
		t.Fatalf("unexpected result %v", res.IDs)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + success)", got)
	}
}

// TestNo429RetryByDefault checks a default client returns the 429 without a
// second attempt.
func TestNo429RetryByDefault(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedHandler(1000, "1", &hits)))
	defer ts.Close()

	cl := New(ts.URL)
	_, err := cl.Query(context.Background(), testQuerySpec())
	if !IsOverloaded(err) {
		t.Fatalf("want overload error, got %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want *APIError, got %T", err)
	}
	if ae.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", ae.RetryAfter)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1", got)
	}
}

// TestRetryOn429Exhausted checks the retry budget is bounded: n retries make
// n+1 attempts, then the 429 is surfaced.
func TestRetryOn429Exhausted(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedHandler(1000, "0", &hits)))
	defer ts.Close()

	cl := New(ts.URL, WithRetryOn429(2), WithRetryBackoff(time.Millisecond))
	_, err := cl.Query(context.Background(), testQuerySpec())
	if !IsOverloaded(err) {
		t.Fatalf("want overload error after exhaustion, got %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", got)
	}
}

// TestRetryOn429ContextCancel checks a cancelled context stops the 429 wait
// immediately instead of sleeping out a long Retry-After.
func TestRetryOn429ContextCancel(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedHandler(1000, "30", &hits)))
	defer ts.Close()

	cl := New(ts.URL, WithRetryOn429(5))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := cl.Query(ctx, testQuerySpec())
	if err == nil {
		t.Fatal("expected an error")
	}
	if time.Since(t0) > 5*time.Second {
		t.Fatalf("client slept out the Retry-After hint despite cancellation (%v)", time.Since(t0))
	}
}

// TestParseRetryAfter covers both header forms and the garbage cases.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("empty header: %v, want 0", d)
	}
	if d := parseRetryAfter("7"); d != 7*time.Second {
		t.Fatalf("delta-seconds: %v, want 7s", d)
	}
	if d := parseRetryAfter("-3"); d != 0 {
		t.Fatalf("negative delta: %v, want 0", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 10*time.Second {
		t.Fatalf("HTTP date: %v, want (0, 10s]", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past HTTP date: %v, want 0", d)
	}
	if d := parseRetryAfter("soon"); d != 0 {
		t.Fatalf("garbage header: %v, want 0", d)
	}
}

// overloadedMutationHandler answers 429 with a Retry-After hint for the first
// `rejections` mutation requests, then commits with a fixed response.
func overloadedMutationHandler(rejections int32, hits *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= rejections {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "overloaded"})
			return
		}
		switch r.Method {
		case http.MethodPost:
			json.NewEncoder(w).Encode(server.InsertPointsResponse{IDs: []int64{42}, Epoch: 9})
		case http.MethodDelete:
			json.NewEncoder(w).Encode(server.DeletePointResponse{ID: 42, Deleted: true, Epoch: 10})
		}
	}
}

// TestMutation429Retry proves mutations honour Retry-After on 429 exactly
// like queries: a 429 means the batch never entered execution, so the
// opt-in retry is duplicate-safe for writes too.
func TestMutation429Retry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedMutationHandler(2, &hits)))
	defer ts.Close()

	cl := New(ts.URL, WithRetryOn429(3), WithRetryBackoff(time.Millisecond))
	ids, epoch, err := cl.InsertPoints(context.Background(), [][]float64{{1, 2}})
	if err != nil {
		t.Fatalf("insert with 429 retry: %v", err)
	}
	if len(ids) != 1 || ids[0] != 42 || epoch != 9 {
		t.Fatalf("insert result %v @%d", ids, epoch)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + success)", got)
	}

	hits.Store(0)
	deleted, epoch, err := cl.DeletePoint(context.Background(), 42)
	if err != nil || !deleted || epoch != 10 {
		t.Fatalf("delete with 429 retry: %v %v @%d", err, deleted, epoch)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d delete requests, want 3", got)
	}
}

// TestMutationNo429RetryByDefault: without the opt-in, a mutation surfaces
// the 429 (with its Retry-After hint) after exactly one attempt.
func TestMutationNo429RetryByDefault(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(overloadedHandler(1000, "1", &hits)))
	defer ts.Close()

	_, _, err := New(ts.URL).InsertPoints(context.Background(), [][]float64{{1, 2}})
	if !IsOverloaded(err) {
		t.Fatalf("want overload error, got %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfter != time.Second {
		t.Fatalf("Retry-After hint lost on the mutation path: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1", got)
	}
}

// TestMutationNoConnectionRetry: a torn connection mid-mutation is surfaced,
// never resent — the batch may have committed, and a resend would apply it
// twice. The same failure on the read path IS retried.
func TestMutationNoConnectionRetry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.QueryResponse{IDs: []int64{}})
	})))
	defer ts.Close()

	cl := New(ts.URL, WithRetryBackoff(time.Millisecond))
	if _, _, err := cl.InsertPoints(context.Background(), [][]float64{{1, 2}}); err == nil {
		t.Fatal("torn mutation connection was silently retried")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("mutation made %d attempts, want exactly 1", got)
	}

	hits.Store(0)
	if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
		t.Fatalf("read after torn connection should retry and succeed: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("read made %d attempts, want 2 (torn + retry)", got)
	}
}

// TestWaitForEpoch covers the read-your-writes barrier: the wait returns once
// the served epoch reaches the target, and fails fast on a stalled replica.
func TestWaitForEpoch(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(3)
	ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e := epoch.Add(1) // advances one epoch per poll
		json.NewEncoder(w).Encode(server.Health{Status: "ok", Epoch: e})
	})))
	defer ts.Close()

	got, err := New(ts.URL).WaitForEpoch(context.Background(), 7, time.Millisecond)
	if err != nil || got < 7 {
		t.Fatalf("WaitForEpoch = %d, %v", got, err)
	}

	stalled := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Health{Status: "ok", Epoch: 5, ReplicaError: "lineage break"})
	})))
	defer stalled.Close()
	if _, err := New(stalled.URL).WaitForEpoch(context.Background(), 9, time.Millisecond); err == nil {
		t.Fatal("stalled replica did not fail the wait")
	}
}

package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gaussrange/server"
)

// pooledStreams reports how many idle streams and connections cl holds.
func pooledStreams(cl *Client) (streams, conns int) {
	cl.direct.mu.Lock()
	defer cl.direct.mu.Unlock()
	return len(cl.direct.streams), len(cl.direct.conns)
}

// countPaths counts the requests h receives, by path.
func countPaths(h http.Handler, query, stream *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case queryPath:
			query.Add(1)
		case streamPath:
			stream.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// TestStreamCarriesQueries: Query and QueryRaw to a server.Server go as
// frames on one stream, on one connection: no request reaches /v1/query.
func TestStreamCarriesQueries(t *testing.T) {
	var queries, streams atomic.Int32
	ts := httptest.NewUnstartedServer(countPaths(serve200(t), &queries, &streams))
	opened := countConns(ts)
	defer ts.Close()
	cl, ctx := New(ts.URL), context.Background()
	for i := 0; i < 50; i++ {
		res, err := cl.Query(ctx, testQuerySpec())
		if err != nil || len(res.IDs) != 200 {
			t.Fatalf("query %d: %v", i, err)
		}
		raw, err := cl.QueryRaw(ctx, server.QueryRequest{})
		if err != nil || len(raw.IDs) != 200 {
			t.Fatalf("raw query %d: %v", i, err)
		}
	}
	// A pause past streamIdle (a stalled box) ends a stream and opens another
	// on the same connection.
	if n := streams.Load(); n < 1 || n > 3 || queries.Load() != 0 || opened.Load() != 1 {
		t.Errorf("100 queries: %d streams, %d /v1/query requests, %d connections; want 1, 0, 1",
			n, queries.Load(), opened.Load())
	}
	if s, c := pooledStreams(cl); s != 1 || c != 0 {
		t.Errorf("pooled: %d streams, %d connections; want 1, 0", s, c)
	}
}

// TestStreamIdleEndKeepsConnection: a stream that idles past streamIdle is
// ended by the client, which keeps its connection: the next query opens a
// new stream on it, with no new dial.
func TestStreamIdleEndKeepsConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(serve200(t))
	opened := countConns(ts)
	defer ts.Close()
	cl, ctx := New(ts.URL), context.Background()
	for round := 0; round < 3; round++ {
		if _, err := cl.Query(ctx, testQuerySpec()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(streamIdle / 4) {
			if s, c := pooledStreams(cl); s == 0 && c == 1 {
				break
			}
			if time.Now().After(deadline) {
				s, c := pooledStreams(cl)
				t.Fatalf("round %d: %d streams and %d connections pooled after idling, want 0 and 1", round, s, c)
			}
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("3 streams opened %d connections, want 1", n)
	}
}

// TestStreamStaleRetry: a pooled stream whose connection the server closed
// is replaced by one immediate fresh stream — not a counted, backed-off
// retry.
func TestStreamStaleRetry(t *testing.T) {
	ts := httptest.NewUnstartedServer(serve200(t))
	opened := countConns(ts)
	defer ts.Close()
	cl := New(ts.URL, WithRetries(0), WithRetryBackoff(time.Minute))
	for round := 1; round <= 3; round++ {
		start := time.Now()
		if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("round %d took %v: the retry slept its backoff", round, d)
		}
		if n := opened.Load(); n != int32(round) {
			t.Fatalf("round %d: %d connections opened, want %d", round, n, round)
		}
		if s, _ := pooledStreams(cl); s != 1 {
			t.Fatalf("round %d: %d pooled streams, want 1", round, s)
		}
		ts.CloseClientConnections()
	}
}

// TestStreamFallback: a server without the stream (404) answers every query
// per request; the client asks for a stream once, and then never again. The
// refusal's connection is closed, so the queries run on a second one.
func TestStreamFallback(t *testing.T) {
	var queries, streams atomic.Int32
	ts := httptest.NewUnstartedServer(countPaths(handler200(), &queries, &streams))
	opened := countConns(ts)
	defer ts.Close()
	cl := New(ts.URL)
	for i := 0; i < 5; i++ {
		res, err := cl.Query(context.Background(), testQuerySpec())
		if err != nil || len(res.IDs) != 200 {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if !cl.direct.noStream.Load() || streams.Load() != 1 || queries.Load() != 5 || opened.Load() != 2 {
		t.Errorf("refused %v; %d stream requests, %d /v1/query requests, %d connections; want true, 1, 5, 2",
			cl.direct.noStream.Load(), streams.Load(), queries.Load(), opened.Load())
	}
}

// TestStreamStallRecovers: a streaming server that stalls past streamIdle
// before a head does not cost a client its stream. A query whose deadline
// passes first fails as a timeout, and one without a deadline takes the late
// 200 and goes per request; either way the next query opens a stream again
// and keeps it.
func TestStreamStallRecovers(t *testing.T) {
	var stall atomic.Bool
	var perRequest atomic.Int32
	h := serve200(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case streamPath:
			if stall.Swap(false) {
				time.Sleep(3 * streamIdle)
			}
		case queryPath:
			perRequest.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		name       string
		cl         *Client
		perRequest int32
	}{
		{"deadline", New(ts.URL, WithTimeout(2*streamIdle)), 0},
		{"no deadline", New(ts.URL), 1},
	} {
		stall.Store(true)
		perRequest.Store(0)
		_, err := tc.cl.Query(context.Background(), testQuerySpec())
		if tc.perRequest == 0 && !isTimeout(err) {
			t.Fatalf("%s: a query whose deadline passed during the stall: %v, want a timeout", tc.name, err)
		} else if tc.perRequest == 1 && err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < 5; i++ {
			if res, err := tc.cl.Query(context.Background(), testQuerySpec()); err != nil || len(res.IDs) != 200 {
				t.Fatalf("%s: query %d: %v", tc.name, i, err)
			}
		}
		if tc.cl.direct.noStream.Load() || perRequest.Load() != tc.perRequest {
			t.Errorf("%s: refused %v, %d /v1/query requests; want false, %d",
				tc.name, tc.cl.direct.noStream.Load(), perRequest.Load(), tc.perRequest)
		}
		if s, _ := pooledStreams(tc.cl); s != 1 {
			t.Errorf("%s: %d pooled streams, want 1", tc.name, s)
		}
	}
}

// TestStreamShutdownEndsIdleStream: http.Server.Shutdown waits for active
// requests, and a pooled stream is one; the server's shutdown hook ends it,
// so Shutdown returns promptly even when the client never would.
func TestStreamShutdownEndsIdleStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: serve200(t)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cl := New("http://" + ln.Addr().String())
	if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
		t.Fatal(err)
	}
	cl.direct.mu.Lock()
	if len(cl.direct.streams) != 1 {
		t.Fatalf("%d pooled streams, want 1", len(cl.direct.streams))
	}
	cl.direct.streams[0].timer.Stop() // the client will not end it
	cl.direct.mu.Unlock()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle stream: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Shutdown took %v", d)
	}
	<-served
}

// TestStreamHTTPTestCloseReturns: httptest.Server.Close waits for active
// requests and runs no shutdown hook, so it returns once the client ends its
// idle stream, within streamIdle or so.
func TestStreamHTTPTestCloseReturns(t *testing.T) {
	ts := stream200(t)
	cl := New(ts.URL)
	if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
		t.Fatal(err)
	}
	if s, _ := pooledStreams(cl); s != 1 {
		t.Fatalf("%d pooled streams, want 1", s)
	}
	start := time.Now()
	ts.Close()
	if d := time.Since(start); d > 20*streamIdle {
		t.Errorf("httptest.Server.Close took %v with an idle stream, want about %v", d, streamIdle)
	}
}

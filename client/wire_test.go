package client

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"gaussrange/server"
)

// barrier releases its callers in groups of n.
type barrier struct {
	mu      sync.Mutex
	n, seen int
	gate    chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, gate: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	gate := b.gate
	if b.seen++; b.seen == b.n {
		b.seen, b.gate = 0, make(chan struct{})
		close(gate)
	}
	b.mu.Unlock()
	<-gate
}

// TestClientOwnsTransport: each Client keeps enough idle connections for a
// router's concurrency. Eight callers move in lockstep — all eight requests
// are in flight together, and all eight replies are read before the next
// round — so every round hands eight connections back at once. On
// http.DefaultTransport (2 idle per host) six of them are closed and
// re-dialled each round, ~300 connections in all; on the Client's own
// connections the eight opened in the first round carry all 400 queries.
func TestClientOwnsTransport(t *testing.T) {
	const callers, each = 8, 50
	var opened atomic.Int32
	inFlight, roundDone := newBarrier(callers), newBarrier(callers)
	ok := okHandler(t, nil)
	ts := httptest.NewUnstartedServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.wait()
		ok(w, r)
	})))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cl := perRequest(New(ts.URL))
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
					t.Errorf("query: %v", err)
				}
				roundDone.wait()
			}
		}()
	}
	wg.Wait()
	if n := opened.Load(); n > callers {
		t.Errorf("%d callers × %d queries opened %d connections, want ≤ %d", callers, each, n, callers)
	}

	// Clients do not share a transport, and WithHTTPClient still wins.
	if a, b := New(ts.URL), New(ts.URL); a.hc.Transport == b.hc.Transport || a.hc.Transport == http.DefaultTransport {
		t.Error("two clients share a transport")
	}
	own := &http.Client{}
	if c := New(ts.URL, WithHTTPClient(own)); c.hc != own {
		t.Error("WithHTTPClient did not replace the HTTP client")
	}
}

// handlerTransport serves requests from a handler in memory, so a round trip
// costs only what the client and the server's HTTP helpers allocate.
type handlerTransport struct{ h http.Handler }

func (ht handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht.h.ServeHTTP(rec, r)
	n, _ := strconv.ParseInt(rec.Header().Get("Content-Length"), 10, 64)
	return &http.Response{
		StatusCode:    rec.Code,
		Header:        rec.Header(),
		Body:          io.NopCloser(bytes.NewReader(rec.Body.Bytes())),
		ContentLength: n,
		Request:       r,
	}, nil
}

// TestWireRoundTripAllocs puts a ceiling on what a 200-id Query allocates
// between the caller and the handler: request encode, body read, decode and
// reply encode through the server's helpers. Measured 47, most of it net/http
// request plumbing and this file's recorder; encoding/json on both sides was 70. The ceiling leaves room for Go-version drift but not
// for a reflection path coming back (+16 on the response decode alone).
func TestWireRoundTripAllocs(t *testing.T) {
	ids := make([]int64, 200)
	for i := range ids {
		ids[i] = int64(i * 251)
	}
	want := server.QueryResponse{IDs: ids, Epoch: 4, Stats: server.QueryStats{Retrieved: 353, Integrations: 221, ProbNS: 61000}}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if err := server.DecodeBody(w, r, &req); err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		server.WriteJSON(w, http.StatusOK, &want)
	})
	cl := New("http://in-memory", WithHTTPClient(&http.Client{Transport: handlerTransport{h}}))
	spec, ctx := testQuerySpec(), context.Background()
	res, err := cl.Query(ctx, spec)
	if err != nil || !reflect.DeepEqual(res.IDs, ids) || res.Epoch != 4 || res.Stats.Integrations != 221 {
		t.Fatalf("in-memory query: %+v, %v", res, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Query(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 60
	t.Logf("%.0f allocs per 200-id round trip (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per 200-id round trip, ceiling %d", allocs, ceiling)
	}
}

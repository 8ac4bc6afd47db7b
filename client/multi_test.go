package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussrange/client"
)

// withoutStream serves h as a server that predates the query stream: its
// endpoint is unknown there (404), so queries go per request.
func withoutStream(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query/stream" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func TestMultiEndpointsAndAt(t *testing.T) {
	var hits [3]atomic.Int64
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		i := i
		ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			fmt.Fprint(w, `{"status":"ok","points":0,"dim":2,"epoch":1,"max_id":0}`)
		})))
		defer ts.Close()
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	m, err := client.NewMulti(urls)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d", m.Len())
	}
	got := m.Endpoints()
	for i, u := range urls {
		if got[i] != u {
			t.Fatalf("endpoint %d: %s vs %s", i, got[i], u)
		}
	}
	// At(i) is the per-request endpoint override: each call goes only to the
	// addressed shard.
	if _, err := m.At(1).Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hits[0].Load() != 0 || hits[1].Load() != 1 || hits[2].Load() != 0 {
		t.Fatalf("hits %d %d %d, want only shard 1", hits[0].Load(), hits[1].Load(), hits[2].Load())
	}
}

func TestNewMultiRejectsEmpty(t *testing.T) {
	if _, err := client.NewMulti(nil); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
}

func TestScatterBoundedConcurrency(t *testing.T) {
	m, err := client.NewMulti([]string{"http://s0", "http://s1", "http://s2", "http://s3", "http://s4", "http://s5"})
	if err != nil {
		t.Fatal(err)
	}
	var cur, peak atomic.Int64
	errs := m.Scatter(context.Background(), []int{0, 1, 2, 3, 4, 5}, 2,
		func(ctx context.Context, shard int, c *client.Client) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			if shard == 3 {
				return fmt.Errorf("boom %d", shard)
			}
			return nil
		})
	if peak.Load() > 2 {
		t.Fatalf("concurrency peaked at %d with limit 2", peak.Load())
	}
	// Errors align with the targets slice; one failure doesn't cancel the rest.
	for i, e := range errs {
		if i == 3 && e == nil {
			t.Fatal("shard 3 error lost")
		}
		if i != 3 && e != nil {
			t.Fatalf("shard %d: unexpected error %v", i, e)
		}
	}
}

func TestScatterContextCancel(t *testing.T) {
	m, err := client.NewMulti([]string{"http://s0", "http://s1", "http://s2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	errs := m.Scatter(ctx, []int{0, 1, 2}, 1,
		func(ctx context.Context, shard int, c *client.Client) error {
			once.Do(func() {
				cancel()
				started.Done()
			})
			return ctx.Err()
		})
	started.Wait()
	canceled := 0
	for _, e := range errs {
		if errors.Is(e, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("cancellation not propagated to scattered calls")
	}
}

func TestMultiRetrySemanticsPerShard(t *testing.T) {
	// Reads conn-retry per shard; a flaky shard that fails once then recovers
	// succeeds through the Multi with WithRetries, without touching peers.
	var flakyCalls, peerCalls atomic.Int64
	flaky := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flakyCalls.Add(1) == 1 {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close() // connection error → retryable for reads
			return
		}
		fmt.Fprint(w, `{"status":"ok","points":0,"dim":2,"epoch":1,"max_id":0}`)
	})))
	defer flaky.Close()
	peer := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerCalls.Add(1)
		fmt.Fprint(w, `{"status":"ok","points":0,"dim":2,"epoch":1,"max_id":0}`)
	})))
	defer peer.Close()

	m, err := client.NewMulti([]string{flaky.URL, peer.URL},
		client.WithRetries(2), client.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.At(0).Health(context.Background()); err != nil {
		t.Fatalf("read retry not applied per shard: %v", err)
	}
	if flakyCalls.Load() != 2 || peerCalls.Load() != 0 {
		t.Fatalf("flaky=%d peer=%d, want 2/0", flakyCalls.Load(), peerCalls.Load())
	}

	// Mutations must NOT conn-retry (the first attempt may have applied).
	flakyCalls.Store(0)
	if _, _, err := m.At(0).InsertPoints(context.Background(), [][]float64{{1, 2}}); err == nil {
		t.Fatal("mutation through dropped connection reported success")
	}
	if flakyCalls.Load() != 1 {
		t.Fatalf("mutation attempted %d times, want exactly 1", flakyCalls.Load())
	}
}

package shard

import (
	"context"
	"math/rand"
	"testing"

	"gaussrange/server"
)

// cachedRouter rebuilds a cluster's router with the answer cache enabled.
func cachedRouter(t *testing.T, c *cluster, size int) *Router {
	t.Helper()
	r, err := NewRouter(Config{
		Map:             c.router.m,
		Endpoints:       c.router.Endpoints(),
		AnswerCacheSize: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAnswerCacheHitsAndIdentity: a repeated query is served from the cache
// (no extra shard round trips) and the cached answer is identical to the
// fresh one; a different center or shape misses.
func TestAnswerCacheHitsAndIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := newCluster(t, clusterPoints(rng, 1200), 3)
	r := cachedRouter(t, c, 8)
	ctx := context.Background()

	req := server.RequestFromSpec(testSpec([]float64{200, 200}))
	fresh, err := r.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	before := r.CountersSnapshot()
	if before.AnswerCacheHits != 0 || before.AnswerCacheMisses != 1 || before.AnswerCacheEntries != 1 {
		t.Fatalf("after first query: hits=%d misses=%d entries=%d, want 0/1/1",
			before.AnswerCacheHits, before.AnswerCacheMisses, before.AnswerCacheEntries)
	}

	cached, err := r.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := r.CountersSnapshot()
	if after.AnswerCacheHits != 1 {
		t.Errorf("repeat query: hits = %d, want 1", after.AnswerCacheHits)
	}
	if after.FanoutTotal != before.FanoutTotal {
		t.Errorf("cache hit still fanned out: %d → %d shard requests", before.FanoutTotal, after.FanoutTotal)
	}
	if len(cached.IDs) != len(fresh.IDs) {
		t.Fatalf("cached answer has %d ids, fresh %d", len(cached.IDs), len(fresh.IDs))
	}
	for i := range fresh.IDs {
		if cached.IDs[i] != fresh.IDs[i] {
			t.Fatal("cached IDs differ from fresh answer")
		}
	}

	// Different center → different key.
	if _, err := r.Query(ctx, server.RequestFromSpec(testSpec([]float64{120, 310}))); err != nil {
		t.Fatal(err)
	}
	if s := r.CountersSnapshot(); s.AnswerCacheMisses != 2 {
		t.Errorf("distinct center: misses = %d, want 2", s.AnswerCacheMisses)
	}
}

// TestAnswerCacheInvalidatedByMutation: a routed insert advances the observed
// epoch frontier and retires every cached answer, so the next query re-fans
// out and sees the new point.
func TestAnswerCacheInvalidatedByMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c := newCluster(t, clusterPoints(rng, 1200), 3)
	r := cachedRouter(t, c, 8)
	ctx := context.Background()

	center := []float64{200, 200}
	req := server.RequestFromSpec(testSpec(center))
	if _, err := r.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	if s := r.CountersSnapshot(); s.AnswerCacheEntries != 1 {
		t.Fatalf("entries = %d, want 1", s.AnswerCacheEntries)
	}

	// Insert a point at the query center — it must appear in the next answer.
	ids, _, err := r.Insert(ctx, [][]float64{center}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.CountersSnapshot(); s.AnswerCacheEntries != 0 {
		t.Errorf("entries after insert = %d, want 0 (cache invalidated)", s.AnswerCacheEntries)
	}
	resp, err := r.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range resp.IDs {
		if id == ids[0] {
			found = true
		}
	}
	if !found {
		t.Error("post-insert query missed the inserted point — cache served a stale answer")
	}
}

// TestAnswerCacheEviction: the LRU stays within its bound.
func TestAnswerCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := newCluster(t, clusterPoints(rng, 800), 2)
	r := cachedRouter(t, c, 4)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		req := server.RequestFromSpec(testSpec([]float64{40 * float64(i+1), 200}))
		if _, err := r.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.CountersSnapshot(); s.AnswerCacheEntries > 4 {
		t.Errorf("entries = %d, want ≤ 4", s.AnswerCacheEntries)
	}

	// The most recent query must still be resident.
	before := r.CountersSnapshot().AnswerCacheHits
	if _, err := r.Query(ctx, server.RequestFromSpec(testSpec([]float64{400, 200}))); err != nil {
		t.Fatal(err)
	}
	if r.CountersSnapshot().AnswerCacheHits != before+1 {
		t.Error("most recently cached answer was evicted")
	}
}

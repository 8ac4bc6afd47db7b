package rtree

import (
	"math/rand"
	"testing"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

func TestNewBufferPoolValidation(t *testing.T) {
	if _, err := NewBufferPool(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBufferPool(-5); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	tr := bulkLoad(t, randPoints(rng, 5000, 2, 1000), 2)
	bp, err := NewBufferPool(10000) // larger than the tree: everything fits
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachBufferPool(bp)

	q := geom.Rect{Lo: vecmat.Vector{100, 100}, Hi: vecmat.Vector{300, 300}}
	if _, err := tr.CollectRect(q); err != nil {
		t.Fatal(err)
	}
	h1, m1 := bp.Stats()
	if h1 != 0 || m1 == 0 {
		t.Fatalf("cold cache: hits=%d misses=%d", h1, m1)
	}
	// Second identical search: all pages cached.
	if _, err := tr.CollectRect(q); err != nil {
		t.Fatal(err)
	}
	h2, m2 := bp.Stats()
	if m2 != m1 {
		t.Errorf("warm cache still missed: %d → %d", m1, m2)
	}
	if h2 != m1 {
		t.Errorf("warm cache hits = %d, want %d", h2, m1)
	}
	if bp.HitRate() <= 0.4 {
		t.Errorf("hit rate = %g", bp.HitRate())
	}

	bp.Reset()
	if h, m := bp.Stats(); h != 0 || m != 0 {
		t.Error("Reset did not zero counters")
	}
	if bp.HitRate() != 0 {
		t.Error("HitRate after reset not 0")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	tr := bulkLoad(t, randPoints(rng, 20000, 2, 1000), 2)
	// A pool much smaller than the tree forces evictions: scanning the whole
	// tree twice should still miss on the second pass.
	bp, err := NewBufferPool(8)
	if err != nil {
		t.Fatal(err)
	}
	tr.AttachBufferPool(bp)
	whole := geom.Rect{Lo: vecmat.Vector{0, 0}, Hi: vecmat.Vector{1000, 1000}}
	if _, err := tr.CollectRect(whole); err != nil {
		t.Fatal(err)
	}
	_, m1 := bp.Stats()
	if _, err := tr.CollectRect(whole); err != nil {
		t.Fatal(err)
	}
	_, m2 := bp.Stats()
	if m2 <= m1 {
		t.Errorf("tiny pool did not evict: misses %d → %d", m1, m2)
	}
	// Detach.
	tr.AttachBufferPool(nil)
	_, mBefore := bp.Stats()
	if _, err := tr.CollectRect(whole); err != nil {
		t.Fatal(err)
	}
	if _, mAfter := bp.Stats(); mAfter != mBefore {
		t.Error("detached pool still receiving traffic")
	}
}

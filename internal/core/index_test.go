package core

import (
	"math/rand"
	"slices"
	"testing"

	"gaussrange/internal/gauss"

	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

func TestIndexBasics(t *testing.T) {
	pts := []vecmat.Vector{{1, 1}, {2, 2}, {3, 3}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 || ix.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", ix.Len(), ix.Dim())
	}
	p, err := ix.Point(1)
	if err != nil || !slices.Equal(p, vecmat.Vector{2, 2}) {
		t.Errorf("Point(1) = %v, %v", p, err)
	}
	if _, err := ix.Point(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := ix.Point(3); err == nil {
		t.Error("out-of-range id accepted")
	}
	if ix.Current().Packed().Len() != 3 {
		t.Errorf("packed base holds %d points, want 3", ix.Current().Packed().Len())
	}
}

func TestIndexImmutability(t *testing.T) {
	src := []vecmat.Vector{{5, 5}}
	ix, err := NewIndex(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99 // mutating the input must not affect the index
	p, _ := ix.Point(0)
	if p[0] != 5 {
		t.Error("index shares storage with caller slice")
	}
}

func TestDynamicIndex(t *testing.T) {
	ix, err := NewDynamicIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ids, _, _, err := ix.Apply([]vecmat.Vector{{rng.Float64() * 100, rng.Float64() * 100}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ids[0] != int64(i) {
			t.Fatalf("Apply assigned id %d, want %d", ids[0], i)
		}
	}
	if ix.Len() != 500 {
		t.Errorf("Len = %d", ix.Len())
	}
	if _, _, _, err := ix.Apply([]vecmat.Vector{{1}}, nil); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := rtree.Unpack(ix.Current().Packed()).CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Range search parity with a rect.
	r := geom.Rect{Lo: vecmat.Vector{20, 20}, Hi: vecmat.Vector{50, 50}}
	ids, err := ix.Current().SearchRect(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		p, _ := ix.Point(id)
		if !r.Contains(p) {
			t.Fatalf("SearchRect returned outside point %v", p)
		}
	}
}

func TestIndexNearestNeighbors(t *testing.T) {
	pts := []vecmat.Vector{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := ix.NearestNeighbors(vecmat.Vector{4, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 || nn[0].ID != 4 {
		t.Errorf("kNN = %+v", nn)
	}
}

func TestNewIndexDimValidation(t *testing.T) {
	if _, err := NewIndex([]vecmat.Vector{{1, 2, 3}}, 2); err == nil {
		t.Error("dim mismatch accepted at construction")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"RR", StrategyRR, true},
		{"rr+bf", StrategyRRBF, true},
		{"BF+OR", StrategyBFOR, true},
		{"all", StrategyAll, true},
		{"RR+OR", StrategyRROR, true},
		{"bogus", 0, false},
		{"", 0, false},
		{"RR+XX", 0, false},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseStrategy(%q) accepted", c.in)
		}
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyRR:   "RR",
		StrategyBF:   "BF",
		StrategyRRBF: "RR+BF",
		StrategyRROR: "RR+OR",
		StrategyBFOR: "BF+OR",
		StrategyAll:  "ALL",
		Strategy(0):  "NONE",
		StrategyOR:   "OR",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if StrategyOR.Valid() {
		t.Error("OR alone reported valid")
	}
	if !StrategyAll.Valid() || !StrategyRR.Valid() {
		t.Error("valid strategies reported invalid")
	}
}

func TestChooseStrategy(t *testing.T) {
	sphere, err := gauss.New(vecmat.NewVector(2), vecmat.Identity(2).Scale(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := ChooseStrategy(sphere); got != StrategyBF {
		t.Errorf("spherical Σ chose %v, want BF", got)
	}
	thin, err := gauss.New(vecmat.NewVector(2), vecmat.Diagonal(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := ChooseStrategy(thin); got != StrategyAll {
		t.Errorf("thin Σ chose %v, want ALL", got)
	}
}

func TestApplyWithIDs(t *testing.T) {
	ix, err := NewIndex([]vecmat.Vector{{0, 0}, {1, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit ids with a gap: id 3 is skipped and becomes a permanent hole.
	deleted, epoch, err := ix.ApplyWithIDs(
		[]vecmat.Vector{{2, 2}, {4, 4}}, []int64{2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 0 || epoch != 2 {
		t.Fatalf("deleted=%v epoch=%d", deleted, epoch)
	}
	snap := ix.Current()
	if got := snap.MaxID(); got != 5 {
		t.Fatalf("MaxID = %d, want 5", got)
	}
	for _, id := range []int64{0, 1, 2, 4} {
		if !snap.Alive(id) {
			t.Errorf("id %d not alive", id)
		}
	}
	if snap.Alive(3) {
		t.Error("skipped id 3 reported alive")
	}
	p, err := snap.Point(4)
	if err != nil || !slices.Equal(p, vecmat.Vector{4, 4}) {
		t.Fatalf("Point(4) = %v, %v", p, err)
	}

	// Reusing a burned id, or non-increasing ids, must fail atomically.
	if _, _, err := ix.ApplyWithIDs([]vecmat.Vector{{9, 9}}, []int64{4}, nil); err == nil {
		t.Error("reused id accepted")
	}
	if _, _, err := ix.ApplyWithIDs([]vecmat.Vector{{9, 9}, {8, 8}}, []int64{7, 6}, nil); err == nil {
		t.Error("non-increasing ids accepted")
	}
	if _, _, err := ix.ApplyWithIDs([]vecmat.Vector{{9, 9}}, []int64{5, 6}, nil); err == nil {
		t.Error("mismatched id count accepted")
	}
	if ix.Epoch() != 2 {
		t.Fatalf("failed batches published an epoch: %d", ix.Epoch())
	}

	// Deletes and explicit-id inserts combine in one epoch, and searches see
	// the explicit ids after an overlay rebuild.
	deleted, _, err = ix.ApplyWithIDs([]vecmat.Vector{{6, 6}}, []int64{10}, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !deleted[0] {
		t.Error("delete of live id 0 not reported")
	}
	for i := 0; i < 300; i++ { // push past the rebuild threshold
		if _, _, _, err := ix.Apply([]vecmat.Vector{{float64(i), float64(i)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := geom.Rect{Lo: vecmat.Vector{5.5, 5.5}, Hi: vecmat.Vector{6.5, 6.5}}
	ids, err := ix.Current().SearchRect(r)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if id == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("explicit id 10 missing from post-rebuild search: %v", ids)
	}
}

package rtree

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/data"
	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// CollectRect returns the IDs of all data entries intersecting query, in the
// same order as the pointer tree's CollectRect.
func (p *Packed) CollectRect(query geom.Rect, st *SearchStats) ([]int64, error) {
	var ids []int64
	err := p.SearchRect(query, func(id int64, _ []float64) bool {
		ids = append(ids, id)
		return true
	}, st)
	return ids, err
}

// randPoints draws n points with coordinates spanning several magnitudes so
// the float32 mirror actually loses bits and the recheck band is exercised.
func packedRandPoints(rng *rand.Rand, n, dim int) []vecmat.Vector {
	pts := make([]vecmat.Vector, n)
	for i := range pts {
		p := make(vecmat.Vector, dim)
		for a := range p {
			switch rng.Intn(4) {
			case 0:
				p[a] = rng.Float64() * 100
			case 1:
				p[a] = rng.NormFloat64() * 1e6
			case 2:
				p[a] = rng.Float64()*2e-3 - 1e-3
			default:
				// Many duplicates of a value with a long mantissa: forces
				// entries exactly on the query boundary.
				p[a] = 33.333333333333336
			}
		}
		pts[i] = p
	}
	return pts
}

func packedRandRect(rng *rand.Rand, dim int) geom.Rect {
	lo := make(vecmat.Vector, dim)
	hi := make(vecmat.Vector, dim)
	for a := 0; a < dim; a++ {
		c := rng.NormFloat64() * 1e4
		w := math.Abs(rng.NormFloat64()) * 5e5
		lo[a], hi[a] = c-w, c+w
	}
	r := geom.Rect{Lo: lo, Hi: hi}
	return r
}

// mustPack is Pack for trees that hold points.
func mustPack(t testing.TB, tr *Tree) *Packed {
	t.Helper()
	p, err := Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildVariants returns STR trees over pts at two page sizes: the paper's
// 1 KB page and a 256-byte one, whose small fan-out gives deeper trees and
// more node boundaries for the float32 recheck band to straddle.
func buildVariants(t *testing.T, pts []vecmat.Vector, dim int) map[string]*Tree {
	t.Helper()
	return map[string]*Tree{
		"page1024": bulkLoad(t, pts, dim),
		"page256":  bulkLoad(t, pts, dim, WithPageSize(256)),
	}
}

// comparePackedRect runs one rect query against both representations and
// fails unless ids (including order), visit counts, and point payloads agree.
func comparePackedRect(t *testing.T, tr *Tree, p *Packed, q geom.Rect) {
	t.Helper()
	nodesBefore := tr.NodesRead()
	want, err := tr.CollectRect(q)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := tr.NodesRead() - nodesBefore

	var st SearchStats
	var got []int64
	err = p.SearchRect(q, func(id int64, pt []float64) bool {
		got = append(got, id)
		return true
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rect: packed %d ids, pointer %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rect: id order diverges at %d: packed %d pointer %d", i, got[i], want[i])
		}
	}
	if int(st.Nodes) != wantNodes {
		t.Fatalf("rect: packed visited %d nodes, pointer %d", st.Nodes, wantNodes)
	}
}

func comparePackedSphere(t *testing.T, tr *Tree, p *Packed, center vecmat.Vector, radius float64) {
	t.Helper()
	nodesBefore := tr.NodesRead()
	var want []int64
	if err := tr.SearchSphere(center, radius, func(_ geom.Rect, id int64) bool {
		want = append(want, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	wantNodes := tr.NodesRead() - nodesBefore

	var st SearchStats
	var got []int64
	err := p.SearchSphere(center, radius, func(id int64, _ []float64) bool {
		got = append(got, id)
		return true
	}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sphere: packed %d ids, pointer %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sphere: id order diverges at %d: packed %d pointer %d", i, got[i], want[i])
		}
	}
	if int(st.Nodes) != wantNodes {
		t.Fatalf("sphere: packed visited %d nodes, pointer %d", st.Nodes, wantNodes)
	}
}

// TestPackedSearchParity is the core identity property: on random trees of
// several dimensionalities and fan-outs, packed rect and sphere
// searches return byte-identical id sequences and visit counts to the pointer
// tree.
func TestPackedSearchParity(t *testing.T) {
	for _, dim := range []int{2, 3, 5, 9} {
		rng := rand.New(rand.NewSource(int64(1000 + dim)))
		pts := packedRandPoints(rng, 600, dim)
		for name, tr := range buildVariants(t, pts, dim) {
			p := mustPack(t, tr)
			if p.Len() != tr.Len() {
				t.Fatalf("d=%d %s: packed %d entries, tree %d", dim, name, p.Len(), tr.Len())
			}
			for trial := 0; trial < 24; trial++ {
				q := packedRandRect(rng, dim)
				comparePackedRect(t, tr, p, q)
				center := pts[rng.Intn(len(pts))]
				comparePackedSphere(t, tr, p, center, math.Abs(rng.NormFloat64())*1e5)
			}
			// Degenerate probes: empty rect far away, rect covering all.
			far := make(vecmat.Vector, dim)
			for a := range far {
				far[a] = 1e12
			}
			fr := geom.Rect{Lo: far, Hi: far}
			comparePackedRect(t, tr, p, fr)
			lo, hi := make(vecmat.Vector, dim), make(vecmat.Vector, dim)
			for a := range lo {
				lo[a], hi[a] = -1e12, 1e12
			}
			all := geom.Rect{Lo: lo, Hi: hi}
			comparePackedRect(t, tr, p, all)
			comparePackedSphere(t, tr, p, pts[0], 0)
		}
	}
}

// TestPackedBoundaryProbes pins the recheck band: queries whose edges fall
// exactly on stored coordinates (where float32 rounding straddles the
// boundary) must still match the float64 pointer decisions exactly.
func TestPackedBoundaryProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dim := 3
	pts := packedRandPoints(rng, 400, dim)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	tr, err := BulkLoadPoints(pts, ids, dim, WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPack(t, tr)
	var rechecks int64
	for trial := 0; trial < 200; trial++ {
		// Query rect with one corner exactly at a stored point.
		anchor := pts[rng.Intn(len(pts))]
		lo := make(vecmat.Vector, dim)
		hi := make(vecmat.Vector, dim)
		for a := 0; a < dim; a++ {
			lo[a] = anchor[a]
			hi[a] = anchor[a] + math.Abs(rng.NormFloat64())*1e4
		}
		q := geom.Rect{Lo: lo, Hi: hi}
		comparePackedRect(t, tr, p, q)
		var st SearchStats
		if _, err := p.CollectRect(q, &st); err != nil {
			t.Fatal(err)
		}
		rechecks += st.F32Rechecks
	}
	if rechecks == 0 {
		t.Fatal("boundary probes never triggered a float64 recheck; certificate band untested")
	}

	// Edges exactly on stored leaf coordinates, signed zeros among them: a
	// leaf point is tested in float64 with no mirror, and must land on the
	// same side of every edge as in the pointer tree. Each probe takes its
	// Lo from one stored point and its Hi from another, axis by axis.
	zpts := packedRandPoints(rng, 600, dim)
	for i := range zpts {
		for a := range zpts[i] {
			switch rng.Intn(4) {
			case 0:
				zpts[i][a] = math.Copysign(0, -1)
			case 1:
				zpts[i][a] = 0
			}
		}
	}
	zids := make([]int64, len(zpts))
	for i := range zids {
		zids[i] = int64(i)
	}
	ztr, err := BulkLoadPoints(zpts, zids, dim, WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	zp := mustPack(t, ztr)
	for trial := 0; trial < 300; trial++ {
		a, b := zpts[rng.Intn(len(zpts))], zpts[rng.Intn(len(zpts))]
		lo, hi := make(vecmat.Vector, dim), make(vecmat.Vector, dim)
		for ax := 0; ax < dim; ax++ {
			lo[ax], hi[ax] = a[ax], b[ax]
			if hi[ax] < lo[ax] {
				lo[ax], hi[ax] = hi[ax], lo[ax]
			}
			if rng.Intn(4) == 0 {
				lo[ax] = math.Copysign(0, -1) // −0 edges against +0 points
			}
			if rng.Intn(4) == 0 && lo[ax] <= 0 {
				hi[ax] = 0
			}
		}
		inverted := false
		for ax := range lo {
			inverted = inverted || lo[ax] > hi[ax] // a −0/+0 swap made lo > hi
		}
		if inverted {
			continue
		}
		q := geom.Rect{Lo: lo, Hi: hi}
		comparePackedRect(t, ztr, zp, q)
		comparePackedSphere(t, ztr, zp, a, math.Sqrt(b.Dist2(a)))
	}
}

// TestPackedBytesPerPoint holds the resident index to what a point-native
// leaf level costs: a point's coordinates once and its four-byte id, plus
// the node levels' mirrored bounds. A return of per-point bounds or float32
// mirrors (five copies of every point) roughly triples these figures, and
// eight-byte ids or a child array read 26.4 / 134.0.
func TestPackedBytesPerPoint(t *testing.T) {
	for _, c := range []struct {
		name    string
		pts     []vecmat.Vector
		dim     int
		ceiling float64
	}{
		{"longbeach", data.LongBeach(1), 2, 23},
		{"colormoments", data.ColorMoments(1), 9, 132},
	} {
		ids := make([]int64, len(c.pts))
		for i := range ids {
			ids[i] = int64(i)
		}
		p, err := BuildPacked(c.pts, ids, c.dim)
		if err != nil {
			t.Fatal(err)
		}
		perPoint := float64(p.Bytes()) / float64(p.Len())
		t.Logf("%s (d=%d, %d points): %d bytes, %.1f B/point", c.name, c.dim, p.Len(), p.Bytes(), perPoint)
		if perPoint > c.ceiling {
			t.Errorf("%s: %.1f B/point, ceiling %g", c.name, perPoint, c.ceiling)
		}
		// Bytes must cover the point block and the ids at the least.
		if min := p.Len() * (8*c.dim + 4); p.Bytes() < min {
			t.Errorf("%s: Bytes() = %d, below the %d the leaves alone hold", c.name, p.Bytes(), min)
		}
	}
}

// TestPackRejectsRectData: a packed leaf entry is a point, so a tree with a
// proper rectangle as data has no packed form.
func TestPackRejectsRectData(t *testing.T) {
	tr := bulkLoad(t, []vecmat.Vector{{1, 2}, {3, 4}}, 2)
	mustPack(t, tr)
	tr.root.entries[1].Rect = geom.Rect{Lo: vecmat.Vector{0, 0}, Hi: vecmat.Vector{1, 1}}
	if _, err := Pack(tr); err == nil {
		t.Fatal("Pack accepted a tree with rectangle data")
	}
}

// TestPackedEmptyAndTiny covers the root-only shapes.
func TestPackedEmptyAndTiny(t *testing.T) {
	tr := bulkLoad(t, nil, 2)
	p := mustPack(t, tr)
	if p.Len() != 0 || p.NumNodes() != 1 {
		t.Fatalf("empty pack: len %d nodes %d", p.Len(), p.NumNodes())
	}
	q := geom.Rect{Lo: vecmat.Vector{-1, -1}, Hi: vecmat.Vector{1, 1}}
	ids, err := p.CollectRect(q, nil)
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty pack search: ids %v err %v", ids, err)
	}
	tr, err = BulkLoadPoints([]vecmat.Vector{{0.5, 0.5}}, []int64{42}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p = mustPack(t, tr)
	ids, err = p.CollectRect(q, nil)
	if err != nil || len(ids) != 1 || ids[0] != 42 {
		t.Fatalf("single-entry pack search: ids %v err %v", ids, err)
	}
	comparePackedSphere(t, tr, p, vecmat.Vector{0, 0}, 1)
}

// TestPackedPointBitIdentity checks the flat point block holds bit-identical
// float64 coordinates, the property the fused Phase-2 filters rely on.
func TestPackedPointBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dim := 5
	pts := packedRandPoints(rng, 300, dim)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	tr, err := BulkLoadPoints(pts, ids, dim, WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPack(t, tr)
	lo, hi := make(vecmat.Vector, dim), make(vecmat.Vector, dim)
	for a := range lo {
		lo[a], hi[a] = -1e18, 1e18
	}
	q := geom.Rect{Lo: lo, Hi: hi}
	seen := 0
	err = p.SearchRect(q, func(id int64, pt []float64) bool {
		want := pts[id]
		for a := 0; a < dim; a++ {
			if math.Float64bits(pt[a]) != math.Float64bits(want[a]) {
				t.Fatalf("id %d axis %d: packed %x pointer %x", id, a, math.Float64bits(pt[a]), math.Float64bits(want[a]))
			}
		}
		seen++
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(pts) {
		t.Fatalf("full-box scan saw %d of %d points", seen, len(pts))
	}
}

package rtree

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// FuzzPackedSearch STR-loads points decoded from the input (a dimension
// selector, then dim bytes a point), packs the tree, and checks rect and
// sphere search parity — ids, order, and node-visit counts — between the
// packed mirror and the pointer tree, and the leaf walk against both, with
// the probe rect also decoded from the input so the fuzzer can steer it onto
// entry boundaries.
func FuzzPackedSearch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 255, 254, 0, 0, 0, 128, 7, 7, 7, 9, 9})
	f.Add([]byte{3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		dims := []int{2, 3, 5, 9}
		dim := dims[int(ops[0])%len(dims)]
		ops = ops[1:]
		if len(ops) > 512 {
			ops = ops[:512]
		}
		coord := func(b byte, axis int) float64 {
			// Spread magnitudes so the float32 mirror loses bits.
			v := float64(b)
			switch axis % 3 {
			case 1:
				v *= 1e5
			case 2:
				v = v/255 + 1.0/3.0
			}
			return v
		}
		var live []vecmat.Vector
		for i := 0; i+dim <= len(ops); i += dim {
			p := make(vecmat.Vector, dim)
			for a := range p {
				p[a] = coord(ops[i+a], a)
			}
			live = append(live, p)
		}
		tr := bulkLoad(t, live, dim, WithPageSize(256))

		p := mustPack(t, tr)
		if p.Len() != tr.Len() {
			t.Fatalf("packed %d entries, tree %d", p.Len(), tr.Len())
		}

		// Probe rect decoded from the trailing bytes (fallback: whole space).
		lo := make(vecmat.Vector, dim)
		hi := make(vecmat.Vector, dim)
		for a := 0; a < dim; a++ {
			lo[a], hi[a] = -1e7, 1e8
			if len(ops) >= 2*(a+1) {
				x := coord(ops[len(ops)-2*a-1], a)
				y := coord(ops[len(ops)-2*a-2], a)
				lo[a], hi[a] = math.Min(x, y), math.Max(x, y)
			}
		}
		q := geom.Rect{Lo: lo, Hi: hi}

		nodesBefore := tr.NodesRead()
		want, err := tr.CollectRect(q)
		if err != nil {
			t.Fatal(err)
		}
		wantNodes := tr.NodesRead() - nodesBefore
		var st SearchStats
		got, err := p.CollectRect(q, &st)
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

		// The leaf walk, with the point test applied by the caller, must
		// give the same ids in the same order and the same counts.
		var stL SearchStats
		var gotL []int64
		if err := p.SearchRectLeaves(q, func(first int, ids []int32, pts []float64) bool {
			if len(pts) != len(ids)*dim {
				t.Fatalf("leaf: %d ids, %d coordinates", len(ids), len(pts))
			}
			for j, id := range ids {
				if lid, lpt := p.Leaf(first + j); lid != int64(id) || &lpt[0] != &pts[j*dim] {
					t.Fatalf("leaf: entry %d of the block at %d is not Leaf(%d)", j, first, first+j)
				}
				if q.Contains(pts[j*dim : (j+1)*dim]) {
					gotL = append(gotL, int64(id))
				}
			}
			return true
		}, &stL); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotL, want) {
			t.Fatalf("leaf walk: %d ids, pointer %d, or their order diverges", len(gotL), len(want))
		}
		if stL != st {
			t.Fatalf("leaf walk: stats %+v, SearchRect %+v", stL, st)
		}

		if len(live) > 0 {
			center := live[int(ops[0])%len(live)]
			radius := float64(ops[len(ops)-1]) * 1e3
			nodesBefore = tr.NodesRead()
			var wantS []int64
			if err := tr.SearchSphere(center, radius, func(_ geom.Rect, id int64) bool {
				wantS = append(wantS, id)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			wantNodes = tr.NodesRead() - nodesBefore
			var stS SearchStats
			var gotS []int64
			if err := p.SearchSphere(center, radius, func(id int64, _ []float64) bool {
				gotS = append(gotS, id)
				return true
			}, &stS); err != nil {
				t.Fatal(err)
			}
			if len(gotS) != len(wantS) {
				t.Fatalf("sphere: packed %d ids, pointer %d", len(gotS), len(wantS))
			}
			for i := range gotS {
				if gotS[i] != wantS[i] {
					t.Fatalf("sphere: id order diverges at %d", i)
				}
			}
			if int(stS.Nodes) != wantNodes {
				t.Fatalf("sphere: packed visited %d nodes, pointer %d", stS.Nodes, wantNodes)
			}
		}
	})
}

// FuzzPackedKNN STR-builds points decoded from the input (a dimension
// selector, a k selector, then dim bytes a point on a coarse lattice that
// holds ±0 and many duplicates; the last point is also the query) and checks
// Packed.NearestNeighbors against a brute-force sort of every point by
// (pointDist2, id): the same ids, in order, with the same distance bits.
// Ids run opposite to input order, so a tie broken by position fails.
func FuzzPackedKNN(f *testing.F) {
	// d=2, k=1, duplicates, ±0.
	f.Add([]byte{0, 0, 10, 10, 10, 10, 10, 10, 129, 129, 128, 128})
	// d=2, k > n.
	f.Add([]byte{0, 200, 1, 2, 3, 4, 5, 6, 7, 8, 128, 129})
	// d=9, ±0.
	f.Add([]byte{1, 3, 128, 129, 128, 129, 128, 129, 128, 129, 128, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 129, 128, 129, 128, 129, 128, 129, 128})
	// d=9, k=1, duplicates.
	f.Add([]byte{1, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	// d=2: a point ties the distance of a node not yet opened, which holds
	// a smaller id at that distance.
	f.Add([]byte("0000\n000\n0000\n\n\n"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		dim := []int{2, 9}[ops[0]&1]
		kSel := int(ops[1])
		ops = ops[2:]
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		coord := func(b byte) float64 {
			v := float64(int(b>>1)-64) / 4
			if b&1 == 1 {
				v = -v
			}
			return v
		}
		var pts []vecmat.Vector
		for i := 0; i+dim <= len(ops); i += dim {
			p := make(vecmat.Vector, dim)
			for a := range p {
				p[a] = coord(ops[i+a])
			}
			pts = append(pts, p)
		}
		n := len(pts)
		if n == 0 {
			return
		}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(n - 1 - i)
		}
		p, err := BuildPacked(pts, ids, dim, WithPageSize(256))
		if err != nil {
			t.Fatal(err)
		}
		q, k := pts[n-1], kSel%(n+3)+1

		want := make([]Neighbor, n)
		for i, pt := range pts {
			want[i] = Neighbor{ID: ids[i], Dist2: pointDist2(pt, q)}
		}
		slices.SortFunc(want, func(a, b Neighbor) int {
			return cmp.Or(cmp.Compare(a.Dist2, b.Dist2), cmp.Compare(a.ID, b.ID))
		})
		want = want[:min(k, n)]

		got, err := p.NearestNeighbors(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d over %d points: %d neighbours, want %d", k, n, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
				t.Fatalf("k=%d over %d points: neighbour %d is %+v, want %+v", k, n, i, got[i], want[i])
			}
		}
	})
}

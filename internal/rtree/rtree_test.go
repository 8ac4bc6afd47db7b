package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

func randPoints(rng *rand.Rand, n, d int, scale float64) []vecmat.Vector {
	pts := make([]vecmat.Vector, n)
	for i := range pts {
		p := make(vecmat.Vector, d)
		for j := range p {
			p[j] = rng.Float64() * scale
		}
		pts[i] = p
	}
	return pts
}

// bulkLoad STR-loads pts under the ids 0, 1, ….
func bulkLoad(t testing.TB, pts []vecmat.Vector, dim int, opts ...Option) *Tree {
	t.Helper()
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	tr, err := BulkLoadPoints(pts, ids, dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// bruteRange returns ids of points inside rect.
func bruteRange(pts []vecmat.Vector, r geom.Rect) []int64 {
	var out []int64
	for i, p := range pts {
		if r.Contains(p) {
			out = append(out, int64(i))
		}
	}
	return out
}

func sortedEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := BulkLoadPoints(nil, nil, 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := BulkLoadPoints(nil, nil, 2, WithPageSize(10)); err == nil {
		t.Error("tiny page accepted")
	}
}

func TestCapacityFromPageSize(t *testing.T) {
	// Paper regime: d=2, 1 KB page, 40-byte entries → M=25.
	maxFill, minFill, err := nodeFill(2, []Option{WithPageSize(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if maxFill != 25 {
		t.Errorf("d=2 M = %d, want 25", maxFill)
	}
	if minFill != 10 {
		t.Errorf("d=2 m = %d, want 10", minFill)
	}
	// d=9: entry = 152 B → M=6.
	maxFill, _, err = nodeFill(9, []Option{WithPageSize(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if maxFill != 6 {
		t.Errorf("d=9 M = %d, want 6", maxFill)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := bulkLoad(t, nil, 2)
	if st := tr.ComputeStats(); tr.Len() != 0 || st.Height != 1 {
		t.Errorf("empty tree Len/Height = %d/%d", tr.Len(), st.Height)
	}
	r := geom.Rect{Lo: vecmat.Vector{0, 0}, Hi: vecmat.Vector{1, 1}}
	ids, err := tr.CollectRect(r)
	if err != nil || len(ids) != 0 {
		t.Errorf("empty search = %v, %v", ids, err)
	}
	nn, err := tr.NearestNeighbors(vecmat.Vector{0, 0}, 3)
	if err != nil || nn != nil {
		t.Errorf("empty kNN = %v, %v", nn, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRangeSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for _, d := range []int{1, 2, 3, 9} {
		pts := randPoints(rng, 3000, d, 1000)
		tr := bulkLoad(t, pts, d)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if tr.Len() != 3000 {
			t.Fatalf("d=%d Len = %d", d, tr.Len())
		}
		for trial := 0; trial < 30; trial++ {
			lo := make(vecmat.Vector, d)
			hi := make(vecmat.Vector, d)
			for j := range lo {
				a, b := rng.Float64()*1000, rng.Float64()*1000
				lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
			}
			r := geom.Rect{Lo: lo, Hi: hi}
			got, err := tr.CollectRect(r)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteRange(pts, r)
			if !sortedEqual(got, want) {
				t.Fatalf("d=%d trial %d: got %d ids, want %d", d, trial, len(got), len(want))
			}
		}
	}
}

func TestSearchEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	pts := randPoints(rng, 500, 2, 100)
	tr := bulkLoad(t, pts, 2)
	r := geom.Rect{Lo: vecmat.Vector{0, 0}, Hi: vecmat.Vector{100, 100}}
	count := 0
	err := tr.SearchRect(r, func(_ geom.Rect, _ int64) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("early termination visited %d, want 10", count)
	}
}

func TestSearchSphereAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	pts := randPoints(rng, 2000, 2, 1000)
	tr := bulkLoad(t, pts, 2)
	for trial := 0; trial < 20; trial++ {
		c := vecmat.Vector{rng.Float64() * 1000, rng.Float64() * 1000}
		radius := rng.Float64() * 200
		var got []int64
		if err := tr.SearchSphere(c, radius, func(r geom.Rect, id int64) bool {
			got = append(got, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		var want []int64
		for i, p := range pts {
			if p.Dist2(c) <= radius*radius {
				want = append(want, int64(i))
			}
		}
		if !sortedEqual(got, want) {
			t.Fatalf("trial %d: sphere search %d ids, want %d", trial, len(got), len(want))
		}
	}
	if err := tr.SearchSphere(vecmat.Vector{0, 0}, -1, nil); err == nil {
		t.Error("negative radius accepted")
	}
	if err := tr.SearchSphere(vecmat.Vector{0}, 1, nil); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestNearestNeighborsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, d := range []int{2, 9} {
		pts := randPoints(rng, 2000, d, 1000)
		tr := bulkLoad(t, pts, d)
		for trial := 0; trial < 15; trial++ {
			q := make(vecmat.Vector, d)
			for j := range q {
				q[j] = rng.Float64() * 1000
			}
			const k = 20
			got, err := tr.NearestNeighbors(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("kNN returned %d results", len(got))
			}
			// Brute force distances.
			dists := make([]float64, len(pts))
			for i, p := range pts {
				dists[i] = p.Dist2(q)
			}
			sort.Float64s(dists)
			for i, nb := range got {
				if math.Abs(nb.Dist2-dists[i]) > 1e-9 {
					t.Fatalf("d=%d trial %d: kNN[%d].Dist2 = %g, want %g", d, trial, i, nb.Dist2, dists[i])
				}
				if i > 0 && got[i].Dist2 < got[i-1].Dist2 {
					t.Fatal("kNN results not sorted")
				}
			}
		}
	}
	tr := bulkLoad(t, randPoints(rng, 10, 2, 1000), 2)
	if _, err := tr.NearestNeighbors(vecmat.Vector{0, 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := tr.NearestNeighbors(vecmat.Vector{0}, 2); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestKNNSmallerThanK(t *testing.T) {
	tr := bulkLoad(t, randPoints(rand.New(rand.NewSource(1)), 5, 2, 10), 2)
	nn, err := tr.NearestNeighbors(vecmat.Vector{0, 0}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 5 {
		t.Errorf("kNN on small tree returned %d, want 5", len(nn))
	}
}

func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, n := range []int{0, 1, 10, 25, 26, 1000, 20000} {
		pts := randPoints(rng, n, 2, 1000)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		tr, err := BulkLoadPoints(pts, ids, 2)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Spot check a few range queries.
		for trial := 0; trial < 5 && n > 0; trial++ {
			lo := vecmat.Vector{rng.Float64() * 800, rng.Float64() * 800}
			hi := vecmat.Vector{lo[0] + 150, lo[1] + 150}
			r := geom.Rect{Lo: lo, Hi: hi}
			got, _ := tr.CollectRect(r)
			if !sortedEqual(got, bruteRange(pts, r)) {
				t.Fatalf("n=%d: bulk-loaded search mismatch", n)
			}
		}
	}
	if _, err := BulkLoadPoints(randPoints(rng, 3, 2, 1), []int64{1}, 2); err == nil {
		t.Error("mismatched ids accepted")
	}
	if _, err := BulkLoadPoints(randPoints(rng, 3, 3, 1), []int64{1, 2, 3}, 2); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestBulkLoad9D(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	pts := randPoints(rng, 5000, 9, 10)
	ids := make([]int64, len(pts))
	for i := range ids {
		ids[i] = int64(i)
	}
	tr, err := BulkLoadPoints(pts, ids, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fill factor should be high for STR.
	st := tr.ComputeStats()
	if st.AvgFill < 0.6 {
		t.Errorf("STR fill factor %g too low", st.AvgFill)
	}
	// kNN on the bulk-loaded tree.
	q := pts[42]
	nn, err := tr.NearestNeighbors(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nn[0].ID != 42 || nn[0].Dist2 != 0 {
		t.Errorf("nearest to a stored point = id %d dist2 %g", nn[0].ID, nn[0].Dist2)
	}
}

func TestStatsAndNodesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(167))
	pts := randPoints(rng, 5000, 2, 1000)
	tr := bulkLoad(t, pts, 2)
	st := tr.ComputeStats()
	if st.Size != 5000 || st.Nodes < st.Leaves || st.Height < 2 {
		t.Errorf("stats inconsistent: %+v", st)
	}
	tr.ResetStats()
	if tr.NodesRead() != 0 {
		t.Error("ResetStats failed")
	}
	r := geom.Rect{Lo: vecmat.Vector{0, 0}, Hi: vecmat.Vector{50, 50}}
	_, _ = tr.CollectRect(r)
	if tr.NodesRead() == 0 {
		t.Error("NodesRead not counting")
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := vecmat.Vector{5, 5}
	pts := make([]vecmat.Vector, 100)
	for i := range pts {
		pts[i] = p
	}
	tr := bulkLoad(t, pts, 2)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ids, _ := tr.CollectRect(geom.PointRect(p))
	if len(ids) != 100 {
		t.Errorf("duplicate point search found %d", len(ids))
	}
}

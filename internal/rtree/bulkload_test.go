package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gaussrange/internal/data"
	"gaussrange/internal/vecmat"
)

func seqIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) * 3 // not the input position, so a swapped id shows
	}
	return ids
}

// buildWorkers are the worker counts every build check runs the STR build
// at, each with the real least part and with testGrain, so that inputs of a
// few hundred points already split into several parts: the result must not
// depend on either.
var buildWorkers = []int{1, 2, 3, 8}

const testGrain = 256

// buildAt is BuildPacked on the given worker count and least part. It also
// asks for the leaf rows and checks that point i sits at leaf rows[i].
func buildAt(t testing.TB, pts []vecmat.Vector, ids []int64, dim, workers, grain int, opts ...Option) *Packed {
	t.Helper()
	coords, err := flattenPoints(pts, dim)
	if err != nil {
		t.Fatal(err)
	}
	maxFill, minFill, err := nodeFill(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, len(pts))
	p := buildPacked(coords, ids, rows, dim, maxFill, minFill, workers, grain)
	for i, r := range rows {
		want := int64(i)
		if ids != nil {
			want = ids[i]
		}
		if id, pt := p.Leaf(int(r)); id != want || !slices.Equal(pt, coords[i*dim:(i+1)*dim]) {
			t.Fatalf("%d workers: point %d (id %d) has row %d, which holds id %d at %v", workers, i, want, r, id, pt)
		}
	}
	return p
}

// checkBuildMatchesReference holds BuildPacked, and the build at every
// worker count of buildWorkers, to the old pipeline — STR pointer tree by
// reflective stable sort, then Pack — field for field, and checks that
// Unpack inverts Pack on the result, which it returns.
func checkBuildMatchesReference(t *testing.T, pts []vecmat.Vector, dim int, opts ...Option) *Packed {
	t.Helper()
	ids := seqIDs(len(pts))
	ref, err := referenceBulkLoadPoints(pts, ids, dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := mustPack(t, ref)
	got, err := BuildPacked(pts, ids, dim, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("d=%d n=%d: BuildPacked differs from Pack(referenceBulkLoad):\n got %s\nwant %s",
			dim, len(pts), describePacked(got), describePacked(want))
	}
	for _, w := range buildWorkers {
		for _, grain := range []int{parallelGrain, testGrain} {
			if p := buildAt(t, pts, ids, dim, w, grain, opts...); !reflect.DeepEqual(p, want) {
				t.Fatalf("d=%d n=%d: the build on %d workers (least part %d) differs from Pack(referenceBulkLoad):\n got %s\nwant %s",
					dim, len(pts), w, grain, describePacked(p), describePacked(want))
			}
		}
	}
	// The leaves hold every id once, with the coordinates it came in with.
	byID := make(map[int64]vecmat.Vector, len(pts))
	for j := 0; j < got.Len(); j++ {
		id, pt := got.Leaf(j)
		byID[id] = pt
	}
	for i, p := range pts {
		if !reflect.DeepEqual(byID[ids[i]], p) {
			t.Fatalf("d=%d n=%d: Leaf gave id %d = %v, want %v", dim, len(pts), ids[i], byID[ids[i]], p)
		}
	}
	if len(byID) != len(pts) {
		t.Fatalf("d=%d n=%d: the leaves hold %d ids", dim, len(pts), len(byID))
	}
	tr := Unpack(got)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("d=%d n=%d: unpacked tree: %v", dim, len(pts), err)
	}
	if got, want := tr.ComputeStats(), ref.ComputeStats(); got != want {
		t.Fatalf("d=%d n=%d: unpacked tree shape %+v vs reference %+v", dim, len(pts), got, want)
	}
	if back := mustPack(t, tr); !reflect.DeepEqual(back, got) {
		t.Fatalf("d=%d n=%d: Pack(Unpack(p)) != p", dim, len(pts))
	}
	return want
}

// describePacked summarizes the scalar fields and the first few array
// values, enough to see which part of the layout diverged.
func describePacked(p *Packed) string {
	head := func(n int) int { return min(n, 12) }
	return fmt.Sprintf("size=%d height=%d nodes=%d firstLeaf=%d leafBase=%d maxSpan=%d fill=%d/%d errs=%v start=%v ids=%v",
		p.size, p.height, p.NumNodes(), p.firstLeaf, p.leafBase, p.maxSpan, p.minFill, p.maxFill, p.errs,
		p.start[:head(len(p.start))], p.ids[:head(len(p.ids))])
}

func TestBuildPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, dim := range []int{1, 2, 3, 9} {
		M, _, err := nodeFill(dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, M, M + 1, M*M + 1} {
			checkBuildMatchesReference(t, packedRandPoints(rng, n, dim), dim)
		}
		// Duplicates: a handful of distinct values per axis, so nearly every
		// comparison is a tie and only the stable order separates entries.
		dup := make([]vecmat.Vector, 5*M*M)
		for i := range dup {
			p := make(vecmat.Vector, dim)
			for a := range p {
				p[a] = float64(rng.Intn(3))
			}
			dup[i] = p
		}
		checkBuildMatchesReference(t, dup, dim)
		// Collinear: every point on one diagonal, in shuffled order.
		line := make([]vecmat.Vector, 3*M*M)
		for i, k := range rng.Perm(len(line)) {
			p := make(vecmat.Vector, dim)
			for a := range p {
				p[a] = float64(k/2) * 0.1 // each position twice
			}
			line[i] = p
		}
		checkBuildMatchesReference(t, line, dim)
		// Non-default page size: a different fan-out at every level.
		checkBuildMatchesReference(t, packedRandPoints(rng, 2000, dim), dim, WithPageSize(256))
		checkBuildMatchesReference(t, packedRandPoints(rng, 3000, dim), dim, WithPageSize(4096))
	}
	// Inputs aimed at the radix key: signed zeros (−0 and +0 are equal
	// centers, so only the stable order separates them), a few thousand
	// points on a handful of centers, coordinates beyond ±MaxFloat64/2 (the
	// center x+x overflows to ±Inf, so they all tie), and negative
	// coordinates spanning many magnitudes.
	for _, dim := range []int{1, 2, 3, 9} {
		zeros, ties, huge, neg := make([]vecmat.Vector, 2000), make([]vecmat.Vector, 4000), make([]vecmat.Vector, 1500), make([]vecmat.Vector, 3000)
		for i := range zeros {
			zeros[i] = make(vecmat.Vector, dim)
			for a := range zeros[i] {
				switch rng.Intn(3) {
				case 0:
					zeros[i][a] = math.Copysign(0, -1)
				case 1:
					zeros[i][a] = 0
				default:
					zeros[i][a] = rng.NormFloat64() * 1e-300
				}
			}
		}
		for i := range ties {
			ties[i] = make(vecmat.Vector, dim)
			for a := range ties[i] {
				ties[i][a] = float64(rng.Intn(4)) - 1.5
			}
		}
		for i := range huge {
			huge[i] = make(vecmat.Vector, dim)
			for a := range huge[i] {
				v := math.MaxFloat64 * (0.5 + rng.Float64()/2)
				if rng.Intn(3) == 0 {
					v = rng.NormFloat64() * 1e300
				}
				if rng.Intn(2) == 0 {
					v = -v
				}
				huge[i][a] = v
			}
		}
		for i := range neg {
			neg[i] = make(vecmat.Vector, dim)
			for a := range neg[i] {
				neg[i][a] = -math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		for _, pts := range [][]vecmat.Vector{zeros, ties, huge, neg} {
			checkBuildMatchesReference(t, pts, dim)
			checkBuildMatchesReference(t, pts, dim, WithPageSize(256))
		}
	}
	// Around the size a build first splits at (two least parts), at d = 2
	// and 9: duplicate centres and ±0 on every axis, so runs of equal keys
	// straddle the parts' chunks, the key ranges and the slabs, and only a
	// stable order separates them.
	for _, dim := range []int{2, 9} {
		for _, n := range []int{2*parallelGrain - 1, 2 * parallelGrain, 4*parallelGrain + 3} {
			if dim == 9 && n > 2*parallelGrain {
				continue
			}
			pts := make([]vecmat.Vector, n)
			for i := range pts {
				pts[i] = make(vecmat.Vector, dim)
				for a := range pts[i] {
					switch rng.Intn(4) {
					case 0:
						pts[i][a] = math.Copysign(0, -1)
					case 1:
						pts[i][a] = 0
					default:
						pts[i][a] = float64(rng.Intn(50)) - 7.5
					}
				}
			}
			checkBuildMatchesReference(t, pts, dim)
		}
	}
	// The paper's dataset at the paper's page size.
	roads := data.LongBeach(1)
	if len(roads) != 50747 {
		t.Fatalf("LongBeach has %d points, want 50747", len(roads))
	}
	checkBuildMatchesReference(t, roads, 2)
}

func TestBuildPackedRejectsBadInput(t *testing.T) {
	ok := []vecmat.Vector{{1, 2}, {3, 4}}
	if _, err := BuildPacked(ok, []int64{0}, 2); err == nil {
		t.Error("id count mismatch accepted")
	}
	if _, err := BuildPacked([]vecmat.Vector{{1, 2}, {3}}, []int64{0, 1}, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := BuildPacked([]vecmat.Vector{{1, math.NaN()}}, []int64{0}, 2); err == nil {
		t.Error("NaN coordinate accepted")
	}
	if _, err := BuildPacked(nil, nil, 0); err == nil {
		t.Error("dimension 0 accepted")
	}
	if _, err := BuildPacked(ok, []int64{0, 1}, 2, WithPageSize(8)); err == nil {
		t.Error("page size 8 accepted")
	}
	for _, id := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1} {
		if _, err := BuildPacked(ok, []int64{0, id}, 2); err == nil {
			t.Errorf("id %d, which does not fit the int32 leaf id, accepted", id)
		}
	}
}

// TestPartitionSTRMatchesReference: the typed key sort must cut the same
// tiles at the same planes as the Entry-based slicing it replaced, ties
// included.
func TestPartitionSTRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, dim := range []int{1, 2, 3} {
		for _, k := range []int{1, 2, 3, 7, 16} {
			for _, distinct := range []int{5, 1 << 30} {
				pts := make([]vecmat.Vector, 700)
				for i := range pts {
					p := make(vecmat.Vector, dim)
					for a := range p {
						p[a] = float64(rng.Intn(distinct)) / 8
					}
					pts[i] = p
				}
				got, err := PartitionSTR(pts, dim, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := referencePartitionSTR(pts, dim, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("d=%d k=%d distinct=%d: tiles differ from the reference", dim, k, distinct)
				}
			}
		}
	}
}

// FuzzPackedBuild decodes a dimension, a page size, a worker count and a
// point set with many forced ties from the input and holds the build on that
// many workers (least part testGrain) and BuildPacked to the reference
// pipeline.
func FuzzPackedBuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 1, 2, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{3, 2, 0})
	seq := make([]byte, 3, 3+600)
	seq[0], seq[1], seq[2] = 1, 2, 7
	for i := 0; i < 600; i++ {
		seq = append(seq, byte(i*37))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		dims := []int{1, 2, 3, 9}
		pages := []int{128, 256, 1024}
		dim, page, workers := dims[int(in[0])%len(dims)], pages[int(in[1])%len(pages)], 1+int(in[2])%8
		in = in[3:]
		if len(in) > 4096 {
			in = in[:4096]
		}
		// One byte per point: the low nibble is every even axis, the high
		// nibble every odd one — 16 values per axis, so ties dominate; each
		// point is stored in×3 times over to reach a few levels.
		var pts []vecmat.Vector
		for rep := 0; rep < 3; rep++ {
			for _, b := range in {
				p := make(vecmat.Vector, dim)
				for a := range p {
					if a%2 == 0 {
						p[a] = float64(b&15) + float64(rep)/4
					} else {
						p[a] = float64(b>>4) * 1e5
					}
				}
				pts = append(pts, p)
			}
		}
		want := checkBuildMatchesReference(t, pts, dim, WithPageSize(page))
		if got := buildAt(t, pts, seqIDs(len(pts)), dim, workers, testGrain, WithPageSize(page)); !reflect.DeepEqual(got, want) {
			t.Fatalf("d=%d n=%d page=%d: the build on %d workers differs from Pack(referenceBulkLoad):\n got %s\nwant %s",
				dim, len(pts), page, workers, describePacked(got), describePacked(want))
		}
	})
}

// BenchmarkBuildParts times the STR build of uniform 2-D sets, Long Beach
// and the 9-D color moments in one part and in as many as GOMAXPROCS allows
// (least part 1), each build right after a forced GC, as a load's is: the
// measurement behind parallelGrain.
func BenchmarkBuildParts(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sets := map[string][]vecmat.Vector{"longbeach": data.LongBeach(1), "colormoments": data.ColorMoments(1)}
	for _, n := range []int{2000, 8000, 16000, 50000} {
		sets[fmt.Sprint(n)] = packedRandPoints(rng, n, 2)
	}
	for _, name := range []string{"2000", "8000", "16000", "50000", "longbeach", "colormoments"} {
		pts := sets[name]
		dim := pts[0].Dim()
		coords, err := flattenPoints(pts, dim)
		if err != nil {
			b.Fatal(err)
		}
		ids := seqIDs(len(pts))
		maxFill, minFill, err := nodeFill(dim, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("n=%s/parts=%d", name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					runtime.GC()
					b.StartTimer()
					buildPacked(coords, ids, nil, dim, maxFill, minFill, w, 1)
				}
			})
		}
	}
}

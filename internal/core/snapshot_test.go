package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// model mirrors the index with a plain map for oracle comparisons.
type model map[int64]vecmat.Vector

func (m model) rect(r geom.Rect) map[int64]bool {
	out := map[int64]bool{}
	for id, p := range m {
		if r.Contains(p) {
			out[id] = true
		}
	}
	return out
}

func (m model) sphere(c vecmat.Vector, radius float64) map[int64]bool {
	out := map[int64]bool{}
	for id, p := range m {
		if p.Dist2(c) <= radius*radius {
			out[id] = true
		}
	}
	return out
}

// TestSnapshotSearchMatchesModel churns an index with random mutation batches
// and, after every publish, checks SearchRect, SearchSphere and Range against
// a map-based oracle — the overlay merge (tree minus tombstones plus mem
// inserts) must be invisible to callers.
func TestSnapshotSearchMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seedPts []vecmat.Vector
	for i := 0; i < 300; i++ {
		seedPts = append(seedPts, vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100})
	}
	ix, err := NewIndex(seedPts, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for i, p := range seedPts {
		m[int64(i)] = p
	}

	check := func(step int) {
		snap := ix.Current()
		if snap.Len() != len(m) {
			t.Fatalf("step %d: Len=%d, model has %d", step, snap.Len(), len(m))
		}
		lo := vecmat.Vector{rng.Float64() * 80, rng.Float64() * 80}
		r := geom.Rect{Lo: lo, Hi: vecmat.Vector{lo[0] + 30, lo[1] + 30}}
		got, err := snap.SearchRect(r)
		if err != nil {
			t.Fatal(err)
		}
		want := m.rect(r)
		if len(got) != len(want) {
			t.Fatalf("step %d: SearchRect returned %d ids, oracle %d", step, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("step %d: SearchRect returned id %d not in oracle", step, id)
			}
		}

		c := vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100}
		wantS := m.sphere(c, 20)
		gotS := map[int64]bool{}
		if err := snap.SearchSphere(c, 20, func(id int64) bool { gotS[id] = true; return true }); err != nil {
			t.Fatal(err)
		}
		if len(gotS) != len(wantS) {
			t.Fatalf("step %d: SearchSphere returned %d ids, oracle %d", step, len(gotS), len(wantS))
		}
		for id := range gotS {
			if !wantS[id] {
				t.Fatalf("step %d: SearchSphere returned id %d not in oracle", step, id)
			}
		}

		seen := 0
		snap.Range(func(id int64, p vecmat.Vector) bool {
			if _, ok := m[id]; !ok {
				t.Fatalf("step %d: Range visited dead id %d", step, id)
			}
			seen++
			return true
		})
		if seen != len(m) {
			t.Fatalf("step %d: Range visited %d ids, want %d", step, seen, len(m))
		}
	}

	check(-1)
	var liveIDs []int64
	for id := range m {
		liveIDs = append(liveIDs, id)
	}
	for step := 0; step < 60; step++ {
		var ins []vecmat.Vector
		for i := 0; i < rng.Intn(8); i++ {
			ins = append(ins, vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100})
		}
		var dels []int64
		for i := 0; i < rng.Intn(6) && len(liveIDs) > 0; i++ {
			dels = append(dels, liveIDs[rng.Intn(len(liveIDs))])
		}
		ids, deleted, _, err := ix.Apply(ins, dels)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range dels {
			if deleted[i] != (m[id] != nil) {
				t.Fatalf("step %d: delete %d reported %v, oracle liveness %v", step, id, deleted[i], m[id] != nil)
			}
			delete(m, id)
		}
		for i, id := range ids {
			m[id] = ins[i]
			liveIDs = append(liveIDs, id)
		}
		check(step)
	}
}

// TestNearestNeighborsWithTombstones deletes points and checks NN answers
// against a brute-force oracle: dead ids must never surface, and overlay
// inserts must merge in distance order.
func TestNearestNeighborsWithTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var pts []vecmat.Vector
	for i := 0; i < 200; i++ {
		pts = append(pts, vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100})
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for i, p := range pts {
		m[int64(i)] = p
	}
	// Delete a third of the base points, then insert a few overlay points.
	for id := int64(0); id < 200; id += 3 {
		if _, _, _, err := ix.Apply(nil, []int64{id}); err != nil {
			t.Fatal(err)
		}
		delete(m, id)
	}
	for i := 0; i < 10; i++ {
		p := vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100}
		ids, _, _, err := ix.Apply([]vecmat.Vector{p}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m[ids[0]] = p
	}

	snap := ix.Current()
	for trial := 0; trial < 20; trial++ {
		q := vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100}
		const k = 7
		got, err := snap.NearestNeighbors(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: got %d neighbors, want %d", trial, len(got), k)
		}
		// Oracle: the k-th smallest distance among live points.
		var d2s []float64
		for _, p := range m {
			d2s = append(d2s, p.Dist2(q))
		}
		for i := 0; i < k; i++ {
			min := i
			for j := i + 1; j < len(d2s); j++ {
				if d2s[j] < d2s[min] {
					min = j
				}
			}
			d2s[i], d2s[min] = d2s[min], d2s[i]
			if got[i].Dist2 != d2s[i] {
				t.Fatalf("trial %d: neighbor %d has dist2 %v, oracle %v", trial, i, got[i].Dist2, d2s[i])
			}
			if !snap.Alive(got[i].ID) {
				t.Fatalf("trial %d: neighbor %d is dead id %d", trial, i, got[i].ID)
			}
		}
	}
}

// TestNearestNeighborsAllocsFlat holds NearestNeighbors' allocations
// independent of the overlay's size: the overlay's k nearest are kept in
// the answer's own slice, and a rect is built only for an overlay insert
// returned. Overlay inserts far from the probe cost none; the one near it
// comes back with its point as its rect.
func TestNearestNeighborsAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := make([]vecmat.Vector, 5000)
	for i := range pts {
		pts[i] = vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100}
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := vecmat.Vector{50, 50}
	const k = 5
	var allocs []float64
	for _, n := range []int{0, 256, 1024} {
		far := make([]vecmat.Vector, n-len(ix.Current().mem))
		for i := range far {
			far[i] = vecmat.Vector{1000 + rng.Float64()*100, 1000 + rng.Float64()*100}
		}
		if _, _, _, err := ix.Apply(far, nil); err != nil {
			t.Fatal(err)
		}
		snap := ix.Current()
		if ins, _ := snap.OverlaySize(); ins != n {
			t.Fatalf("overlay holds %d inserts, want %d", ins, n)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := snap.NearestNeighbors(q, k); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Fatalf("NearestNeighbors allocates %v with 0, 256 and 1024 overlay inserts; want one count", allocs)
	}

	near := vecmat.Vector{50, 50.001}
	ids, _, _, err := ix.Apply([]vecmat.Vector{near}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Current().NearestNeighbors(q, k)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != ids[0] || got[0].Dist2 != near.Dist2(q) {
		t.Fatalf("nearest is %d at squared distance %g, want the overlay insert %d at %g", got[0].ID, got[0].Dist2, ids[0], near.Dist2(q))
	}
}

// TestRebuildThresholdCrossing pushes the overlay past the rebuild threshold
// and checks that the fold is invisible: overlay drained, answers unchanged,
// and snapshots pinned before the rebuild keep their exact pre-rebuild view.
func TestRebuildThresholdCrossing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []vecmat.Vector
	for i := 0; i < 100; i++ {
		pts = append(pts, vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100})
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for i, p := range pts {
		m[int64(i)] = p
	}

	pinned := ix.Current()
	pinnedLen := pinned.Len()

	// threshold = max(128, live/4); at ~100 live it is 128, so 200
	// replaces (400 overlay entries) force at least one rebuild.
	rebuilds := 0
	for i := 0; i < 200; i++ {
		p := vecmat.Vector{rng.Float64() * 100, rng.Float64() * 100}
		victim := int64(-1)
		for id := range m {
			victim = id
			break
		}
		ids, deleted, _, err := ix.Apply([]vecmat.Vector{p}, []int64{victim})
		if err != nil {
			t.Fatal(err)
		}
		if !deleted[0] {
			t.Fatalf("replace %d: victim %d not deleted", i, victim)
		}
		delete(m, victim)
		m[ids[0]] = p
		if ins, dels := ix.Current().OverlaySize(); ins == 0 && dels == 0 {
			rebuilds++
		}
	}
	if rebuilds == 0 {
		t.Fatal("no rebuild observed after 200 replaces (threshold 128)")
	}

	// Current epoch answers match the oracle.
	whole := geom.Rect{Lo: vecmat.Vector{-1, -1}, Hi: vecmat.Vector{101, 101}}
	got, err := ix.Current().SearchRect(whole)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("after churn: %d live ids, oracle %d", len(got), len(m))
	}
	for _, id := range got {
		if _, ok := m[id]; !ok {
			t.Fatalf("after churn: id %d not in oracle", id)
		}
	}

	// The pre-churn snapshot still sees exactly its own epoch.
	if pinned.Len() != pinnedLen {
		t.Fatalf("pinned snapshot Len changed: %d -> %d", pinnedLen, pinned.Len())
	}
	old, err := pinned.SearchRect(whole)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 100 {
		t.Fatalf("pinned snapshot sees %d points, want the original 100", len(old))
	}
	for _, id := range old {
		if id >= 100 {
			t.Fatalf("pinned snapshot sees id %d inserted after the pin", id)
		}
	}
}

// TestApplySemantics covers the mutation batch contract: id monotonicity,
// duplicate-delete dedup, no-op batches publishing no epoch, and validation
// failing before any state changes.
func TestApplySemantics(t *testing.T) {
	ix, err := NewIndex([]vecmat.Vector{{0, 0}, {1, 1}, {2, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}

	// Duplicate deletes in one batch: only the first counts.
	_, deleted, epoch, err := ix.Apply(nil, []int64{1, 1, 99})
	if err != nil {
		t.Fatal(err)
	}
	if !deleted[0] || deleted[1] || deleted[2] {
		t.Fatalf("dedup: deleted = %v, want [true false false]", deleted)
	}
	if epoch != 2 || ix.Len() != 2 {
		t.Fatalf("after delete: epoch %d len %d, want 2 and 2", epoch, ix.Len())
	}

	// No-op batch: nothing published.
	_, _, epoch, err = ix.Apply(nil, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || ix.Epoch() != 2 {
		t.Fatalf("no-op batch published epoch %d (index at %d), want 2", epoch, ix.Epoch())
	}

	// Validation failure leaves the index untouched.
	if _, _, _, err := ix.Apply([]vecmat.Vector{{1, 2, 3}}, []int64{0}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if ix.Epoch() != 2 || ix.Len() != 2 || !ix.Current().Alive(0) {
		t.Fatal("failed Apply mutated the index")
	}

	// Ids are never reused: the next insert gets id 3 even though 1 is dead.
	ids, _, _, err := ix.Apply([]vecmat.Vector{{5, 5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 3 {
		t.Fatalf("insert after delete got id %d, want 3", ids[0])
	}
}

// TestPointWindowsStable: Point and the packed PointVisitor hand out windows
// on a generation's one copy of the coordinates instead of copies, so that
// copy must never be written while a window on it can exist. Four readers
// record windows from every snapshot they pin while a writer publishes
// inserts, stages and discards batches with other coordinates for the same
// ids and rows, deletes, and crosses two folds; every recorded window must
// still hold the bits it held when it was handed out. Run under -race.
func TestPointWindowsStable(t *testing.T) {
	coords := func(id int64) vecmat.Vector { return vecmat.Vector{float64(id), -0.5 * float64(id)} }
	same := func(a, b vecmat.Vector) bool {
		return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
	}
	seed := make([]vecmat.Vector, 300)
	for i := range seed {
		seed[i] = coords(int64(i))
	}
	ix, err := NewIndex(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	type window struct {
		id int64
		pt vecmat.Vector
	}
	type report struct {
		kept []window
		err  string
	}
	const readers = 4
	var passes atomic.Int64
	done := make(chan struct{})
	reports := make(chan report, readers)
	everything := geom.Rect{Lo: vecmat.Vector{-1e9, -1e9}, Hi: vecmat.Vector{1e9, 1e9}}
	for r := 0; r < readers; r++ {
		go func() {
			var (
				rep  report
				last uint64
			)
			check := func(id int64, pt vecmat.Vector) {
				if !same(pt, coords(id)) && rep.err == "" {
					rep.err = fmt.Sprintf("id %d read as %v, want %v", id, pt, coords(id))
				}
			}
			for {
				select {
				case <-done:
					reports <- rep
					return
				default:
				}
				// Every read is checked; from each epoch a reader pins it
				// keeps the windows on the eight newest live ids — overlay
				// rows whenever there is an overlay — and on the first four
				// points the packed search visits.
				snap := ix.Current()
				fresh := snap.Epoch() != last
				last = snap.Epoch()
				keep := 0
				if fresh {
					keep = 8
				}
				for id := snap.MaxID() - 1; id >= 0; id-- {
					if pt, err := snap.Point(id); err == nil {
						check(id, pt)
						if keep > 0 {
							rep.kept = append(rep.kept, window{id, pt})
							keep--
						}
					}
				}
				keep = 0
				if fresh {
					keep = 4
				}
				snap.Packed().SearchRect(everything, func(id int64, pt []float64) bool {
					check(id, pt)
					if keep > 0 {
						rep.kept = append(rep.kept, window{id, pt})
						keep--
					}
					return true
				}, nil)
				passes.Add(1)
			}
		}()
	}

	folds := 0
	for next := int64(300); folds < 2 || passes.Load() < 400; next++ {
		// A batch staged with other coordinates for the ids and overlay rows
		// the next published insert takes, then discarded.
		st, err := ix.Stage([]vecmat.Vector{{-7, -7}, {-8, -8}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Discard()
		// A delete every third step, so folds do not land where the
		// overlay block's append happens to reallocate it.
		var del []int64
		if next%3 == 0 {
			del = []int64{next - 250}
		}
		before, _ := ix.Current().OverlaySize()
		st, err = ix.Stage([]vecmat.Vector{coords(next)}, nil, del)
		if err != nil {
			t.Fatal(err)
		}
		if st.IDs[0] != next {
			t.Fatalf("insert got id %d, want %d", st.IDs[0], next)
		}
		st.Publish()
		if after, _ := ix.Current().OverlaySize(); after < before {
			folds++
		}
		runtime.Gosched()
	}
	close(done)
	windows := 0
	for r := 0; r < readers; r++ {
		rep := <-reports
		if rep.err != "" {
			t.Fatal(rep.err)
		}
		for _, w := range rep.kept {
			if !same(w.pt, coords(w.id)) {
				t.Fatalf("window on id %d now holds %v, handed out as %v", w.id, w.pt, coords(w.id))
			}
		}
		windows += len(rep.kept)
	}
	t.Logf("%d folds, %d reader passes, %d windows rechecked", folds, passes.Load(), windows)
}

package core

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// tombModel is the reference a differential tombstone script runs against:
// the live points as a map, plus the overlay counters the fold rule reads,
// replayed with the same threshold Stage applies.
type tombModel struct {
	pts      map[int64]vecmat.Vector // live points
	base     map[int64]bool          // ids live at the last fold (or the load)
	maxID    int64
	epoch    uint64
	mem      int // overlay inserts since the last fold
	dead     int // tombstones since the last fold
	deadBase int // of those, ids that were in the base
	folds    int
}

func (m *tombModel) clone() *tombModel {
	c := *m
	c.pts = maps.Clone(m.pts)
	c.base = maps.Clone(m.base)
	return &c
}

// apply replays one batch — deletes first, then inserts — and returns what
// Apply must report.
func (m *tombModel) apply(inserts []vecmat.Vector, insertIDs, deletes []int64) (ids []int64, deleted []bool) {
	deleted = make([]bool, len(deletes))
	for i, id := range deletes {
		if _, ok := m.pts[id]; ok {
			deleted[i] = true
			delete(m.pts, id)
			m.dead++
			if m.base[id] {
				m.deadBase++
			}
		}
	}
	for i, p := range inserts {
		id := m.maxID
		if insertIDs != nil {
			id = insertIDs[i]
		}
		m.pts[id] = p
		m.maxID = id + 1
		m.mem++
		ids = append(ids, id)
	}
	if len(inserts) == 0 && !slices.Contains(deleted, true) {
		return ids, deleted
	}
	m.epoch++
	if m.mem+m.dead > rebuildThreshold(len(m.pts)) {
		m.base = map[int64]bool{}
		for id := range m.pts {
			m.base[id] = true
		}
		m.mem, m.dead, m.deadBase = 0, 0, 0
		m.folds++
	}
	return ids, deleted
}

// TestTombstonesDifferential runs random mutation scripts — Apply and
// ApplyWithIDs with holes, Stage then Discard, deletes of base, overlay,
// unknown and repeated ids, at least three folds each — against tombModel.
// After every step the current snapshot and one pinned older snapshot must
// match their models in Alive, Point's error, OverlaySize, SearchRect,
// SearchSphere and NearestNeighbors (ties by id), and a reused hull plan
// must answer the model's ids; the older snapshot keeps its view through
// every later delete. Readers pin snapshots concurrently, so under -race
// (make verify) this is also the bitset's publication test.
func TestTombstonesDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		runTombstoneScript(t, seed)
	}
}

func runTombstoneScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Integer coordinates: duplicates and equal distances are common, so the
	// kNN checks see ties.
	randPoint := func() vecmat.Vector {
		return vecmat.Vector{float64(rng.Intn(101)), float64(rng.Intn(101))}
	}
	pts := make([]vecmat.Vector, 400)
	for i := range pts {
		pts[i] = randPoint()
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &tombModel{pts: map[int64]vecmat.Vector{}, base: map[int64]bool{}, maxID: int64(len(pts)), epoch: 1}
	for id, p := range pts {
		m.pts[int64(id)] = p
		m.base[int64(id)] = true
	}

	// The hull plan is compiled and rebound once, then reused on every
	// epoch; an id's verdict never changes, so the model's is cached.
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{50, 50}, 10, 25, 0.01)
	fresh, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fresh.Rebind(q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if plan.hull == nil {
		t.Fatal("no hull on the rebound plan")
	}
	quals := map[int64]bool{}
	wantPlan := func() []int64 {
		var ids []int64
		for id, p := range m.pts {
			qual, ok := quals[id]
			if !ok {
				pr, err := e.eval.Qualification(q.Dist, p, q.Delta)
				if err != nil {
					t.Fatal(err)
				}
				qual = pr >= q.Theta
				quals[id] = qual
			}
			if qual {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		return ids
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			everything := geom.Rect{Lo: vecmat.Vector{-1, -1}, Hi: vecmat.Vector{102, 102}}
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := ix.Current()
				ids, err := snap.SearchRect(everything)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ids) != snap.Len() {
					t.Errorf("epoch %d: reader saw %d ids, Len %d", snap.Epoch(), len(ids), snap.Len())
					return
				}
				for _, id := range ids {
					if !snap.Alive(id) {
						t.Errorf("epoch %d: reader saw tombstoned id %d", snap.Epoch(), id)
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()

	older, olderModel := ix.Current(), m.clone()
	for step := 0; step < 300; step++ {
		// Deletes mix live base and overlay ids, an id already dead, unknown
		// ids past MaxID or negative, and a repeat within the batch.
		var live, overlay []int64
		for id := range m.pts {
			live = append(live, id)
			if !m.base[id] {
				overlay = append(overlay, id)
			}
		}
		slices.Sort(live)
		slices.Sort(overlay)
		var dels []int64
		for i := rng.Intn(5); i > 0; i-- {
			switch rng.Intn(6) {
			case 0, 1:
				dels = append(dels, live[rng.Intn(len(live))])
			case 2, 3:
				if len(overlay) > 0 {
					dels = append(dels, overlay[rng.Intn(len(overlay))])
				}
			case 4:
				dels = append(dels, m.maxID+int64(rng.Intn(3)), -1-int64(rng.Intn(2)))
			case 5:
				if id := rng.Int63n(m.maxID); m.pts[id] == nil {
					dels = append(dels, id) // a hole or a tombstone
				}
			}
		}
		if len(dels) > 0 && rng.Intn(4) == 0 {
			dels = append(dels, dels[rng.Intn(len(dels))])
		}
		var ins []vecmat.Vector
		for i := rng.Intn(5); i > 0; i-- {
			if p := randPoint(); rng.Intn(3) > 0 || len(live) == 0 {
				ins = append(ins, p)
			} else {
				ins = append(ins, m.pts[live[rng.Intn(len(live))]]) // a duplicate
			}
		}

		switch rng.Intn(4) {
		case 0: // Stage then Discard: nothing may change.
			st, err := ix.Stage(ins, nil, dels)
			if err != nil {
				t.Fatal(err)
			}
			before := ix.Current()
			st.Discard()
			if ix.Current() != before {
				t.Fatalf("seed %d step %d: Discard published", seed, step)
			}
		case 1: // ApplyWithIDs, skipping ids to leave holes.
			insIDs := make([]int64, len(ins))
			next := m.maxID
			for i := range insIDs {
				next += int64(rng.Intn(3))
				insIDs[i] = next
				next++
			}
			wantIDs, wantDel := m.apply(ins, insIDs, dels)
			deleted, epoch, err := ix.ApplyWithIDs(ins, insIDs, dels)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(deleted, wantDel) || epoch != m.epoch || len(wantIDs) != len(ins) {
				t.Fatalf("seed %d step %d: ApplyWithIDs deleted %v epoch %d, model %v epoch %d", seed, step, deleted, epoch, wantDel, m.epoch)
			}
		default:
			wantIDs, wantDel := m.apply(ins, nil, dels)
			ids, deleted, epoch, err := ix.Apply(ins, dels)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, wantIDs) || !slices.Equal(deleted, wantDel) || epoch != m.epoch {
				t.Fatalf("seed %d step %d: Apply ids %v deleted %v epoch %d, model %v %v %d", seed, step, ids, deleted, epoch, wantIDs, wantDel, m.epoch)
			}
		}

		checkTombSnapshot(t, rng, ix.Current(), m, "current")
		checkTombSnapshot(t, rng, older, olderModel, "pinned")
		res, err := plan.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := wantPlan(); !slices.Equal(res.IDs, want) {
			t.Fatalf("seed %d step %d: hull plan answers %d ids, model %d", seed, step, len(res.IDs), len(want))
		}
		if t.Failed() {
			t.FailNow()
		}
		if step%40 == 39 {
			older, olderModel = ix.Current(), m.clone()
		}
	}
	if m.folds < 3 {
		t.Fatalf("seed %d: script crossed %d folds, want at least 3", seed, m.folds)
	}
}

// checkTombSnapshot compares one snapshot with its model.
func checkTombSnapshot(t *testing.T, rng *rand.Rand, snap *Snapshot, m *tombModel, which string) {
	t.Helper()
	if snap.Epoch() != m.epoch || snap.Len() != len(m.pts) || snap.MaxID() != m.maxID {
		t.Fatalf("%s: epoch %d len %d maxID %d, model %d %d %d", which, snap.Epoch(), snap.Len(), snap.MaxID(), m.epoch, len(m.pts), m.maxID)
	}
	if ins, dels := snap.OverlaySize(); ins != m.mem || dels != m.dead || snap.ndeadBase != m.deadBase {
		t.Fatalf("%s epoch %d: overlay %d+%d (%d base), model %d+%d (%d)", which, m.epoch, ins, dels, snap.ndeadBase, m.mem, m.dead, m.deadBase)
	}
	for id := int64(-2); id < m.maxID+2; id++ {
		want, live := m.pts[id]
		p, err := snap.Point(id)
		if snap.Alive(id) != live || (err == nil) != live || (live && !slices.Equal(p, want)) {
			t.Fatalf("%s epoch %d: id %d Alive %v Point (%v, %v), model live %v at %v", which, m.epoch, id, snap.Alive(id), p, err, live, want)
		}
	}

	lo := vecmat.Vector{float64(rng.Intn(80)), float64(rng.Intn(80))}
	r := geom.Rect{Lo: lo, Hi: vecmat.Vector{lo[0] + float64(rng.Intn(40)), lo[1] + float64(rng.Intn(40))}}
	got, err := snap.SearchRect(r)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for id, p := range m.pts {
		if r.Contains(p) {
			want = append(want, id)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s epoch %d: SearchRect %v, model %v", which, m.epoch, got, want)
	}

	c := vecmat.Vector{float64(rng.Intn(101)), float64(rng.Intn(101))}
	radius := float64(5 + rng.Intn(20))
	got, want = got[:0], want[:0]
	if err := snap.SearchSphere(c, radius, func(id int64) bool { got = append(got, id); return true }); err != nil {
		t.Fatal(err)
	}
	for id, p := range m.pts {
		if p.Dist2(c) <= radius*radius {
			want = append(want, id)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s epoch %d: SearchSphere %v, model %v", which, m.epoch, got, want)
	}

	c = vecmat.Vector{float64(rng.Intn(201)) / 2, float64(rng.Intn(201)) / 2}
	k := 1 + rng.Intn(12)
	nn, err := snap.NearestNeighbors(c, k)
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for id := range m.pts {
		want = append(want, id)
	}
	slices.SortFunc(want, func(a, b int64) int {
		if da, db := m.pts[a].Dist2(c), m.pts[b].Dist2(c); da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	want = want[:min(k, len(want))]
	got = got[:0]
	for _, n := range nn {
		got = append(got, n.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s epoch %d: %d nearest to %v are %v, model %v", which, m.epoch, k, c, got, want)
	}
}

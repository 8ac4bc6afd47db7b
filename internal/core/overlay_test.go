package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// frontHalf is what Phases 1 and 2 hand on: the counters and the two lists
// in order, needEval's rows as their ids.
type frontHalf struct {
	st                 PhaseStats
	accepted, needEval []int64
}

// rowIDs returns the ids of snap's rows.
func rowIDs(snap *Snapshot, rows []int64) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i], _ = snap.row(int(r))
	}
	return ids
}

// mustPoint returns snap's point id or fails the test.
func mustPoint(t *testing.T, snap *Snapshot, id int64) vecmat.Vector {
	t.Helper()
	pt, err := snap.Point(id)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// fusedOn runs the default front half of p on snap.
func fusedOn(t *testing.T, p *Plan, snap *Snapshot) frontHalf {
	t.Helper()
	s := new(phase2State)
	s.st = p.baseStats()
	s.st.Epoch = snap.epoch
	p.bindPhase2(s, snap.dim)
	if err := p.filterPhasesFused(snap, s); err != nil {
		t.Fatal(err)
	}
	return frontHalf{s.st, s.accepted, rowIDs(snap, s.needEval)}
}

// linearOn is the reference front half: the base's ids collected first,
// then every overlay row in order against the box, each candidate's row
// (looked up by id) through filterOne.
func linearOn(t *testing.T, p *Plan, snap *Snapshot) frontHalf {
	t.Helper()
	s := new(phase2State)
	s.st = p.baseStats()
	s.st.Epoch = snap.epoch
	p.bindPhase2(s, snap.dim)
	var pst rtree.SearchStats
	for _, id := range linearRect(t, snap, p.searchBox, &pst) {
		r, ok := snap.rowOf(id)
		if !ok {
			t.Fatalf("id %d from the rect search has no row", id)
		}
		s.st.Retrieved++
		p.filterOne(s, id, int64(r), mustPoint(t, snap, id))
	}
	s.st.NodesRead = int(pst.Nodes)
	s.st.OverlayScanned = len(snap.mem)
	return frontHalf{s.st, s.accepted, rowIDs(snap, s.needEval)}
}

// linearRect is the reference rect search: the packed base's collected ids
// minus tombstones, then each live overlay row inside r (no bound below or
// above on any axis: a NaN bound rejects nothing), ascending.
func linearRect(t *testing.T, snap *Snapshot, r geom.Rect, st *rtree.SearchStats) []int64 {
	t.Helper()
	var ids []int64
	err := snap.Packed().SearchRect(r, func(id int64, _ []float64) bool {
		if !tombstoned(snap.dead, id) {
			ids = append(ids, id)
		}
		return true
	}, st)
	if err != nil {
		t.Fatal(err)
	}
rows:
	for i, id := range snap.mem {
		for a, x := range snap.overlayPoint(i) {
			if x < r.Lo[a] || x > r.Hi[a] {
				continue rows
			}
		}
		if !tombstoned(snap.dead, int64(id)) {
			ids = append(ids, int64(id))
		}
	}
	return ids
}

// checkByX checks the ordered overlay's invariants: byX is a permutation of
// the rows below its length, sorted by (x, row), and the tail is shorter
// than overlayTail.
func checkByX(t *testing.T, snap *Snapshot, which string) {
	t.Helper()
	n := len(snap.byX)
	if tail := len(snap.mem) - n; tail < 0 || tail >= overlayTail {
		t.Fatalf("%s epoch %d: %d rows, %d ordered", which, snap.epoch, len(snap.mem), n)
	}
	seen := make([]bool, n)
	for i, row := range snap.byX {
		if row < 0 || int(row) >= n || seen[row] {
			t.Fatalf("%s epoch %d: byX[%d] = %d is not a fresh row below %d", which, snap.epoch, i, row, n)
		}
		seen[row] = true
		if i == 0 {
			continue
		}
		prev := snap.byX[i-1]
		if px, x := snap.overlayPoint(int(prev))[0], snap.overlayPoint(int(row))[0]; px > x || px == x && prev > row {
			t.Fatalf("%s epoch %d: byX[%d..%d] = rows %d, %d at x %v, %v", which, snap.epoch, i-1, i, prev, row, px, x)
		}
	}
}

// TestOrderedOverlayDifferential runs random mutation scripts — inserts one
// at a time and in batches longer than overlayTail, deletes, Stage then
// Discard, three folds or more — over points whose x takes 21 values, ±0
// among them, and probes boxes whose edges sit on those values, some with a
// NaN bound. After every step, on the current snapshot and on a pinned
// older one, the ordered overlay must give the linear scan's answers: the
// front half's accepted and needEval lists in order and its counters, for
// a hull plan and a filter-chain plan, and Snapshot.SearchRect's ids in
// order; ExecuteFunc must stream the reference order; and the pinned
// snapshot must keep answering what it answered when it was pinned.
func TestOrderedOverlayDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		runOverlayScript(t, seed)
	}
}

func runOverlayScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	coord := func() float64 {
		if v := 5 * float64(rng.Intn(21)); v != 0 || rng.Intn(2) == 0 {
			return v
		}
		return negZero
	}
	randPoint := func() vecmat.Vector { return vecmat.Vector{coord(), float64(rng.Intn(101))} }
	randBox := func() geom.Rect {
		x0, x1, y0, y1 := coord(), coord(), coord(), coord()
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		r := geom.Rect{Lo: vecmat.Vector{x0, y0}, Hi: vecmat.Vector{x1, y1}}
		if rng.Intn(5) == 0 {
			bounds := []*float64{&r.Lo[0], &r.Hi[0], &r.Lo[1], &r.Hi[1]}
			*bounds[rng.Intn(4)] = math.NaN()
		}
		return r
	}

	pts := make([]vecmat.Vector, 1000)
	for i := range pts {
		pts[i] = randPoint()
	}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{50, 50}, 10, 25, 0.01)
	chain, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	hullPlan, err := chain.Rebind(q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if chain.hull != nil || hullPlan.hull == nil {
		t.Fatal("want the compiled plan without a hull and the rebound one with it")
	}
	de := e.eval.(DecisionEvaluator)
	quals := map[int64]bool{}
	qualifies := func(snap *Snapshot, id int64) bool {
		qual, ok := quals[id]
		if !ok {
			if qual, err = de.DecideQualifies(q.Dist, mustPoint(t, snap, id), q.Delta, q.Theta); err != nil {
				t.Fatal(err)
			}
			quals[id] = qual
		}
		return qual
	}

	var (
		pinned      *Snapshot
		pinnedBoxes []geom.Rect
		pinnedIDs   [][]int64
	)
	folds, merges := 0, 0
	check := func(step int, snap *Snapshot, which string) {
		checkByX(t, snap, which)
		for probe := 0; probe < 4; probe++ {
			box := randBox()
			got, err := snap.SearchRect(box)
			if err != nil {
				t.Fatal(err)
			}
			if want := linearRect(t, snap, box, nil); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d %s: SearchRect(%v) = %v, linear %v", seed, step, which, box, got, want)
			}
			for _, base := range []*Plan{chain, hullPlan} {
				p := *base
				p.searchBox = box
				got, want := fusedOn(t, &p, snap), linearOn(t, &p, snap)
				got.st.PhaseDurations, got.st.F32Rechecks = [3]time.Duration{}, 0
				if got.st != want.st || !slices.Equal(got.accepted, want.accepted) || !slices.Equal(got.needEval, want.needEval) {
					t.Fatalf("seed %d step %d %s hull %v box %v: front half %+v %v %v, linear %+v %v %v", seed, step, which,
						p.hull != nil, box, got.st, got.accepted, got.needEval, want.st, want.accepted, want.needEval)
				}
				if which != "current" {
					continue
				}
				var stream []int64
				if _, err := p.ExecuteFunc(context.Background(), e.eval, func(id int64) bool {
					stream = append(stream, id)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				wantStream := slices.Clone(want.accepted)
				for _, id := range want.needEval {
					if qualifies(snap, id) {
						wantStream = append(wantStream, id)
					}
				}
				if !slices.Equal(stream, wantStream) {
					t.Fatalf("seed %d step %d hull %v box %v: ExecuteFunc streamed %v, reference %v", seed, step, p.hull != nil, box, stream, wantStream)
				}
			}
		}
	}

	for step := 0; step < 240; step++ {
		cur := ix.Current()
		var dels []int64
		for i := rng.Intn(3); i > 0; i-- {
			if id := rng.Int63n(cur.MaxID()); cur.Alive(id) {
				dels = append(dels, id)
			}
		}
		n := rng.Intn(6)
		if rng.Intn(20) == 0 {
			n = overlayTail + rng.Intn(overlayTail)
		}
		ins := make([]vecmat.Vector, n)
		for i := range ins {
			ins[i] = randPoint()
		}
		if rng.Intn(5) == 0 {
			st, err := ix.Stage(ins, nil, dels)
			if err != nil {
				t.Fatal(err)
			}
			st.Discard()
			if ix.Current() != cur {
				t.Fatalf("seed %d step %d: Discard published", seed, step)
			}
		} else if _, _, _, err := ix.Apply(ins, dels); err != nil {
			t.Fatal(err)
		}
		next := ix.Current()
		switch {
		case next.base != cur.base:
			folds++
		case len(next.byX) != len(cur.byX):
			merges++
		}

		check(step, next, "current")
		if pinned != nil {
			check(step, pinned, "pinned")
			for i, box := range pinnedBoxes {
				got, err := pinned.SearchRect(box)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, pinnedIDs[i]) {
					t.Fatalf("seed %d step %d: pinned epoch %d SearchRect(%v) = %v, at pin time %v", seed, step, pinned.epoch, box, got, pinnedIDs[i])
				}
			}
		}
		if step%30 == 0 {
			pinned, pinnedBoxes, pinnedIDs = next, nil, nil
			for i := 0; i < 4; i++ {
				box := randBox()
				ids, err := pinned.SearchRect(box)
				if err != nil {
					t.Fatal(err)
				}
				pinnedBoxes, pinnedIDs = append(pinnedBoxes, box), append(pinnedIDs, ids)
			}
		}
	}
	if folds < 3 || merges < 3 {
		t.Fatalf("seed %d: script crossed %d folds and %d merges, want at least 3 of each", seed, folds, merges)
	}
}

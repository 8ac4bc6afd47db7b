package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// Snapshot is one immutable epoch of the point collection: a packed R-tree
// over the points present when the base was last built (load, restore or
// the last fold; every epoch between two folds shares it), plus a small overlay
// of mutations applied since — recently inserted ids (mem) and the tombstone
// bitset of ids deleted since (dead). Every search merges the base answer
// with the overlay, so a Snapshot is always an exact view of its epoch.
// Snapshots are never modified after publication; queries pin one with
// Index.Current and read it without any lock, while the writer builds the
// next epoch beside it.
//
// A generation keeps one copy of its coordinates. A base point lives only in
// the packed leaf block; an overlay insert's coordinates are row i of ovl,
// where mem[i] is its id. Leaf entry j is row j, ovl row i row n + i (n the
// base's length); queries carry rows from Phase 2 on. Ids below baseMax are
// base ids (found through byID) or holes, the rest overlay ids or holes. ovl
// and mem are shared structurally across epochs: they are append-only
// between folds (older snapshots hold shorter slice headers over the same
// backing arrays and never index past their own lengths), and a fold starts
// fresh ones. Ids are never reused.
//
// dead has one bit per id up to the highest id deleted (an id past its end is
// not tombstoned) and is nil while the generation has no deletes. Each delete
// batch publishes a fresh copy (Index.Stage), so a published bitset never
// changes and readers need no atomics.
//
// byX orders the ovl rows [0, len(byX)) by (axis-0 coordinate, row) for
// rect searches; the rows past it, fewer than overlayTail, are unsorted.
// Like dead, a published byX never changes (mergeByX); a fold resets it.
type Snapshot struct {
	base  *rtree.Packed
	byID  *idIndex  // the base's rows in id order, shared by the generation
	ovl   []float64 // overlay insert coordinates, row-major; row i is mem[i]'s
	mem   []int32   // ids inserted after the base was built (ascending)
	byX   []int32   // ovl rows ordered by axis 0, see above
	dead  []uint64  // tombstone bitset, see above
	ndead int       // ids set in dead
	// ndeadBase counts the tombstones of base ids: the only ones a base
	// search can return.
	ndeadBase int
	maxID     int64 // MaxID
	baseMax   int64 // MaxID when the base was built
	live      int
	dim       int
	epoch     uint64
}

// idIndex is a generation's by-id index: its base's leaf positions in id
// order, 4 B a base point, reported by a fold's build (rebuildSnapshot) or
// built on a loaded base's first by-id read. No query reads it.
type idIndex struct {
	once sync.Once
	rows []int32
}

// get returns the by-id index of base, building it on first use: the leaf
// positions are radix-sorted by id, each keyed id<<shift | j, through a
// buffer of their own (sortIDs' pooled one would keep 8 B a point alive).
func (x *idIndex) get(base *rtree.Packed) []int32 {
	x.once.Do(func() {
		n := base.Len()
		shift := bits.Len(uint(n))
		keys := make([]int64, n)
		for j := range keys {
			id, _ := base.Leaf(j)
			keys[j] = id<<shift | int64(j)
		}
		radixSort(keys, make([]int64, n))
		x.rows = make([]int32, n)
		for k, key := range keys {
			x.rows[k] = int32(key & (1<<shift - 1))
		}
	})
	return x.rows
}

// Epoch returns the snapshot's version number. Epoch 1 is the initial load;
// every published mutation batch increments it by one.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the number of live points in this epoch.
func (s *Snapshot) Len() int { return s.live }

// Dim returns the point dimensionality.
func (s *Snapshot) Dim() int { return s.dim }

// MaxID returns the exclusive upper bound of identifiers ever assigned up to
// this epoch (deleted ids remain burned).
func (s *Snapshot) MaxID() int64 { return s.maxID }

// Alive reports whether id identifies a live point in this epoch.
func (s *Snapshot) Alive(id int64) bool {
	if id < 0 || id >= s.maxID || tombstoned(s.dead, id) {
		return false
	}
	_, ok := s.rowOf(id)
	return ok
}

// tombstoned reports whether id's bit is set in the tombstone bitset dead.
func tombstoned(dead []uint64, id int64) bool {
	w := uint64(id) >> 6
	return w < uint64(len(dead)) && dead[w]&(1<<(uint64(id)&63)) != 0
}

// rowOf returns the row of id, 0 ≤ id < maxID, and whether it has one (a
// hole has none; a tombstoned id keeps its row): a binary search of mem for
// an overlay id, of the by-id index for a base id.
func (s *Snapshot) rowOf(id int64) (int, bool) {
	if id >= s.baseMax {
		i, ok := slices.BinarySearch(s.mem, int32(id))
		return s.base.Len() + i, ok
	}
	rows := s.byID.get(s.base)
	k, ok := slices.BinarySearchFunc(rows, id, func(j int32, id int64) int {
		leaf, _ := s.base.Leaf(int(j))
		return cmp.Compare(leaf, id)
	})
	if !ok {
		return 0, false
	}
	return int(rows[k]), true
}

// Point returns the coordinates of the identified live point: a window on
// the generation's one copy, which is never written while any snapshot can
// reach it. The caller must not mutate the result.
func (s *Snapshot) Point(id int64) (vecmat.Vector, error) {
	if id < 0 || id >= s.maxID {
		return nil, fmt.Errorf("core: point id %d out of range [0, %d)", id, s.maxID)
	}
	r, ok := s.rowOf(id)
	if !ok || tombstoned(s.dead, id) {
		return nil, fmt.Errorf("core: point id %d is deleted", id)
	}
	_, pt := s.row(r)
	return pt, nil
}

// row returns row r's id and point: leaf entry r of the base, or ovl row
// r − n past the base's n entries.
func (s *Snapshot) row(r int) (int64, vecmat.Vector) {
	if n := s.base.Len(); r >= n {
		return int64(s.mem[r-n]), s.overlayPoint(r - n)
	}
	return s.base.Leaf(r)
}

// overlayPoint returns ovl row i: the coordinates of overlay insert mem[i].
func (s *Snapshot) overlayPoint(i int) vecmat.Vector {
	o := i * s.dim
	return s.ovl[o : o+s.dim : o+s.dim]
}

// Packed exposes the packed base. It is never mutated (mutations land in the
// overlay and the base is only replaced wholesale at fold time), so it is
// valid for the snapshot's entire lifetime and shared across the epochs
// between two folds.
func (s *Snapshot) Packed() *rtree.Packed { return s.base }

// OverlaySize reports the overlay's pending inserts and tombstones — the
// extra per-query work this epoch pays until the next rebuild.
func (s *Snapshot) OverlaySize() (inserted, deleted int) {
	return len(s.mem), s.ndead
}

// searchRect calls fn with the id and coordinates of every live point
// inside r: the packed base's in walk order, then the overlay inserts' in
// row order.
func (s *Snapshot) searchRect(r geom.Rect, fn func(id int64, p vecmat.Vector)) error {
	err := s.base.SearchRect(r, func(id int64, p []float64) bool {
		if !tombstoned(s.dead, id) {
			fn(id, p)
		}
		return true
	}, nil)
	if err != nil {
		return err
	}
	for _, row := range s.overlayRows(r, nil) {
		if id := int64(s.mem[row]); !tombstoned(s.dead, id) {
			fn(id, s.overlayPoint(int(row)))
		}
	}
	return nil
}

// overlayTail is the tail length at which Stage merges the tail into byX.
const overlayTail = 64

// overlayRows appends to rows the ovl rows inside r (r.Contains), dead or
// not, ascending — the order every rect reader merges the overlay in. The
// binary searches make Contains' axis-0 comparisons, so the slab holds
// exactly the ordered rows that pass them; the tail's rows are all higher.
func (s *Snapshot) overlayRows(r geom.Rect, rows []int32) []int32 {
	d, byX := s.dim, s.byX
	ovl := s.ovl[:len(s.mem)*d]
	lo0, hi0 := r.Lo[0], r.Hi[0]
	rest := geom.Rect{Lo: r.Lo[1:d], Hi: r.Hi[1:d]}
	from := sort.Search(len(byX), func(i int) bool { return !(ovl[int(byX[i])*d] < lo0) })
	to := from + sort.Search(len(byX)-from, func(i int) bool { return ovl[int(byX[from+i])*d] > hi0 })
	start := len(rows)
	for _, row := range byX[from:to] {
		o := int(row) * d
		if rest.Contains(ovl[o+1 : o+d]) {
			rows = append(rows, row)
		}
	}
	slices.Sort(rows[start:])
	for row := len(byX); row < len(s.mem); row++ {
		o := row * d
		if r.Contains(ovl[o : o+d]) {
			rows = append(rows, int32(row))
		}
	}
	return rows
}

// mergeByX returns byX with the tail rows merged in, as a fresh slice: the
// snapshots sharing the old one keep their view, and a discarded stage
// leaves nothing behind.
func (s *Snapshot) mergeByX() []int32 {
	d, old := s.dim, s.byX
	x := func(row int32) float64 { return s.ovl[int(row)*d] }
	out := make([]int32, len(s.mem))
	// The sorted tail goes to the front of out and the merge writes from the
	// back, so no unread tail row is overwritten. On equal x, the tail's
	// higher rows go after the old ones.
	tail := out[:len(out)-len(old)]
	for i := range tail {
		tail[i] = int32(len(old) + i)
	}
	slices.SortFunc(tail, func(a, b int32) int {
		if c := cmp.Compare(x(a), x(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	i, j := len(old)-1, len(tail)-1
	for w := len(out) - 1; i >= 0; w-- {
		if j >= 0 && !(x(tail[j]) < x(old[i])) {
			out[w] = tail[j]
			j--
		} else {
			out[w] = old[i]
			i--
		}
	}
	return out
}

// SearchSphere invokes fn for every live point within Euclidean distance
// radius of center. Returning false stops the search early.
func (s *Snapshot) SearchSphere(center vecmat.Vector, radius float64, fn func(id int64) bool) error {
	stopped := false
	err := s.base.SearchSphere(center, radius, func(id int64, _ []float64) bool {
		if tombstoned(s.dead, id) {
			return true
		}
		if !fn(id) {
			stopped = true
			return false
		}
		return true
	}, nil)
	if err != nil || stopped {
		return err
	}
	r2 := radius * radius
	for i, id32 := range s.mem {
		id := int64(id32)
		if tombstoned(s.dead, id) {
			continue
		}
		if s.overlayPoint(i).Dist2(center) <= r2 {
			if !fn(id) {
				return nil
			}
		}
	}
	return nil
}

// NearestNeighbors returns the k live points closest to p, nearest first.
// The packed base is asked for k plus its own tombstones (overlay
// tombstones are never in it), and the k nearest live overlay inserts are
// merged by distance; ties go to the smaller id.
func (s *Snapshot) NearestNeighbors(p vecmat.Vector, k int) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	fetch := k + s.ndeadBase
	base, err := s.base.NearestNeighbors(p, fetch)
	if err != nil {
		return nil, err
	}
	out := make([]rtree.Neighbor, 0, len(base)+min(k, len(s.mem)))
	for _, n := range base {
		if tombstoned(s.dead, n.ID) {
			continue
		}
		out = append(out, n)
	}
	// out[nb:] holds the k nearest overlay inserts so far; once full, it is
	// a max-heap with the farthest at its root.
	nb := len(out)
	for i, id32 := range s.mem {
		id := int64(id32)
		if tombstoned(s.dead, id) {
			continue
		}
		c := rtree.Neighbor{ID: id, Dist2: s.overlayPoint(i).Dist2(p)}
		if h := out[nb:]; len(h) < k {
			if out = append(out, c); len(h)+1 == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(out[nb:], j)
				}
			}
		} else if cmpNeighbor(c, h[0]) < 0 {
			h[0] = c
			siftDown(h, 0)
		}
	}
	slices.SortFunc(out, cmpNeighbor)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// cmpNeighbor orders neighbours by distance, then id.
func cmpNeighbor(a, b rtree.Neighbor) int {
	if c := cmp.Compare(a.Dist2, b.Dist2); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// siftDown moves h[i] down until no child of it is farther (cmpNeighbor):
// the max-heap order of h below i is then restored.
func siftDown(h []rtree.Neighbor, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmpNeighbor(h[c], h[c+1]) < 0 {
			c++
		}
		if cmpNeighbor(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Range calls fn for every live point in ascending id order, stopping early
// when fn returns false: the base's rows through the by-id index, then the
// overlay's, whose ids are all higher. This is the iteration order the
// persistence layer serializes and the fold gathers in.
func (s *Snapshot) Range(fn func(id int64, p vecmat.Vector) bool) {
	for _, j := range s.byID.get(s.base) {
		if id, pt := s.base.Leaf(int(j)); !tombstoned(s.dead, id) && !fn(id, pt) {
			return
		}
	}
	for i, id := range s.mem {
		if !tombstoned(s.dead, int64(id)) && !fn(int64(id), s.overlayPoint(i)) {
			return
		}
	}
}

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// base is one generation of the immutable base structure: the packed R-tree
// STR-built over the points live at load, restore or the last overlay fold.
// Every epoch between two folds shares one base. Queries run on the packed
// arrays alone; the pointer-tree form is a derived view, unpacked on first
// request (once, for all the epochs sharing the base) for the few consumers
// that still walk nodes — Snapshot.NearestNeighbors, the
// Options.PointerPhase1 arm, and Snapshot.Tree's diagnostics.
type base struct {
	packed *rtree.Packed
	once   sync.Once
	tree   atomic.Pointer[rtree.Tree] // stored by once; atomic so TreeBuilt can look without unpacking
}

// pointerTree returns the derived pointer tree, unpacking it on first use.
func (b *base) pointerTree() *rtree.Tree {
	b.once.Do(func() { b.tree.Store(rtree.Unpack(b.packed)) })
	return b.tree.Load()
}

// Snapshot is one immutable epoch of the point collection: a packed R-tree
// over the points present when the base was last built, plus a small overlay
// of mutations applied since — recently inserted ids (mem) and the tombstone
// bitset of ids deleted since (dead). Every search merges the base answer
// with the overlay, so a Snapshot is always an exact view of its epoch.
// Snapshots are never modified after publication; queries pin one with
// Index.Current and read it without any lock, while the writer builds the
// next epoch beside it.
//
// A generation keeps one copy of its coordinates. A base point lives only in
// the packed leaf block; an overlay insert's coordinates are row i of ovl,
// where mem[i] is its id. The id-indexed slot table says where each id's
// point is: its leaf position j in the base (0 ≤ j < base length), the base
// length plus its ovl row, or −1 for an id deleted before the last fold (or
// skipped by an explicit-id insert). slot, ovl and mem are shared
// structurally across epochs: they are append-only between folds (older
// snapshots hold shorter slice headers over the same backing arrays and
// never index past their own lengths), and a fold starts fresh ones. Ids are
// never reused.
//
// dead has one bit per id below the MaxID of the delete batch that made it
// (an id past its end is not tombstoned) and is nil while the generation has
// no deletes. Each delete batch publishes a fresh copy (Index.Stage), so a
// published bitset never changes and readers need no atomics.
type Snapshot struct {
	base  *base
	slot  []int32   // id-indexed: leaf position, base length + ovl row, or −1
	ovl   []float64 // overlay insert coordinates, row-major; row i is mem[i]'s
	mem   []int64   // ids inserted after the base was built (ascending)
	dead  []uint64  // tombstone bitset, see above
	ndead int       // ids set in dead
	// ndeadBase counts the tombstones whose slot is in the base: the only
	// ones a base search can return.
	ndeadBase int
	live      int
	dim       int
	epoch     uint64
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
func (s *Snapshot) MaxID() int64 { return int64(len(s.slot)) }

// Alive reports whether id identifies a live point in this epoch.
func (s *Snapshot) Alive(id int64) bool {
	if id < 0 || id >= int64(len(s.slot)) || s.slot[id] < 0 {
		return false
	}
	return !tombstoned(s.dead, id)
}

// tombstoned reports whether id's bit is set in the tombstone bitset dead.
func tombstoned(dead []uint64, id int64) bool {
	w := uint64(id) >> 6
	return w < uint64(len(dead)) && dead[w]&(1<<(uint64(id)&63)) != 0
}

// Point returns the coordinates of the identified live point: a window on
// the generation's one copy, which is never written while any snapshot can
// reach it. The caller must not mutate the result.
func (s *Snapshot) Point(id int64) (vecmat.Vector, error) {
	if id < 0 || id >= int64(len(s.slot)) {
		return nil, fmt.Errorf("core: point id %d out of range [0, %d)", id, len(s.slot))
	}
	if !s.Alive(id) {
		return nil, fmt.Errorf("core: point id %d is deleted", id)
	}
	return s.point(id), nil
}

// point returns the coordinates of id without liveness checks — for
// executors iterating ids this snapshot itself produced.
func (s *Snapshot) point(id int64) vecmat.Vector {
	j := int(s.slot[id])
	if n := s.base.packed.Len(); j >= n {
		return s.overlayPoint(j - n)
	}
	_, pt := s.base.packed.Leaf(j)
	return pt
}

// overlayPoint returns ovl row i: the coordinates of overlay insert mem[i].
func (s *Snapshot) overlayPoint(i int) vecmat.Vector {
	o := i * s.dim
	return s.ovl[o : o+s.dim : o+s.dim]
}

// Tree exposes the snapshot's base as a pointer R-tree for diagnostics and
// the node-I/O experiments. It is unpacked from the packed base on first
// request and shared by the epochs that share the base; nothing the query
// path needs, so a process that never asks never pays for it. It does not
// see the overlay; use the Snapshot search methods for exact answers.
func (s *Snapshot) Tree() *rtree.Tree { return s.base.pointerTree() }

// TreeBuilt reports whether anything has asked this snapshot's base for its
// pointer tree yet — build-cost accounting: false means the process is
// serving from the packed arrays alone.
func (s *Snapshot) TreeBuilt() bool { return s.base.tree.Load() != nil }

// Packed exposes the packed base. It is never mutated (mutations land in the
// overlay and the base is only replaced wholesale at fold time), so it is
// valid for the snapshot's entire lifetime and shared across the epochs
// between two folds.
func (s *Snapshot) Packed() *rtree.Packed { return s.base.packed }

// OverlaySize reports the overlay's pending inserts and tombstones — the
// extra per-query work this epoch pays until the next rebuild.
func (s *Snapshot) OverlaySize() (inserted, deleted int) {
	return len(s.mem), s.ndead
}

// SearchRect returns the identifiers of live points inside the rectangle:
// the packed base's answer minus tombstones, plus matching overlay inserts.
func (s *Snapshot) SearchRect(r geom.Rect) ([]int64, error) {
	return s.searchRect(r, false)
}

// searchRect is SearchRect with the base half run on the packed arrays or,
// for the Options.PointerPhase1 arm, on the derived pointer tree; both
// return the same ids in the same order.
func (s *Snapshot) searchRect(r geom.Rect, pointer bool) ([]int64, error) {
	var (
		ids []int64
		err error
	)
	if pointer {
		ids, err = s.Tree().CollectRect(r)
	} else {
		ids, err = s.base.packed.CollectRect(r, nil)
	}
	if err != nil {
		return nil, err
	}
	if s.ndeadBase > 0 {
		kept := ids[:0]
		for _, id := range ids {
			if !tombstoned(s.dead, id) {
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	for i, id := range s.mem {
		if tombstoned(s.dead, id) {
			continue
		}
		if r.Contains(s.overlayPoint(i)) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// SearchSphere invokes fn for every live point within Euclidean distance
// radius of center. Returning false stops the search early.
func (s *Snapshot) SearchSphere(center vecmat.Vector, radius float64, fn func(id int64) bool) error {
	stopped := false
	err := s.base.packed.SearchSphere(center, radius, func(id int64, _ []float64) bool {
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
	for i, id := range s.mem {
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
// The base tree is asked for k plus its own tombstones (overlay tombstones
// are never in it), and overlay inserts are merged by distance; ties go to
// the smaller id.
func (s *Snapshot) NearestNeighbors(p vecmat.Vector, k int) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	fetch := k + s.ndeadBase
	base, err := s.Tree().NearestNeighbors(p, fetch)
	if err != nil {
		return nil, err
	}
	out := make([]rtree.Neighbor, 0, k+len(s.mem))
	for _, n := range base {
		if tombstoned(s.dead, n.ID) {
			continue
		}
		out = append(out, n)
	}
	for i, id := range s.mem {
		if tombstoned(s.dead, id) {
			continue
		}
		pt := s.overlayPoint(i)
		out = append(out, rtree.Neighbor{Rect: geom.PointRect(pt), ID: id, Dist2: pt.Dist2(p)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist2 != out[j].Dist2 {
			return out[i].Dist2 < out[j].Dist2
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// Range calls fn for every live point in ascending id order, stopping early
// when fn returns false. This is the iteration order the persistence layer
// serializes.
func (s *Snapshot) Range(fn func(id int64, p vecmat.Vector) bool) {
	for id := int64(0); id < int64(len(s.slot)); id++ {
		if !s.Alive(id) {
			continue
		}
		if !fn(id, s.point(id)) {
			return
		}
	}
}

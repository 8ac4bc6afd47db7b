// Package core implements probabilistic range queries for Gaussian-based
// imprecise query objects — the primary contribution of the reproduced
// paper. A query PRQ(q, Σ, δ, θ) returns every indexed point o whose
// qualification probability Pr(‖x − o‖ ≤ δ) is at least θ, where the query
// object's position x follows N(q, Σ) (Definition 2).
//
// Query processing follows the paper's three phases (§III-B):
//
//  1. Index-based search over an R-tree with a rectilinear search region;
//  2. Filtering by any combination of the three strategies — RR
//     (rectilinear θ-region box + Minkowski fringe), OR (oblique box in the
//     eigenbasis of Σ⁻¹), BF (spherical bounding functions providing a
//     pruning radius α∥ and an acceptance radius α⊥);
//  3. Probability computation for the survivors by a pluggable evaluator
//     (the exact Ruben-series evaluator, or Monte Carlo importance sampling
//     as in the paper, which the experiments still drive).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gaussrange/internal/geom"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// Index is an epoch-versioned point collection: an atomic pointer to the
// current immutable Snapshot. Reads pin a snapshot with Current — no lock on
// the read path — while Insert, Delete and Apply build the next epoch behind
// a writer mutex and publish it atomically, so a query never observes a torn
// mixture of two epochs. Point identifiers are assigned sequentially and
// never reused.
type Index struct {
	dim  int
	opts []rtree.Option // retained for overlay folds

	mu  sync.Mutex // serializes writers; readers never take it
	cur atomic.Pointer[Snapshot]
}

// rebuildThreshold bounds the overlay an epoch may carry before the writer
// folds it into a fresh base: large enough to amortize the O(n log n) rebuild
// over many mutations, small enough that the per-query overlay scan stays
// negligible next to Phase 3.
func rebuildThreshold(live int) int {
	t := live / 4
	if t < 128 {
		t = 128
	}
	if t > 4096 {
		t = 4096
	}
	return t
}

// NewIndex bulk-loads the given points (STR packing) as epoch 1. All points
// must have dimension dim. The points are copied.
func NewIndex(points []vecmat.Vector, dim int, opts ...rtree.Option) (*Index, error) {
	for i, p := range points {
		if p == nil {
			return nil, fmt.Errorf("core: point %d is nil", i)
		}
	}
	return RestoreIndex(points, 1, dim, opts...)
}

// NewDynamicIndex returns an empty epoch-1 index that accepts incremental
// mutations.
func NewDynamicIndex(dim int, opts ...rtree.Option) (*Index, error) {
	return RestoreIndex(nil, 1, dim, opts...)
}

// RestoreIndex rebuilds an index from an id-addressed point slice (nil
// entries are deleted ids, preserved as holes so identifiers stay stable)
// at the given epoch — the persistence layer's entry point. The points are
// copied.
func RestoreIndex(points []vecmat.Vector, epoch uint64, dim int, opts ...rtree.Option) (*Index, error) {
	if epoch == 0 {
		epoch = 1
	}
	b, slot, live, err := newGeneration(len(points), func(id int) vecmat.Vector { return points[id] }, dim, opts)
	if err != nil {
		return nil, err
	}
	ix := &Index{dim: dim, opts: opts}
	ix.cur.Store(&Snapshot{base: b, slot: slot, live: live, dim: dim, epoch: epoch})
	return ix, nil
}

// newGeneration STR-builds a base over the live points of ids 0 .. maxID-1
// — at(id) is id's point, or nil for a hole or a deleted id — and returns it
// with the generation's slot table, built from leaf order, and its live
// count. A generation keeps one copy of its coordinates — the packed leaf
// block — in one allocation, and holds on to nothing of the generation
// before it. A slot is an int32, so a generation holds at most
// math.MaxInt32 points.
func newGeneration(maxID int, at func(id int) vecmat.Vector, dim int, opts []rtree.Option) (*rtree.Packed, []int32, int, error) {
	pts := make([]vecmat.Vector, 0, maxID)
	ids := make([]int64, 0, maxID)
	for id := 0; id < maxID; id++ {
		p := at(id)
		if p == nil {
			continue
		}
		if p.Dim() != dim {
			return nil, nil, 0, fmt.Errorf("core: point %d has dim %d, want %d", id, p.Dim(), dim)
		}
		pts = append(pts, p)
		ids = append(ids, int64(id))
	}
	if len(pts) > math.MaxInt32 {
		return nil, nil, 0, fmt.Errorf("core: %d points in one generation, at most %d", len(pts), math.MaxInt32)
	}
	packed, err := rtree.BuildPacked(pts, ids, dim, opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	slot := make([]int32, maxID)
	for id := range slot {
		slot[id] = -1
	}
	for j := 0; j < packed.Len(); j++ {
		id, _ := packed.Leaf(j)
		slot[id] = int32(j)
	}
	return packed, slot, len(pts), nil
}

// Current pins the current snapshot: an immutable view of the latest
// published epoch, valid indefinitely. This is the entire read hot path — a
// single atomic load.
func (ix *Index) Current() *Snapshot { return ix.cur.Load() }

// Epoch returns the current epoch number.
func (ix *Index) Epoch() uint64 { return ix.Current().epoch }

// Len returns the number of live points in the current epoch.
func (ix *Index) Len() int { return ix.Current().live }

// Dim returns the point dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Point returns the coordinates of the identified point in the current
// epoch. The caller must not mutate the result.
func (ix *Index) Point(id int64) (vecmat.Vector, error) {
	return ix.Current().Point(id)
}

// SearchRect returns the identifiers of live points inside the rectangle.
func (ix *Index) SearchRect(r geom.Rect) ([]int64, error) {
	return ix.Current().SearchRect(r)
}

// NearestNeighbors returns the k nearest live point identifiers to p,
// closest first, with squared distances.
func (ix *Index) NearestNeighbors(p vecmat.Vector, k int) ([]rtree.Neighbor, error) {
	return ix.Current().NearestNeighbors(p, k)
}

// Apply atomically applies one mutation batch — deletes first, then inserts
// — and publishes the result as a single new epoch. It returns the
// identifiers assigned to inserts (in order), a per-delete liveness report
// (false entries were unknown or already deleted — not an error, so replay
// and retries stay idempotent), and the published epoch. A batch that
// changes nothing publishes no epoch and returns the current one.
//
// Validation is complete before any state changes: a dimension or finiteness
// error leaves the index untouched.
func (ix *Index) Apply(inserts []vecmat.Vector, deletes []int64) (ids []int64, deleted []bool, epoch uint64, err error) {
	return ix.apply(inserts, nil, deletes)
}

// ApplyWithIDs is Apply with caller-assigned insert identifiers, for when an
// upstream allocator (a shard router) owns the id space: insert i is stored
// under insertIDs[i] instead of the next sequential id. The ids must be
// strictly increasing and all at least this epoch's MaxID — identifiers below
// that are burned (assigned or tombstoned) and are never reassigned. Skipped
// identifiers become permanent holes, exactly like deleted ids, so disjoint
// id streams from one allocator can interleave across many indexes.
func (ix *Index) ApplyWithIDs(inserts []vecmat.Vector, insertIDs []int64, deletes []int64) (deleted []bool, epoch uint64, err error) {
	if len(insertIDs) != len(inserts) {
		return nil, 0, fmt.Errorf("core: %d insert ids for %d inserts", len(insertIDs), len(inserts))
	}
	if insertIDs == nil {
		insertIDs = []int64{}
	}
	_, deleted, epoch, err = ix.apply(inserts, insertIDs, deletes)
	return deleted, epoch, err
}

// apply implements Apply and ApplyWithIDs; a nil insertIDs means sequential
// assignment.
func (ix *Index) apply(inserts []vecmat.Vector, insertIDs []int64, deletes []int64) (ids []int64, deleted []bool, epoch uint64, err error) {
	st, err := ix.Stage(inserts, insertIDs, deletes)
	if err != nil {
		return nil, nil, 0, err
	}
	st.Publish()
	return st.IDs, st.Deleted, st.Epoch, nil
}

// Staged is a validated mutation batch whose next snapshot has been built but
// not yet published: readers still see the previous epoch, and the writer
// mutex is held until Publish or Discard. The gap is where the write pipeline
// makes the batch durable (append to the log, fsync) before making it
// visible, so a crash never leaves a published epoch that the log lacks.
type Staged struct {
	ix   *Index
	next *Snapshot // nil when the batch changed nothing

	// IDs are the identifiers assigned to the inserts, in order.
	IDs []int64
	// Deleted reports per-delete liveness (false = unknown or already dead).
	Deleted []bool
	// Epoch is the epoch Publish will make current. For a no-op batch it is
	// the already-current epoch.
	Epoch uint64
	// NoOp reports that the batch changed nothing: Publish will not move the
	// epoch, and the batch needs no durability.
	NoOp bool
}

// Stage validates one mutation batch and builds — but does not publish — the
// next snapshot. On success the writer mutex is held until the caller
// resolves the Staged with exactly one of Publish or Discard; on error the
// index is untouched and the mutex released.
//
// All validation (dimensions, finiteness, explicit-id ordering) completes
// before any state changes, exactly as in Apply.
func (ix *Index) Stage(inserts []vecmat.Vector, insertIDs []int64, deletes []int64) (*Staged, error) {
	for i, p := range inserts {
		if p.Dim() != ix.dim {
			return nil, fmt.Errorf("core: insert %d: point dim %d vs index dim %d", i, p.Dim(), ix.dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("core: insert %d: non-finite point %v", i, p)
		}
	}

	ix.mu.Lock()
	cur := ix.cur.Load()

	// Explicit ids are validated under the lock against the live MaxID so the
	// whole batch is rejected before any state changes.
	for i, id := range insertIDs {
		if id < int64(len(cur.slot)) {
			ix.mu.Unlock()
			return nil, fmt.Errorf("core: insert id %d below max id %d (ids are never reused)", id, len(cur.slot))
		}
		if i > 0 && id <= insertIDs[i-1] {
			ix.mu.Unlock()
			return nil, fmt.Errorf("core: insert ids not strictly increasing: %d after %d", id, insertIDs[i-1])
		}
	}

	// An overlay slot is the base length plus its ovl row, an int32.
	if rows := cur.base.Len() + len(cur.mem) + len(inserts); rows > math.MaxInt32 {
		ix.mu.Unlock()
		return nil, fmt.Errorf("core: %d points in one generation, at most %d", rows, math.MaxInt32)
	}

	deleted := make([]bool, len(deletes))
	effective := 0
	for i, id := range deletes {
		if cur.Alive(id) && !containsID(deletes[:i], id) {
			deleted[i] = true
			effective++
		}
	}
	if len(inserts) == 0 && effective == 0 {
		return &Staged{ix: ix, Deleted: deleted, Epoch: cur.epoch, NoOp: true}, nil
	}

	next := &Snapshot{
		base:      cur.base,
		slot:      cur.slot,
		ovl:       cur.ovl,
		mem:       cur.mem,
		byX:       cur.byX,
		dead:      cur.dead,
		ndead:     cur.ndead,
		ndeadBase: cur.ndeadBase,
		live:      cur.live,
		dim:       cur.dim,
		epoch:     cur.epoch + 1,
	}

	if effective > 0 {
		// Copy-on-write of the tombstone bitset: one bit per id below MaxID
		// (MaxID/8 bytes a delete batch), so older epochs keep their exact
		// view and a discarded stage leaves nothing behind.
		dead := make([]uint64, (len(cur.slot)+63)/64)
		copy(dead, cur.dead)
		n := int32(cur.base.Len())
		for i, id := range deletes {
			if deleted[i] {
				dead[id>>6] |= 1 << (id & 63)
				if cur.slot[id] < n {
					next.ndeadBase++
				}
			}
		}
		next.dead = dead
		next.ndead += effective
		next.live -= effective
	}

	var ids []int64
	if len(inserts) > 0 {
		// slot, ovl and mem are append-only between rebuilds: older
		// snapshots hold shorter headers and never read past them, so
		// appending under the writer mutex is safe without copying. Explicit
		// ids pad −1 holes up to their position. A Discarded stage's appends
		// are harmlessly overwritten by the next Stage — no published
		// snapshot reads past its own header length.
		ids = make([]int64, len(inserts))
		for i, p := range inserts {
			id := int64(len(next.slot))
			if insertIDs != nil {
				id = insertIDs[i]
				for int64(len(next.slot)) < id {
					next.slot = append(next.slot, -1)
				}
			}
			next.slot = append(next.slot, int32(next.base.Len()+len(next.mem)))
			next.ovl = append(next.ovl, p...)
			next.mem = append(next.mem, id)
			ids[i] = id
		}
		next.live += len(inserts)
	}

	if len(next.mem)+next.ndead > rebuildThreshold(next.live) {
		if err := ix.rebuildSnapshot(next); err != nil {
			ix.mu.Unlock()
			return nil, err
		}
	} else if len(next.mem)-len(next.byX) >= overlayTail {
		next.byX = next.mergeByX()
	}
	return &Staged{ix: ix, next: next, IDs: ids, Deleted: deleted, Epoch: next.epoch}, nil
}

// Publish makes the staged snapshot the current epoch and releases the
// writer mutex. For a no-op stage it only releases the mutex.
func (s *Staged) Publish() {
	if s.next != nil {
		s.ix.cur.Store(s.next)
	}
	s.ix.mu.Unlock()
	s.next = nil
	s.ix = nil
}

// Discard abandons the staged snapshot without publishing and releases the
// writer mutex. Readers never saw it; the next Stage rebuilds from the
// still-current epoch.
func (s *Staged) Discard() {
	s.ix.mu.Unlock()
	s.next = nil
	s.ix = nil
}

// rebuildSnapshot folds next's overlay into a freshly built base in place,
// clearing the overlay. The live points are gathered through the slots; the
// new generation's slot table and (empty) overlay share nothing with the
// retired epoch's.
func (ix *Index) rebuildSnapshot(next *Snapshot) error {
	b, slot, _, err := newGeneration(len(next.slot), func(id int) vecmat.Vector {
		if !next.Alive(int64(id)) {
			return nil
		}
		return next.point(int64(id))
	}, ix.dim, ix.opts)
	if err != nil {
		return err
	}
	next.base = b
	next.slot = slot
	next.ovl = nil
	next.mem = nil
	next.byX = nil
	next.dead, next.ndead, next.ndeadBase = nil, 0, 0
	return nil
}

func containsID(ids []int64, id int64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

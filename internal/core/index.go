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
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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

// IDLimit bounds the id space: every point id is below it, so an id fits the
// int32 the packed index and the overlay store it in, and so does every row
// of a generation. LoadWithIDs, RestoreIndex (Load and Restore) and Stage
// (Apply, ApplyWithIDs, wal replay) refuse an id at or above it with
// ErrIDLimit before anything is sized from the id.
const IDLimit = math.MaxInt32

// ErrIDLimit is the error an id at or above IDLimit is refused with.
var ErrIDLimit = errors.New("point id not below the id limit 2147483647")

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

// NewIndex bulk-loads the given points (STR packing) as epoch 1, point i
// under id i. All points must have dimension dim. The points are copied.
func NewIndex(points []vecmat.Vector, dim int, opts ...rtree.Option) (*Index, error) {
	coords := make([]float64, 0, len(points)*max(dim, 0))
	for i, p := range points {
		if p == nil {
			return nil, fmt.Errorf("core: point %d is nil", i)
		}
		if p.Dim() != dim {
			return nil, fmt.Errorf("core: point %d has dim %d, want %d", i, p.Dim(), dim)
		}
		coords = append(coords, p...)
	}
	return RestoreIndex(nil, coords, len(points), 1, dim, opts...)
}

// NewDynamicIndex returns an empty epoch-1 index that accepts incremental
// mutations.
func NewDynamicIndex(dim int, opts ...rtree.Option) (*Index, error) {
	return RestoreIndex(nil, nil, 0, 1, dim, opts...)
}

// RestoreIndex builds an index at the given epoch from its live points — the
// persistence layer's and the bulk loaders' entry point. Point i is
// coords[i·dim:(i+1)·dim], stored under ids[i], or under i when ids is nil;
// ids must be strictly increasing and below maxID. Ids below maxID that are
// not listed are deleted ids, preserved as holes so identifiers stay
// stable. coords is read, not retained.
func RestoreIndex(ids []int64, coords []float64, maxID int, epoch uint64, dim int, opts ...rtree.Option) (*Index, error) {
	if epoch == 0 {
		epoch = 1
	}
	live, prev := len(ids), int64(-1)
	if ids == nil && dim > 0 {
		live = len(coords) / dim
		prev = int64(live - 1)
	}
	if maxID > IDLimit {
		return nil, fmt.Errorf("core: max id %d: %w", maxID, ErrIDLimit)
	}
	if prev >= int64(maxID) {
		return nil, fmt.Errorf("core: %d points but max id %d", live, maxID)
	}
	for _, id := range ids {
		if id <= prev || id >= int64(maxID) {
			return nil, fmt.Errorf("core: point id %d out of order or not below max id %d", id, maxID)
		}
		prev = id
	}
	b, err := rtree.BuildPackedFlat(coords, ids, nil, dim, opts...)
	if err != nil {
		return nil, err
	}
	ix := &Index{dim: dim, opts: opts}
	ix.cur.Store(&Snapshot{base: b, byID: new(idIndex), maxID: int64(maxID), baseMax: int64(maxID), live: live, dim: dim, epoch: epoch})
	return ix, nil
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
	// whole batch is rejected before any state changes; sequential ones run
	// from MaxID. Every id stays below IDLimit, and so does every row.
	if insertIDs == nil && cur.maxID+int64(len(inserts)) > IDLimit {
		ix.mu.Unlock()
		return nil, fmt.Errorf("core: %d inserts from max id %d: %w", len(inserts), cur.maxID, ErrIDLimit)
	}
	for i, id := range insertIDs {
		if id >= IDLimit {
			ix.mu.Unlock()
			return nil, fmt.Errorf("core: insert id %d: %w", id, ErrIDLimit)
		}
		if id < cur.maxID {
			ix.mu.Unlock()
			return nil, fmt.Errorf("core: insert id %d below max id %d (ids are never reused)", id, cur.maxID)
		}
		if i > 0 && id <= insertIDs[i-1] {
			ix.mu.Unlock()
			return nil, fmt.Errorf("core: insert ids not strictly increasing: %d after %d", id, insertIDs[i-1])
		}
	}

	deleted := make([]bool, len(deletes))
	effective, maxDeleted := 0, int64(0)
	for i, id := range deletes {
		if cur.Alive(id) && !containsID(deletes[:i], id) {
			deleted[i] = true
			effective++
			maxDeleted = max(maxDeleted, id)
		}
	}
	if len(inserts) == 0 && effective == 0 {
		return &Staged{ix: ix, Deleted: deleted, Epoch: cur.epoch, NoOp: true}, nil
	}

	next := &Snapshot{
		base:      cur.base,
		byID:      cur.byID,
		ovl:       cur.ovl,
		mem:       cur.mem,
		byX:       cur.byX,
		dead:      cur.dead,
		ndead:     cur.ndead,
		ndeadBase: cur.ndeadBase,
		maxID:     cur.maxID,
		baseMax:   cur.baseMax,
		live:      cur.live,
		dim:       cur.dim,
		epoch:     cur.epoch + 1,
	}

	if effective > 0 {
		// Copy-on-write of the tombstone bitset, one bit per id up to the
		// highest id deleted so far, so older epochs keep their exact view
		// and a discarded stage leaves nothing behind.
		dead := make([]uint64, max(len(cur.dead), int(maxDeleted>>6)+1))
		copy(dead, cur.dead)
		for i, id := range deletes {
			if deleted[i] {
				dead[id>>6] |= 1 << (id & 63)
				if id < cur.baseMax {
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
		// ovl and mem are append-only between rebuilds: older snapshots
		// hold shorter headers and never read past them, so appending under
		// the writer mutex is safe without copying. The ids an explicit-id
		// insert skips are holes: no row holds them. A Discarded stage's
		// appends are harmlessly overwritten by the next Stage — no
		// published snapshot reads past its own header length.
		ids = make([]int64, len(inserts))
		for i, p := range inserts {
			id := next.maxID
			if insertIDs != nil {
				id = insertIDs[i]
			}
			next.ovl = append(next.ovl, p...)
			next.mem = append(next.mem, int32(id))
			next.maxID = id + 1
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
// clearing the overlay. The live points are gathered by Range, in id order,
// into the one block the build reads, so the leaf positions the build
// reports for them are the new base's by-id index; the new generation and
// its empty overlay share nothing with the retired epoch's.
func (ix *Index) rebuildSnapshot(next *Snapshot) error {
	ids := make([]int64, 0, next.live)
	coords := make([]float64, 0, next.live*ix.dim)
	next.Range(func(id int64, p vecmat.Vector) bool {
		ids = append(ids, id)
		coords = append(coords, p...)
		return true
	})
	rows := make([]int32, len(ids))
	b, err := rtree.BuildPackedFlat(coords, ids, rows, ix.dim, ix.opts...)
	if err != nil {
		return err
	}
	byID := &idIndex{rows: rows}
	byID.once.Do(func() {})
	next.base, next.byID, next.baseMax = b, byID, next.maxID
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

package gaussrange

import (
	"fmt"
	"time"

	"gaussrange/internal/core"
	"gaussrange/internal/vecmat"
	"gaussrange/internal/wal"
)

// WALConfig configures the segmented group-commit write pipeline.
type WALConfig struct {
	// Dir is the segment store directory. Required.
	Dir string
	// CommitBytes closes a commit group once its encoded size crosses this
	// bound (default wal.DefaultMaxBytes); the rest of the queue waits for
	// the next group.
	CommitBytes int64
	// SegmentBytes rolls the active segment at this size (default
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// SegmentAge rolls the active segment at this age (0 = size-only),
	// bounding how stale the newest shippable sealed segment can be.
	SegmentAge time.Duration
	// Synchronous bypasses the batcher: every Apply runs its own
	// stage→append→fsync→publish cycle, exactly one group per batch. The
	// mode tests and benchmarks compare against; identical epoch and id
	// assignment to grouped mode for any single-writer sequence.
	Synchronous bool
}

// WALStats reports the attached write pipeline's counters.
type WALStats struct {
	Store       wal.StoreStats
	Batcher     wal.BatcherStats // zero value in synchronous mode
	Synchronous bool
}

// walPipeline binds a DB to its segment store and (in grouped mode) batcher.
type walPipeline struct {
	db      *DB
	store   *wal.Store
	batcher *wal.Batcher // nil in synchronous mode

	// preFlush, when set, runs at the start of every flush — a seam for
	// tests that must hold the flusher while submissions queue behind it.
	preFlush func()
}

// AttachWAL opens (creating if needed) the segmented write-ahead log in
// cfg.Dir, replays every logged batch newer than the database's current epoch,
// then routes all later mutations through the group-commit pipeline: Apply,
// ApplyWithIDs, Insert and Delete become submissions that block until their
// commit group's fsync durability point has passed, with one log record, one
// fsync and one published epoch per group. A group is every submission that
// queued while the previous group's fsync ran, so a lone writer waits for its
// own fsync only. It returns the number of batches replayed.
//
// The wal is the database's only journal, and the restart sequence is
// RestoreFile (epoch-stamped snapshot) followed by AttachWAL with the
// directory that was attached when the snapshot was saved: records at or
// below the snapshot's epoch are skipped, and a gap or a replay that does
// not reproduce the logged epochs is an error (wal.Replay).
func (db *DB) AttachWAL(cfg WALConfig) (replayed int, err error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.wal.Load() != nil {
		return 0, fmt.Errorf("gaussrange: a wal is already attached")
	}
	store, err := wal.OpenStore(cfg.Dir, wal.StoreConfig{
		Dim:          db.dim,
		SegmentBytes: cfg.SegmentBytes,
		SegmentAge:   cfg.SegmentAge,
	})
	if err != nil {
		return 0, err
	}
	replayed, err = db.replayWAL(cfg.Dir)
	if err != nil {
		store.Close()
		return 0, err
	}

	p := &walPipeline{db: db, store: store}
	if !cfg.Synchronous {
		b, err := wal.NewBatcher(wal.BatcherConfig{Dim: db.dim, MaxBytes: cfg.CommitBytes}, p.flushGroup)
		if err != nil {
			store.Close()
			return 0, err
		}
		p.batcher = b
	}
	db.wal.Store(p)
	return replayed, nil
}

// replayWAL replays the intact records in dir newer than the current epoch
// into the index. Called with writeMu held.
func (db *DB) replayWAL(dir string) (replayed int, err error) {
	r, err := wal.OpenReader(dir, db.dim)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	replayed, _, err = wal.Replay(r, db.idx.Epoch, func(rec wal.Record) (uint64, error) {
		vecs := make([]vecmat.Vector, len(rec.Inserts))
		for i, p := range rec.Inserts {
			vecs[i] = vecmat.Vector(p)
		}
		if rec.InsertIDs != nil {
			_, epoch, err := db.idx.ApplyWithIDs(vecs, rec.InsertIDs, rec.Deletes)
			return epoch, err
		}
		_, _, epoch, err := db.idx.Apply(vecs, rec.Deletes)
		return epoch, err
	})
	if err != nil {
		return replayed, fmt.Errorf("gaussrange: %w", err)
	}
	return replayed, nil
}

// DetachWAL drains the batcher (every queued submission commits), syncs and
// closes the segment store, and detaches the pipeline. Later mutations run
// unjournaled. Safe to call when no wal is attached.
func (db *DB) DetachWAL() error {
	p := db.wal.Swap(nil)
	if p == nil {
		return nil
	}
	if p.batcher != nil {
		p.batcher.Close()
	}
	return p.store.Close()
}

// WALStats returns the attached pipeline's counters, or ok=false when no wal
// is attached.
func (db *DB) WALStats() (WALStats, bool) {
	p := db.wal.Load()
	if p == nil {
		return WALStats{}, false
	}
	s := WALStats{Store: p.store.Stats(), Synchronous: p.batcher == nil}
	if p.batcher != nil {
		s.Batcher = p.batcher.Stats()
	}
	return s, true
}

// WALDir returns the attached segment store directory ("" when none).
func (db *DB) WALDir() string {
	if p := db.wal.Load(); p != nil {
		return p.store.Dir()
	}
	return ""
}

// apply routes one mutation batch through the pipeline and blocks until its
// group is durable. A nil insertIDs means sequential assignment; the ids the
// flusher actually assigned come back on the submission.
func (p *walPipeline) apply(inserts [][]float64, insertIDs []int64, deletes []int64) (ids []int64, deleted []bool, epoch uint64, err error) {
	s := &wal.Submission{Inserts: inserts, InsertIDs: insertIDs, Deletes: deletes}
	if p.batcher != nil {
		if err := p.batcher.Submit(s); err != nil {
			return nil, nil, 0, err
		}
	} else {
		p.flushGroup([]*wal.Submission{s})
	}
	if s.Err != nil {
		return nil, nil, 0, s.Err
	}
	return s.InsertIDs, s.Deleted, s.Epoch, nil
}

// subPlan records how one submission maps into the combined group batch.
type subPlan struct {
	sub      *wal.Submission
	insOff   int // offset of its inserts in the combined batch
	delOff   int // offset of its deletes
	rejected bool
}

// flushGroup commits one group: walk the submissions in order building ONE
// combined batch (validating each submission in isolation — a bad one fails
// alone), stage the next snapshot, append ONE log record carrying the staged
// epoch and the exact assigned ids, fsync ONCE (the durability point), then
// publish the epoch and ack every submitter. Crash-ordering guarantee: the
// record is durable before the epoch is visible, so recovery replays to a
// prefix of committed groups and never exposes an epoch the log lacks.
func (p *walPipeline) flushGroup(group []*wal.Submission) {
	if p.preFlush != nil {
		p.preFlush()
	}
	db := p.db
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	cur := db.idx.Current()
	nextID := cur.MaxID()
	var (
		plans   []subPlan
		vecs    []vecmat.Vector
		rawIns  [][]float64
		insIDs  []int64
		deletes []int64
	)
	for _, s := range group {
		pl := subPlan{sub: s, insOff: len(insIDs), delOff: len(deletes)}
		if err := validateSubmission(db.dim, s, nextID); err != nil {
			s.Err = err
			pl.rejected = true
			plans = append(plans, pl)
			continue
		}
		for i, pt := range s.Inserts {
			id := nextID + int64(i)
			if s.InsertIDs != nil {
				id = s.InsertIDs[i]
			}
			vecs = append(vecs, vecmat.Vector(pt))
			rawIns = append(rawIns, pt)
			insIDs = append(insIDs, id)
		}
		if n := len(s.Inserts); n > 0 {
			if s.InsertIDs != nil {
				nextID = s.InsertIDs[n-1] + 1
			} else {
				nextID += int64(n)
			}
		}
		deletes = append(deletes, s.Deletes...)
		plans = append(plans, pl)
	}

	if len(vecs) == 0 && len(deletes) == 0 {
		for _, pl := range plans {
			if !pl.rejected {
				pl.sub.Epoch = cur.Epoch()
				pl.sub.Deleted = make([]bool, len(pl.sub.Deletes))
			}
		}
		return
	}

	staged, err := db.idx.Stage(vecs, insIDs, deletes)
	if err != nil {
		// Every submission was individually validated against the same
		// snapshot, so a combined-stage failure is systemic (e.g. a rebuild
		// error), not one submission's fault: fail the whole group.
		for _, pl := range plans {
			if !pl.rejected {
				pl.sub.Err = err
			}
		}
		return
	}

	if !staged.NoOp {
		rec := wal.Record{Epoch: staged.Epoch, Inserts: rawIns, InsertIDs: insIDs, Deletes: deletes}
		if err = p.store.Append(rec); err == nil {
			err = p.store.Sync() // the durability point
		} else {
			p.store.Sync()
		}
		if err != nil {
			staged.Discard()
			for _, pl := range plans {
				if !pl.rejected {
					pl.sub.Err = fmt.Errorf("gaussrange: wal: %w", err)
				}
			}
			return
		}
	}
	staged.Publish()

	for _, pl := range plans {
		if pl.rejected {
			continue
		}
		s := pl.sub
		s.Epoch = staged.Epoch
		s.InsertIDs = insIDs[pl.insOff : pl.insOff+len(s.Inserts)]
		s.Deleted = staged.Deleted[pl.delOff : pl.delOff+len(s.Deletes)]
	}
}

// validateSubmission checks one submission against the snapshot the group is
// staged on, mirroring core.Stage's validation so a bad submission is
// rejected alone while the rest of its group commits.
func validateSubmission(dim int, s *wal.Submission, nextID int64) error {
	if len(s.Inserts) > wal.MaxBatch || len(s.Deletes) > wal.MaxBatch {
		return fmt.Errorf("gaussrange: batch too large: %d inserts / %d deletes", len(s.Inserts), len(s.Deletes))
	}
	if s.InsertIDs != nil && len(s.InsertIDs) != len(s.Inserts) {
		return fmt.Errorf("gaussrange: %d insert ids for %d inserts", len(s.InsertIDs), len(s.Inserts))
	}
	for i, pt := range s.Inserts {
		if len(pt) != dim {
			return fmt.Errorf("core: insert %d: point dim %d vs index dim %d", i, len(pt), dim)
		}
		if !vecmat.Vector(pt).IsFinite() {
			return fmt.Errorf("core: insert %d: non-finite point %v", i, vecmat.Vector(pt))
		}
	}
	if s.InsertIDs == nil && nextID+int64(len(s.Inserts)) > core.IDLimit {
		return fmt.Errorf("gaussrange: %d inserts from max id %d: %w", len(s.Inserts), nextID, ErrIDLimit)
	}
	for i, id := range s.InsertIDs {
		if id >= core.IDLimit {
			return fmt.Errorf("gaussrange: insert id %d: %w", id, ErrIDLimit)
		}
		if id < nextID {
			return fmt.Errorf("core: insert id %d below max id %d (ids are never reused)", id, nextID)
		}
		if i > 0 && id <= s.InsertIDs[i-1] {
			return fmt.Errorf("core: insert ids not strictly increasing: %d after %d", id, s.InsertIDs[i-1])
		}
	}
	return nil
}

// Package replica implements follower read replicas over the shipped
// write-ahead log: a Follower tails a leader's segment store (a directory
// today; the Reader interface underneath leaves room for object storage),
// verifies each segment's lineage root against the chain, and replays every
// committed group into a local DB so the follower can serve reads at a
// recent epoch while the leader takes the writes.
//
// The replication unit is the log record: one record per commit group, one
// epoch per record, with the exact insert ids the leader assigned — so a
// follower's id space, epochs and answers are byte-identical to the
// leader's at the same epoch. A follower replays by the same rule a leader's
// restart replays its own wal (wal.Replay), so the two cannot drift apart.
// The follower must begin from the same base state the leader's log begins
// after: the leader's epoch-stamped snapshot, the same initial dataset, or
// an empty database when the leader journaled its whole history. The log
// itself only certifies epoch continuity, so a mismatched base surfaces as
// a gap error when the log starts past the base's next epoch, as a replay
// error on the first delete of an unknown id, or, for insert-only
// histories, as a diverging point count in health checks rather than an
// in-band error. Lineage is verified end-to-end: the follower refuses a
// segment whose header does not extend the rolling root it finished the
// previous segment with, which makes a rewritten or spliced history
// detectable rather than silently divergent.
package replica

import (
	"fmt"
	"sync"
	"time"

	"gaussrange"
	"gaussrange/internal/wal"
)

// DefaultInterval is the default poll interval for Follower.Start.
const DefaultInterval = 100 * time.Millisecond

// Config configures a Follower.
type Config struct {
	// Dir is the leader's segment store directory (shipped or shared).
	// Required.
	Dir string
	// Interval is the tail poll cadence for Start (default 100ms).
	Interval time.Duration
}

// Stats is a snapshot of a follower's replication state.
type Stats struct {
	// Epoch is the storage epoch the local DB has replayed to.
	Epoch uint64
	// Applied counts records replayed by this follower (excluding records
	// at or below the restored snapshot's epoch, which are skipped).
	Applied uint64
	// Skipped counts records already covered by the restored snapshot.
	Skipped uint64
	// SegmentsVerified counts segments whose header lineage checked out.
	SegmentsVerified int
	// Polls counts CatchUp passes (manual or timer-driven).
	Polls uint64
	// Err is the sticky replication error, if any ("" = healthy). A
	// follower with a non-empty Err keeps serving reads at its last good
	// epoch but applies nothing further.
	Err string
}

// Follower tails a segment store and replays committed groups into db.
// Create with New, drive with CatchUp (synchronous) or Start/Stop
// (background). The db must not have its own wal attached: a follower
// replays the leader's journal, it does not keep one.
type Follower struct {
	db       *gaussrange.DB
	interval time.Duration

	mu      sync.Mutex
	r       *wal.Reader
	applied uint64
	skipped uint64
	polls   uint64
	err     error

	stopc chan struct{}
	done  chan struct{}
}

// DirDim reports the dimensionality recorded in dir's first segment header —
// how a follower process sizes its empty database before it has replayed
// anything. Errors until the leader has written at least one segment header.
func DirDim(dir string) (int, error) { return wal.DirDim(dir) }

// New opens a follower over cfg.Dir. The directory may be empty or not yet
// created — the follower waits for the leader's first segment.
func New(db *gaussrange.DB, cfg Config) (*Follower, error) {
	if db == nil {
		return nil, fmt.Errorf("replica: nil DB")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: Config.Dir is required")
	}
	if db.WALDir() != "" {
		return nil, fmt.Errorf("replica: the DB has a wal attached; a follower must not journal")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	r, err := wal.OpenReader(cfg.Dir, db.Dim())
	if err != nil {
		return nil, err
	}
	return &Follower{db: db, interval: cfg.Interval, r: r}, nil
}

// CatchUp replays every record currently readable and returns how many it
// applied, by the same rule a leader's restart replays its own wal
// (wal.Replay): records at or below the DB's epoch are skipped, and a gap or
// a diverging epoch is an error. A torn or in-progress record at the live
// tail is not an error — the next CatchUp retries it. A lineage or replay
// error is sticky: the follower stops applying and every later CatchUp
// returns the same error.
func (f *Follower) CatchUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.catchUpLocked()
}

func (f *Follower) catchUpLocked() (int, error) {
	f.polls++
	if f.err != nil {
		return 0, f.err
	}
	applied, skipped, err := wal.Replay(f.r, f.db.Epoch, f.apply)
	f.applied += uint64(applied)
	f.skipped += uint64(skipped)
	if err != nil {
		f.err = fmt.Errorf("replica: %w", err)
	}
	return applied, f.err
}

// apply replays one committed group into the follower's DB and returns the
// epoch it published.
func (f *Follower) apply(rec wal.Record) (uint64, error) {
	if rec.InsertIDs != nil {
		_, epoch, err := f.db.ApplyWithIDs(rec.Inserts, rec.InsertIDs, rec.Deletes)
		return epoch, err
	}
	_, _, epoch, err := f.db.Apply(rec.Inserts, rec.Deletes)
	return epoch, err
}

// Start launches the background tailer: one CatchUp per interval until Stop.
// Errors are sticky and surface in Stats; the follower keeps serving its
// last good epoch.
func (f *Follower) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopc != nil {
		return
	}
	f.stopc = make(chan struct{})
	f.done = make(chan struct{})
	go f.run(f.stopc, f.done)
}

func (f *Follower) run(stopc <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			f.CatchUp()
		}
	}
}

// Stop halts the background tailer (if running) and closes the reader.
func (f *Follower) Stop() {
	f.mu.Lock()
	stopc, done := f.stopc, f.done
	f.stopc, f.done = nil, nil
	f.mu.Unlock()
	if stopc != nil {
		close(stopc)
		<-done
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.r != nil {
		f.r.Close()
		f.r = nil
	}
}

// Epoch returns the storage epoch the follower has replayed to.
func (f *Follower) Epoch() uint64 { return f.db.Epoch() }

// Err returns the sticky replication error, or nil while healthy.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Stats returns a snapshot of the follower's counters.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Epoch:   f.db.Epoch(),
		Applied: f.applied,
		Skipped: f.skipped,
		Polls:   f.polls,
	}
	if f.r != nil {
		s.SegmentsVerified = f.r.Stats().SegmentsVerified
	}
	if f.err != nil {
		s.Err = f.err.Error()
	}
	return s
}

package replica

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gaussrange"
)

func leaderAndFollower(t *testing.T, dir string) (*gaussrange.DB, *gaussrange.DB, *Follower) {
	t.Helper()
	leader, err := gaussrange.Open(2, gaussrange.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.AttachWAL(gaussrange.WALConfig{Dir: dir, SegmentBytes: 512}); err != nil {
		t.Fatal(err)
	}
	fdb, err := gaussrange.Open(2, gaussrange.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fdb, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return leader, fdb, f
}

func TestFollowerReplaysLeader(t *testing.T) {
	dir := t.TempDir()
	leader, fdb, f := leaderAndFollower(t, dir)
	defer leader.DetachWAL()
	defer f.Stop()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := leader.Insert([]float64{float64(w), float64(i)}); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, _, _, err := leader.Apply(nil, []int64{3, 17}); err != nil {
		t.Fatal(err)
	}

	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if fdb.Epoch() != leader.Epoch() {
		t.Fatalf("follower epoch %d, leader %d", fdb.Epoch(), leader.Epoch())
	}
	if fdb.Len() != leader.Len() || fdb.MaxID() != leader.MaxID() {
		t.Fatalf("follower len/maxid %d/%d, leader %d/%d", fdb.Len(), fdb.MaxID(), leader.Len(), leader.MaxID())
	}
	// Answers must be byte-identical at the same epoch.
	spec := gaussrange.QuerySpec{Center: []float64{3, 2}, Cov: [][]float64{{4, 0}, {0, 4}}, Delta: 3, Theta: 0.1}
	lr, err := leader.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fdb.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr.IDs, fr.IDs) || lr.Epoch != fr.Epoch {
		t.Fatalf("follower answer diverged: leader %v@%d, follower %v@%d", lr.IDs, lr.Epoch, fr.IDs, fr.Epoch)
	}
	st := f.Stats()
	if st.Applied == 0 || st.SegmentsVerified == 0 || st.Err != "" {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFollowerBackgroundTail(t *testing.T) {
	dir := t.TempDir()
	leader, fdb, f := leaderAndFollower(t, dir)
	defer leader.DetachWAL()
	f2 := f
	f2.interval = 5 * time.Millisecond
	f2.Start()
	defer f2.Stop()

	for i := 0; i < 10; i++ {
		if _, err := leader.Insert([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fdb.Epoch() < leader.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d, leader at %d (err %v)", fdb.Epoch(), leader.Epoch(), f2.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFollowerRefusesRewrittenHistory(t *testing.T) {
	dir := t.TempDir()
	leader, _, f := leaderAndFollower(t, dir)
	for i := 0; i < 40; i++ { // enough to seal several 512-byte segments
		if _, err := leader.Insert([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	leader.DetachWAL()

	// Tamper with a sealed mid-history segment payload byte.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	mid := segs[1]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := f.CatchUp(); err == nil {
		t.Fatal("follower replayed tampered history")
	}
	// The error is sticky; the follower serves its last good epoch only.
	if _, err := f.CatchUp(); err == nil {
		t.Fatal("error did not stick")
	}
	if st := f.Stats(); st.Err == "" {
		t.Fatalf("stats hide the error: %+v", st)
	}
	f.Stop()
}

// TestFollowerRefusesGap: a follower whose base state is older than the
// leader's first journaled record cannot replay the log. The gap error is
// sticky and nothing is applied.
func TestFollowerRefusesGap(t *testing.T) {
	dir := t.TempDir()
	leader, err := gaussrange.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	// Two unjournaled batches, then the wal: its first record is epoch 4.
	for i := 0; i < 2; i++ {
		if _, err := leader.Insert([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leader.AttachWAL(gaussrange.WALConfig{Dir: dir, Synchronous: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Insert([]float64{5, 5}); err != nil {
		t.Fatal(err)
	}
	leader.DetachWAL()

	fdb, err := gaussrange.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fdb, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if _, err := f.CatchUp(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("epoch gap not detected: %v", err)
	}
	if _, err := f.CatchUp(); err == nil {
		t.Fatal("gap error did not stick")
	}
	if st := f.Stats(); st.Applied != 0 || st.Err == "" || fdb.Epoch() != 1 {
		t.Fatalf("after a gap: stats %+v, epoch %d", st, fdb.Epoch())
	}
}

func TestFollowerRejectsJournalingDB(t *testing.T) {
	dir := t.TempDir()
	db, err := gaussrange.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: filepath.Join(dir, "own")}); err != nil {
		t.Fatal(err)
	}
	defer db.DetachWAL()
	if _, err := New(db, Config{Dir: filepath.Join(dir, "leader")}); err == nil {
		t.Fatal("follower accepted a journaling DB")
	}
}

func TestDirDim(t *testing.T) {
	dir := t.TempDir()
	if _, err := DirDim(dir); err == nil {
		t.Fatal("empty dir reported a dim")
	}
	leader, err := gaussrange.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.AttachWAL(gaussrange.WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Insert([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	leader.DetachWAL()
	dim, err := DirDim(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 3 {
		t.Fatalf("dim = %d, want 3", dim)
	}
}

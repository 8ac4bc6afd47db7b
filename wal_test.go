package gaussrange

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gaussrange/internal/wal"
)

func walOpts() []Option { return []Option{WithSeed(7)} }

// applyOps drives one deterministic mutation sequence against db, returning
// the per-op (ids, epoch) trail for identity comparison.
type opTrail struct {
	IDs   []int64
	Epoch uint64
}

func runOps(t *testing.T, db *DB, seed int64, n int) []opTrail {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trail []opTrail
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // insert batch
			k := 1 + rng.Intn(3)
			pts := make([][]float64, k)
			for j := range pts {
				pts[j] = []float64{rng.Float64() * 100, rng.Float64() * 100}
			}
			ids, _, epoch, err := db.Apply(pts, nil)
			if err != nil {
				t.Fatalf("op %d insert: %v", i, err)
			}
			trail = append(trail, opTrail{IDs: ids, Epoch: epoch})
		case 1: // delete (possibly dead id)
			id := rng.Int63n(db.MaxID() + 1)
			_, _, epoch, err := db.Apply(nil, []int64{id})
			if err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
			trail = append(trail, opTrail{Epoch: epoch})
		case 2: // mixed batch
			pts := [][]float64{{rng.Float64() * 100, rng.Float64() * 100}}
			del := []int64{rng.Int63n(db.MaxID() + 1)}
			ids, _, epoch, err := db.Apply(pts, del)
			if err != nil {
				t.Fatalf("op %d mixed: %v", i, err)
			}
			trail = append(trail, opTrail{IDs: ids, Epoch: epoch})
		}
	}
	return trail
}

func dbFingerprint(t *testing.T, db *DB) string {
	t.Helper()
	out := fmt.Sprintf("epoch=%d len=%d maxid=%d;", db.Epoch(), db.Len(), db.MaxID())
	for id := int64(0); id < db.MaxID(); id++ {
		p, err := db.Point(id)
		if err != nil {
			out += fmt.Sprintf("%d:dead;", id)
			continue
		}
		out += fmt.Sprintf("%d:%v;", id, p)
	}
	return out
}

func TestWALGroupedCommitAndReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Insert([]float64{float64(w), float64(i)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st, ok := db.WALStats()
	if !ok {
		t.Fatal("no wal stats")
	}
	if st.Store.Records == 0 || st.Batcher.Submissions != writers*10 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Batcher.Groups > st.Batcher.Submissions {
		t.Fatalf("more groups than submissions: %+v", st.Batcher)
	}
	want := dbFingerprint(t, db)
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	// A fresh DB attaching the same directory replays to the same state.
	db2, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := db2.AttachWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if got := dbFingerprint(t, db2); got != want {
		t.Fatalf("replay diverged:\n got %s\nwant %s", got, want)
	}
	db2.DetachWAL()
}

// TestWALSyncGroupedIdentity: the acceptance criterion's identity half — a
// deterministic single-writer op sequence yields byte-identical epochs, ids
// and answers whether it runs unjournaled, through the synchronous wal, or
// through the grouped pipeline; and a fresh replay of either wal matches too.
func TestWALSyncGroupedIdentity(t *testing.T) {
	const ops = 60
	build := func(attach func(*DB) error) (*DB, []opTrail) {
		db, err := Open(2, walOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if attach != nil {
			if err := attach(db); err != nil {
				t.Fatal(err)
			}
		}
		return db, runOps(t, db, 99, ops)
	}

	plain, trailPlain := build(nil)
	syncDir := t.TempDir()
	syncDB, trailSync := build(func(db *DB) error {
		_, err := db.AttachWAL(WALConfig{Dir: syncDir, Synchronous: true})
		return err
	})
	groupDir := t.TempDir()
	groupDB, trailGroup := build(func(db *DB) error {
		_, err := db.AttachWAL(WALConfig{Dir: groupDir})
		return err
	})

	if !reflect.DeepEqual(trailPlain, trailSync) {
		t.Fatalf("sync wal trail diverged from plain")
	}
	if !reflect.DeepEqual(trailPlain, trailGroup) {
		t.Fatalf("grouped wal trail diverged from plain (single writer must group 1:1)")
	}

	spec := QuerySpec{Center: []float64{50, 50}, Cov: [][]float64{{40, 0}, {0, 40}}, Delta: 20, Theta: 0.05}
	resPlain, err := plain.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"sync": syncDB, "grouped": groupDB} {
		res, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs, resPlain.IDs) || res.Epoch != resPlain.Epoch {
			t.Fatalf("%s: answer diverged", name)
		}
	}
	syncDB.DetachWAL()
	groupDB.DetachWAL()

	for _, dir := range []string{syncDir, groupDir} {
		db, err := Open(2, walOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AttachWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs, resPlain.IDs) || res.Epoch != resPlain.Epoch {
			t.Fatalf("replay of %s: answer diverged", dir)
		}
		db.DetachWAL()
	}
}

// TestWALCrashRecoveryProperty simulates the two crash points the issue names:
// (a) between fsync and epoch publish — the record is durable but was never
// acked/visible; replay must still apply it (it is a committed group), and
// (b) mid-segment append — the torn record must vanish. Either way the
// recovered database must equal a prefix of the committed groups, with
// contiguous epochs and sequential ids.
func TestWALCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		db, err := Open(2, walOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AttachWAL(WALConfig{Dir: dir, SegmentBytes: 512, Synchronous: true}); err != nil {
			t.Fatal(err)
		}
		nOps := 20 + rng.Intn(20)
		runOps(t, db, int64(1000+trial), nOps)
		finalEpoch := db.Epoch()
		if err := db.DetachWAL(); err != nil {
			t.Fatal(err)
		}

		if trial%2 == 0 {
			// Crash point (a): a group was staged, its record fsynced, but the
			// process died before publish/ack. On disk that is exactly "one
			// more valid record than the acked epochs".
			st, err := wal.OpenStore(dir, wal.StoreConfig{Dim: 2, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			rec := wal.Record{
				Epoch:     finalEpoch + 1,
				Inserts:   [][]float64{{1, 2}},
				InsertIDs: []int64{db.MaxID()},
			}
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
			st.Close()
			finalEpoch++ // the group is durable, so recovery must include it
		} else {
			// Crash point (b): torn mid-segment append.
			names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
			if err != nil || len(names) == 0 {
				t.Fatal("no segments")
			}
			last := names[len(names)-1]
			fi, _ := os.Stat(last)
			cut := 54 + rng.Int63n(fi.Size()-54+1)
			if err := os.Truncate(last, cut); err != nil {
				t.Fatal(err)
			}
		}

		rec, err := Open(2, walOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.AttachWAL(WALConfig{Dir: dir, SegmentBytes: 512}); err != nil {
			t.Fatalf("trial %d: recovery attach: %v", trial, err)
		}
		got := rec.Epoch()
		if trial%2 == 0 {
			if got != finalEpoch {
				t.Fatalf("trial %d: recovered epoch %d, want %d (durable unpublished group lost)", trial, got, finalEpoch)
			}
		} else if got > finalEpoch {
			t.Fatalf("trial %d: recovered epoch %d beyond committed %d (torn epoch surfaced)", trial, got, finalEpoch)
		}
		// Epochs are contiguous by construction of replay; ids must be a
		// gapless 0..MaxID-1 space of live-or-tombstoned ids.
		if rec.MaxID() < 0 {
			t.Fatalf("trial %d: negative MaxID", trial)
		}
		// The recovered DB must keep accepting writes at the recovered epoch.
		if _, err := rec.Insert([]float64{5, 5}); err != nil {
			t.Fatalf("trial %d: post-recovery insert: %v", trial, err)
		}
		if rec.Epoch() != got+1 {
			t.Fatalf("trial %d: post-recovery epoch %d, want %d", trial, rec.Epoch(), got+1)
		}
		rec.DetachWAL()
	}
}

// TestWALBadSubmissionFailsAlone: one invalid submission in a commit group
// must not poison its groupmates.
func TestWALBadSubmissionFailsAlone(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db.DetachWAL()
	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	holdFlusher(t, db, writers, func() {
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i == 3 {
					_, errs[i] = db.Insert([]float64{1}) // wrong dim
					return
				}
				_, errs[i] = db.Insert([]float64{float64(i), 0})
			}(i)
		}
	}, nil)
	wg.Wait()
	for i, err := range errs {
		if i == 3 {
			if err == nil {
				t.Fatal("bad submission did not fail")
			}
			continue
		}
		if err != nil {
			t.Fatalf("good submission %d failed: %v", i, err)
		}
	}
	if db.Len() != writers-1 {
		t.Fatalf("Len = %d, want %d", db.Len(), writers-1)
	}
	st, _ := db.WALStats()
	if st.Batcher.Groups != 2 || st.Batcher.MaxGroup != writers || st.Store.Records != 1 {
		t.Fatalf("%d groups (max %d) and %d records, want the plug and one group of all %d writers in one record",
			st.Batcher.Groups, st.Batcher.MaxGroup, st.Store.Records, writers)
	}
}

// holdFlusher makes db's next commit group a known one: it parks the flusher
// in the flush of an empty plug Apply, runs start (which launches n
// submitters), waits until all n are queued behind the plug, runs whileHeld,
// and releases the flusher, so the n submissions flush as one group. It
// returns once the plug is acknowledged.
func holdFlusher(t *testing.T, db *DB, n int, start, whileHeld func()) {
	t.Helper()
	p := db.wal.Load()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p.preFlush = func() { once.Do(func() { close(entered); <-release }) }
	plug := make(chan error, 1)
	go func() { _, _, _, err := db.Apply(nil, nil); plug <- err }()
	<-entered
	start()
	deadline := time.Now().Add(10 * time.Second)
	for p.batcher.Stats().Pending < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions pending after 10s", p.batcher.Stats().Pending, n+1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if whileHeld != nil {
		whileHeld()
	}
	close(release)
	if err := <-plug; err != nil {
		t.Fatalf("plug: %v", err)
	}
}

// TestWALAppendFailureNotPublished: a batch whose log record cannot be
// appended was never made durable, so the writer gets the error and readers
// never see the batch's epoch.
func TestWALAppendFailureNotPublished(t *testing.T) {
	for _, sync := range []bool{true, false} {
		db, err := Open(2, walOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AttachWAL(WALConfig{Dir: t.TempDir(), Synchronous: sync}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert([]float64{1, 1}); err != nil {
			t.Fatal(err)
		}
		// Take the next epoch in the log behind the database's back, so the
		// pipeline's own append for it is refused.
		epoch := db.Epoch()
		if err := db.wal.Load().store.Append(wal.Record{Epoch: epoch + 1, Deletes: []int64{0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert([]float64{2, 2}); err == nil {
			t.Errorf("synchronous=%v: insert succeeded after its log append failed", sync)
		}
		if db.Epoch() != epoch || db.Len() != 1 {
			t.Errorf("synchronous=%v: epoch %d len %d after a failed append, want %d and 1", sync, db.Epoch(), db.Len(), epoch)
		}
		db.DetachWAL()
	}
}

// TestWALExplicitIDsThroughPipeline: the router path (ApplyWithIDs) rides the
// pipeline and survives replay with the exact assignment.
func TestWALExplicitIDsThroughPipeline(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ApplyWithIDs([][]float64{{1, 1}, {2, 2}}, []int64{5, 9}, nil); err != nil {
		t.Fatal(err)
	}
	ids, _, _, err := db.Apply([][]float64{{3, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 10 {
		t.Fatalf("sequential insert after explicit ids got id %d, want 10", ids[0])
	}
	want := dbFingerprint(t, db)
	db.DetachWAL()

	db2, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db2.DetachWAL()
	if got := dbFingerprint(t, db2); got != want {
		t.Fatalf("explicit-id replay diverged:\n got %s\nwant %s", got, want)
	}
}

// TestWALLineageErrors covers AttachWAL's lineage refusals: a wal whose first
// record lies past the database's next epoch (a gap between the base state
// and the log), and a segment store of another dimensionality.
func TestWALLineageErrors(t *testing.T) {
	dir := t.TempDir()
	seed := gridPoints(100, 10)

	// The log starts at epoch 5: three unjournaled batches came first.
	gapDir := filepath.Join(dir, "gap")
	db, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AttachWAL(WALConfig{Dir: gapDir, Synchronous: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert([]float64{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AttachWAL(WALConfig{Dir: gapDir}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("epoch gap not detected: %v", err)
	}
	if fresh.Epoch() != 1 || fresh.WALDir() != "" {
		t.Fatalf("refused wal left epoch %d, dir %q", fresh.Epoch(), fresh.WALDir())
	}

	// A 3-D store cannot journal a 2-D database.
	dimDir := filepath.Join(dir, "dim3")
	db3, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db3.AttachWAL(WALConfig{Dir: dimDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := db3.Insert([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := db3.DetachWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.AttachWAL(WALConfig{Dir: dimDir}); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Fatalf("dimension mismatch not detected: %v", err)
	}
	if fresh.WALDir() != "" {
		t.Fatalf("refused wal left dir %q", fresh.WALDir())
	}
}

// TestWALSecondAttachRefused: a database journals to one wal at a time. A
// second AttachWAL is refused while one is attached, and succeeds once the
// first is detached.
func TestWALSecondAttachRefused(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, "wal")
	if _, err := db.AttachWAL(WALConfig{Dir: first}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: filepath.Join(dir, "wal2")}); err == nil {
		t.Fatal("second wal attached")
	}
	if db.WALDir() != first {
		t.Fatalf("refused attach replaced the wal: dir %q, want %q", db.WALDir(), first)
	}
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: filepath.Join(dir, "wal3")}); err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestWALDetachDrains: DetachWAL must commit every queued submission before
// returning — the graceful-drain contract prqserved's SIGTERM path relies on.
// Every writer is queued behind a held flush when the detach begins, so each
// must be acked at an epoch the log holds, and a fresh replay must return its
// point.
func TestWALDetachDrains(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	type ack struct {
		id    int64
		epoch uint64
		val   []float64
		err   error
	}
	const n = 24
	acks := make(chan ack, n)
	p := db.wal.Load()
	detached := make(chan error, 1)
	holdFlusher(t, db, n, func() {
		for i := 0; i < n; i++ {
			go func(i int) {
				val := []float64{float64(i), 1}
				ids, _, epoch, err := db.Apply([][]float64{val}, nil)
				a := ack{epoch: epoch, val: val, err: err}
				if err == nil {
					a.id = ids[0]
				}
				acks <- a
			}(i)
		}
	}, func() {
		go func() { detached <- db.DetachWAL() }()
		for db.wal.Load() != nil {
			time.Sleep(50 * time.Microsecond)
		}
	})
	if err := <-detached; err != nil {
		t.Fatal(err)
	}
	if st := p.batcher.Stats(); st.Groups != 2 || st.MaxGroup != n {
		t.Fatalf("%d groups (max %d), want the plug and one group of all %d writers", st.Groups, st.MaxGroup, n)
	}

	db2, err := Open(2, walOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.AttachWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer db2.DetachWAL()
	for i := 0; i < n; i++ {
		a := <-acks
		if a.err != nil {
			t.Fatalf("writer queued before the detach failed: %v", a.err)
		}
		if a.epoch > db2.Epoch() {
			t.Fatalf("insert id %d acked at epoch %d, beyond the replayed log's %d", a.id, a.epoch, db2.Epoch())
		}
		p, err := db2.Point(a.id)
		if err != nil {
			t.Fatalf("acked insert id %d (epoch %d ≤ replayed %d) lost: %v", a.id, a.epoch, db2.Epoch(), err)
		}
		if !reflect.DeepEqual(p, a.val) {
			t.Fatalf("acked insert id %d replayed as %v, want %v", a.id, p, a.val)
		}
	}
}

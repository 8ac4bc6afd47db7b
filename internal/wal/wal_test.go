package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func testRecord(rng *rand.Rand, dim int, epoch uint64) Record {
	nIns := rng.Intn(4)
	nDel := rng.Intn(3)
	rec := Record{Epoch: epoch}
	for i := 0; i < nIns; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		rec.Inserts = append(rec.Inserts, p)
	}
	if nIns > 0 && rng.Intn(2) == 0 {
		base := rng.Int63n(1000)
		for i := 0; i < nIns; i++ {
			rec.InsertIDs = append(rec.InsertIDs, base+int64(i))
		}
	}
	for i := 0; i < nDel; i++ {
		rec.Deletes = append(rec.Deletes, rng.Int63n(1000))
	}
	return rec
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Codec{Dim: 3}
	var buf []byte
	chain := uint32(12345)
	var want []Record
	ch := chain
	for e := uint64(1); e <= 20; e++ {
		rec := testRecord(rng, 3, e)
		var err error
		buf, ch, err = c.Append(buf, rec, ch)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		want = append(want, rec)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	ch = chain
	for i, w := range want {
		got, n, newChain, err := c.Read(br, ch)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n != c.EncodedSize(len(w.Inserts), len(w.Deletes), w.InsertIDs != nil) {
			t.Fatalf("record %d: size %d vs EncodedSize", i, n)
		}
		if !reflect.DeepEqual(normRec(got), normRec(w)) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
		}
		ch = newChain
	}
	if _, _, _, err := c.Read(br, ch); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func normRec(r Record) Record {
	if len(r.Inserts) == 0 {
		r.Inserts = nil
	}
	if len(r.Deletes) == 0 {
		r.Deletes = nil
	}
	return r
}

func TestCodecChainDetectsReorder(t *testing.T) {
	c := Codec{Dim: 1}
	var a, b []byte
	a, chA, _ := c.Append(nil, Record{Epoch: 1, Inserts: [][]float64{{1}}}, 99)
	b, _, _ = c.Append(nil, Record{Epoch: 2, Inserts: [][]float64{{2}}}, chA)
	// Swapped order: record 2's chained CRC no longer matches.
	br := bufio.NewReader(bytes.NewReader(append(append([]byte{}, b...), a...)))
	if _, _, _, err := c.Read(br, 99); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt on reordered chain, got %v", err)
	}
}

// TestCodecReadAllocBounded: a header's counts are unverified until the CRC
// is, so Read must not size memory from them. A 16-byte header claiming
// MaxBatch explicit-id inserts and MaxBatch deletes at d = 2 (a 536.9 MB
// payload), alone and followed by 1 MiB of payload, must read as torn while
// allocating at most allocPerByte·len(input) + allocSlack.
func TestCodecReadAllocBounded(t *testing.T) {
	const (
		allocPerByte = 4
		allocSlack   = 128 << 10
	)
	c := Codec{Dim: 2}
	head := make([]byte, 16)
	binary.LittleEndian.PutUint64(head, 1)
	binary.LittleEndian.PutUint32(head[8:], MaxBatch|ExplicitIDFlag)
	binary.LittleEndian.PutUint32(head[12:], MaxBatch)
	for _, body := range []int{0, 1 << 20} {
		in := append(append([]byte{}, head...), make([]byte, body)...)
		br := bufio.NewReader(bytes.NewReader(in))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, _, err := c.Read(br, 0)
		runtime.ReadMemStats(&after)
		if err != ErrTorn {
			t.Fatalf("%d-byte input: want ErrTorn, got %v", len(in), err)
		}
		got, bound := after.TotalAlloc-before.TotalAlloc, uint64(allocPerByte*len(in)+allocSlack)
		if got > bound {
			t.Fatalf("%d-byte input: Read allocated %d bytes, bound %d", len(in), got, bound)
		}
	}
}

func mustStore(t *testing.T, dir string, cfg StoreConfig) *Store {
	t.Helper()
	st, err := OpenStore(dir, cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return st
}

func TestStoreAppendReopenRoll(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rolls every few records.
	cfg := StoreConfig{Dim: 2, SegmentBytes: 256}
	st := mustStore(t, dir, cfg)
	rng := rand.New(rand.NewSource(11))
	var want []Record
	for e := uint64(1); e <= 40; e++ {
		rec := testRecord(rng, 2, e)
		if err := st.Append(rec); err != nil {
			t.Fatalf("append epoch %d: %v", e, err)
		}
		want = append(want, rec)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	stats := st.Stats()
	if stats.Segments < 2 {
		t.Fatalf("want multiple segments, got %d", stats.Segments)
	}
	if stats.LastEpoch != 40 {
		t.Fatalf("LastEpoch = %d, want 40", stats.LastEpoch)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen verifies every segment and resumes at 41.
	st2 := mustStore(t, dir, cfg)
	if got := st2.Stats().LastEpoch; got != 40 {
		t.Fatalf("reopened LastEpoch = %d, want 40", got)
	}
	if err := st2.Append(Record{Epoch: 41, Deletes: []int64{1}}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := st2.Append(Record{Epoch: 43}); err == nil {
		t.Fatalf("want epoch-gap append rejected")
	}
	st2.Close()

	// A reader sees the exact sequence.
	r, err := OpenReader(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range want {
		got, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("reader record %d: ok=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(normRec(got), normRec(w)) {
			t.Fatalf("reader record %d mismatch", i)
		}
	}
	got, ok, err := r.Next()
	if err != nil || !ok || got.Epoch != 41 {
		t.Fatalf("reader tail record: %+v ok=%v err=%v", got, ok, err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("want quiet tail, got ok=%v err=%v", ok, err)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 5, 11} {
		dir := t.TempDir()
		cfg := StoreConfig{Dim: 1, NoSync: true}
		st := mustStore(t, dir, cfg)
		for e := uint64(1); e <= 3; e++ {
			if err := st.Append(Record{Epoch: e, Inserts: [][]float64{{float64(e)}}}); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		names, _ := listSegments(dir)
		path := segPath(dir, names[len(names)-1])
		fi, _ := os.Stat(path)
		if err := os.Truncate(path, fi.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2 := mustStore(t, dir, cfg)
		if got := st2.Stats().LastEpoch; got != 2 {
			t.Fatalf("cut=%d: LastEpoch = %d, want 2 (torn record dropped)", cut, got)
		}
		// The store appends over the truncation point with epoch 3 again.
		if err := st2.Append(Record{Epoch: 3, Inserts: [][]float64{{9}}}); err != nil {
			t.Fatalf("cut=%d: re-append: %v", cut, err)
		}
		st2.Close()
	}
}

func TestStoreRejectsMidHistoryCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Dim: 1, SegmentBytes: 128, NoSync: true}
	st := mustStore(t, dir, cfg)
	for e := uint64(1); e <= 30; e++ {
		if err := st.Append(Record{Epoch: e, Inserts: [][]float64{{float64(e)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	names, _ := listSegments(dir)
	if len(names) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(names))
	}
	// Flip one payload byte in the middle segment.
	path := segPath(dir, names[1])
	data, _ := os.ReadFile(path)
	data[segHeaderSize+20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, cfg); err == nil {
		t.Fatalf("want open to reject mid-history corruption")
	}
	// The reader refuses it too (chain breaks inside a sealed segment).
	r, _ := OpenReader(dir, 1)
	defer r.Close()
	var rerr error
	for i := 0; i < 100; i++ {
		_, ok, err := r.Next()
		if err != nil {
			rerr = err
			break
		}
		if !ok {
			break
		}
	}
	if rerr == nil {
		t.Fatalf("want reader to reject corrupt sealed segment")
	}
}

func TestReaderTailsLiveStore(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Dim: 1, SegmentBytes: 200, NoSync: true}
	st := mustStore(t, dir, cfg)
	defer st.Close()
	r, err := OpenReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	next := uint64(1)
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			if err := st.Append(Record{Epoch: next + uint64(i), Inserts: [][]float64{{1}}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			got, ok, err := r.Next()
			if err != nil || !ok {
				t.Fatalf("round %d rec %d: ok=%v err=%v", round, i, ok, err)
			}
			if got.Epoch != next+uint64(i) {
				t.Fatalf("round %d: epoch %d, want %d", round, got.Epoch, next+uint64(i))
			}
		}
		next += 5
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("round %d quiet tail: ok=%v err=%v", round, ok, err)
		}
	}
	if r.Stats().SegmentsVerified < 2 {
		t.Fatalf("want the tail to cross segments, verified %d", r.Stats().SegmentsVerified)
	}
}

// TestCrashPrefixProperty simulates crashes at arbitrary byte boundaries:
// whatever survives on disk must reopen (store) and replay (reader) to an
// exact prefix of the committed records — never a torn or reordered epoch.
func TestCrashPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		cfg := StoreConfig{Dim: 2, SegmentBytes: 300, NoSync: true}
		st := mustStore(t, dir, cfg)
		var want []Record
		n := 10 + rng.Intn(30)
		for e := uint64(1); e <= uint64(n); e++ {
			rec := testRecord(rng, 2, e)
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
		st.Close()

		// "Crash": truncate the final segment at a random byte offset.
		names, _ := listSegments(dir)
		path := segPath(dir, names[len(names)-1])
		fi, _ := os.Stat(path)
		if fi.Size() > segHeaderSize {
			cut := segHeaderSize + rng.Int63n(fi.Size()-segHeaderSize+1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		}

		st2, err := OpenStore(dir, cfg)
		if err != nil {
			t.Fatalf("trial %d: reopen after crash: %v", trial, err)
		}
		lastEpoch := st2.Stats().LastEpoch
		st2.Close()

		r, err := OpenReader(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		var replayed []Record
		for {
			rec, ok, err := r.Next()
			if err != nil {
				t.Fatalf("trial %d: reader: %v", trial, err)
			}
			if !ok {
				break
			}
			replayed = append(replayed, rec)
		}
		r.Close()

		if uint64(len(replayed)) != lastEpoch {
			t.Fatalf("trial %d: reader replayed %d records, store says last epoch %d", trial, len(replayed), lastEpoch)
		}
		if len(replayed) > len(want) {
			t.Fatalf("trial %d: replayed more than was written", trial)
		}
		for i, rec := range replayed {
			if !reflect.DeepEqual(normRec(rec), normRec(want[i])) {
				t.Fatalf("trial %d: record %d diverges from the committed prefix", trial, i)
			}
		}
	}
}

// TestBatcherStatsCountAckedGroups: once Submit returns, Stats already counts
// the submission's group, so a stats read after an acknowledged write never
// shows the record without its group.
func TestBatcherStatsCountAckedGroups(t *testing.T) {
	b, err := NewBatcher(BatcherConfig{Dim: 1}, func([]*Submission) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 1; i <= 200; i++ {
		if err := b.Submit(&Submission{Inserts: [][]float64{{float64(i)}}}); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.Submissions != uint64(i) || st.Groups != uint64(i) || st.Pending != 0 {
			t.Fatalf("after %d acknowledged submits: submissions %d, groups %d, pending %d", i, st.Submissions, st.Groups, st.Pending)
		}
	}
}

// TestBatcherLoneWriter: a writer alone never waits for company — each of
// its sequential submissions is a group of one, closed because the queue
// behind it was empty.
func TestBatcherLoneWriter(t *testing.T) {
	b, gl := newLoggedBatcher(t, BatcherConfig{Dim: 1})
	defer b.Close()
	const n = 50
	for i := 1; i <= n; i++ {
		s := &Submission{Inserts: [][]float64{{float64(i)}}}
		if err := b.Submit(s); err != nil {
			t.Fatal(err)
		}
		if s.Epoch != uint64(i) {
			t.Fatalf("submission %d flushed at epoch %d", i, s.Epoch)
		}
	}
	st := b.Stats()
	if st.Groups != n || st.MaxGroup != 1 || st.ClosedBy != (GroupCloses{Empty: n}) {
		t.Fatalf("%d sequential submits: %d groups, max group %d, closed by %+v; want %d groups of one, each closed by the empty queue",
			n, st.Groups, st.MaxGroup, st.ClosedBy, n)
	}
	if got := gl.sizes(); len(got) != n {
		t.Fatalf("flush saw %d groups, want %d", len(got), n)
	}
}

// TestBatcherGroupsConcurrentSubmits: the writers queued behind a running
// flush form the next group, all of them and nothing else.
func TestBatcherGroupsConcurrentSubmits(t *testing.T) {
	b, gl := newLoggedBatcher(t, BatcherConfig{Dim: 1})
	const writers = 31
	epochs := make([]uint64, writers)
	wait := holdFlusher(t, b, gl, writers, func(i int) *Submission {
		return &Submission{Inserts: [][]float64{{float64(i)}}}
	}, epochs, nil)
	wait()
	b.Close()
	for i, e := range epochs {
		if e != 2 {
			t.Fatalf("writer %d flushed at epoch %d, want 2 (the group after the plug)", i, e)
		}
	}
	if got := gl.sizes(); !reflect.DeepEqual(got, []int{1, writers}) {
		t.Fatalf("group sizes %v, want [1 %d]", got, writers)
	}
	st := b.Stats()
	if st.Submissions != writers+1 || st.Groups != 2 || st.MaxGroup != writers || st.Pending != 0 {
		t.Fatalf("stats %+v, want %d submissions in 2 groups, max %d, none pending", st, writers+1, writers)
	}
	if st.ClosedBy != (GroupCloses{Empty: 2}) {
		t.Fatalf("closed by %+v, want both groups closed by the empty queue", st.ClosedBy)
	}
	if st.QueueNanos <= 0 || st.FlushNanos <= 0 {
		t.Fatalf("latency accounting missing: queue=%d flush=%d", st.QueueNanos, st.FlushNanos)
	}
}

// TestBatcherCloseDrains: Close flushes every submission queued when it
// began, as one final group counted as a drain, and refuses later ones.
func TestBatcherCloseDrains(t *testing.T) {
	b, gl := newLoggedBatcher(t, BatcherConfig{Dim: 1})
	const writers = 31
	epochs := make([]uint64, writers)
	closed := make(chan struct{})
	wait := holdFlusher(t, b, gl, writers, func(i int) *Submission {
		return &Submission{Inserts: [][]float64{{float64(i)}}}
	}, epochs, func() {
		go func() { b.Close(); close(closed) }()
		for {
			b.closeMu.RLock()
			c := b.closed
			b.closeMu.RUnlock()
			if c {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	wait()
	<-closed
	for i, e := range epochs {
		if e != 2 {
			t.Fatalf("writer %d flushed at epoch %d, want 2", i, e)
		}
	}
	if got := gl.sizes(); !reflect.DeepEqual(got, []int{1, writers}) {
		t.Fatalf("group sizes %v, want [1 %d]", got, writers)
	}
	if st := b.Stats(); st.ClosedBy != (GroupCloses{Empty: 1, Drain: 1}) {
		t.Fatalf("closed by %+v, want the plug closed by the empty queue and the queue drained by Close", st.ClosedBy)
	}
	if err := b.Submit(&Submission{}); err != ErrBatcherClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestBatcherByteBoundFlushes: a queue whose submissions overrun MaxBytes is
// cut into groups at the bound. Each 3-point submission is 68 bytes, so a
// 100-byte bound takes two at a time.
func TestBatcherByteBoundFlushes(t *testing.T) {
	b, gl := newLoggedBatcher(t, BatcherConfig{Dim: 1, MaxBytes: 100})
	defer b.Close()
	if got := b.codec.EncodedSize(3, 0, true); got != 68 {
		t.Fatalf("3-point submission estimated at %d bytes, want 68", got)
	}
	const writers = 4
	wait := holdFlusher(t, b, gl, writers, func(int) *Submission {
		return &Submission{Inserts: [][]float64{{1}, {2}, {3}}}
	}, make([]uint64, writers), nil)
	wait()
	if got := gl.sizes(); !reflect.DeepEqual(got, []int{1, 2, 2}) {
		t.Fatalf("group sizes %v, want [1 2 2]", got)
	}
	if st := b.Stats(); st.ClosedBy != (GroupCloses{Empty: 1, Bytes: 2}) {
		t.Fatalf("closed by %+v, want the plug by the empty queue and two groups by the byte bound", st.ClosedBy)
	}
}

// groupLog is a test flush function's record: it numbers groups as epochs,
// keeps their sizes, and parks in hold (when set) on the next flush.
type groupLog struct {
	mu         sync.Mutex
	groupSizes []int
	hold       func() // read and cleared by the flusher only
}

func (gl *groupLog) sizes() []int {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return append([]int(nil), gl.groupSizes...)
}

func newLoggedBatcher(t *testing.T, cfg BatcherConfig) (*Batcher, *groupLog) {
	t.Helper()
	gl := &groupLog{}
	b, err := NewBatcher(cfg, func(group []*Submission) {
		if h := gl.hold; h != nil {
			gl.hold = nil
			h()
		}
		gl.mu.Lock()
		defer gl.mu.Unlock()
		gl.groupSizes = append(gl.groupSizes, len(group))
		for _, s := range group {
			s.Epoch = uint64(len(gl.groupSizes))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, gl
}

// holdFlusher makes the groups after a plug form from a known queue: it
// submits an empty plug, parks the flusher in the plug's flush, starts n
// writers (writer i submits sub(i) and stores its epoch in epochs[i]), waits
// until all n are queued behind the plug, runs whileHeld, and releases the
// flusher. The returned wait blocks until every writer is acknowledged and
// fails the test on any submission error.
func holdFlusher(t *testing.T, b *Batcher, gl *groupLog, n int, sub func(int) *Submission, epochs []uint64, whileHeld func()) (wait func()) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	gl.hold = func() { close(entered); <-release }
	errs := make(chan error, n+1)
	go func() { errs <- b.Submit(&Submission{}) }()
	<-entered
	for i := 0; i < n; i++ {
		go func(i int) {
			s := sub(i)
			err := b.Submit(s)
			epochs[i] = s.Epoch
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().Pending < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions pending after 10s", b.Stats().Pending, n+1)
		}
		time.Sleep(50 * time.Microsecond)
	}
	if whileHeld != nil {
		whileHeld()
	}
	close(release)
	return func() {
		t.Helper()
		for i := 0; i <= n; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, base := range []uint64{1, 255, 1 << 40} {
		got, ok := parseSegName(segName(base))
		if !ok || got != base {
			t.Fatalf("segName round trip failed for %d", base)
		}
	}
	if _, ok := parseSegName("junk.seg"); ok {
		t.Fatalf("parsed junk name")
	}
	// Hex names keep lexical order equal to epoch order.
	if !(segName(9) < segName(10) && segName(255) < segName(256)) {
		t.Fatalf("segment names not ordered")
	}
}

func TestStoreLineageAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Dim: 1, SegmentBytes: 150, NoSync: true}
	st := mustStore(t, dir, cfg)
	for e := uint64(1); e <= 20; e++ {
		if err := st.Append(Record{Epoch: e, Inserts: [][]float64{{float64(e)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	names, _ := listSegments(dir)
	if len(names) < 2 {
		t.Fatalf("want rolls")
	}
	// Rewriting history inside the FIRST segment must break the lineage so
	// that both a fresh store open and a fresh reader refuse the directory —
	// the defining property of the hash-chained roots.
	path := segPath(dir, names[0])
	data, _ := os.ReadFile(path)
	c := Codec{Dim: 1}
	// Re-encode a forged first record (same epoch, different payload) with a
	// valid chained CRC so only the lineage/root machinery can catch it...
	_, _, _, chain, _, err := decodeSegHeader(data[:segHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	forged, _, err := c.Append(nil, Record{Epoch: 1, Inserts: [][]float64{{-999}}}, chain)
	if err != nil {
		t.Fatal(err)
	}
	orig, _, err := c.Append(nil, Record{Epoch: 1, Inserts: [][]float64{{1}}}, chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(forged) != len(orig) {
		t.Fatalf("forged record size changed")
	}
	copy(data[segHeaderSize:], forged)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The forged record has a VALID chained CRC, so the corruption is only
	// detectable when the next record's chain (or the next segment's
	// prevRoot) fails to line up.
	if _, err := OpenStore(dir, cfg); err == nil {
		t.Fatalf("store accepted rewritten history")
	}
	r, _ := OpenReader(dir, 1)
	defer r.Close()
	var rerr error
	for i := 0; i < 100; i++ {
		_, ok, err := r.Next()
		if err != nil {
			rerr = err
			break
		}
		if !ok {
			break
		}
	}
	if rerr == nil {
		t.Fatalf("reader accepted rewritten history")
	}
}

func TestReaderSurvivesLeaderRestartTruncation(t *testing.T) {
	// Leader writes 3 records; crash leaves a torn 4th; follower reads the 3
	// intact ones and parks. Leader restarts (truncates the torn tail) and
	// writes new records — the follower must pick them up seamlessly.
	dir := t.TempDir()
	cfg := StoreConfig{Dim: 1, NoSync: true}
	st := mustStore(t, dir, cfg)
	for e := uint64(1); e <= 3; e++ {
		if err := st.Append(Record{Epoch: e, Inserts: [][]float64{{float64(e)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	names, _ := listSegments(dir)
	path := segPath(dir, names[0])
	// Append half of a record by hand: a torn tail.
	c := Codec{Dim: 1}
	torn, _, _ := c.Append(nil, Record{Epoch: 4, Inserts: [][]float64{{4}}}, 0)
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(torn[:len(torn)/2])
	f.Close()

	r, err := OpenReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for e := uint64(1); e <= 3; e++ {
		rec, ok, err := r.Next()
		if err != nil || !ok || rec.Epoch != e {
			t.Fatalf("pre-restart epoch %d: %+v ok=%v err=%v", e, rec, ok, err)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("torn tail should read as quiet: ok=%v err=%v", ok, err)
	}

	st2 := mustStore(t, dir, cfg) // truncates the torn tail
	if err := st2.Append(Record{Epoch: 4, Inserts: [][]float64{{44}}}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	rec, ok, err := r.Next()
	if err != nil || !ok || rec.Epoch != 4 || rec.Inserts[0][0] != 44 {
		t.Fatalf("post-restart record: %+v ok=%v err=%v", rec, ok, err)
	}
}

func TestStoreDimMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	st := mustStore(t, dir, StoreConfig{Dim: 2, NoSync: true})
	if err := st.Append(Record{Epoch: 1, Inserts: [][]float64{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := OpenStore(dir, StoreConfig{Dim: 3, NoSync: true}); err == nil {
		t.Fatalf("want dim mismatch rejected")
	}
	r, err := OpenReader(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Next(); err == nil {
		t.Fatalf("want reader dim mismatch rejected")
	}
}

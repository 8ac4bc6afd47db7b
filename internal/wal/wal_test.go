package wal

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"os"
	"reflect"
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

func TestBatcherGroupsConcurrentSubmits(t *testing.T) {
	var mu sync.Mutex
	var groups [][]*Submission
	epoch := uint64(0)
	b, err := NewBatcher(BatcherConfig{Dim: 1, MaxDelay: 20 * time.Millisecond}, func(group []*Submission) {
		mu.Lock()
		epoch++
		for _, s := range group {
			s.Epoch = epoch
		}
		groups = append(groups, group)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	errs := make([]error, writers)
	epochs := make([]uint64, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &Submission{Inserts: [][]float64{{float64(i)}}}
			errs[i] = b.Submit(s)
			epochs[i] = s.Epoch
		}(i)
	}
	wg.Wait()
	b.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		if epochs[i] == 0 {
			t.Fatalf("writer %d: no epoch assigned", i)
		}
	}
	st := b.Stats()
	if st.Submissions != writers {
		t.Fatalf("Submissions = %d, want %d", st.Submissions, writers)
	}
	if st.Groups >= writers {
		t.Fatalf("no grouping happened: %d groups for %d submissions", st.Groups, writers)
	}
	if st.QueueNanos < 0 || st.FlushNanos <= 0 {
		t.Fatalf("latency accounting missing: queue=%d flush=%d", st.QueueNanos, st.FlushNanos)
	}
	if _, ok := func() (uint64, bool) {
		total := st.WindowClosedBy.Timer + st.WindowClosedBy.Bytes + st.WindowClosedBy.Drain
		return total, total == st.Groups
	}(); !ok {
		t.Fatalf("window-close reasons don't sum to groups: %+v vs %d", st.WindowClosedBy, st.Groups)
	}
	if err := b.Submit(&Submission{}); err != ErrBatcherClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestBatcherByteBoundFlushes(t *testing.T) {
	flushed := make(chan int, 16)
	b, err := NewBatcher(BatcherConfig{Dim: 1, MaxDelay: time.Hour, MaxBytes: 64}, func(group []*Submission) {
		flushed <- len(group)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Submit(&Submission{Inserts: [][]float64{{1}, {2}, {3}}})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("byte-bound flush never fired (timer was 1h)")
	}
	if b.Stats().WindowClosedBy.Bytes == 0 {
		t.Fatalf("want at least one byte-closed window: %+v", b.Stats().WindowClosedBy)
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

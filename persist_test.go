package gaussrange

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSaveRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	points := make([][]float64, 5000)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	db, err := Load(points)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() || back.Dim() != db.Dim() {
		t.Fatalf("restored Len/Dim = %d/%d", back.Len(), back.Dim())
	}
	// Identical query results.
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	a, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) != len(b.IDs) {
		t.Fatalf("restored query %d answers vs %d", len(b.IDs), len(a.IDs))
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("restored answers differ")
		}
	}
	// Point payloads preserved bit-exactly.
	for _, id := range []int64{0, 2500, 4999} {
		p1, _ := db.Point(id)
		p2, _ := back.Point(id)
		if p1[0] != p2[0] || p1[1] != p2[1] {
			t.Fatalf("point %d differs after restore", id)
		}
	}
}

// TestPersistRoundTripWithDeletions journals a history in a wal, takes a
// snapshot partway through it, then rebuilds the database with RestoreFile +
// AttachWAL: the records at or below the snapshot's epoch are skipped, the
// later ones replay, and the full id space — liveness, coordinates, holes
// and epoch — matches the original.
func TestPersistRoundTripWithDeletions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	points := make([][]float64, 200)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "db.grdb")
	walDir := filepath.Join(dir, "wal")

	db, err := Load(points)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: walDir, Synchronous: true}); err != nil {
		t.Fatal(err)
	}
	// Pre-snapshot churn, journaled too: holes must survive the save, and
	// replay must skip these records.
	for id := int64(0); id < 60; id += 2 {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := db.Apply([][]float64{{1, 1}, {2, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	snapEpoch := db.Epoch()
	if err := db.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot churn: only the wal covers these batches.
	if _, _, _, err := db.Apply([][]float64{{3, 3}}, []int64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert([]float64{4, 4}); err != nil {
		t.Fatal(err)
	}
	finalEpoch := db.Epoch()
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	// Restore the snapshot alone: the post-snapshot batches are missing.
	mid, err := RestoreFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Epoch() != snapEpoch {
		t.Fatalf("restored epoch %d, want %d", mid.Epoch(), snapEpoch)
	}

	// Replaying the wal brings it to the final epoch.
	replayed, err := mid.AttachWAL(WALConfig{Dir: walDir, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mid.DetachWAL()
	if replayed != 2 {
		t.Fatalf("replayed %d batches, want 2", replayed)
	}
	if mid.Epoch() != finalEpoch {
		t.Fatalf("replayed epoch %d, want %d", mid.Epoch(), finalEpoch)
	}
	if got, want := dbFingerprint(t, mid), dbFingerprint(t, db); got != want {
		t.Fatalf("replayed id space diverged:\n got %s\nwant %s", got, want)
	}
}

func TestSaveRestoreFile(t *testing.T) {
	db, err := Load([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("restored Len = %d", back.Len())
	}
	if _, err := RestoreFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRestoreEmptyDatabase(t *testing.T) {
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 || back.Dim() != 3 {
		t.Errorf("restored empty db Len/Dim = %d/%d", back.Len(), back.Dim())
	}
}

func TestRestoreCorruption(t *testing.T) {
	db, err := Load([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := Restore(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Flipped payload byte → checksum mismatch.
	bad = append([]byte(nil), good...)
	bad[len(bad)-10] ^= 0xFF
	if _, err := Restore(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted payload: %v", err)
	}
	// Truncated stream.
	if _, err := Restore(bytes.NewReader(good[:len(good)-12])); err == nil {
		t.Error("truncated snapshot accepted")
	}
	// Empty stream.
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestQueryMatchesAndTopK(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	matches, err := db.QueryMatches(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(res.IDs) {
		t.Fatalf("QueryMatches %d vs Query %d", len(matches), len(res.IDs))
	}
	for i, m := range matches {
		if m.Probability < spec.Theta {
			t.Fatalf("match %d has probability %g below θ", i, m.Probability)
		}
		if i > 0 && m.Probability > matches[i-1].Probability {
			t.Fatal("matches not sorted by descending probability")
		}
		// Cross-check against the exact point probability.
		p, err := db.QueryProb(spec, m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p != m.Probability {
			t.Fatalf("match probability %g differs from QueryProb %g", m.Probability, p)
		}
	}

	top, err := db.QueryTopK(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := range top {
		if top[i] != matches[i] {
			t.Fatal("TopK disagrees with QueryMatches prefix")
		}
	}
	if _, err := db.QueryTopK(spec, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k larger than the answer set returns everything.
	all, err := db.QueryTopK(spec, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(matches) {
		t.Errorf("oversized k returned %d of %d", len(all), len(matches))
	}
}

func TestQueryFunc(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	want, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	if err := db.QueryFunc(spec, func(id int64) bool {
		seen[id] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want.IDs) {
		t.Fatalf("streamed %d, want %d", len(seen), len(want.IDs))
	}
	for _, id := range want.IDs {
		if !seen[id] {
			t.Fatalf("id %d missing from stream", id)
		}
	}
	// Early stop.
	n := 0
	if err := db.QueryFunc(spec, func(int64) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("early stop streamed %d", n)
	}
	// Validation error propagates.
	bad := spec
	bad.Theta = 0
	if err := db.QueryFunc(bad, func(int64) bool { return true }); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestDerivedQueriesUseThePlanCache: QueryMatches, QueryTopK and QueryFunc
// resolve their plan through the plan cache like Query — a shape Query
// compiled is a hit for each of them, never a recompilation — and on the
// rebound plan (which decides from its answer-region hull) they return
// Query's answer set.
func TestDerivedQueriesUseThePlanCache(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	want, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Center = []float64{505, 495}
	if want, err = db.Query(spec); err != nil {
		t.Fatal(err)
	}
	hits, misses := db.PlanCacheStats()
	matches, err := db.QueryMatches(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryTopK(spec, 3); err != nil {
		t.Fatal(err)
	}
	var streamed []int64
	if err := db.QueryFunc(spec, func(id int64) bool { streamed = append(streamed, id); return true }); err != nil {
		t.Fatal(err)
	}
	if h, m := db.PlanCacheStats(); h != hits+3 || m != misses {
		t.Errorf("plan cache hits %d → %d, misses %d → %d; want 3 more hits and no miss", hits, h, misses, m)
	}
	ids := make([]int64, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
	}
	slices.Sort(ids)
	slices.Sort(streamed)
	if len(want.IDs) == 0 || !slices.Equal(ids, want.IDs) || !slices.Equal(streamed, want.IDs) {
		t.Errorf("QueryMatches %d ids, QueryFunc %d, Query %d: not the same set", len(ids), len(streamed), len(want.IDs))
	}
}

// FuzzRestore feeds arbitrary bytes to Restore. It must never panic nor size
// anything from a header whose checksum it has not verified, and a snapshot
// it accepts must Save back to exactly the bytes it read.
func FuzzRestore(f *testing.F) {
	db, err := Load(gridPoints(40, 3))
	if err != nil {
		f.Fatal(err)
	}
	for id := int64(0); id < 40; id += 3 {
		if _, err := db.Delete(id); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, _, err := db.Apply([][]float64{{-0.0, 7}, {1e300, -1e-300}}, []int64{1}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Restore(bytes.NewReader(good)); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, n := range []int{0, 6, 10, 33, 34, 42, len(good) / 2, len(good) - 4, len(good) - 1} {
		f.Add(good[:n])
	}
	// A bare 34-byte header claiming 2^33 ids and no live points: nothing may
	// be sized from it before the (missing) checksum is read.
	hdr := append([]byte(nil), good[:34]...)
	binary.LittleEndian.PutUint64(hdr[18:], 1<<33)
	binary.LittleEndian.PutUint64(hdr[26:], 0)
	f.Add(hdr)
	// The same header with its checksum: the id bound refuses it
	// (TestIDLimitRefused checks the allocation).
	f.Add(snapshotHeader(2, 1<<33))
	// A checksum-valid snapshot at epoch 0, which Save never writes.
	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(zero[10:], 0)
	binary.LittleEndian.PutUint32(zero[len(zero)-4:], crc32.ChecksumIEEE(zero[:len(zero)-4]))
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := db.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("restored snapshot saves as %x, read %x", out.Bytes(), data)
		}
	})
}

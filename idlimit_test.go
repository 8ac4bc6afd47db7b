package gaussrange

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/wal"
)

// snapshotHeader returns a checksum-valid GRDBv2 snapshot of d-dimensional
// points at epoch 1 that claims slots ids and holds no live point.
func snapshotHeader(d uint32, slots uint64) []byte {
	b := append([]byte(nil), persistMagicV2[:]...)
	b = binary.LittleEndian.AppendUint32(b, d)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, slots)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestIDLimitRefused: every way an id enters refuses one at or above the id
// limit with ErrIDLimit before anything is sized from it — each refusal
// allocates under 1 MiB, where a table sized from the id would take 8 GB or
// more — and leaves the database as it was.
func TestIDLimitRefused(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	for _, c := range []struct {
		name string
		// setup returns the refused call and the database it must leave at
		// epoch 1 (nil: the call makes none).
		setup func(t *testing.T) (call func() error, db *DB)
	}{
		{"LoadWithIDs", func(t *testing.T) (func() error, *DB) {
			return func() error {
				_, err := LoadWithIDs(pts, []int64{0, core.IDLimit})
				return err
			}, nil
		}},
		{"ApplyWithIDs", func(t *testing.T) (func() error, *DB) {
			db := mustLoadRaw(t, pts)
			return func() error {
				_, _, err := db.ApplyWithIDs([][]float64{{2, 2}}, []int64{core.IDLimit}, nil)
				return err
			}, db
		}},
		{"ApplyWithIDs on a grouped wal", func(t *testing.T) (func() error, *DB) {
			db := mustLoadRaw(t, pts)
			if _, err := db.AttachWAL(WALConfig{Dir: t.TempDir()}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.DetachWAL() })
			return func() error {
				_, _, err := db.ApplyWithIDs([][]float64{{2, 2}}, []int64{1 << 40}, nil)
				return err
			}, db
		}},
		{"Apply's id assignment on a wal", func(t *testing.T) (func() error, *DB) {
			return func() error {
				return validateSubmission(2, &wal.Submission{Inserts: [][]float64{{2, 2}}}, core.IDLimit)
			}, nil
		}},
		{"wal replay", func(t *testing.T) (func() error, *DB) {
			dir := t.TempDir()
			st, err := wal.OpenStore(dir, wal.StoreConfig{Dim: 2})
			if err != nil {
				t.Fatal(err)
			}
			rec := wal.Record{Epoch: 2, Inserts: [][]float64{{2, 2}}, InsertIDs: []int64{core.IDLimit}}
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			db := mustLoadRaw(t, pts)
			return func() error {
				_, err := db.AttachWAL(WALConfig{Dir: dir, Synchronous: true})
				return err
			}, db
		}},
		{"Restore of 2^33 ids", func(t *testing.T) (func() error, *DB) {
			return func() error {
				_, err := Restore(bytes.NewReader(snapshotHeader(2, 1<<33)))
				return err
			}, nil
		}},
		{"Restore one id past the limit", func(t *testing.T) (func() error, *DB) {
			return func() error {
				_, err := Restore(bytes.NewReader(snapshotHeader(2, core.IDLimit+1)))
				return err
			}, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			call, db := c.setup(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := call()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrIDLimit) {
				t.Fatalf("got %v, want ErrIDLimit", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("the refusal allocated %d B, want < 1 MiB", n)
			}
			if db != nil && (db.Epoch() != 1 || db.MaxID() != int64(len(pts))) {
				t.Errorf("epoch %d, MaxID %d after the refusal, want 1 and %d", db.Epoch(), db.MaxID(), len(pts))
			}
		})
	}
}

// TestRestoreAtIDLimit: an id space of exactly the limit passes the header
// check (its ids are all below it), so the bound refuses nothing it should
// hold. Only the header is checked here: the live records that follow are
// absent, so Restore stops at the first one without sizing the table.
func TestRestoreAtIDLimit(t *testing.T) {
	hdr := snapshotHeader(2, core.IDLimit)
	hdr = binary.LittleEndian.AppendUint64(hdr[:26], 1) // one live record, missing
	if _, err := Restore(bytes.NewReader(hdr)); err == nil || errors.Is(err, ErrIDLimit) {
		t.Fatalf("got %v, want a truncation error", err)
	}
}

// mustLoadRaw loads pts or fails the test.
func mustLoadRaw(t *testing.T, pts [][]float64) *DB {
	t.Helper()
	db, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

package gaussrange

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestFarIDsSizeNothing: an id below the limit but far past every other
// sizes nothing — no table is indexed by id, and a delete batch's tombstone
// copy is sized by the highest id it deletes. After a two-point Load,
// inserting id 2^27 and then deleting id 0 each allocate under 1 MiB (the
// first took 2.9 GB while a −1-padded id table was indexed by id), and a
// checksum-valid snapshot that claims 2^31 − 1 ids and holds none restores
// under 1 MiB (8 GiB with the table).
func TestFarIDsSizeNothing(t *testing.T) {
	const far = 1 << 27
	under1MiB := func(what string, call func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := call()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s allocated %d B, want < 1 MiB", what, n)
		}
	}
	db := mustLoadRaw(t, [][]float64{{0, 0}, {1, 1}})
	under1MiB("ApplyWithIDs of id 2^27", func() error {
		_, _, err := db.ApplyWithIDs([][]float64{{2, 2}}, []int64{far}, nil)
		return err
	})
	under1MiB("deleting id 0 after it", func() error {
		if ok, err := db.Delete(0); err != nil || !ok {
			return fmt.Errorf("Delete(0) = %v, %v", ok, err)
		}
		return nil
	})
	if p, err := db.Point(far); err != nil || p[0] != 2 || db.MaxID() != far+1 || db.Len() != 2 {
		t.Errorf("after the far insert: Point %v, %v; MaxID %d; Len %d", p, err, db.MaxID(), db.Len())
	}
	if _, err := db.Point(far - 1); err == nil {
		t.Error("a skipped id has a point")
	}

	var restored *DB
	under1MiB("Restore of an empty snapshot claiming 2^31 − 1 ids", func() error {
		var err error
		restored, err = Restore(bytes.NewReader(snapshotHeader(2, core.IDLimit)))
		return err
	})
	if restored.MaxID() != core.IDLimit || restored.Len() != 0 {
		t.Errorf("restored MaxID %d, Len %d; want %d and 0", restored.MaxID(), restored.Len(), core.IDLimit)
	}
	if _, err := restored.Insert([]float64{1, 1}); !errors.Is(err, ErrIDLimit) {
		t.Errorf("insert into a full id space: got %v, want ErrIDLimit", err)
	}
}

// TestRestoreAtIDLimit: an id space of exactly the limit passes the header
// check (its ids are all below it), so the bound refuses nothing it should
// hold. Here the header claims one live record, which is absent, so Restore
// stops at it.
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

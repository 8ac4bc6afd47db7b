package gaussrange

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadWithIDsMatchesLoad verifies a DB loaded under explicit global ids
// answers queries with the same ids as a plain sequential Load.
func TestLoadWithIDsMatchesLoad(t *testing.T) {
	pts := gridPoints(100, 5)
	full, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Same points, same ids, but loaded id-addressed and unsorted.
	ids := make([]int64, len(pts))
	shuffled := make([][]float64, len(pts))
	for i := range pts {
		j := (i*37 + 11) % len(pts)
		ids[i] = int64(j)
		shuffled[i] = pts[j]
	}
	byID, err := LoadWithIDs(shuffled, ids)
	if err != nil {
		t.Fatal(err)
	}
	if byID.MaxID() != full.MaxID() {
		t.Fatalf("MaxID %d vs %d", byID.MaxID(), full.MaxID())
	}
	spec := QuerySpec{
		Center: []float64{22, 22},
		Cov:    [][]float64{{30, 5}, {5, 20}},
		Delta:  12,
		Theta:  0.05,
	}
	a, err := full.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := byID.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IDs) == 0 {
		t.Fatal("test query returned no answers")
	}
	if !reflect.DeepEqual(a.IDs, b.IDs) {
		t.Fatalf("ids diverge:\n full %v\n byid %v", a.IDs, b.IDs)
	}
}

// TestLoadWithIDsSparse checks holes: ids with gaps stay addressable and the
// skipped ids are dead.
func TestLoadWithIDsSparse(t *testing.T) {
	db, err := LoadWithIDs([][]float64{{0, 0}, {10, 10}}, []int64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if db.MaxID() != 8 {
		t.Fatalf("MaxID = %d, want 8", db.MaxID())
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if p, err := db.Point(7); err != nil || p[0] != 10 {
		t.Fatalf("Point(7) = %v, %v", p, err)
	}
	if _, err := db.Point(5); err == nil {
		t.Fatal("hole id 5 resolved")
	}

	if _, err := LoadWithIDs([][]float64{{0, 0}}, []int64{0, 1}); err == nil {
		t.Error("mismatched id count accepted")
	}
	if _, err := LoadWithIDs([][]float64{{0, 0}, {1, 1}}, []int64{2, 2}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := LoadWithIDs([][]float64{{0, 0}}, []int64{-1}); err == nil {
		t.Error("negative id accepted")
	}
}

// TestApplyWithIDsLogReplay journals explicit-id batches in a wal and checks
// that RestoreFile + AttachWAL reproduces the exact id assignment, including
// holes.
func TestApplyWithIDsLogReplay(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "snap.grdb")

	db, err := Load(gridPoints(16, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AttachWAL(WALConfig{Dir: walDir, Synchronous: true}); err != nil {
		t.Fatal(err)
	}
	// Mixed history: sequential batch, explicit-id batch with a hole,
	// deletes against both kinds of id.
	if _, _, _, err := db.Apply([][]float64{{101, 101}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ApplyWithIDs([][]float64{{201, 201}, {202, 202}}, []int64{30, 40}, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ApplyWithIDs(nil, nil, []int64{30}); err != nil {
		t.Fatal(err)
	}
	wantEpoch := db.Epoch()
	if err := db.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	re, err := RestoreFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := re.AttachWAL(WALConfig{Dir: walDir, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.DetachWAL()
	if replayed != 3 {
		t.Fatalf("replayed %d batches, want 3", replayed)
	}
	if re.Epoch() != wantEpoch {
		t.Fatalf("epoch %d after replay, want %d", re.Epoch(), wantEpoch)
	}
	if re.MaxID() != db.MaxID() {
		t.Fatalf("MaxID %d after replay, want %d", re.MaxID(), db.MaxID())
	}
	for _, id := range []int64{16, 40} {
		p0, err0 := db.Point(id)
		p1, err1 := re.Point(id)
		if err0 != nil || err1 != nil || !reflect.DeepEqual(p0, p1) {
			t.Fatalf("id %d: %v/%v vs %v/%v", id, p0, err0, p1, err1)
		}
	}
	for _, id := range []int64{0, 30, 35} { // deleted, deleted, hole
		if _, err := re.Point(id); err == nil {
			t.Errorf("id %d live after replay", id)
		}
	}
}

// TestPlanRegion checks the exposed Phase-1 rectangle contains every answer
// and is usable from an empty planner DB.
func TestPlanRegion(t *testing.T) {
	pts := gridPoints(100, 5)
	db, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Center: []float64{20, 25},
		Cov:    [][]float64{{40, 0}, {0, 25}},
		Delta:  10,
		Theta:  0.1,
	}
	lo, hi, empty, err := db.PlanRegion(spec)
	if err != nil {
		t.Fatal(err)
	}
	if empty {
		t.Fatal("plan unexpectedly empty")
	}
	res, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("test query returned no answers")
	}
	for _, id := range res.IDs {
		p, err := db.Point(id)
		if err != nil {
			t.Fatal(err)
		}
		for d := range p {
			if p[d] < lo[d] || p[d] > hi[d] {
				t.Fatalf("answer %d at %v outside plan region [%v, %v]", id, p, lo, hi)
			}
		}
	}

	// An empty DB of the right dim works as a pure planner.
	planner, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, empty2, err := planner.PlanRegion(spec)
	if err != nil {
		t.Fatal(err)
	}
	if empty2 || !reflect.DeepEqual(lo, lo2) || !reflect.DeepEqual(hi, hi2) {
		t.Fatalf("planner region diverges: [%v %v] vs [%v %v]", lo, hi, lo2, hi2)
	}
}

package gaussrange

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/vecmat"
)

// TestByIDDifferential runs random histories — LoadWithIDs with gaps (and
// one without, whose base holds exactly ids 0..n−1), ApplyWithIDs with gaps, sequential Apply, deletes of base ids, overlay
// ids, holes and dead ids, two folds or more — against a map model. At every
// epoch MaxID, Alive, Point, Range's order, QueryProb and the Save bytes
// must be the model's; Save's are encoded from the model independently.
// The log line's hash covers every Save of the histories, for a comparison
// with another tree.
func TestByIDDifferential(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 3; seed++ {
		runByIDHistory(t, seed, h)
	}
	t.Logf("FNV-64a of every Save: %016x", h.Sum64())
}

func runByIDHistory(t *testing.T, seed int64, h interface{ Write([]byte) (int, error) }) {
	rng := rand.New(rand.NewSource(seed))
	randPoint := func() []float64 { return []float64{float64(rng.Intn(1001)) / 10, float64(rng.Intn(1001)) / 10} }
	model := map[int64][]float64{}
	var maxID int64

	var pts [][]float64
	var ids []int64
	gaps := 3
	if seed == 1 {
		gaps = 1
	}
	for id := int64(0); len(ids) < 400; id += 1 + int64(rng.Intn(gaps)) {
		ids = append(ids, id)
		pts = append(pts, randPoint())
		model[id] = pts[len(pts)-1]
		maxID = id + 1
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i]; pts[i], pts[j] = pts[j], pts[i] })
	db, err := LoadWithIDs(pts, ids)
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Cov: paperCov(1), Delta: 5, Theta: 0.01}
	exact := core.NewExactEvaluator()

	check := func(step int) {
		t.Helper()
		snap := db.idx.Current()
		if snap.MaxID() != maxID || db.Len() != len(model) {
			t.Fatalf("seed %d step %d: MaxID %d, Len %d; model %d, %d", seed, step, snap.MaxID(), db.Len(), maxID, len(model))
		}
		for id := int64(-1); id <= maxID; id++ {
			want, live := model[id]
			if snap.Alive(id) != live {
				t.Fatalf("seed %d step %d: Alive(%d) = %v, model %v", seed, step, id, !live, live)
			}
			got, err := snap.Point(id)
			if live != (err == nil) || live && !slices.Equal(got, vecmat.Vector(want)) {
				t.Fatalf("seed %d step %d: Point(%d) = %v, %v; model %v", seed, step, id, got, err, want)
			}
		}
		var order []int64
		snap.Range(func(id int64, p vecmat.Vector) bool {
			if !slices.Equal(p, vecmat.Vector(model[id])) {
				t.Fatalf("seed %d step %d: Range gives %d at %v, model %v", seed, step, id, p, model[id])
			}
			order = append(order, id)
			return true
		})
		want := make([]int64, 0, len(model))
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		if !slices.Equal(order, want) {
			t.Fatalf("seed %d step %d: Range order %v, model %v", seed, step, order, want)
		}
		for i := 0; i < 4; i++ {
			id := rng.Int63n(maxID + 1)
			s := spec
			s.Center = randPoint()
			got, err := db.QueryProb(s, id)
			p, live := model[id]
			if !live {
				if err == nil {
					t.Fatalf("seed %d step %d: QueryProb of absent id %d = %g", seed, step, id, got)
				}
				continue
			}
			q, _, err2 := db.compile(s)
			if err2 != nil {
				t.Fatal(err2)
			}
			wantP, werr := exact.Qualification(q.Dist, p, q.Delta)
			if err != nil || werr != nil || got != wantP {
				t.Fatalf("seed %d step %d: QueryProb(%d) = %g, %v; model %g, %v", seed, step, id, got, err, wantP, werr)
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if enc := encodeModel(db.Epoch(), maxID, model); !bytes.Equal(buf.Bytes(), enc) {
			t.Fatalf("seed %d step %d: Save wrote %d bytes unlike the model's %d", seed, step, buf.Len(), len(enc))
		}
		h.Write(buf.Bytes())
	}

	// deletable picks a delete: a live id (base or overlay), a hole, a
	// dead id or an id past MaxID.
	deletable := func() int64 {
		if rng.Intn(4) > 0 && len(model) > 0 {
			live := make([]int64, 0, len(model))
			for id := range model {
				live = append(live, id)
			}
			slices.Sort(live)
			return live[rng.Intn(len(live))]
		}
		return rng.Int63n(maxID + 3)
	}

	folds := 0
	check(0)
	for step := 1; step <= 150 || folds < 2; step++ {
		before := db.idx.Current()
		var dels []int64
		for i := rng.Intn(4); i > 0; i-- {
			dels = append(dels, deletable())
		}
		ins := make([][]float64, rng.Intn(5))
		for i := range ins {
			ins[i] = randPoint()
		}
		switch rng.Intn(2) {
		case 0:
			got, _, _, err := db.Apply(ins, dels)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range got {
				if id != maxID+int64(i) {
					t.Fatalf("seed %d step %d: sequential id %d, want %d", seed, step, id, maxID+int64(i))
				}
			}
			applyModel(model, dels, got, ins)
		default:
			insIDs := make([]int64, len(ins))
			next := maxID
			for i := range insIDs {
				next += int64(rng.Intn(4))
				insIDs[i] = next
				next++
			}
			if _, _, err := db.ApplyWithIDs(ins, insIDs, dels); err != nil {
				t.Fatal(err)
			}
			applyModel(model, dels, insIDs, ins)
		}
		for id := range model {
			maxID = max(maxID, id+1)
		}
		if n, _ := db.idx.Current().OverlaySize(); n == 0 && before.Packed() != db.idx.Current().Packed() {
			folds++
		}
		check(step)
	}
	t.Logf("seed %d: %d folds, MaxID %d, %d live", seed, folds, maxID, len(model))
}

// applyModel applies one batch to the model: deletes first, then inserts.
func applyModel(model map[int64][]float64, dels, ids []int64, ins [][]float64) {
	for _, id := range dels {
		delete(model, id)
	}
	for i, id := range ids {
		model[id] = ins[i]
	}
}

// encodeModel is the GRDBv2 snapshot of a model, written without the
// database: header, live (id, point) pairs in ascending id order, CRC.
func encodeModel(epoch uint64, maxID int64, model map[int64][]float64) []byte {
	ids := make([]int64, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b := append([]byte(nil), persistMagicV2[:]...)
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(maxID))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		for _, x := range model[id] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestQueriesBuildNoIDIndex: no query path maps an id to its point. After
// Load(LongBeach) and queries of the four bench shapes (churn_mixed's
// reader has coarse_read's) through Query, QueryMatches and QueryTopK, plus
// NearestNeighbors and RangeSearch, the database retains at most 24 B a
// point, as after Load alone; a built by-id index would add 4.
func TestQueriesBuildNoIDIndex(t *testing.T) {
	pts := toRaw(data.LongBeach(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ gamma, delta float64 }{{10, 25}, {100, 5}, {1, 25}} {
		for _, c := range []int{17, 4242, 31337} {
			spec := QuerySpec{Center: pts[c], Cov: paperCov(shape.gamma), Delta: shape.delta, Theta: 0.01}
			// Compile, rebind (the hull is built), then the cached path.
			for i := 0; i < 3; i++ {
				if _, err := db.Query(spec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.QueryMatches(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := db.QueryTopK(spec, 5); err != nil {
				t.Fatal(err)
			}
			if _, err := db.NearestNeighbors(pts[c], 10); err != nil {
				t.Fatal(err)
			}
			if _, err := db.RangeSearch(pts[c], shape.delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	runtime.KeepAlive(pts)
	perPoint := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(pts))
	t.Logf("after the queries %.1f B/point retained", perPoint)
	if perPoint > 24 {
		t.Errorf("retains %.1f B/point after the queries, want ≤ 24", perPoint)
	}
}

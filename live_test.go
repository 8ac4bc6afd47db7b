package gaussrange

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// liveStrategies are the six filter combinations from the paper's evaluation.
var liveStrategies = []string{"RR", "BF", "RR+BF", "RR+OR", "BF+OR", "ALL"}

// TestLiveMutationStress interleaves queries with a writer that toggles a
// point between two copies — each Apply inserts a fresh copy at a fixed
// location T and deletes the previous one in the SAME batch, so in every
// published epoch exactly one copy is alive. Readers query a region whose
// only possible answers are toggle copies; seeing zero or two copies would
// mean the query observed a torn mixture of epochs. Run under -race by make
// verify, this is the end-to-end proof that lock-free snapshot reads are
// both data-race-free and epoch-consistent.
func TestLiveMutationStress(t *testing.T) {
	// Seed points far from the toggle site so they never answer the query.
	seed := gridPoints(400, 5) // [0,95]², toggle at (500,500)
	db, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	toggle := []float64{500, 500}
	firstID, err := db.Insert(toggle)
	if err != nil {
		t.Fatal(err)
	}
	if firstID != int64(len(seed)) {
		t.Fatalf("first toggle id = %d, want %d", firstID, len(seed))
	}

	// At the toggle site the qualification probability is ≈1 (δ=25 vs unit
	// σ); at the seed points it is 0.
	spec := QuerySpec{
		Center: toggle,
		Cov:    [][]float64{{1, 0}, {0, 1}},
		Delta:  25,
		Theta:  0.5,
	}

	const writes = 250
	var (
		done     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	checkResult := func(res *Result) {
		toggles := 0
		for _, id := range res.IDs {
			if id >= int64(len(seed)) {
				toggles++
			} else {
				fail(fmt.Errorf("seed id %d answered the toggle query", id))
			}
		}
		if toggles != 1 {
			fail(fmt.Errorf("epoch %d: %d toggle copies visible, want exactly 1 (ids %v)", res.Epoch, toggles, res.IDs))
		}
		if res.Epoch == 0 {
			fail(fmt.Errorf("result carries no epoch"))
		}
	}
	ctx := context.Background()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				if r == 0 && i%8 == 0 {
					// One reader also exercises the pooled batch path.
					results, err := db.QueryBatch(ctx, []QuerySpec{spec, spec, spec}, 3)
					if err != nil {
						fail(err)
						return
					}
					for _, res := range results {
						checkResult(res)
					}
					continue
				}
				res, err := db.QueryCtx(ctx, spec)
				if err != nil {
					fail(err)
					return
				}
				checkResult(res)
			}
		}(r)
	}

	cur := firstID
	for i := 0; i < writes; i++ {
		ids, deleted, _, err := db.Apply([][]float64{toggle}, []int64{cur})
		if err != nil {
			t.Fatal(err)
		}
		if !deleted[0] {
			t.Fatalf("write %d: previous toggle %d was not live", i, cur)
		}
		cur = ids[0]
	}
	done.Store(true)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if got := db.Epoch(); got != uint64(2+writes) {
		t.Fatalf("final epoch = %d, want %d", got, 2+writes)
	}
}

// TestStrategyIdentityAcrossReplay checks the acceptance bar for the mutation
// path: after an insert+delete cycle, a second database built by restoring
// the same seed data and replaying the wal reaches the same epoch
// and returns identical answers — ids and probabilities — under all six
// strategy configurations.
func TestStrategyIdentityAcrossReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seed := gridPoints(400, 5)
	walDir := t.TempDir()

	db1, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db1.AttachWAL(WALConfig{Dir: walDir, Synchronous: true}); err != nil {
		t.Fatal(err)
	}
	// A few batches of churn around the query site.
	for b := 0; b < 5; b++ {
		var ins [][]float64
		for i := 0; i < 8; i++ {
			ins = append(ins, []float64{40 + rng.Float64()*20, 40 + rng.Float64()*20})
		}
		var dels []int64
		for i := 0; i < 5; i++ {
			dels = append(dels, int64(rng.Intn(len(seed))))
		}
		if _, _, _, err := db1.Apply(ins, dels); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db1.Epoch()
	if err := db1.DetachWAL(); err != nil {
		t.Fatal(err)
	}

	spec := func(strategy string) QuerySpec {
		return QuerySpec{
			Center:   []float64{50, 50},
			Cov:      paperCov(4),
			Delta:    25,
			Theta:    0.01,
			Strategy: strategy,
		}
	}
	before := map[string]string{}
	for _, s := range liveStrategies {
		res, err := db1.QueryCtx(context.Background(), spec(s))
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if len(res.IDs) == 0 {
			t.Fatalf("strategy %s: empty answer makes the identity check vacuous", s)
		}
		if res.Epoch != epoch {
			t.Fatalf("strategy %s: answer epoch %d, want %d", s, res.Epoch, epoch)
		}
		matches, err := db1.QueryMatches(spec(s))
		if err != nil {
			t.Fatal(err)
		}
		before[s] = fmt.Sprintf("%v|%v", res.IDs, matches)
	}

	// Same lineage: load the same seed data, replay the wal.
	db2, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := db2.AttachWAL(WALConfig{Dir: walDir, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.DetachWAL()
	if replayed != 5 {
		t.Fatalf("replayed %d batches, want 5", replayed)
	}
	if db2.Epoch() != epoch {
		t.Fatalf("replayed epoch %d, want %d", db2.Epoch(), epoch)
	}
	if db2.Len() != db1.Len() {
		t.Fatalf("replayed Len %d, want %d", db2.Len(), db1.Len())
	}
	for _, s := range liveStrategies {
		res, err := db2.QueryCtx(context.Background(), spec(s))
		if err != nil {
			t.Fatalf("strategy %s after replay: %v", s, err)
		}
		matches, err := db2.QueryMatches(spec(s))
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%v|%v", res.IDs, matches)
		if got != before[s] {
			t.Fatalf("strategy %s: answers diverged across replay\nbefore: %s\nafter:  %s", s, before[s], got)
		}
	}
}

// TestStrategyIdentityAfterFold runs the six-strategy matrix against a
// snapshot that has just crossed the overlay-fold threshold, where the
// packed base is freshly rebuilt from the folded overlay. Every strategy's
// ids, first query and reused plan alike, and QueryMatches' ids must be
// brute force's, and Phase 1 must retrieve exactly the live points of the
// plan's box, so any divergence is a packed certificate or fusion bug, not
// workload noise.
func TestStrategyIdentityAfterFold(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	seed := gridPoints(400, 5) // live=400 → fold threshold 128

	db, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	// 13 batches of 8 inserts + 2 deletes put 130 entries in the overlay;
	// the threshold at this size is 128, so the 13th Apply folds the overlay
	// into a fresh packed base.
	for b := 0; b < 13; b++ {
		var ins [][]float64
		for i := 0; i < 8; i++ {
			ins = append(ins, []float64{40 + rng.Float64()*20, 40 + rng.Float64()*20})
		}
		dels := []int64{int64(rng.Intn(len(seed)))}
		dels = append(dels, int64(rng.Intn(len(seed))))
		if _, _, _, err := db.Apply(ins, dels); err != nil {
			t.Fatal(err)
		}
	}

	spec := func(strategy string) QuerySpec {
		return QuerySpec{
			Center:   []float64{50, 50},
			Cov:      paperCov(4),
			Delta:    25,
			Theta:    0.01,
			Strategy: strategy,
		}
	}
	// Prove the snapshot really is post-fold: no overlay left to scan, and
	// the packed base was read.
	probe, err := db.QueryCtx(context.Background(), spec("ALL"))
	if err != nil {
		t.Fatal(err)
	}
	if probe.Stats.OverlayScanned != 0 {
		t.Fatalf("overlay not folded: %d overlay entries scanned", probe.Stats.OverlayScanned)
	}
	if probe.Stats.NodesRead == 0 {
		t.Fatal("post-fold query read no node of the packed base")
	}

	eng, err := core.NewEngine(db.idx, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range liveStrategies {
		q, _, err := db.compile(spec(s))
		if err != nil {
			t.Fatal(err)
		}
		brute, err := eng.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(brute.IDs) == 0 {
			t.Fatalf("strategy %s: empty answer makes the identity check vacuous", s)
		}
		lo, hi, _, err := db.PlanRegion(spec(s))
		if err != nil {
			t.Fatal(err)
		}
		box, inBox := geom.Rect{Lo: lo, Hi: hi}, 0
		db.idx.Current().Range(func(_ int64, p vecmat.Vector) bool {
			if box.Contains(p) {
				inBox++
			}
			return true
		})
		// A shape's first query runs the paper's filter chain, later ones
		// may decide from the answer-region hull: both must agree.
		for _, run := range []string{"first", "reused"} {
			res, err := db.QueryCtx(context.Background(), spec(s))
			if err != nil {
				t.Fatalf("strategy %s (%s): %v", s, run, err)
			}
			if !slices.Equal(res.IDs, brute.IDs) {
				t.Fatalf("strategy %s (%s): answers diverged from brute force post-fold\nquery: %v\nbrute: %v", s, run, res.IDs, brute.IDs)
			}
			if res.Stats.Retrieved != inBox {
				t.Fatalf("strategy %s (%s): retrieved %d, the box holds %d live points", s, run, res.Stats.Retrieved, inBox)
			}
		}
		m, err := db.QueryMatches(spec(s))
		if err != nil {
			t.Fatal(err)
		}
		mIDs := make([]int64, len(m))
		for i := range m {
			mIDs[i] = m[i].ID
		}
		slices.Sort(mIDs)
		if !slices.Equal(mIDs, brute.IDs) {
			t.Fatalf("strategy %s: QueryMatches ids %v, brute force %v", s, mIDs, brute.IDs)
		}
	}
}

// TestLazyPointerTreeFirstTouch races eight readers — DB.NearestNeighbors,
// DB.RangeSearch and queries, all on the packed base — against a writer that
// takes the index across two overlay folds, each of which swaps in a fresh
// base. Every epoch a query observes must answer as brute force does on
// that epoch. It ends on the fold boundary, where the folded DB must answer
// exactly like a fresh LoadWithIDs of its live points under their ids.
func TestLazyPointerTreeFirstTouch(t *testing.T) {
	seed := gridPoints(400, 5) // live=400 → fold threshold 128
	// The writer works around (500, 500), far from the seed grid: the churn
	// query's answer changes with every epoch, the seed-side answers never
	// do. A throwaway DB supplies the latter.
	churn := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(4), Delta: 25, Theta: 0.01}
	oracle, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	wantRange, err := oracle.RangeSearch([]float64{50, 50}, 12)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(wantRange)
	wantNN, err := oracle.NearestNeighbors([]float64{50, 50}, 5)
	if err != nil {
		t.Fatal(err)
	}

	db, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	churnQ, _, err := db.compile(churn)
	if err != nil {
		t.Fatal(err)
	}

	var (
		done     atomic.Bool
		compared atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		done.Store(true)
	}
	ctx := context.Background()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// An evaluator is one goroutine's: each reader brings its own.
			eng, err := core.NewEngine(db.idx, core.NewExactEvaluator(), core.Options{})
			if err != nil {
				fail(err)
				return
			}
			for !done.Load() {
				switch r % 3 {
				case 0:
					nn, err := db.NearestNeighbors([]float64{50, 50}, 5)
					if err != nil || !reflect.DeepEqual(nn, wantNN) {
						fail(fmt.Errorf("NearestNeighbors = %v (%v), want %v", nn, err, wantNN))
						return
					}
				case 1:
					ids, err := db.RangeSearch([]float64{50, 50}, 12)
					slices.Sort(ids)
					if err != nil || !reflect.DeepEqual(ids, wantRange) {
						fail(fmt.Errorf("RangeSearch = %v (%v), want %v", ids, err, wantRange))
						return
					}
				}
				got, err := db.QueryCtx(ctx, churn)
				if err != nil {
					fail(err)
					return
				}
				brute, err := eng.BruteForce(churnQ)
				if err != nil {
					fail(err)
					return
				}
				if got.Epoch != brute.Stats.Epoch {
					continue // the writer published in between
				}
				if !slices.Equal(got.IDs, brute.IDs) {
					fail(fmt.Errorf("epoch %d: query %v, brute force %v", got.Epoch, got.IDs, brute.IDs))
					return
				}
				compared.Add(1)
			}
		}(r)
	}

	// 8 inserts + 2 deletes per batch: the overlay crosses 128 on every 13th.
	rng := rand.New(rand.NewSource(16))
	var mine []int64
	for folds := 0; folds < 2 && !done.Load(); {
		var ins [][]float64
		for i := 0; i < 8; i++ {
			ins = append(ins, []float64{490 + rng.Float64()*20, 490 + rng.Float64()*20})
		}
		var dels []int64
		if len(mine) >= 2 {
			dels, mine = mine[:2], mine[2:]
		}
		ids, _, _, err := db.Apply(ins, dels)
		if err != nil {
			fail(err)
			break
		}
		mine = append(mine, ids...)
		if insd, deld := db.idx.Current().OverlaySize(); insd+deld == 0 {
			folds++
		}
		// Let every generation be compared on before moving past it.
		for mark := compared.Load(); compared.Load() < mark+8 && !done.Load(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// On the fold boundary everything is in the base, so a fresh load of the
	// live points under their ids is the same index.
	snap := db.idx.Current()
	if insd, deld := snap.OverlaySize(); insd+deld != 0 {
		t.Fatalf("writer stopped off the fold boundary: overlay %d+%d", insd, deld)
	}
	var (
		livePts [][]float64
		liveIDs []int64
	)
	for id := int64(0); id < db.MaxID(); id++ {
		if p, err := db.Point(id); err == nil {
			livePts, liveIDs = append(livePts, p), append(liveIDs, id)
		}
	}
	fresh, err := LoadWithIDs(livePts, liveIDs)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []QuerySpec{churn, {Center: []float64{50, 50}, Cov: paperCov(4), Delta: 25, Theta: 0.01}} {
		a, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.IDs) == 0 || !reflect.DeepEqual(a.IDs, b.IDs) {
			t.Fatalf("folded DB answers %v, fresh LoadWithIDs of its live points %v", a.IDs, b.IDs)
		}
	}
}

// TestNearestNeighborsChurnedTies pins DB.NearestNeighbors on a churned DB —
// base deletes, overlay inserts and overlay deletes, no fold — against a
// brute-force (distance, id) ordering. The base is an integer grid loaded
// twice, every overlay insert duplicates a grid point away from the centre
// the queries probe, and the base deletes are the first copy's points around
// that centre: at every k the k-th
// neighbour ties with several others, and the base tree, asked for k plus
// its own tombstones only, must still reach past every tombstone and hand
// over the smaller ids of a tie.
func TestNearestNeighborsChurnedTies(t *testing.T) {
	grid := gridPoints(400, 1) // [0,19]²
	seed := append(slices.Clone(grid), grid...)
	db, err := Load(seed)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64][]float64{}
	for id, p := range seed {
		live[int64(id)] = p
	}
	dist2 := func(p, q []float64) float64 {
		dx, dy := p[0]-q[0], p[1]-q[1]
		return dx*dx + dy*dy
	}
	centre := []float64{10, 10}
	rng := rand.New(rand.NewSource(11))
	var dels []int64
	for id, p := range grid {
		if dist2(p, centre) <= 8 {
			dels = append(dels, int64(id))
		}
	}
	ins := make([][]float64, 40)
	for i := range ins {
		for ins[i] = centre; dist2(ins[i], centre) <= 18; {
			ins[i] = grid[rng.Intn(len(grid))]
		}
	}
	ids, _, _, err := db.Apply(ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range dels {
		delete(live, id)
	}
	for i, id := range ids {
		live[id] = ins[i]
	}
	var overlayDels []int64
	for i := 0; i < len(ids); i += 3 {
		overlayDels = append(overlayDels, ids[i])
		delete(live, ids[i])
	}
	if _, _, _, err := db.Apply(nil, overlayDels); err != nil {
		t.Fatal(err)
	}
	if insd, deld := db.idx.Current().OverlaySize(); insd != len(ins) || deld != len(dels)+len(overlayDels) {
		t.Fatalf("overlay %d+%d, want %d+%d (folded?)", insd, deld, len(ins), len(dels)+len(overlayDels))
	}

	type cand struct {
		id int64
		d2 float64
	}
	for trial := 0; trial < 40; trial++ {
		q := centre // where the base needs every tombstone fetched
		if trial > 0 {
			q = []float64{float64(16+rng.Intn(9)) / 2, float64(16+rng.Intn(9)) / 2}
		}
		var all []cand
		for id, p := range live {
			all = append(all, cand{id, dist2(p, q)})
		}
		slices.SortFunc(all, func(a, b cand) int {
			if a.d2 != b.d2 {
				if a.d2 < b.d2 {
					return -1
				}
				return 1
			}
			return int(a.id - b.id)
		})
		for k := 1; k <= 60; k++ {
			got, err := db.NearestNeighbors(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k {
				t.Fatalf("trial %d k=%d: %d neighbours", trial, k, len(got))
			}
			for i, n := range got {
				if n.ID != all[i].id || n.Distance != math.Sqrt(all[i].d2) {
					t.Fatalf("trial %d k=%d: neighbour %d is %d at %g, want %d at %g",
						trial, k, i, n.ID, n.Distance, all[i].id, math.Sqrt(all[i].d2))
				}
			}
		}
	}
}

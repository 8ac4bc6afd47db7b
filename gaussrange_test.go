package gaussrange

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/mc"
	"gaussrange/internal/rtree"
)

func gridPoints(n int, spacing float64) [][]float64 {
	var pts [][]float64
	side := int(math.Sqrt(float64(n)))
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			pts = append(pts, []float64{float64(i) * spacing, float64(j) * spacing})
		}
	}
	return pts
}

func paperCov(gamma float64) [][]float64 {
	s := 2 * math.Sqrt(3) * gamma
	return [][]float64{{7 * gamma, s}, {s, 3 * gamma}}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(nil); err == nil {
		t.Error("empty Load accepted")
	}
	if _, err := Load([][]float64{{}}); err == nil {
		t.Error("zero-dim points accepted")
	}
	if _, err := Load([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged points accepted")
	}
	if _, err := Load(gridPoints(100, 10), WithPageSize(10)); err == nil {
		t.Error("tiny page size accepted")
	}
	if _, err := Open(0); err == nil {
		t.Error("Open(0) accepted")
	}
}

func TestOpenInsertQuery(t *testing.T) {
	db, err := Open(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		if _, err := db.Insert([]float64{rng.Float64() * 1000, rng.Float64() * 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 2000 || db.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", db.Len(), db.Dim())
	}
	res, err := db.Query(QuerySpec{
		Center: []float64{500, 500},
		Cov:    paperCov(10),
		Delta:  25,
		Theta:  0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retrieved == 0 {
		t.Error("query retrieved nothing on a dense dataset")
	}
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] <= res.IDs[i-1] {
			t.Fatal("ids not strictly ascending")
		}
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{
		Center: []float64{500, 500},
		Cov:    paperCov(10),
		Delta:  25,
		Theta:  0.01,
	}
	var first []int64
	for i, strat := range []string{"RR", "BF", "RR+BF", "RR+OR", "BF+OR", "ALL", ""} {
		spec.Strategy = strat
		res, err := db.Query(spec)
		if err != nil {
			t.Fatalf("%q: %v", strat, err)
		}
		if i == 0 {
			first = res.IDs
			continue
		}
		if len(res.IDs) != len(first) {
			t.Fatalf("%q returned %d answers, RR returned %d", strat, len(res.IDs), len(first))
		}
		for j := range first {
			if res.IDs[j] != first[j] {
				t.Fatalf("%q answers differ from RR", strat)
			}
		}
	}
	spec.Strategy = "bogus"
	if _, err := db.Query(spec); err == nil {
		t.Error("bogus strategy accepted")
	}
	spec.Strategy = "OR"
	if _, err := db.Query(spec); err == nil {
		t.Error("OR-only strategy accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	db, err := Load(gridPoints(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	bad := []QuerySpec{
		{Center: []float64{1}, Cov: paperCov(1), Delta: 5, Theta: 0.1},
		{Center: []float64{1, 2}, Cov: [][]float64{{1, 0}}, Delta: 5, Theta: 0.1},
		{Center: []float64{1, 2}, Cov: [][]float64{{1, 2}, {3, 4}}, Delta: 5, Theta: 0.1},
		{Center: []float64{1, 2}, Cov: paperCov(1), Delta: 0, Theta: 0.1},
		{Center: []float64{1, 2}, Cov: paperCov(1), Delta: 5, Theta: 0},
	}
	for i, spec := range bad {
		if _, err := db.Query(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestMonteCarloOption: the paper's Monte Carlo evaluator, driven through a
// core engine on the DB's index, agrees with the DB's exact answer on a grid
// whose points sit well away from the θ boundary. The name is kept from the
// DB option that used to select it.
func TestMonteCarloOption(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	integ, err := mc.NewIntegrator(20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	mcRes := coreSearch(t, db, integ, core.Options{}, spec)
	exRes, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(mcRes.IDs, exRes.IDs) {
		t.Errorf("MC answers %d vs exact %d", len(mcRes.IDs), len(exRes.IDs))
	}
}

// TestCatalogOption: U-catalog radii, driven through a core engine on the
// DB's index, give the DB's exact answer and are conservative — never fewer
// integrations than the exact radii. The name is kept from the DB option
// that used to select them.
func TestCatalogOption(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	catRes := coreSearch(t, db, core.NewExactEvaluator(), core.Options{UseCatalogs: true}, spec)
	exRes := coreSearch(t, db, core.NewExactEvaluator(), core.Options{}, spec)
	dbRes, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(catRes.IDs, dbRes.IDs) || !slices.Equal(exRes.IDs, dbRes.IDs) {
		t.Errorf("catalog answers %d, exact-radii answers %d, DB %d", len(catRes.IDs), len(exRes.IDs), len(dbRes.IDs))
	}
	if catRes.Stats.Integrations < exRes.Stats.Integrations {
		t.Errorf("catalog mode integrated fewer (%d) than exact (%d) — catalog must be conservative",
			catRes.Stats.Integrations, exRes.Stats.Integrations)
	}
}

func TestQueryProb(t *testing.T) {
	db, err := Load([][]float64{{500, 500}, {800, 800}})
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(1), Delta: 25, Theta: 0.5}
	p, err := db.QueryProb(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Errorf("probability at the query center = %g, want ≈1", p)
	}
	p, err = db.QueryProb(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-12 {
		t.Errorf("probability of a distant point = %g, want ≈0", p)
	}
	if _, err := db.QueryProb(spec, 99); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestRangeSearchAndKNN(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.RangeSearch([]float64{505, 505}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Errorf("RangeSearch found %d, want the 4 surrounding grid points", len(ids))
	}
	nn, err := db.NearestNeighbors([]float64{501, 500}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 {
		t.Fatalf("kNN returned %d", len(nn))
	}
	if math.Abs(nn[0].Distance-1) > 1e-12 {
		t.Errorf("nearest distance = %g, want 1", nn[0].Distance)
	}
	p, err := db.Point(nn[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 500 || p[1] != 500 {
		t.Errorf("nearest point = %v", p)
	}
}

func TestStatsExposed(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(QuerySpec{
		Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01,
		Strategy: "ALL",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Retrieved != st.PrunedFringe+st.PrunedOR+st.PrunedBF+st.AcceptedBF+st.Integrations {
		t.Errorf("stats do not account for all candidates: %+v", st)
	}
	if st.NodesRead == 0 {
		t.Error("NodesRead missing")
	}
}

func TestPublicPNN(t *testing.T) {
	db, err := Load([][]float64{{0, 0}, {100, 100}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.PNN([]float64{1, 1}, [][]float64{{0.1, 0}, {0, 0.1}}, 0.05, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("PNN empty")
	}
	var total float64
	for _, r := range res {
		total += r.Probability
	}
	if total > 1.000001 {
		t.Errorf("probabilities sum to %g", total)
	}
	if _, err := db.PNN([]float64{1}, [][]float64{{1}}, 0.1, 100); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// TestPublicQueryParallel: a QueryBatch at 4 workers answers every spec
// exactly as serial Query does. The name is kept from DB.QueryParallel, the
// intra-query pool this test first covered; QueryBatch is the one parallel
// entry point left.
func TestPublicQueryParallel(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	var specs []QuerySpec
	for i := 0; i < 12; i++ {
		c := float64(200 + 50*i)
		specs = append(specs, QuerySpec{Center: []float64{c, 1000 - c}, Cov: paperCov(float64(1 + i%3*9)), Delta: 25, Theta: 0.01})
	}
	batch, err := db.QueryBatch(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		serial, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.IDs) == 0 {
			t.Fatalf("spec %d: empty answer makes the check vacuous", i)
		}
		if !slices.Equal(batch[i].IDs, serial.IDs) {
			t.Errorf("spec %d: batch %d ids vs serial %d", i, len(batch[i].IDs), len(serial.IDs))
		}
	}
}

// TestQueryParallelCtxCancellation: a cancelled context fails QueryCtx with
// context.Canceled, on a cold shape and on a cached one, and a live context
// then answers as Query does. The name is kept from QueryParallelCtx, the
// pooled entry point this test first covered.
func TestQueryParallelCtxCancellation(t *testing.T) {
	db, err := Load(gridPoints(10000, 10))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shape := range []string{"cold", "cached"} {
		if _, err := db.QueryCtx(ctx, spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s shape: cancelled query returned %v, want context.Canceled", shape, err)
		}
	}
	res, err := db.QueryCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) == 0 || !reflect.DeepEqual(serial.IDs, res.IDs) {
		t.Fatal("query-with-context ids differ from Query's")
	}
}

// TestUncertainTargets: widening the query covariance by the target error
// must equal querying with the summed covariance directly, and a Monte Carlo
// simulation of jittered targets must agree with the analytic answer.
func TestUncertainTargets(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	base := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(5), Delta: 25, Theta: 0.05}
	withTargets := base
	withTargets.TargetCov = [][]float64{{30, 0}, {0, 30}}

	summed := base
	summed.Cov = [][]float64{
		{base.Cov[0][0] + 30, base.Cov[0][1]},
		{base.Cov[1][0], base.Cov[1][1] + 30},
	}

	r1, err := db.Query(withTargets)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query(summed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.IDs) != len(r2.IDs) {
		t.Fatalf("TargetCov %d answers vs summed-cov %d", len(r1.IDs), len(r2.IDs))
	}
	for i := range r1.IDs {
		if r1.IDs[i] != r2.IDs[i] {
			t.Fatal("TargetCov answers differ from summed covariance")
		}
	}
	// Target uncertainty must change the result vs the certain-target query
	// for at least one boundary point (sanity that the knob does something).
	r0, err := db.Query(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(r0.IDs) == len(r1.IDs) {
		same := true
		for i := range r0.IDs {
			if r0.IDs[i] != r1.IDs[i] {
				same = false
				break
			}
		}
		if same {
			t.Log("warning: target uncertainty did not change this particular answer set")
		}
	}
	// Invalid target covariance is rejected.
	bad := base
	bad.TargetCov = [][]float64{{1, 2}, {3, 4}}
	if _, err := db.Query(bad); err == nil {
		t.Error("asymmetric target covariance accepted")
	}
}

// TestOneDimensional exercises the full pipeline at d=1, where the paper
// calls the problem trivial; the general machinery must still be exact.
func TestOneDimensional(t *testing.T) {
	pts := make([][]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		pts = append(pts, []float64{float64(i)})
	}
	db, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500.2}, Cov: [][]float64{{16}}, Delta: 10, Theta: 0.3}
	res, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: Pr(|x−o| ≤ δ) = Φ((o+δ−q)/σ) − Φ((o−δ−q)/σ), σ=4.
	phi := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	var want []int64
	for i := range pts {
		o := pts[i][0]
		p := phi((o+10-500.2)/4) - phi((o-10-500.2)/4)
		if p >= 0.3 {
			want = append(want, int64(i))
		}
	}
	if len(res.IDs) != len(want) {
		t.Fatalf("1-D answers %d, closed form %d", len(res.IDs), len(want))
	}
	for i := range want {
		if res.IDs[i] != want[i] {
			t.Fatal("1-D answer set differs from closed form")
		}
	}
}

// TestConcurrentInsertAndQuery exercises the DB's locking: concurrent
// inserts and queries must not race or corrupt the index (run with -race).
func TestConcurrentInsertAndQuery(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(5), Delta: 25, Theta: 0.05}
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				if _, err := db.Insert([]float64{rng.Float64() * 1000, rng.Float64() * 1000}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(w))
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := db.Query(spec); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != 2500+200 {
		t.Errorf("Len = %d after concurrent inserts", db.Len())
	}
	if err := rtree.Unpack(db.idx.Current().Packed()).CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoStrategy(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01, Strategy: "AUTO"}
	auto, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Strategy = "ALL"
	all, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.IDs) != len(all.IDs) {
		t.Errorf("AUTO %d vs ALL %d answers", len(auto.IDs), len(all.IDs))
	}
	// Spherical covariance routes to BF: all candidates decided without
	// integration.
	spec2 := QuerySpec{Center: []float64{500, 500}, Cov: [][]float64{{50, 0}, {0, 50}}, Delta: 25, Theta: 0.05, Strategy: "AUTO"}
	res, err := db.Query(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Integrations > 2 {
		t.Errorf("AUTO on spherical Σ still integrated %d", res.Stats.Integrations)
	}
}

// TestLoadAllocs gates the load path's allocation count: the build's
// scratch, the packed arrays and one header slice — a few dozen
// allocations for the whole dataset. Per-point cloning anywhere between Load
// and the packed build would show as tens of thousands.
func TestLoadAllocs(t *testing.T) {
	pts := toRaw(data.LongBeach(1))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Load(pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Load of %d points made %.0f allocations, want ≤ 64", len(pts), allocs)
	}
}

package gaussrange

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// batchDB builds a 2-D grid database for the QueryCtx/QueryBatch tests.
func batchDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Load(gridPoints(2500, 10), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func batchSpecs(n int) []QuerySpec {
	specs := make([]QuerySpec, n)
	for i := range specs {
		specs[i] = QuerySpec{
			Center: []float64{100 + 7*float64(i), 120 + 5*float64(i%9)},
			Cov:    paperCov(10),
			Delta:  25,
			Theta:  0.01,
		}
	}
	return specs
}

func TestQueryCtx(t *testing.T) {
	db := batchDB(t)
	spec := batchSpecs(1)[0]

	want, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("QueryCtx returned %d ids, Query returned %d", len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatal("QueryCtx ids differ from Query")
		}
	}

	// A cancelled context aborts with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCtx(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled QueryCtx error = %v, want context.Canceled", err)
	}
	// And an already-expired timeout behaves the same way.
	ctx, cancel = context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := db.QueryCtx(ctx, spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired QueryCtx error = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	db := batchDB(t)
	specs := batchSpecs(24)

	want := make([]*Result, len(specs))
	for i, spec := range specs {
		r, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	for _, workers := range []int{1, 2, 4, 8, 100} {
		got, err := db.QueryBatch(context.Background(), specs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(specs) {
			t.Fatalf("workers=%d: %d results for %d specs", workers, len(got), len(specs))
		}
		for i := range got {
			if len(got[i].IDs) != len(want[i].IDs) {
				t.Fatalf("workers=%d: spec %d: %d ids, want %d",
					workers, i, len(got[i].IDs), len(want[i].IDs))
			}
			for j := range got[i].IDs {
				if got[i].IDs[j] != want[i].IDs[j] {
					t.Fatalf("workers=%d: spec %d ids differ", workers, i)
				}
			}
		}
	}

	// Empty batch is a no-op.
	if res, err := db.QueryBatch(context.Background(), nil, 4); err != nil || res != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

func TestQueryBatchErrorPropagation(t *testing.T) {
	db := batchDB(t)
	specs := batchSpecs(8)
	specs[5].Cov = [][]float64{{1, 0}, {0, -1}} // indefinite covariance

	for _, workers := range []int{1, 4} {
		_, err := db.QueryBatch(context.Background(), specs, workers)
		if err == nil {
			t.Fatalf("workers=%d: bad spec accepted", workers)
		}
	}

	// Cancellation wins over spec errors and aborts promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryBatch(ctx, batchSpecs(50), 4); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch error = %v, want context.Canceled", err)
	}
}

func TestPlanCacheStats(t *testing.T) {
	db := batchDB(t)
	specs := batchSpecs(10) // one covariance shape, ten centers

	for _, spec := range specs {
		if _, err := db.Query(spec); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := db.PlanCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one shared query shape)", misses)
	}
	if hits != uint64(len(specs)-1) {
		t.Errorf("hits = %d, want %d", hits, len(specs)-1)
	}

	// A different δ is a different plan.
	other := specs[0]
	other.Delta = 40
	if _, err := db.Query(other); err != nil {
		t.Fatal(err)
	}
	if _, misses = db.PlanCacheStats(); misses != 2 {
		t.Errorf("misses after new shape = %d, want 2", misses)
	}

	// A disabled cache misses every time and still answers correctly.
	cold := batchDB(t, WithPlanCacheSize(0))
	for _, spec := range specs[:3] {
		if _, err := cold.Query(spec); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := cold.PlanCacheStats(); h != 0 || m != 0 {
		// cap-0 caches count nothing: get() short-circuits before the counters.
		t.Errorf("disabled cache stats = (%d, %d), want (0, 0)", h, m)
	}
	if _, err := Load(gridPoints(100, 10), WithPlanCacheSize(-1)); err == nil {
		t.Error("negative cache size accepted")
	}
}

// TestSharedBatchCancellation: a batch whose specs all share one query shape
// — one cached plan, rebound per spec across the workers — aborts with
// ctx.Err() on a cancelled context, and a bad spec surfaces with its index.
// The name is kept from the shared-batch kernel this test first covered;
// the one remaining batch path must behave the same.
func TestSharedBatchCancellation(t *testing.T) {
	db := batchDB(t)
	specs := make([]QuerySpec, 8)
	for i := range specs {
		specs[i] = QuerySpec{Center: []float64{100, 100}, Cov: paperCov(10), Delta: 25, Theta: 0.01}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := db.QueryBatch(ctx, specs, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled same-shape batch error = %v, want context.Canceled", workers, err)
		}
	}

	bad := append([]QuerySpec(nil), specs...)
	bad[3].Cov = [][]float64{{1, 0}, {0, -1}}
	for _, workers := range []int{1, 4} {
		_, err := db.QueryBatch(context.Background(), bad, workers)
		if err == nil {
			t.Fatalf("workers=%d: indefinite covariance accepted by same-shape batch", workers)
		}
		if !strings.Contains(err.Error(), "batch query 3") {
			t.Errorf("workers=%d: error %q does not name spec 3", workers, err)
		}
	}

	// The shared plan is not poisoned by either failure.
	res, err := db.QueryBatch(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !slices.Equal(r.IDs, want.IDs) {
			t.Errorf("spec %d after failed batches: %d ids, direct query %d", i, len(r.IDs), len(want.IDs))
		}
	}
}

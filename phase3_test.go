package gaussrange

import (
	"slices"
	"testing"
)

// TestStrategyIdentityAcrossKernels checks the two Phase-3 evaluators against
// each other: under all six strategy configurations from the paper's
// evaluation, the per-candidate Monte Carlo integrator agrees with the exact
// evaluator on a workload whose probabilities sit far from θ (so MC noise
// cannot flip an answer).
func TestStrategyIdentityAcrossKernels(t *testing.T) {
	pts := gridPoints(2500, 20)
	spec := func(strategy string) QuerySpec {
		return QuerySpec{
			Center:   []float64{500, 500},
			Cov:      paperCov(10),
			Delta:    25,
			Theta:    0.01,
			Strategy: strategy,
		}
	}
	exactDB, err := Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	mcDB, err := Load(pts, WithMonteCarlo(30000), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}

	idsOf := func(db *DB, s string) []int64 {
		t.Helper()
		res, err := db.Query(spec(s))
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		return res.IDs
	}
	for _, s := range liveStrategies {
		exact := idsOf(exactDB, s)
		if len(exact) == 0 {
			t.Fatalf("strategy %s: empty exact answer makes the identity check vacuous", s)
		}
		if got := idsOf(mcDB, s); !slices.Equal(got, exact) {
			t.Errorf("strategy %s: per-candidate MC %v != exact %v", s, got, exact)
		}
	}
}

package gaussrange

import (
	"slices"
	"testing"

	"gaussrange/internal/core"
	"gaussrange/internal/mc"
)

// coreSearch answers spec on db's index through a core engine of the given
// evaluator and options — the way internal/experiments drives the Monte
// Carlo evaluator and the U-catalogs, which the DB itself no longer offers.
func coreSearch(t *testing.T, db *DB, eval core.Evaluator, opts core.Options, spec QuerySpec) *core.Result {
	t.Helper()
	e, err := core.NewEngine(db.idx, eval, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, strat, err := db.compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(q, strat)
	if err != nil {
		t.Fatalf("strategy %v: %v", strat, err)
	}
	return res
}

// TestStrategyIdentityAcrossKernels checks the two Phase-3 evaluators against
// each other: under all six strategy configurations from the paper's
// evaluation, the per-candidate Monte Carlo integrator (driven through a core
// engine on the DB's index) agrees with the DB's exact answers on a workload
// whose probabilities sit far from θ (so MC noise cannot flip an answer).
func TestStrategyIdentityAcrossKernels(t *testing.T) {
	db, err := Load(gridPoints(2500, 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range liveStrategies {
		spec := QuerySpec{Center: []float64{500, 500}, Cov: paperCov(10), Delta: 25, Theta: 0.01, Strategy: s}
		exact, err := db.Query(spec)
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if len(exact.IDs) == 0 {
			t.Fatalf("strategy %s: empty exact answer makes the identity check vacuous", s)
		}
		integ, err := mc.NewIntegrator(30000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := coreSearch(t, db, integ, core.Options{}, spec).IDs; !slices.Equal(got, exact.IDs) {
			t.Errorf("strategy %s: per-candidate MC %v != exact %v", s, got, exact.IDs)
		}
	}
}

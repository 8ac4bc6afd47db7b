package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/vecmat"
)

// compileT compiles q under strat or fails the test.
func compileT(t *testing.T, e *Engine, q Query, strat Strategy) *Plan {
	t.Helper()
	plan, err := e.Compile(q, strat)
	if err != nil {
		t.Fatalf("%v: Compile: %v", strat, err)
	}
	return plan
}

func TestSearchProbsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	ix := uniformIndex(t, rng, 6000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)

	for _, strat := range PaperStrategies {
		plain, err := e.Search(q, strat)
		if err != nil {
			t.Fatal(err)
		}
		matches, st, err := compileT(t, e, q, strat).SearchProbs(context.Background(), NewExactEvaluator())
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != len(plain.IDs) {
			t.Fatalf("%v: SearchProbs %d answers vs Search %d", strat, len(matches), len(plain.IDs))
		}
		ids := make([]int64, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
			if m.Probability < q.Theta {
				t.Fatalf("%v: returned probability %g below θ", strat, m.Probability)
			}
			if i > 0 && m.Probability > matches[i-1].Probability {
				t.Fatalf("%v: not sorted by probability", strat)
			}
		}
		sortIDs(ids)
		if !idsEqual(ids, plain.IDs) {
			t.Fatalf("%v: id sets differ", strat)
		}
		// Integrations include BF-accepted re-evaluations.
		if st.Integrations < plain.Stats.Integrations {
			t.Fatalf("%v: probs integrations %d < plain %d", strat, st.Integrations, plain.Stats.Integrations)
		}
	}
}

func TestSearchProbsExactValues(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	ix := uniformIndex(t, rng, 2000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.05)
	matches, _, err := compileT(t, e, q, StrategyAll).SearchProbs(context.Background(), NewExactEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	ev := NewExactEvaluator()
	for _, m := range matches {
		p, err := ev.Qualification(q.Dist, mustPoint(t, ix.Current(), m.ID), q.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if p != m.Probability {
			t.Fatalf("probability mismatch for %d: %g vs %g", m.ID, m.Probability, p)
		}
	}
}

// TestTopK: a top-k answer is a prefix of SearchProbs' list (the root
// QueryTopK truncates it), so the list must be best first with ties by id,
// and a rebound plan — which prunes and accepts from its answer-region hull —
// must return the very same list as the fresh compilation. The name is kept
// from Engine.TopK, whose only caller was this test.
func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.001)

	plan := compileT(t, e, q, StrategyAll)
	all, _, err := plan.SearchProbs(context.Background(), NewExactEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 6 {
		t.Fatalf("%d answers; the ordering check needs more", len(all))
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Probability < b.Probability || a.Probability == b.Probability && a.ID > b.ID {
			t.Fatalf("entries %d and %d out of order: %+v, %+v", i-1, i, a, b)
		}
	}
	bound, err := plan.Rebind(q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if bound.hull == nil {
		t.Fatal("first Rebind built no hull; the hull path is not exercised")
	}
	again, st, err := bound.SearchProbs(context.Background(), NewExactEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, all) {
		t.Errorf("rebound plan's list (%d) differs from the fresh plan's (%d)", len(again), len(all))
	}
	if st.PrunedOR == 0 {
		t.Error("the rebound plan pruned nothing from its hull")
	}
}

// failingExact is the exact evaluator's Qualification (without its decide
// form) with a failure injected at one call.
type failingExact struct {
	ex            *ExactEvaluator
	calls, failAt *atomic.Int64
}

var errInjected = errors.New("injected failure")

func (f failingExact) Qualification(dist *gauss.Dist, o vecmat.Vector, delta float64) (float64, error) {
	if f.calls.Add(1) == f.failAt.Load() {
		return 0, errInjected
	}
	return f.ex.Qualification(dist, o, delta)
}

// TestSearchProbsValidation: invalid queries are refused at compilation, a
// cancelled context stops the probability loop with ctx.Err(), and an
// evaluator error stops it too, wrapped with the object's id.
func TestSearchProbsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	ix := uniformIndex(t, rng, 100, 2, 100)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{50, 50}, 1, 10, 0.1)
	if _, err := e.Compile(q, StrategyOR); err == nil {
		t.Error("OR-only strategy accepted")
	}
	bad := q
	bad.Theta = 0
	if _, err := e.Compile(bad, StrategyAll); err == nil {
		t.Error("θ=0 accepted")
	}
	plan := compileT(t, e, q, StrategyAll)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := plan.SearchProbs(ctx, NewExactEvaluator()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SearchProbs error = %v, want context.Canceled", err)
	}
	var calls, failAt atomic.Int64
	failAt.Store(2)
	if _, _, err := plan.SearchProbs(context.Background(), failingExact{NewExactEvaluator(), &calls, &failAt}); !errors.Is(err, errInjected) {
		t.Errorf("SearchProbs error = %v, want the injected failure", err)
	}
	if calls.Load() != 2 {
		t.Errorf("evaluator ran %d times after failing at call 2", calls.Load())
	}
}

func TestSearchFuncStreamsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	ix := uniformIndex(t, rng, 5000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)

	want, err := e.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	st, err := compileT(t, e, q, StrategyAll).ExecuteFunc(context.Background(), NewExactEvaluator(), func(id int64) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sortIDs(got)
	if !idsEqual(got, want.IDs) {
		t.Fatalf("streamed %d ids, Search returned %d", len(got), len(want.IDs))
	}
	if st.Answers != len(want.IDs) || st.Integrations != want.Stats.Integrations {
		t.Errorf("Answers, Integrations = %d, %d, want %d, %d", st.Answers, st.Integrations, len(want.IDs), want.Stats.Integrations)
	}
}

func TestSearchFuncEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	ix := uniformIndex(t, rng, 5000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	plan := compileT(t, e, q, StrategyAll)

	for _, stopAt := range []int{3, 0} {
		all := 0
		if _, err := plan.ExecuteFunc(context.Background(), NewExactEvaluator(), func(int64) bool { all++; return true }); err != nil {
			t.Fatal(err)
		}
		if stopAt == 0 {
			// Past every Phase-2 accept: the stop lands inside Phase 3.
			res, err := plan.Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			stopAt = res.Stats.AcceptedBF + 2
			if stopAt >= all {
				t.Fatalf("%d answers, %d accepted outright; Phase 3 adds too few", all, res.Stats.AcceptedBF)
			}
		}
		count := 0
		st, err := plan.ExecuteFunc(context.Background(), NewExactEvaluator(), func(int64) bool {
			count++
			return count < stopAt
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != stopAt || st.Answers != stopAt {
			t.Errorf("stop at %d: streamed %d, Answers = %d", stopAt, count, st.Answers)
		}
	}
}

// TestSearchFuncValidation: the streaming form honours a cancelled context
// and stops at an evaluator error, wrapped with the object's id.
func TestSearchFuncValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(341))
	ix := uniformIndex(t, rng, 2000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	plan := compileT(t, e, q, StrategyRR)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteFunc(ctx, NewExactEvaluator(), func(int64) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ExecuteFunc error = %v, want context.Canceled", err)
	}
	var calls, failAt atomic.Int64
	failAt.Store(1)
	eval := failingExact{NewExactEvaluator(), &calls, &failAt}
	if _, err := plan.ExecuteFunc(context.Background(), eval, func(int64) bool { return true }); !errors.Is(err, errInjected) {
		t.Errorf("ExecuteFunc error = %v, want the injected failure", err)
	}
}

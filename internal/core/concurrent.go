package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange/internal/vecmat"
)

// ForkableEvaluator is an Evaluator that can produce independent instances
// for concurrent use. mc.Integrator satisfies it structurally via Fork-based
// adapters; ExactEvaluator implements it directly.
type ForkableEvaluator interface {
	Evaluator
	ForkEvaluator(streamID uint64) Evaluator
}

// ForkEvaluator returns an independent exact evaluator (the Ruben evaluator
// only caches per-distribution spectra, so forks are cheap). The fork shares
// the parent's evaluation counter family, so counts performed on forks become
// visible in the parent's Evaluations once the executor folds them.
func (e *ExactEvaluator) ForkEvaluator(uint64) Evaluator {
	return &ExactEvaluator{inner: e.inner.Fork()}
}

// FoldEvaluations publishes the fork's pending evaluation count into the
// shared family total. Executors call it once per fork after the worker pool
// has quiesced.
func (e *ExactEvaluator) FoldEvaluations() { e.inner.Fold() }

// ExecuteParallel runs the compiled plan with Phase 3 spread over a pool of
// worker goroutines using the engine's evaluator. See ExecuteWith.
func (p *Plan) ExecuteParallel(ctx context.Context, workers int) (*Result, error) {
	return p.ExecuteWith(ctx, p.engine.eval, workers)
}

// ExecuteWith runs the compiled plan with the given evaluator, spreading
// Phase 3 over a pool of worker goroutines that claim candidates from a
// shared atomic counter (work stealing — no static chunk split, so skewed
// per-candidate costs cannot idle a worker).
//
// The evaluator must implement ForkableEvaluator when it is used by the
// pool; one fork is derived per candidate, with the stream id taken from the
// candidate index, so the answer set is identical for every worker count —
// including for Monte Carlo evaluators. (The deterministic ExactEvaluator
// forks once per worker instead.) Forks are asked the decide form when they
// offer one, exactly as the serial executor does. Cancelling ctx (or the first
// evaluator error) stops all workers promptly: no new candidates are claimed
// once cancellation is observed.
//
// Phase 3 dominates query cost (≥97 % in the paper's measurements), so the
// speedup is near-linear in workers until the candidate count is small.
func (p *Plan) ExecuteWith(ctx context.Context, eval Evaluator, workers int) (*Result, error) {
	if workers < 1 {
		workers = 1
	}
	if p.tier != nil {
		// Tiered kernel: candidates are decided by analytic bounds and exact
		// series before any sampling, against one shared lazy cloud — like the
		// shared kernels there is no fork requirement, and the answer set is
		// worker-count invariant because every tier is a pure function of the
		// candidate.
		snap, st, accepted, needEval, err := p.filterPhases(ctx)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			return p.executeTiered(ctx, snap, &st, accepted, needEval)
		}
		return p.executeTieredParallel(ctx, snap, &st, accepted, needEval, workers)
	}
	if p.cloud != nil {
		// Shared-sample kernel: workers count hits against one read-only
		// cloud+grid — no per-candidate streams, so no fork requirement and
		// worker-count invariance by construction.
		snap, st, accepted, needEval, err := p.filterPhases(ctx)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			return p.executeShared(ctx, snap, &st, accepted, needEval)
		}
		return p.executeSharedParallel(ctx, snap, &st, accepted, needEval, workers)
	}
	fe, ok := eval.(ForkableEvaluator)
	if !ok {
		if workers == 1 {
			return p.executeSerial(ctx, eval)
		}
		return nil, fmt.Errorf("core: evaluator %T cannot fork for parallel execution", eval)
	}

	snap, st, accepted, needEval, err := p.filterPhases(ctx)
	if err != nil {
		return nil, err
	}

	t2 := time.Now()
	n := len(needEval)
	st.Integrations = n
	qualifies := make([]bool, n)

	if workers > n {
		workers = n
	}

	// Fork one evaluator per candidate, serially and in candidate order, so
	// every stream depends only on the candidate index — never on which
	// worker happens to claim the candidate or on the worker count. The exact
	// evaluator has no stream: one fork (one spectral cache) per worker.
	_, perWorker := eval.(*ExactEvaluator)
	forks := n
	if perWorker {
		forks = workers
	}
	evs := make([]Evaluator, forks)
	tests := make([]func(vecmat.Vector) (bool, error), forks)
	for i := range evs {
		evs[i] = fe.ForkEvaluator(uint64(i))
		tests[i] = p.qualifier(evs[i])
	}

	execCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := execCtx.Done()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stopped(done) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fork := i
				if perWorker {
					fork = w
				}
				qual, err := tests[fork](snap.point(needEval[i]))
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("core: qualification of object %d: %w", needEval[i], err)
					}
					errMu.Unlock()
					cancel()
					return
				}
				qualifies[i] = qual
			}
		}(w)
	}
	wg.Wait()
	// Fold per-fork evaluation counts into the parent's shared total (the
	// pool has quiesced, so each fork's local count is stable).
	for _, ev := range evs {
		if f, ok := ev.(interface{ FoldEvaluations() }); ok {
			f.FoldEvaluations()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ids := accepted
	for i, ok := range qualifies {
		if ok {
			ids = append(ids, needEval[i])
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(ids)
	sortIDs(ids)
	return &Result{IDs: ids, Stats: st}, nil
}

// SearchParallel runs the query like Search but evaluates Phase 3 with the
// given number of worker goroutines — a compatibility wrapper over
// Compile + ExecuteWith. The evaluator must implement ForkableEvaluator
// unless workers ≤ 1. The answer set is identical to Search for
// deterministic evaluators and identical across worker counts for Monte
// Carlo ones (per-candidate streams).
func (e *Engine) SearchParallel(q Query, strat Strategy, workers int) (*Result, error) {
	if workers <= 1 {
		return e.Search(q, strat)
	}
	plan, err := e.Compile(q, strat)
	if err != nil {
		return nil, err
	}
	return plan.ExecuteWith(context.Background(), e.eval, workers)
}

package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/core"
	"gaussrange/internal/gauss"
	"gaussrange/internal/vecmat"
	"gaussrange/replica"
)

const (
	// checkQueries is how many answers each check compares (smokeChecks under
	// -smoke, which only exercises the harness).
	checkQueries = 32
	smokeChecks  = 8
	// thetaBand is how close to θ an exact probability must be for either
	// verdict to be accepted.
	thetaBand = 1e-9
)

// oracle answers spec by evaluating the exact qualification probability of
// every live point that could possibly qualify, with no index and no filter:
// `in` must be answered, `maybe` (within thetaBand of θ) may be.
//
// core.Engine.BruteForce does the same over all 50 747 points, which costs
// 1.2 s per query at γ=10 and 11.5 s at γ=1 — far over a run's budget for 32
// queries — so the oracle skips points beyond a radius past which the
// probability is provably under θ/2. For x ~ N(q, Σ) in two dimensions,
// ‖x−o‖ ≤ δ implies ‖x−q‖ ≥ ‖o−q‖−δ, and ‖x−q‖² ≤ λmax·χ²₂ whose survival
// function is exp(−t/2), so Pr(‖x−o‖ ≤ δ) ≤ exp(−(‖o−q‖−δ)²/2λmax), which is
// θ/2 at ‖o−q‖ = δ + √(2·λmax·ln(2/θ)). The same argument from inside —
// ‖x−q‖ ≤ δ−‖o−q‖ implies ‖x−o‖ ≤ δ — puts the probability above 2θ within
// ‖o−q‖ = δ − √(2·λmax·ln(1/(1−2θ))). Only the shell between the two radii is
// integrated. Neither bound uses anything of the engine's own filters.
func oracle(spec gaussrange.QuerySpec, ids []int64, points [][]float64) (in, maybe []int64, err error) {
	if len(spec.Center) != 2 {
		return nil, nil, fmt.Errorf("oracle: the tail bound is derived for 2-D queries, got %d-D", len(spec.Center))
	}
	cov, err := vecmat.FromRows(spec.Cov)
	if err != nil {
		return nil, nil, err
	}
	dist, err := gauss.New(vecmat.Vector(spec.Center), cov)
	if err != nil {
		return nil, nil, err
	}
	lmax := slices.Max(dist.EigenValuesCov())
	reach := spec.Delta + math.Sqrt(2*lmax*math.Log(2/spec.Theta))
	sure := spec.Delta - math.Sqrt(2*lmax*math.Log(1/(1-2*spec.Theta)))
	eval := core.NewExactEvaluator()
	for i, o := range points {
		r := math.Hypot(o[0]-spec.Center[0], o[1]-spec.Center[1])
		if r > reach {
			continue
		}
		if r <= sure {
			in = append(in, ids[i])
			continue
		}
		p, err := eval.Qualification(dist, vecmat.Vector(o), spec.Delta)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case p >= spec.Theta+thetaBand:
			in = append(in, ids[i])
		case p >= spec.Theta-thetaBand:
			maybe = append(maybe, ids[i])
		}
	}
	return in, maybe, nil
}

// agree reports whether got (ascending ids) is a legal answer: it holds every
// id of in and nothing outside in ∪ maybe.
func agree(got, in, maybe []int64) bool {
	have := 0
	for _, id := range got {
		switch {
		case slices.Contains(in, id):
			have++
		case !slices.Contains(maybe, id):
			return false
		}
	}
	return have == len(in)
}

// liveSet lays the dataset (id = row index) and the bench-inserted points that
// are still live out as parallel id and point slices.
func liveSet(points [][]float64, extra liveRecord) ([]int64, [][]float64) {
	ids := make([]int64, len(points), len(points)+len(extra.ids))
	for i := range ids {
		ids[i] = int64(i)
	}
	return append(ids, extra.ids...), append(points[:len(points):len(points)], extra.points...)
}

// checkAgainstOracle sends the stream's first n reads through the client and
// compares each id list with the oracle over the live set.
func checkAgainstOracle(ctx context.Context, url string, st *stream, n int, points [][]float64, extra liveRecord) error {
	ids, pts := liveSet(points, extra)
	cl := client.New(url)
	for i := 0; i < n; i++ {
		spec := st.spec(i)
		res, err := cl.Query(ctx, spec)
		if err != nil {
			return fmt.Errorf("check query %d: %w", i, err)
		}
		in, maybe, err := oracle(spec, ids, pts)
		if err != nil {
			return fmt.Errorf("check query %d: %w", i, err)
		}
		if !agree(res.IDs, in, maybe) {
			return fmt.Errorf("check query %d: server answered %d ids, exact evaluation finds %d (+%d within %g of θ)",
				i, len(res.IDs), len(in), len(maybe), thetaBand)
		}
	}
	return nil
}

// checkChurn runs after churn_mixed has quiesced. The leader's answers must
// match the oracle over the bench's own record of live points, a fresh DB
// rebuilt from that record, and a follower that replayed the wal directory —
// which must also land on the leader's epoch.
func checkChurn(ctx context.Context, leader *sut, st *stream, n int, points [][]float64, live liveRecord, walDir string) error {
	if err := checkAgainstOracle(ctx, leader.url, st, n, points, live); err != nil {
		return err
	}
	if got := leader.db.Epoch(); got != live.lastEpch {
		return fmt.Errorf("leader at epoch %d, last acknowledged write published %d", got, live.lastEpch)
	}

	ids, pts := liveSet(points, live)
	rebuilt, err := gaussrange.LoadWithIDs(pts, ids)
	if err != nil {
		return fmt.Errorf("rebuilding from the live record: %w", err)
	}
	followed, err := gaussrange.Load(points)
	if err != nil {
		return err
	}
	if err := st.prefill(dbApply(followed)); err != nil {
		return err
	}
	f, err := replica.New(followed, replica.Config{Dir: walDir})
	if err != nil {
		return err
	}
	if _, err := f.CatchUp(); err != nil {
		return fmt.Errorf("follower replay: %w", err)
	}
	if got, want := followed.Epoch(), leader.db.Epoch(); got != want {
		return fmt.Errorf("follower replayed to epoch %d, leader is at %d", got, want)
	}

	cl := client.New(leader.url)
	for i := 0; i < n; i++ {
		spec := st.spec(i)
		want, err := cl.Query(ctx, spec)
		if err != nil {
			return fmt.Errorf("churn check query %d: %w", i, err)
		}
		for name, db := range map[string]*gaussrange.DB{"rebuilt": rebuilt, "follower": followed} {
			got, err := db.QueryCtx(ctx, spec)
			if err != nil {
				return fmt.Errorf("churn check query %d on %s: %w", i, name, err)
			}
			if !slices.Equal(got.IDs, want.IDs) {
				return fmt.Errorf("churn check query %d: %s DB answers %d ids, leader %d", i, name, len(got.IDs), len(want.IDs))
			}
		}
	}
	return nil
}

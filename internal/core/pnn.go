package core

import (
	"fmt"
	"sort"

	"gaussrange/internal/gauss"
	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

// PNNResult is one probabilistic-nearest-neighbor answer: an object and the
// estimated probability that it is the nearest neighbor of the imprecise
// query object.
type PNNResult struct {
	ID          int64
	Probability float64
}

// PNN answers the probabilistic nearest neighbor query the paper lists as
// future work (§VII): given the query object's Gaussian location
// distribution, return every object whose probability of being the nearest
// neighbor is at least theta.
//
// The estimator samples locations x ~ N(q, Σ), resolves the exact nearest
// neighbor of each x with a best-first R-tree search, and tallies win
// frequencies. With n samples the standard error of a probability p is
// √(p(1−p)/n); n = 10 000 resolves θ ≥ 0.01 reliably.
//
// Results are sorted by descending probability. PNN never runs the engine's
// single-goroutine evaluator (see Engine), so goroutines may share an engine.
func (e *Engine) PNN(dist *gauss.Dist, theta float64, samples int, seed uint64) ([]PNNResult, error) {
	if dist == nil {
		return nil, fmt.Errorf("core: PNN without distribution")
	}
	if dist.Dim() != e.idx.Dim() {
		return nil, fmt.Errorf("core: PNN query dim %d vs index dim %d", dist.Dim(), e.idx.Dim())
	}
	if !(theta > 0 && theta <= 1) {
		return nil, fmt.Errorf("core: PNN theta must satisfy 0 < θ ≤ 1, got %g", theta)
	}
	if samples <= 0 {
		return nil, fmt.Errorf("core: PNN sample count must be positive, got %d", samples)
	}
	// Pin one snapshot for the whole sampling loop so every sample's nearest
	// neighbor is resolved against the same epoch.
	snap := e.idx.Current()
	if snap.Len() == 0 {
		return nil, nil
	}

	rng := mc.NewRNG(seed)
	d := e.idx.Dim()
	scratch := make(vecmat.Vector, d)
	x := make(vecmat.Vector, d)
	wins := make(map[int64]int)
	for i := 0; i < samples; i++ {
		dist.Sample(rng, scratch, x)
		nn, err := snap.NearestNeighbors(x, 1)
		if err != nil {
			return nil, err
		}
		wins[nn[0].ID]++
	}

	out := make([]PNNResult, 0, 8)
	for id, w := range wins {
		p := float64(w) / float64(samples)
		if p >= theta {
			out = append(out, PNNResult{ID: id, Probability: p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Probability != out[j].Probability {
			return out[i].Probability > out[j].Probability
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

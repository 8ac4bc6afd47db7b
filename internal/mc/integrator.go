package mc

import (
	"errors"
	"fmt"

	"gaussrange/internal/gauss"
	"gaussrange/internal/vecmat"
)

// DefaultSamples is the per-object sample count used by the paper's
// experiments (§V-A: "100,000 random numbers were generated … for one
// object").
const DefaultSamples = 100_000

// Integrator estimates qualification probabilities by importance sampling:
// draw x ~ N(q, Σ) and count the fraction inside the target sphere. The
// paper notes this converges quickly compared to uniform-box Monte Carlo,
// especially for medium dimensionality, because every sample carries equal
// weight under the query density itself.
//
// An Integrator is NOT safe for concurrent use; build one per goroutine.
type Integrator struct {
	rng     *RNG
	samples int
	// Scratch buffers reused across calls.
	scratch vecmat.Vector
	x       vecmat.Vector
}

// NewIntegrator returns an integrator drawing `samples` points per object
// from a deterministic stream seeded with seed.
func NewIntegrator(samples int, seed uint64) (*Integrator, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("mc: sample count must be positive, got %d", samples)
	}
	return &Integrator{rng: NewRNG(seed), samples: samples}, nil
}

// ErrDimension is returned when the object dimension does not match the
// distribution.
var ErrDimension = errors.New("mc: object dimension does not match distribution")

// Qualification estimates Pr(‖x − o‖ ≤ delta) for x ~ dist (Eq. 3 of the
// paper: the probability that the query object lies within distance δ of
// target object o, with the roles exchanged per §III-B).
func (in *Integrator) Qualification(dist *gauss.Dist, o vecmat.Vector, delta float64) (float64, error) {
	d := dist.Dim()
	if o.Dim() != d {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimension, o.Dim(), d)
	}
	if delta <= 0 {
		return 0, fmt.Errorf("mc: delta must be positive, got %g", delta)
	}
	d2 := delta * delta
	if len(in.scratch) != d {
		in.scratch = make(vecmat.Vector, d)
		in.x = make(vecmat.Vector, d)
	}
	var hit int
	for i := 0; i < in.samples; i++ {
		dist.Sample(in.rng, in.scratch, in.x)
		if in.x.Dist2(o) <= d2 {
			hit++
		}
	}
	return float64(hit) / float64(in.samples), nil
}

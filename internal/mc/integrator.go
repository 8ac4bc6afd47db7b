package mc

import (
	"errors"
	"fmt"
	"math"

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

	// When reuse is enabled, one sample set is drawn per distribution and
	// shared across objects (common random numbers): cheaper and lower
	// variance *between* candidates, at the cost of correlated errors.
	// The cache is keyed by the distribution's content fingerprint, not
	// pointer identity: a rebound mean (or a different Dist reusing a freed
	// address) must never silently reuse samples drawn for the old content.
	reuse      bool
	reuseValid bool
	reuseKey   uint64
	reusePts   []vecmat.Vector
	evalCount  int
}

// NewIntegrator returns an integrator drawing `samples` points per object
// from a deterministic stream seeded with seed.
func NewIntegrator(samples int, seed uint64) (*Integrator, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("mc: sample count must be positive, got %d", samples)
	}
	return &Integrator{rng: NewRNG(seed), samples: samples}, nil
}

// SetReuse toggles common-random-numbers mode: one sample set per
// distribution, shared across all candidate objects.
func (in *Integrator) SetReuse(on bool) { in.reuse = on; in.reuseValid = false }

// Samples returns the per-object sample count.
func (in *Integrator) Samples() int { return in.samples }

// Evaluations returns the number of qualification computations performed
// since construction; the experiments report it as the Phase-3 cost.
func (in *Integrator) Evaluations() int { return in.evalCount }

// ResetEvaluations zeroes the evaluation counter.
func (in *Integrator) ResetEvaluations() { in.evalCount = 0 }

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
	in.evalCount++
	d2 := delta * delta

	if in.reuse {
		in.ensureReusePoints(dist)
		var hit int
		for _, p := range in.reusePts {
			if p.Dist2(o) <= d2 {
				hit++
			}
		}
		return float64(hit) / float64(len(in.reusePts)), nil
	}

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

// ensureReusePoints lazily draws the shared sample set for dist, redrawing
// whenever the distribution *content* (mean and covariance) differs from
// what the cache was drawn for.
func (in *Integrator) ensureReusePoints(dist *gauss.Dist) {
	key := distFingerprint(dist)
	if in.reuseValid && in.reuseKey == key && len(in.reusePts) == in.samples {
		return
	}
	d := dist.Dim()
	scratch := make(vecmat.Vector, d)
	in.reusePts = make([]vecmat.Vector, in.samples)
	for i := range in.reusePts {
		p := make(vecmat.Vector, d)
		dist.Sample(in.rng, scratch, p)
		in.reusePts[i] = p
	}
	in.reuseKey = key
	in.reuseValid = true
}

// distFingerprint hashes the distribution content (dimension, mean,
// covariance) with FNV-1a over the raw float64 bits. Two distributions with
// equal content always collide (intended: the same samples apply); distinct
// content colliding is a 2⁻⁶⁴ event, negligible next to Monte Carlo noise.
func distFingerprint(dist *gauss.Dist) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	d := dist.Dim()
	mix(uint64(d))
	for _, v := range dist.Mean() {
		mix(math.Float64bits(v))
	}
	cov := dist.Cov()
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			mix(math.Float64bits(cov.At(i, j)))
		}
	}
	return h
}

// StandardError returns the 1σ standard error of an estimate p̂ from n
// Bernoulli samples: √(p̂(1−p̂)/n). Callers use it to size sample counts
// against a probability threshold θ.
func StandardError(pHat float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(pHat * (1 - pHat) / float64(n))
}

// SamplesForPrecision returns the Bernoulli sample count needed so that the
// 1σ standard error at probability p is at most se.
func SamplesForPrecision(p, se float64) int {
	if se <= 0 {
		return math.MaxInt32
	}
	v := p * (1 - p)
	if v <= 0 {
		v = 0.25 // worst case
	}
	n := int(math.Ceil(v / (se * se)))
	if n < 1 {
		n = 1
	}
	return n
}

package stats

import (
	"errors"
	"math"
)

// NoncentralChiSquareCDF returns Pr(X ≤ x) for X ~ χ'²(k, λ): the noncentral
// chi-square distribution with k > 0 degrees of freedom and noncentrality
// λ ≥ 0.
//
// For a d-dimensional standard normal vector z and a center c with ‖c‖ = α,
// Pr(‖z − c‖ ≤ δ) = NoncentralChiSquareCDF(d, α², δ²). This is exactly the
// integral of the normalized Gaussian over an off-center sphere that defines
// the BF strategy's α radii (Eqs. 21 and 26 of the paper), so the BF
// U-catalog can be built — or bypassed — with this function.
//
// The evaluation uses the Poisson mixture representation
//
//	F(x; k, λ) = Σ_j  e^{−λ/2} (λ/2)^j / j! · P(k/2 + j, x/2),
//
// expanded outward from the modal Poisson term so that large noncentralities
// converge quickly without underflow.
func NoncentralChiSquareCDF(k, lambda, x float64) (float64, error) {
	if k <= 0 || lambda < 0 || math.IsNaN(k) || math.IsNaN(lambda) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	if lambda == 0 {
		return ChiSquareCDF(k, x)
	}

	half := lambda / 2

	// Start at the modal Poisson index.
	j0 := int(half)
	a0 := k/2 + float64(j0)

	// The upward sweep walks P(a0+1, X), P(a0+2, X), …, X = x/2, on the χ²
	// ladder, whose seed is the modal term's P(a0, X).
	up, err := NewChiSquareLadder(2*a0, x)
	if err != nil {
		return 0, err
	}
	p0 := up.F
	// logW(j) = −λ/2 + j·log(λ/2) − logΓ(j+1).
	logW := func(j int) float64 {
		lg, _ := math.Lgamma(float64(j) + 1)
		return -half + float64(j)*math.Log(half) - lg
	}
	w0 := math.Exp(logW(j0))

	sum := w0 * p0

	// termT(a) = X^a·e^{−X}/Γ(a+1), the decrement of P when a increases by 1.
	termT := func(a float64) float64 {
		ld, _ := up.logDec(a)
		return math.Exp(ld)
	}

	// Upward sweep: j = j0+1, j0+2, …
	w := w0
	for j := j0 + 1; j <= j0+maxIter; j++ {
		w *= half / float64(j)
		up.Next()
		term := w * up.F
		sum += term
		// The Poisson tail beyond j is bounded by w (for j > λ/2 weights
		// decay geometrically) and p only decreases; stop when a crude tail
		// bound is negligible.
		if term < epsRel*sum && float64(j) > half {
			break
		}
	}

	// Downward sweep: j = j0−1, …, 0.
	w = w0
	p := p0
	a := a0
	for j := j0 - 1; j >= 0; j-- {
		w *= float64(j+1) / half
		a--
		p += termT(a)
		if p > 1 {
			p = 1
		}
		term := w * p
		sum += term
		if term < epsRel*sum && p > 1-1e-12 {
			// All remaining P values are ≥ this one; the remaining weight
			// sums to less than term/(1−j/half) — negligible here.
			rest := 0.0
			ww := w
			for jj := j - 1; jj >= 0; jj-- {
				ww *= float64(jj+1) / half
				rest += ww
			}
			sum += rest // p ≤ 1 for all, so this over-approximates by < eps
			break
		}
	}

	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// ErrNoSolution is returned when a root-finding routine cannot bracket the
// requested value.
var ErrNoSolution = errors.New("stats: no solution in range")

// NoncentralityForCDF returns the noncentrality λ = α² such that
// Pr(χ'²(k, λ) ≤ x) = p. F is strictly decreasing in λ, so the result is
// unique; an error is returned when even λ=0 gives probability below p
// (i.e. no center offset can reach mass p inside the sphere).
//
// In paper terms: given a sphere radius δ (x = δ²) and threshold probability
// p, this finds the squared distance α² at which the integral of the
// normalized Gaussian over the sphere equals p (Eq. 21). The BF catalog entry
// α = ucatalog_lookup(δ, θ) is exactly √NoncentralityForCDF(d, δ², θ).
func NoncentralityForCDF(k, x, p float64) (float64, error) {
	if k <= 0 || x <= 0 || p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	f0, err := ChiSquareCDF(k, x)
	if err != nil {
		return 0, err
	}
	if f0 < p {
		return 0, ErrNoSolution
	}
	if f0 == p {
		return 0, nil
	}
	// Bracket: find hi with F(hi) < p.
	lo, hi := 0.0, math.Max(x, 1.0)
	for i := 0; ; i++ {
		f, err := NoncentralChiSquareCDF(k, hi, x)
		if err != nil {
			return 0, err
		}
		if f < p {
			break
		}
		lo = hi
		hi *= 2
		if i > 200 {
			return 0, ErrNoSolution
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		f, err := NoncentralChiSquareCDF(k, mid, x)
		if err != nil {
			return 0, err
		}
		if f > p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(hi, 1) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// Package quadform computes exact distribution functions of positive
// definite quadratic forms in Gaussian variables using Ruben's series
// (H. Ruben 1962; Farebrother's Algorithm AS 204).
//
// The qualification probability of the paper — Pr(‖x − o‖² ≤ δ²) with
// x ~ N(q, Σ) — is exactly such a form: in the eigenbasis of Σ,
//
//	‖x − o‖² = Σⱼ λⱼ·(zⱼ + bⱼ)²,   zⱼ ~ N(0,1) i.i.d.,
//
// with λⱼ the eigenvalues of Σ and bⱼ the scaled offset of o from q. The
// paper evaluates this integral by Monte Carlo (100 000 samples ≈ 3-digit
// accuracy, ~0.05 s/object on 2009 hardware); Ruben's series delivers
// 12-digit accuracy in microseconds and is used here both as an optional
// fast evaluator and as the ground truth that the test suite validates the
// Monte Carlo integrator and all filter strategies against.
package quadform

import (
	"errors"
	"fmt"
	"math"

	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// ErrNotConverged indicates the series would need more than MaxTerms terms.
var ErrNotConverged = errors.New("quadform: Ruben series did not converge")

// MaxTerms is the ceiling on the series length. Term k's χ² factor is the
// Poisson(x/2) tail beyond k + d/2, x = t/λmin, which is below epsAbs once
// k ≥ x/2 + 8·√(x/2) + 40: every series ends by then, and one whose cap would
// exceed MaxTerms (x ≳ 4·10⁶) is refused up front.
const MaxTerms = 1 << 21

// epsAbs is the absolute truncation error target of the series.
const epsAbs = 1e-12

// DecideGuard is the half-width of the band around θ in which the decide path
// certifies nothing: it absorbs rounding in the inputs (eigenvalues, rotated
// offsets) that the series' own error bound cannot see.
const DecideGuard = 1e-9

// RubenCDF returns Pr(Σⱼ lambda[j]·(z_j + b[j])² ≤ t) for independent
// standard normal z_j. All lambda[j] must be positive and finite; len(b)
// must equal len(lambda). The result is 0 for t ≤ 0 or an infinite b[j], and
// 1 for t = +Inf.
func RubenCDF(lambda, b []float64, t float64) (float64, error) {
	p, _, err := RubenCDFBound(lambda, b, t)
	return p, err
}

// RubenCDFBound is RubenCDF plus a certified absolute error bound: the true
// CDF value lies in [p − bound, p + bound]. The discarded mixture
// coefficients sum to exactly 1 − Σ aₖ and each multiplies a χ² CDF no larger
// than the last one computed, so the truncated tail lies in
// [0, (1 − Σ aₖ)·F_k] and p is its midpoint; bound is half that interval plus
// a first-order allowance for rounding in the recurrence and the χ² ladder.
// Callers can certify p against a threshold θ whenever |p − θ| > bound.
func RubenCDFBound(lambda, b []float64, t float64) (p, bound float64, err error) {
	var f form
	if err := f.init(lambda); err != nil {
		return 0, 0, err
	}
	p, bound, _, err = f.run(b, t, math.Inf(-1), math.Inf(1))
	return p, bound, err
}

// form is what Ruben's series needs of the eigenvalues, plus the scratch of
// one evaluation, so a cached form integrates without allocating. β = min λ_j
// makes every mixture coefficient a_k non-negative with Σ a_k = 1.
type form struct {
	beta   float64   // β
	logDet float64   // ½·Σ log(β/λ_j)
	ratio  []float64 // β/λ_j
	gamma  []float64 // γ_j = 1 − β/λ_j ∈ [0, 1)
	eta    []float64 // η_j = b_j²·β/λ_j of the evaluation in progress
	s, t   []float64 // running sums S_j, T_j of the coefficient recurrence

	// ladder is seeded for (d, ladderT/β); evaluations at that t copy it.
	ladderT float64
	ladder  stats.ChiSquareLadder
}

func (f *form) init(lambda []float64) error {
	d := len(lambda)
	if d == 0 {
		return errors.New("quadform: need at least one eigenvalue")
	}
	f.beta = math.Inf(1)
	for j, l := range lambda {
		if !(l > 0) || math.IsInf(l, 1) {
			return fmt.Errorf("quadform: lambda[%d] = %g must be positive and finite", j, l)
		}
		f.beta = math.Min(f.beta, l)
	}
	buf := make([]float64, 5*d)
	f.ratio, f.gamma, f.eta, f.s, f.t = buf[:d], buf[d:2*d], buf[2*d:3*d], buf[3*d:4*d], buf[4*d:]
	f.logDet, f.ladderT = 0, 0
	for j, l := range lambda {
		f.ratio[j] = f.beta / l
		f.gamma[j] = 1 - f.ratio[j]
		f.logDet += 0.5 * math.Log(f.ratio[j])
	}
	return nil
}

// decide answers "is RubenCDF(lambda, b, t) ≥ theta?" on a prepared form:
// after every term the truth lies in [Σ aᵢFᵢ, Σ aᵢFᵢ + (1 − Σ aᵢ)·F_k], and
// the series stops as soon as that bracket clears theta by DecideGuard on
// either side (certified). Only a theta inside the guard band of the
// converged value runs to the full tail and compares the midpoint
// (certified = false).
func (f *form) decide(b []float64, t, theta float64) (qualifies, certified bool, err error) {
	p, _, verdict, err := f.run(b, t, theta-DecideGuard, theta+DecideGuard)
	if verdict != 0 || err != nil {
		return verdict > 0, verdict != 0, err
	}
	return p >= theta, false, nil
}

// run validates (b, t), settles degenerate inputs and otherwise sums the
// series. verdict is +1 once the value is certainly ≥ hi, −1 once certainly
// < lo (p and bound are then not computed), and 0 when the series ran to its
// tail, leaving p within bound of the truth.
func (f *form) run(b []float64, t, lo, hi float64) (p, bound float64, verdict int, err error) {
	if len(b) != len(f.gamma) {
		return 0, 0, 0, fmt.Errorf("quadform: need len(lambda) == len(b), got %d and %d", len(f.gamma), len(b))
	}
	if math.IsNaN(t) {
		return 0, 0, 0, errors.New("quadform: t is NaN")
	}
	for j, bj := range b {
		if math.IsNaN(bj) {
			return 0, 0, 0, fmt.Errorf("quadform: b[%d] is NaN", j)
		}
		if math.IsInf(bj, 0) {
			t = 0 // the form is +Inf almost surely
		}
	}
	switch {
	case t <= 0:
		p = 0
	case math.IsInf(t, 1):
		p = 1
	default:
		return f.series(b, t, lo, hi)
	}
	if p >= hi {
		verdict = 1
	} else if p < lo {
		verdict = -1
	}
	return p, 0, verdict, nil
}

// series sums Ruben's mixture Σ a_k·F_{d+2k}(t/β) in O(d) per term (DESIGN.md
// §4). The convolution a_k = (1/2k)·Σ_{r<k} g_{k−r}·a_r with
// g_k = Σ_j γ_j^k + k·Σ_j η_j γ_j^{k−1} equals (1/2k)·Σ_j (S_j + η_j·T_j) for
// S_j = Σ_{r<k} γ_j^{k−r}·a_r and T_j = Σ_{r<k} (k−r)·γ_j^{k−r−1}·a_r, which
// advance by T_j ← γ_j·T_j + (S_j + a_{k−1}), S_j ← γ_j·(S_j + a_{k−1}); all
// terms are non-negative, so nothing cancels. Coefficients are carried as
// a_k = ak·scale so that a_0 = exp(−½Σb_j²)·Π√(β/λ_j) may underflow float64
// (offsets ≈ δ at λ ≪ δ²) without zeroing the series.
func (f *form) series(b []float64, t, lo, hi float64) (p, bound float64, verdict int, err error) {
	d := len(f.gamma)
	x := t / f.beta
	maxTerms := x/2 + 8*math.Sqrt(x/2) + 40
	if !(maxTerms <= MaxTerms) {
		return 0, 0, 0, ErrNotConverged
	}
	if t != f.ladderT {
		if f.ladder, err = stats.NewChiSquareLadder(float64(d), x); err != nil {
			return 0, 0, 0, err
		}
		f.ladderT = t
	}
	lad := f.ladder

	gamma, eta, s, tt := f.gamma, f.eta[:d], f.s[:d], f.t[:d]
	logA0 := f.logDet
	for j, bj := range b {
		logA0 -= 0.5 * bj * bj
		eta[j] = bj * bj * f.ratio[j]
		s[j], tt[j] = 0, 0
	}
	ak, scale, rescales := math.Exp(logA0), 1.0, 0
	if logA0 < -700 {
		ak, scale = 1, math.Exp(logA0)
	}

	var sum, aSum float64
	for k := 0; ; k++ {
		if k > 0 {
			var acc float64
			for j, g := range gamma {
				sj := s[j] + ak
				tj := g*tt[j] + sj
				sj *= g
				s[j], tt[j] = sj, tj
				acc += sj + eta[j]*tj
			}
			ak = acc / float64(2*k)
			if ak > 0x1p256 {
				// Only while scale is still tiny: a_k ≤ 1 bounds ak·scale.
				ak *= 0x1p-256
				for j := range s {
					s[j] *= 0x1p-256
					tt[j] *= 0x1p-256
				}
				rescales++
				scale = math.Exp(logA0 + float64(256*rescales)*math.Ln2)
			}
			lad.Next()
		}
		w := ak * scale
		aSum += w
		sum += w * lad.F
		// Remaining coefficients sum to 1 − aSum and every remaining χ²
		// factor is ≤ F_k (the CDF decreases in its degrees of freedom).
		tail := (1 - aSum) * lad.F
		if tail < 0 {
			tail = 0 // aSum rounded past 1
		}
		last := float64(k) >= maxTerms
		if sum >= hi || sum+tail < lo || tail < epsAbs || last {
			// Rounding allowance, first order in u = 2⁻⁵³: every a_k inherits
			// ≤ (2d+6)·u relative error per term plus that of a_0, whose log
			// has magnitude |logA0|; the ladder's error is absolute, on
			// factors that weigh at most 1 in total.
			r := sum*(float64(k*(2*d+6))+float64(2*d+4)*math.Abs(logA0)+2)*0x1p-53 + lad.ErrBound()
			switch {
			case sum-r >= hi:
				return 0, 0, 1, nil
			case sum+tail+r < lo:
				return 0, 0, -1, nil
			case tail < epsAbs || last:
				// Midpoint of [sum, sum + tail]; clamping to [0, 1] only moves
				// it toward the truth. At the cap the true F_k is below
				// epsAbs: what is left of tail is ladder rounding, inside r.
				return clamp01(sum + tail/2), tail/2 + r, 0, nil
			}
		}
	}
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Exact is a qualification-probability evaluator backed by RubenCDF. It
// satisfies the same contract as the Monte Carlo integrator: Qualification
// returns Pr(‖x − o‖ ≤ delta) for x ~ N(q, Σ).
//
// Per-distribution spectral data is cached so repeated candidates against the
// same query pay only the O(d²) offset transform plus the series, and
// allocate nothing.
//
// An Exact instance is single-goroutine: give every goroutine its own.
type Exact struct {
	// Cache keyed by distribution identity: the spectral form (β, γ_j,
	// log(β/λ_j) and the series scratch) and the offset transform buffers.
	dist    interface{ Dim() int }
	form    form
	sqrtLam []float64
	basis   *vecmat.Dense
	mean    vecmat.Vector
	scratch vecmat.Vector
	u       vecmat.Vector
	b       []float64
}

// GaussDist is the subset of *gauss.Dist the evaluator needs; declared as an
// interface to keep the package importable without a gauss dependency cycle.
type GaussDist interface {
	Dim() int
	Mean() vecmat.Vector
	EigenBasis() *vecmat.Dense
	EigenValuesCov() []float64
}

// NewExact returns an exact evaluator.
func NewExact() *Exact { return &Exact{} }

// Qualification returns the exact probability Pr(‖x − o‖ ≤ delta) for
// x ~ dist.
func (e *Exact) Qualification(dist GaussDist, o vecmat.Vector, delta float64) (float64, error) {
	p, _, err := e.QualificationBound(dist, o, delta)
	return p, err
}

// QualificationBound is Qualification plus the certified error bound of
// RubenCDFBound: the true probability lies in [p − bound, p + bound].
func (e *Exact) QualificationBound(dist GaussDist, o vecmat.Vector, delta float64) (p, bound float64, err error) {
	if err := e.offsets(dist, o, delta); err != nil {
		return 0, 0, err
	}
	p, bound, _, err = e.form.run(e.b, delta*delta, math.Inf(-1), math.Inf(1))
	return p, bound, err
}

// Decide answers "is Pr(‖x − o‖ ≤ delta) ≥ theta?" with the series' early
// exit: most candidates are settled after a fraction of the series.
func (e *Exact) Decide(dist GaussDist, o vecmat.Vector, delta, theta float64) (qualifies, certified bool, err error) {
	if err := e.offsets(dist, o, delta); err != nil {
		return false, false, err
	}
	return e.form.decide(e.b, delta*delta, theta)
}

// offsets counts one evaluation and fills e.b with the scaled offsets of o,
// rebuilding the spectral cache when dist changed. Steady state allocates
// nothing.
func (e *Exact) offsets(dist GaussDist, o vecmat.Vector, delta float64) error {
	d := dist.Dim()
	if o.Dim() != d {
		return fmt.Errorf("quadform: object dim %d vs distribution dim %d", o.Dim(), d)
	}
	if delta <= 0 {
		return fmt.Errorf("quadform: delta must be positive, got %g", delta)
	}
	if e.dist != dist || len(e.b) != d {
		lambda := dist.EigenValuesCov()
		if err := e.form.init(lambda); err != nil {
			return err
		}
		e.dist = dist
		e.basis = dist.EigenBasis()
		e.mean = dist.Mean()
		e.scratch = make(vecmat.Vector, d)
		e.u = make(vecmat.Vector, d)
		e.b = make([]float64, d)
		e.sqrtLam = make([]float64, d)
		for j, l := range lambda {
			e.sqrtLam[j] = math.Sqrt(l)
		}
	}

	// In the eigenbasis of Σ: u = Eᵗ(q − o) is the sphere-center offset; the
	// quadratic form is Σ λ_j (z_j + u_j/√λ_j)².
	e.mean.SubTo(o, e.scratch)
	e.basis.MulVecTransTo(e.scratch, e.u)
	for j, uj := range e.u {
		e.b[j] = uj / e.sqrtLam[j]
	}
	return nil
}

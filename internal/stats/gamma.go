// Package stats implements the special functions used by Gaussian
// probabilistic range query processing:
//
//   - regularized incomplete gamma functions P(a,x), Q(a,x) and the inverse
//     of P with respect to x;
//   - the chi and chi-square distributions (CDF and quantile), which give the
//     probability mass of a normalized Gaussian inside a sphere (Eq. 7 of the
//     paper, Fig. 17);
//   - the noncentral chi-square CDF, which gives the mass of a normalized
//     Gaussian inside an off-center sphere (Eqs. 21 and 26, the BF strategy).
//
// All functions are pure, deterministic, and stdlib-only.
package stats

import (
	"errors"
	"math"
)

// ErrDomain is returned when an argument is outside a function's domain.
var ErrDomain = errors.New("stats: argument outside domain")

const (
	// epsRel is the target relative accuracy of the series and continued
	// fraction expansions. 1e-14 leaves ~2 ulps of headroom for float64.
	epsRel = 1e-14
	// maxIter bounds series/CF iterations; generous for all practical (a, x).
	maxIter = 10000
)

// GammaP returns the regularized lower incomplete gamma function
//
//	P(a, x) = γ(a, x) / Γ(a),  a > 0, x ≥ 0.
//
// For the normalized d-dimensional Gaussian, Pr(‖x‖ ≤ r) = P(d/2, r²/2).
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	q, err := gammaQContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsRel {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stats: incomplete gamma series did not converge")
}

// gammaQContinuedFraction evaluates Q(a,x) by the Lentz continued fraction,
// accurate for x ≥ a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stats: incomplete gamma continued fraction did not converge")
}

// GammaPInv returns x such that P(a, x) = p, for a > 0 and 0 ≤ p < 1.
// This inverts the radial mass of a normalized Gaussian and therefore yields
// the exact rθ of the paper's Definition 5 without a lookup table:
// rθ = √(2 · GammaPInv(d/2, 1−2θ)).
func GammaPInv(a, p float64) (float64, error) {
	if a <= 0 || p < 0 || p >= 1 || math.IsNaN(a) || math.IsNaN(p) {
		return 0, ErrDomain
	}
	if p == 0 {
		return 0, nil
	}

	// Initial guess (Numerical Recipes §6.2.1, after DiDonato & Morris).
	var x float64
	lg, _ := math.Lgamma(a)
	if a > 1 {
		pp := p
		if pp > 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		z := (2.30753 + t*0.27061) / (1 + t*(0.99229+t*0.04481))
		z -= t
		if p > 0.5 {
			z = -z
		}
		a1 := 1 / (9 * a)
		cube := 1 - a1 + z*math.Sqrt(a1)
		x = a * cube * cube * cube
		if x <= 0 {
			x = 1e-8
		}
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	// Halley refinement on f(x) = P(a,x) − p.
	for it := 0; it < 100; it++ {
		if x <= 0 {
			x = 1e-300
		}
		pv, err := GammaP(a, x)
		if err != nil {
			return 0, err
		}
		f := pv - p
		// P'(a,x) = x^{a−1} e^{−x} / Γ(a).
		logDeriv := (a-1)*math.Log(x) - x - lg
		deriv := math.Exp(logDeriv)
		if deriv == 0 {
			break
		}
		u := f / deriv
		// Halley correction using P''/P' = (a−1)/x − 1.
		corr := u * ((a-1)/x - 1) / 2
		if math.Abs(corr) < 1 {
			u /= 1 - corr
		}
		xNew := x - u
		if xNew <= 0 {
			xNew = x / 2
		}
		if math.Abs(xNew-x) < 1e-14*math.Max(xNew, 1e-300) {
			return xNew, nil
		}
		x = xNew
	}
	// Bisection fallback for extreme arguments: P is monotone in x.
	lo, hi := 0.0, math.Max(2*x, 1.0)
	for {
		pv, err := GammaP(a, hi)
		if err != nil {
			return 0, err
		}
		if pv >= p || hi > 1e308/2 {
			break
		}
		hi *= 2
	}
	for it := 0; it < 200; it++ {
		mid := (lo + hi) / 2
		pv, err := GammaP(a, mid)
		if err != nil {
			return 0, err
		}
		if pv < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

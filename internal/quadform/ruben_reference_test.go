package quadform

import (
	"fmt"
	"math"

	"gaussrange/internal/stats"
)

// referenceMaxTerms is the term limit the reference kernel shipped with.
const referenceMaxTerms = 20000

// referenceRubenCDFBound is the kernel RubenCDFBound replaced, kept verbatim
// as the differential oracle: every mixture coefficient a_k by an O(k)
// convolution over the whole history, and a full regularized incomplete gamma
// per term. Its bound covers truncation only, not rounding.
func referenceRubenCDFBound(lambda, b []float64, t float64) (p, bound float64, err error) {
	d := len(lambda)
	if d == 0 || len(b) != d {
		return 0, 0, fmt.Errorf("quadform: need len(lambda) == len(b) > 0, got %d and %d", d, len(b))
	}
	for j, l := range lambda {
		if l <= 0 || math.IsNaN(l) {
			return 0, 0, fmt.Errorf("quadform: lambda[%d] = %g must be positive", j, l)
		}
		if math.IsNaN(b[j]) {
			return 0, 0, fmt.Errorf("quadform: b[%d] is NaN", j)
		}
	}
	if math.IsNaN(t) {
		return 0, 0, fmt.Errorf("quadform: t is NaN")
	}
	if t <= 0 {
		return 0, 0, nil
	}

	// Scale parameter: β = min λ_j keeps all mixture coefficients a_k ≥ 0
	// and Σ a_k = 1, giving a rigorous truncation bound.
	beta := lambda[0]
	for _, l := range lambda[1:] {
		if l < beta {
			beta = l
		}
	}

	// γ_j = 1 − β/λ_j ∈ [0, 1);  η_j = b_j²·β/λ_j.
	gamma := make([]float64, d)
	eta := make([]float64, d)
	var logA0 float64
	for j := range lambda {
		gamma[j] = 1 - beta/lambda[j]
		eta[j] = b[j] * b[j] * beta / lambda[j]
		logA0 += -0.5*b[j]*b[j] + 0.5*math.Log(beta/lambda[j])
	}

	// Series state. gammaPow[j] = γ_j^k, etaPow[j] = η_j·γ_j^{k−1} track the
	// two geometric families in g_k = Σ γ_j^k + k·Σ η_j·γ_j^{k−1}.
	a := make([]float64, 1, 64)
	g := make([]float64, 1, 64) // g[0] unused
	a[0] = math.Exp(logA0)

	gammaPow := make([]float64, d)
	etaPow := make([]float64, d)
	for j := range gammaPow {
		gammaPow[j] = 1 // γ_j^0; advanced before first use
		etaPow[j] = eta[j]
	}

	x := t / beta
	dof := float64(d)

	// First mixture term.
	f, err := stats.ChiSquareCDF(dof, x)
	if err != nil {
		return 0, 0, err
	}
	sum := a[0] * f
	aSum := a[0]

	for k := 1; k <= referenceMaxTerms; k++ {
		// g_k = Σ_j γ_j^k + k·Σ_j η_j γ_j^{k−1}.
		var gk float64
		for j := 0; j < d; j++ {
			gk += gammaPow[j]*gamma[j] + float64(k)*etaPow[j]
			// Advance powers for next round.
			gammaPow[j] *= gamma[j]
			etaPow[j] *= gamma[j]
		}
		g = append(g, gk)

		// a_k = (1/2k)·Σ_{r=0}^{k−1} g_{k−r}·a_r.
		var ak float64
		for r := 0; r < k; r++ {
			ak += g[k-r] * a[r]
		}
		ak /= 2 * float64(k)
		a = append(a, ak)
		aSum += ak

		fk, err := stats.ChiSquareCDF(dof+2*float64(k), x)
		if err != nil {
			return 0, 0, err
		}
		sum += ak * fk

		// Rigorous truncation bound: remaining coefficients sum to 1 − aSum
		// and every remaining CDF factor is ≤ fk (CDF decreases in dof).
		if tail := (1 - aSum) * fk; tail < epsAbs {
			// Midpoint of [sum, sum + tail]; clamping to [0, 1] can only move
			// the report toward the true value, so tail/2 stays valid.
			return clamp01(sum + tail/2), tail / 2, nil
		}
	}
	return 0, 0, ErrNotConverged
}

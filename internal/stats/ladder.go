package stats

import "math"

// logDecFloor is the log of the smallest ladder decrement tracked: e^−700 is
// still a normal float64, and all a ladder skips below it sums to far less
// than an ulp of a probability.
const logDecFloor = -700

// ChiSquareLadder walks F = Pr(χ²_ν ≤ x) up the degrees of freedom ν, ν+2,
// ν+4, … at a fixed x using
//
//	F_{ν+2}(x) = F_ν(x) − (x/2)^{ν/2}·e^{−x/2} / Γ(ν/2 + 1),
//
// with the decrement itself advanced multiplicatively: one GammaP to seed,
// then a subtract, a multiply and a divide per step. Ruben's series and the
// noncentral χ² Poisson mixture both consume this sequence. For large x the
// first decrements underflow float64: they are seeded in log space at the
// first representable step, and until then F stays at its seed (1 to within
// e^−700).
type ChiSquareLadder struct {
	F    float64 // Pr(χ²_ν ≤ x) at the current ν
	dec  float64 // F's decrement on the next step
	a, x float64 // ν/2 and x/2
	wake int     // steps left before dec rises above the float64 floor

	a0, seedErr float64 // where dec was seeded, and the absolute error that left in F
}

// NewChiSquareLadder seeds the ladder at ν = nu > 0 and finite x > 0.
func NewChiSquareLadder(nu, x float64) (ChiSquareLadder, error) {
	if !(nu > 0 && x > 0) || math.IsInf(nu, 0) || math.IsInf(x, 0) {
		return ChiSquareLadder{}, ErrDomain
	}
	l := ChiSquareLadder{a: nu / 2, x: x / 2, a0: nu / 2}
	var err error
	if l.F, err = GammaP(l.a, l.x); err != nil {
		return l, err
	}
	switch ld, mag := l.logDec(l.a); {
	case ld >= logDecFloor:
		l.seed(ld, mag)
	case l.a < l.x:
		// The decrement grows with a up to a ≈ x/2, where it is ≈ 1/√(πx):
		// bisect for the first step at which it is representable.
		lo, hi := 0, int(l.x-l.a)+1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if ld, _ := l.logDec(l.a + float64(mid)); ld < logDecFloor {
				lo = mid
			} else {
				hi = mid
			}
		}
		l.wake = hi
	} // else past its mode, where the decrement only shrinks: it stays 0
	return l, nil
}

// logDec returns log((x/2)^a·e^{−x/2}/Γ(a+1)) and the summed magnitude of the
// three terms it is made of.
func (l *ChiSquareLadder) logDec(a float64) (ld, mag float64) {
	lg, _ := math.Lgamma(a + 1)
	al := a * math.Log(l.x)
	return al - l.x - lg, math.Abs(al) + l.x + math.Abs(lg)
}

// seed sets the decrement at the current a from logDec's results. The
// exponent's terms are each rounded to ≤ 1 ulp, so dec carries a relative
// error of about mag·2⁻⁵² — and as every later decrement inherits it and
// they sum to at most 1, so does F, absolutely.
func (l *ChiSquareLadder) seed(ld, mag float64) {
	l.dec = math.Exp(ld)
	l.a0 = l.a
	l.seedErr = (mag + 2) * 0x1p-52
}

// Next advances ν by 2.
func (l *ChiSquareLadder) Next() {
	l.a++
	if l.wake > 0 {
		if l.wake--; l.wake == 0 {
			l.seed(l.logDec(l.a))
		}
		return
	}
	if l.F -= l.dec; l.F < 0 {
		l.F = 0
	}
	l.dec *= l.x / l.a
}

// ErrBound bounds |F − Pr(χ²_ν ≤ x)| to first order in the unit roundoff:
// GammaP's 1e−14 tolerance, the seed error, and three roundings per step
// (multiply, divide, subtract), each at most 2⁻⁵³ of a value ≤ 1.
func (l *ChiSquareLadder) ErrBound() float64 {
	return 1e-14 + l.seedErr + 3*(l.a-l.a0)*0x1p-53
}

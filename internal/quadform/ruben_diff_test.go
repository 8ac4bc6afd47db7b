package quadform

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// diffThetas are the thresholds every differential case is decided against.
var diffThetas = []float64{1e-6, 0.01, 0.5, 0.999}

// checkAgainstReference asserts the two contracts of the linear-time kernel
// on one input: its value agrees with the O(K²) reference within the summed
// certified bounds, and its decisions never contradict the reference value
// outside the guard band (and are only certified outside it).
func checkAgainstReference(t *testing.T, lambda, b []float64, tt float64) {
	t.Helper()
	ref, refBound, err := referenceRubenCDFBound(lambda, b, tt)
	if err != nil {
		t.Fatalf("reference(λ=%v b=%v t=%g): %v", lambda, b, tt, err)
	}
	p, bound, err := RubenCDFBound(lambda, b, tt)
	if err != nil {
		t.Fatalf("RubenCDFBound(λ=%v b=%v t=%g): %v", lambda, b, tt, err)
	}
	if !(bound >= 0 && bound < 1e-11) {
		t.Errorf("λ=%v b=%v t=%g: bound %g outside [0, 1e-11)", lambda, b, tt, bound)
	}
	if diff := math.Abs(p - ref); diff > bound+refBound {
		t.Errorf("λ=%v b=%v t=%g: |%.16g − ref %.16g| = %g exceeds bounds %g + %g",
			lambda, b, tt, p, ref, diff, bound, refBound)
	}
	for _, theta := range diffThetas {
		qual, certified, err := rubenDecide(lambda, b, tt, theta)
		if err != nil {
			t.Fatalf("decide(λ=%v b=%v t=%g θ=%g): %v", lambda, b, tt, theta, err)
		}
		if math.Abs(ref-theta) > DecideGuard && qual != (ref >= theta) {
			t.Errorf("λ=%v b=%v t=%g θ=%g: decided %v against reference %.16g", lambda, b, tt, theta, qual, ref)
		}
		if certified && math.Abs(ref-theta) < DecideGuard-1e-11 {
			t.Errorf("λ=%v b=%v t=%g θ=%g: certified inside the guard band (reference %.16g)", lambda, b, tt, theta, ref)
		}
	}
}

// randomForm draws d eigenvalues spanning condition number cond (with the
// extremes always present for d ≥ 2, and duplicates likely), offsets of the
// given scale, and a radius t = x·λmin.
// rubenDecide runs the series' decide path on a fresh form.
func rubenDecide(lambda, b []float64, t, theta float64) (qualifies, certified bool, err error) {
	var f form
	if err := f.init(lambda); err != nil {
		return false, false, err
	}
	return f.decide(b, t, theta)
}

func randomForm(rng *rand.Rand, d int, cond, bScale, x float64) (lambda, b []float64, t float64) {
	scale := math.Exp(rng.Float64()*6 - 3)
	lambda = make([]float64, d)
	b = make([]float64, d)
	for j := range lambda {
		lambda[j] = scale * math.Pow(cond, math.Round(rng.Float64()*4)/4)
		b[j] = rng.NormFloat64() * bScale
	}
	lambda[0] = scale
	if d > 1 {
		lambda[d-1] = scale * cond
	}
	return lambda, b, x * scale
}

func TestRubenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, d := range []int{1, 2, 3, 5, 9} {
		for _, cond := range []float64{1, 1.5, 9, 100, 500} {
			for _, bScale := range []float64{0, 0.5, 3} {
				for _, x := range []float64{1e-9, 0.25, 6, 62.5, 625} {
					lambda, b, tt := randomForm(rng, d, cond, bScale, x)
					checkAgainstReference(t, lambda, b, tt)
				}
			}
		}
	}
}

// FuzzRubenCDF drives the same differential check from fuzzed shape
// parameters. x is capped so the quadratic reference stays cheap.
func FuzzRubenCDF(f *testing.F) {
	f.Add(int64(1), uint8(2), 9.0, 2.0, 62.5)
	f.Add(int64(2), uint8(9), 500.0, 0.0, 300.0)
	f.Add(int64(3), uint8(1), 1.0, 5.0, 1e-6)
	f.Add(int64(4), uint8(3), 1.0, 0.0, 40.0)
	f.Fuzz(func(t *testing.T, seed int64, dim uint8, cond, bScale, x float64) {
		d := 1 + int(dim%9)
		if !(cond >= 1 && cond <= 500) || !(bScale >= 0 && bScale <= 8) || !(x > 0 && x <= 400) {
			t.Skip()
		}
		lambda, b, tt := randomForm(rand.New(rand.NewSource(seed)), d, cond, bScale, x)
		checkAgainstReference(t, lambda, b, tt)
	})
}

// Degenerate inputs are settled without entering the series.
func TestRubenDegenerateInputs(t *testing.T) {
	lambda := []float64{2, 0.5}
	inf := math.Inf(1)
	for _, c := range []struct {
		b    []float64
		t    float64
		want float64
	}{
		{[]float64{0.3, 1}, inf, 1},
		{[]float64{inf, 1}, 4, 0},
		{[]float64{0.3, -inf}, 4, 0},
		{[]float64{inf, 1}, inf, 0},
		{[]float64{0.3, 1}, 0, 0},
	} {
		p, bound, err := RubenCDFBound(lambda, c.b, c.t)
		if err != nil || p != c.want || bound != 0 {
			t.Errorf("b=%v t=%g: got (%g, %g, %v), want (%g, 0, nil)", c.b, c.t, p, bound, err, c.want)
		}
		qual, certified, err := rubenDecide(lambda, c.b, c.t, 0.5)
		if err != nil || !certified || qual != (c.want >= 0.5) {
			t.Errorf("b=%v t=%g: decide gave (%v, %v, %v)", c.b, c.t, qual, certified, err)
		}
	}
	if _, err := RubenCDF([]float64{1, inf}, []float64{0, 0}, 1); err == nil {
		t.Error("infinite lambda accepted")
	}
	// Isotropic Σ with a centred sphere is the central χ²: a_0 = 1, one term.
	for _, d := range []int{1, 2, 9} {
		iso, zero := make([]float64, d), make([]float64, d)
		for j := range iso {
			iso[j] = 3.5
		}
		p, bound, err := RubenCDFBound(iso, zero, 3.5*4)
		want, _ := stats.ChiSquareCDF(float64(d), 4)
		if err != nil || math.Abs(p-want) > 1e-15 || bound > 1e-13 {
			t.Errorf("isotropic d=%d: got (%.17g, %g, %v), want %.17g", d, p, bound, err, want)
		}
	}
}

// Large δ²/λmin: x = 6 250 and 62 500 needed more than the old 20 000-term
// limit (or underflowed a_0 and never converged). Imhof's numerical inversion
// is the independent reference.
func TestRubenLargeX(t *testing.T) {
	for _, gamma := range []float64{0.1, 0.01} {
		lambda := []float64{9 * gamma, gamma}
		for _, r := range []float64{24.2, 24.9, 25, 25.1, 25.8} {
			for _, phi := range []float64{0, 0.7, math.Pi / 2} {
				u := []float64{r * math.Cos(phi), r * math.Sin(phi)}
				b := []float64{u[0] / math.Sqrt(lambda[0]), u[1] / math.Sqrt(lambda[1])}
				p, bound, err := RubenCDFBound(lambda, b, 625)
				if err != nil {
					t.Fatalf("γ=%g r=%g φ=%g: %v", gamma, r, phi, err)
				}
				want, err := ImhofCDF(lambda, b, 625)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(p-want) > bound+1e-7 {
					t.Errorf("γ=%g r=%g φ=%g: Ruben %.12g ± %g vs Imhof %.12g", gamma, r, phi, p, bound, want)
				}
				if bound > 1e-9 {
					t.Errorf("γ=%g r=%g φ=%g: bound %g too wide to certify against the guard", gamma, r, phi, bound)
				}
			}
		}
	}
	if _, err := RubenCDF([]float64{1e-9, 1}, []float64{0, 0}, 1); !errors.Is(err, ErrNotConverged) {
		t.Errorf("x = 1e9: got %v, want ErrNotConverged", err)
	}
}

// Steady-state evaluation against one distribution allocates nothing.
func TestExactZeroAllocs(t *testing.T) {
	g := paperDist(t, 1)
	e := NewExact()
	o := vecmat.Vector{512, 517}
	if _, _, err := e.QualificationBound(g, o, 25); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { e.QualificationBound(g, o, 25) }); n != 0 {
		t.Errorf("QualificationBound allocates %g times per call", n)
	}
	if n := testing.AllocsPerRun(50, func() { e.Decide(g, o, 25, 0.01) }); n != 0 {
		t.Errorf("Decide allocates %g times per call", n)
	}
}

// Decide on the evaluator agrees with comparing the evaluator's own value.
func TestExactDecideMatchesValue(t *testing.T) {
	for _, gamma := range []float64{1, 10, 100} {
		g := paperDist(t, gamma)
		e := NewExact()
		for _, o := range shellCandidates(gamma, 25, 400, 7) {
			p, bound, err := e.QualificationBound(g, o, 25)
			if err != nil {
				t.Fatal(err)
			}
			for _, theta := range diffThetas {
				qual, certified, err := e.Decide(g, o, 25, theta)
				if err != nil {
					t.Fatal(err)
				}
				if qual != (p >= theta) && math.Abs(p-theta) > bound {
					t.Errorf("γ=%g o=%v θ=%g: decided %v, value %.16g", gamma, o, theta, qual, p)
				}
				if certified != (math.Abs(p-theta) > DecideGuard) && math.Abs(math.Abs(p-theta)-DecideGuard) > 1e-11 {
					t.Errorf("γ=%g o=%v θ=%g: certified=%v at |p−θ|=%g", gamma, o, theta, certified, math.Abs(p-theta))
				}
			}
		}
	}
}

package quadform

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

func TestRubenCDFValidation(t *testing.T) {
	if _, err := RubenCDF(nil, nil, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{0, 0}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RubenCDF([]float64{-1}, []float64{0}, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{math.NaN()}, 1); err == nil {
		t.Error("NaN b accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{0}, math.NaN()); err == nil {
		t.Error("NaN t accepted")
	}
	v, err := RubenCDF([]float64{1, 2}, []float64{0, 0}, -3)
	if err != nil || v != 0 {
		t.Errorf("t<0 gave %g, %v; want 0", v, err)
	}
}

// Equal lambdas with zero offsets reduce to the central chi-square.
func TestRubenCentralChiSquare(t *testing.T) {
	for _, d := range []int{1, 2, 5, 9} {
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = 3.5
		}
		for _, x := range []float64{0.5, 2, 10, 40} {
			got, err := RubenCDF(lambda, b, 3.5*x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.ChiSquareCDF(float64(d), x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("d=%d x=%g: Ruben %.14g vs central %.14g", d, x, got, want)
			}
		}
	}
}

// Equal lambdas with offsets reduce to the noncentral chi-square.
func TestRubenNoncentralChiSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(10)
		scale := math.Exp(rng.Float64()*4 - 2)
		lambda := make([]float64, d)
		b := make([]float64, d)
		var nc float64
		for i := range lambda {
			lambda[i] = scale
			b[i] = rng.NormFloat64() * 2
			nc += b[i] * b[i]
		}
		x := math.Exp(rng.Float64()*4 - 1)
		got, err := RubenCDF(lambda, b, scale*x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.NoncentralChiSquareCDF(float64(d), nc, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("d=%d scale=%g nc=%g x=%g: Ruben %.14g vs noncentral %.14g",
				d, scale, nc, x, got, want)
		}
	}
}

// Reference values computed with 25-digit mpmath quadrature.
func TestRubenReference2D(t *testing.T) {
	cases := []struct {
		l1, l2, b1, b2, t, want float64
	}{
		{90, 10, 0.5, 1.2, 100, 0.56518307769380629},
		{90, 10, 0, 0, 625, 0.99101377055618121},
		{1, 4, 2, -1, 9, 0.4428474755270923},
		{700, 300, 0.3, 0.1, 625, 0.46574717337809076},
	}
	for _, c := range cases {
		got, err := RubenCDF([]float64{c.l1, c.l2}, []float64{c.b1, c.b2}, c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-10 {
			t.Errorf("RubenCDF(λ=(%g,%g), b=(%g,%g), t=%g) = %.16g, want %.16g",
				c.l1, c.l2, c.b1, c.b2, c.t, got, c.want)
		}
	}
}

// Property: monotone in t, bounded in [0,1].
func TestRubenMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(9)
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = math.Exp(rng.Float64()*5 - 2)
			b[i] = rng.NormFloat64() * 3
		}
		t1 := math.Exp(rng.Float64() * 6)
		t2 := t1 * (1 + rng.Float64())
		p1, err := RubenCDF(lambda, b, t1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := RubenCDF(lambda, b, t2)
		if err != nil {
			t.Fatal(err)
		}
		if p1 < 0 || p1 > 1 || p2 < p1-1e-11 {
			t.Errorf("trial %d: p(%g)=%g, p(%g)=%g violates monotone/[0,1]", trial, t1, p1, t2, p2)
		}
	}
}

// Property: Monte Carlo agreement for anisotropic forms.
func TestRubenMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const n = 300000
	for trial := 0; trial < 6; trial++ {
		d := 2 + rng.Intn(7)
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = math.Exp(rng.Float64()*3 - 1)
			b[i] = rng.NormFloat64()
		}
		tt := 0.0
		for _, l := range lambda {
			tt += l * (1 + rng.Float64()*3)
		}
		var hit int
		for i := 0; i < n; i++ {
			var q float64
			for j := 0; j < d; j++ {
				z := rng.NormFloat64() + b[j]
				q += lambda[j] * z * z
			}
			if q <= tt {
				hit++
			}
		}
		mcEst := float64(hit) / n
		got, err := RubenCDF(lambda, b, tt)
		if err != nil {
			t.Fatal(err)
		}
		se := math.Sqrt(got*(1-got)/n) + 1e-9
		if math.Abs(got-mcEst) > 6*se {
			t.Errorf("trial %d d=%d: Ruben %g vs MC %g (6σ=%g)", trial, d, got, mcEst, 6*se)
		}
	}
}

func paperDist(t testing.TB, gamma float64) *gauss.Dist {
	t.Helper()
	s := math.Sqrt(3)
	cov := vecmat.MustFromRows([][]float64{
		{7 * gamma, 2 * s * gamma},
		{2 * s * gamma, 3 * gamma},
	})
	g, err := gauss.New(vecmat.Vector{500, 500}, cov)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExactQualification(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()

	// At the mean with a huge radius, probability ≈ 1.
	p, err := e.Qualification(g, vecmat.Vector{500, 500}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999999 {
		t.Errorf("huge sphere probability = %g, want ≈1", p)
	}
	// Far away object: ≈ 0.
	p, err = e.Qualification(g, vecmat.Vector{900, 900}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Errorf("distant object probability = %g, want ≈0", p)
	}
}

func TestExactValidation(t *testing.T) {
	g := paperDist(t, 1)
	e := NewExact()
	if _, err := e.Qualification(g, vecmat.Vector{1, 2, 3}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := e.Qualification(g, vecmat.Vector{1, 2}, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

// The exact evaluator must be invariant under which equivalent formulation is
// used: compare against directly-constructed RubenCDF inputs.
func TestExactMatchesDirectRuben(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 50; i++ {
		o := vecmat.Vector{500 + rng.NormFloat64()*30, 500 + rng.NormFloat64()*30}
		delta := 5 + rng.Float64()*40
		got, err := e.Qualification(g, o, delta)
		if err != nil {
			t.Fatal(err)
		}

		// Direct: rotate the offset into the eigenbasis.
		diff := g.Mean().Sub(o)
		eb := g.EigenBasis()
		u := make(vecmat.Vector, 2)
		eb.MulVecTransTo(diff, u)
		lams := g.EigenValuesCov()
		b := []float64{u[0] / math.Sqrt(lams[0]), u[1] / math.Sqrt(lams[1])}
		want, err := RubenCDF(lams, b, delta*delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Exact %g != direct %g", got, want)
		}
	}
}

// Symmetry: objects at mirrored positions through q have equal probability
// (the paper's point-symmetry argument for the RR bound, Fig. 3).
func TestExactPointSymmetry(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()
	rng := rand.New(rand.NewSource(89))
	q := g.Mean()
	for i := 0; i < 30; i++ {
		o := vecmat.Vector{500 + rng.NormFloat64()*25, 500 + rng.NormFloat64()*25}
		mirror := q.Scale(2).Sub(o)
		p1, err := e.Qualification(g, o, 25)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := e.Qualification(g, mirror, 25)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-p2) > 1e-11 {
			t.Errorf("symmetry violated: %g vs %g at %v", p1, p2, o)
		}
	}
}

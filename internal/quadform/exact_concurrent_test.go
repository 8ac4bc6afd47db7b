package quadform

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// TestRubenCDFBoundCertified: the certified truncation bound must actually
// contain the truth. With equal lambdas the quadratic form is an exactly
// scaled noncentral chi-square, giving an independent reference value.
func TestRubenCDFBoundCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 5, 9} {
		for trial := 0; trial < 20; trial++ {
			scale := 0.5 + 5*rng.Float64()
			lambda := make([]float64, d)
			b := make([]float64, d)
			var nc float64
			for i := range lambda {
				lambda[i] = scale
				b[i] = 3 * (rng.Float64() - 0.5)
				nc += b[i] * b[i]
			}
			x := float64(d) * (0.2 + 3*rng.Float64())
			p, bound, err := RubenCDFBound(lambda, b, scale*x)
			if err != nil {
				t.Fatal(err)
			}
			if bound < 0 {
				t.Fatalf("negative certified bound %g", bound)
			}
			want, err := stats.NoncentralChiSquareCDF(float64(d), nc, x)
			if err != nil {
				t.Fatal(err)
			}
			// 1e-10 absorbs the reference CDF's own series tolerance.
			if diff := math.Abs(p - want); diff > bound+1e-10 {
				t.Errorf("d=%d trial=%d: |%.14g - %.14g| = %g exceeds certified bound %g",
					d, trial, p, want, diff, bound)
			}
		}
	}
}

// TestRubenCDFBoundMatchesCDF: RubenCDF is the bound variant with the bound
// discarded — the probabilities must be bit-identical.
func TestRubenCDFBoundMatchesCDF(t *testing.T) {
	lambda := []float64{9, 2.5, 1}
	b := []float64{0.3, -1.2, 2}
	for _, x := range []float64{0.5, 5, 25, 80} {
		p1, err := RubenCDF(lambda, b, x)
		if err != nil {
			t.Fatal(err)
		}
		p2, bound, err := RubenCDFBound(lambda, b, x)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("x=%g: RubenCDF %v != RubenCDFBound %v", x, p1, p2)
		}
		if bound < 0 || bound > 1e-6 {
			t.Errorf("x=%g: implausible certified bound %g", x, bound)
		}
	}
}

// TestExactQualificationBound: the per-call certified bound must bracket a
// direct high-precision Ruben evaluation in the eigenbasis.
func TestExactQualificationBound(t *testing.T) {
	dist := paperDist(t, 10)
	e := NewExact()
	p, bound, err := e.QualificationBound(dist, vecmat.Vector{507, 493}, 22)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Fatalf("probability %g out of range", p)
	}
	if bound < 0 || bound > 1e-6 {
		t.Fatalf("implausible certified bound %g", bound)
	}
	q, err := e.Qualification(dist, vecmat.Vector{507, 493}, 22)
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Errorf("QualificationBound %v != Qualification %v", p, q)
	}
}

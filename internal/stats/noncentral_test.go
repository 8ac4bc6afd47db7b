package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNoncentralDomain(t *testing.T) {
	bad := []struct{ k, lam, x float64 }{
		{0, 1, 1}, {-2, 1, 1}, {2, -1, 1}, {math.NaN(), 1, 1}, {2, math.NaN(), 1},
	}
	for _, c := range bad {
		if _, err := NoncentralChiSquareCDF(c.k, c.lam, c.x); err == nil {
			t.Errorf("NoncentralChiSquareCDF(%g,%g,%g) accepted invalid input", c.k, c.lam, c.x)
		}
	}
	v, err := NoncentralChiSquareCDF(2, 1, -1)
	if err != nil || v != 0 {
		t.Errorf("CDF at negative x = %g, %v; want 0", v, err)
	}
}

func TestNoncentralReducesToCentral(t *testing.T) {
	for _, k := range []float64{1, 2, 5, 9} {
		for _, x := range []float64{0.5, 2, 10} {
			want, err := ChiSquareCDF(k, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NoncentralChiSquareCDF(k, 0, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-13 {
				t.Errorf("λ=0: CDF(%g,%g) = %g, want central %g", k, x, got, want)
			}
		}
	}
}

// Reference values computed with 30-digit mpmath Poisson-mixture evaluation.
func TestNoncentralReference(t *testing.T) {
	cases := []struct{ x, k, lam, want float64 }{
		{4.0, 2, 1.0, 0.73098793996409},
		{25.0, 2, 9.0, 0.96932239791597826},
		{2.0, 9, 16.0, 1.0411050688994186e-5},
		{50.0, 9, 100.0, 0.00033241367326304339},
		{1.0, 3, 0.5, 0.16220059072318914},
		{625.0, 2, 694.4, 0.085194702951275463},
	}
	for _, c := range cases {
		got, err := NoncentralChiSquareCDF(c.k, c.lam, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-10*math.Max(c.want, 1e-6) {
			t.Errorf("F(%g; k=%g, λ=%g) = %.16g, want %.16g", c.x, c.k, c.lam, got, c.want)
		}
	}
}

// Property: CDF is decreasing in λ and increasing in x.
func TestNoncentralMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		k := float64(1 + rng.Intn(15))
		lam := math.Exp(rng.Float64()*8 - 3)
		x := math.Exp(rng.Float64()*6 - 2)
		f, err := NoncentralChiSquareCDF(k, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		f2, _ := NoncentralChiSquareCDF(k, lam*1.5, x)
		if f2 > f+1e-12 {
			t.Errorf("CDF not decreasing in λ: k=%g x=%g λ=%g: %g → %g", k, x, lam, f, f2)
		}
		f3, _ := NoncentralChiSquareCDF(k, lam, x*1.5)
		if f3 < f-1e-12 {
			t.Errorf("CDF not increasing in x: k=%g λ=%g x=%g: %g → %g", k, lam, x, f, f3)
		}
		if f < 0 || f > 1 {
			t.Errorf("CDF out of range: %g", f)
		}
	}
}

// Property: Monte Carlo agreement. Pr(‖z − c‖² ≤ x) with z standard normal
// and ‖c‖² = λ matches the analytic CDF.
func TestNoncentralMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		d      int
		lam, x float64
	}{
		{2, 4, 9}, {3, 1, 4}, {9, 9, 25}, {5, 0.25, 2},
	}
	const n = 400000
	for _, c := range cases {
		alpha := math.Sqrt(c.lam)
		var count int
		for i := 0; i < n; i++ {
			var s float64
			// Center at (α, 0, …, 0) w.l.o.g. (isotropy).
			z := rng.NormFloat64() - alpha
			s = z * z
			for j := 1; j < c.d; j++ {
				z := rng.NormFloat64()
				s += z * z
			}
			if s <= c.x {
				count++
			}
		}
		mc := float64(count) / n
		got, err := NoncentralChiSquareCDF(float64(c.d), c.lam, c.x)
		if err != nil {
			t.Fatal(err)
		}
		se := math.Sqrt(got*(1-got)/n) + 1e-9
		if math.Abs(got-mc) > 6*se {
			t.Errorf("d=%d λ=%g x=%g: analytic %g vs MC %g (6σ=%g)", c.d, c.lam, c.x, got, mc, 6*se)
		}
	}
}

func TestNoncentralityForCDF(t *testing.T) {
	// Round trip: pick λ, compute p = F(x; k, λ), invert back.
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 100; i++ {
		k := float64(1 + rng.Intn(12))
		x := math.Exp(rng.Float64()*4 - 1)
		lam := math.Exp(rng.Float64()*4 - 1)
		p, err := NoncentralChiSquareCDF(k, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		if p <= 1e-14 || p >= 1-1e-14 {
			continue
		}
		got, err := NoncentralityForCDF(k, x, p)
		if err != nil {
			t.Fatalf("k=%g x=%g p=%g: %v", k, x, p, err)
		}
		if math.Abs(got-lam) > 1e-6*(1+lam) {
			t.Errorf("invert k=%g x=%g: λ = %g, want %g", k, x, got, lam)
		}
	}
}

func TestNoncentralityForCDFNoSolution(t *testing.T) {
	// Central CDF at x is the max over λ; asking for more mass must fail.
	f0, err := ChiSquareCDF(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NoncentralityForCDF(2, 1, f0*1.01); err == nil {
		t.Error("unreachable probability did not error")
	}
	if _, err := NoncentralityForCDF(2, 0, 0.5); err == nil {
		t.Error("x=0 did not error")
	}
	if _, err := NoncentralityForCDF(2, 1, 0); err == nil {
		t.Error("p=0 did not error")
	}
}

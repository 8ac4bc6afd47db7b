package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestGammaPDomain(t *testing.T) {
	cases := []struct{ a, x float64 }{
		{0, 1}, {-1, 1}, {1, -0.5}, {math.NaN(), 1}, {1, math.NaN()},
	}
	for _, c := range cases {
		if _, err := GammaP(c.a, c.x); err == nil {
			t.Errorf("GammaP(%g, %g) accepted invalid input", c.a, c.x)
		}
	}
}

func TestGammaPBoundaries(t *testing.T) {
	p, err := GammaP(2.5, 0)
	if err != nil || p != 0 {
		t.Errorf("GammaP(a, 0) = %g, %v; want 0", p, err)
	}
	p, err = GammaP(2.5, math.Inf(1))
	if err != nil || p != 1 {
		t.Errorf("GammaP(a, ∞) = %g, %v; want 1", p, err)
	}
}

// TestGammaPExponential exploits P(1, x) = 1 − e^{−x}.
func TestGammaPExponential(t *testing.T) {
	for _, x := range []float64{0.01, 0.5, 1, 2, 3.912, 10, 50} {
		want := 1 - math.Exp(-x)
		got, err := GammaP(1, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("P(1, %g) = %.16g, want %.16g", x, got, want)
		}
	}
}

// TestGammaPHalfInteger exploits P(1/2, x) = erf(√x).
func TestGammaPHalfInteger(t *testing.T) {
	for _, x := range []float64{0.1, 0.7, 1.5, 4, 9, 25} {
		want := math.Erf(math.Sqrt(x))
		got, err := GammaP(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("P(1/2, %g) = %.16g, want %.16g", x, got, want)
		}
	}
}

// Reference values computed with scipy.special.gammainc.
func TestGammaPReference(t *testing.T) {
	cases := []struct{ a, x, want float64 }{
		{4.5, 1.0, 0.0085323933711864655},
		{4.5, 4.5, 0.56272581108613294},
		{4.5, 20.0, 0.99999240147477054},
		{10, 5, 0.031828057306204812},
		{0.25, 0.1, 0.60833884572896607},
	}
	for _, c := range cases {
		got, err := GammaP(c.a, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-11 {
			t.Errorf("P(%g, %g) = %.16g, want %.16g", c.a, c.x, got, c.want)
		}
	}
}

// Property: P(a, x) is nondecreasing in x.
func TestGammaPMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		a := math.Exp(rng.Float64()*6 - 1)
		x1 := math.Exp(rng.Float64()*6 - 2)
		x2 := x1 * (1 + rng.Float64())
		p1, _ := GammaP(a, x1)
		p2, _ := GammaP(a, x2)
		if p2 < p1-1e-13 {
			t.Errorf("P(%g, ·) not monotone: P(%g)=%g > P(%g)=%g", a, x1, p1, x2, p2)
		}
	}
}

func TestGammaPInvDomain(t *testing.T) {
	for _, c := range []struct{ a, p float64 }{{0, 0.5}, {1, -0.1}, {1, 1}, {1, 1.5}} {
		if _, err := GammaPInv(c.a, c.p); err == nil {
			t.Errorf("GammaPInv(%g, %g) accepted invalid input", c.a, c.p)
		}
	}
	x, err := GammaPInv(3, 0)
	if err != nil || x != 0 {
		t.Errorf("GammaPInv(a, 0) = %g, %v; want 0", x, err)
	}
}

// Property: GammaPInv is a right inverse of GammaP across magnitudes.
func TestGammaPInvRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		a := math.Exp(rng.Float64()*7 - 2)
		p := rng.Float64()*0.9998 + 1e-4
		x, err := GammaPInv(a, p)
		if err != nil {
			t.Fatalf("a=%g p=%g: %v", a, p, err)
		}
		back, err := GammaP(a, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("round trip a=%g: P(P⁻¹(%g)) = %g", a, p, back)
		}
	}
}

// Extreme tails of the inverse.
func TestGammaPInvTails(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.999999, 1 - 1e-12} {
		for _, a := range []float64{0.5, 1, 4.5, 50} {
			x, err := GammaPInv(a, p)
			if err != nil {
				t.Fatalf("a=%g p=%g: %v", a, p, err)
			}
			back, _ := GammaP(a, x)
			if math.Abs(back-p) > 1e-8*math.Max(p, 1e-8) && math.Abs(back-p) > 1e-13 {
				t.Errorf("tail round trip a=%g p=%g: got %g", a, p, back)
			}
		}
	}
}

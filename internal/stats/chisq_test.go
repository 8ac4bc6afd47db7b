package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestChiSquareCDFBasics(t *testing.T) {
	if _, err := ChiSquareCDF(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	v, err := ChiSquareCDF(3, 0)
	if err != nil || v != 0 {
		t.Errorf("CDF(3, 0) = %g, %v", v, err)
	}
	v, err = ChiSquareCDF(3, -2)
	if err != nil || v != 0 {
		t.Errorf("CDF(3, -2) = %g, %v", v, err)
	}
	// χ²(2) is Exp(1/2): CDF(x) = 1 − e^{−x/2}.
	for _, x := range []float64{0.5, 2, 7.824} {
		want := 1 - math.Exp(-x/2)
		got, err := ChiSquareCDF(2, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("χ²(2) CDF(%g) = %g, want %g", x, got, want)
		}
	}
}

// TestSphereMassPaperValues checks the paper's reported rθ anchors:
// for d=2, θ=0.01: rθ = 2.79; for d=9, θ=0.01: rθ = 4.44 (§VI-B);
// for d=9, θ=0.4 the paper derives rθ = 2.32 via Eq. (7);
// and Fig. 17's d=2 anchor: Pr(‖x‖ ≤ 1) = 39 %.
func TestSphereMassPaperValues(t *testing.T) {
	r, err := SphereRadiusForMass(2, 1-2*0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.79) > 0.01 {
		t.Errorf("rθ(d=2, θ=0.01) = %g, paper reports 2.79", r)
	}
	r, err = SphereRadiusForMass(9, 1-2*0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-4.44) > 0.005 {
		t.Errorf("rθ(d=9, θ=0.01) = %g, paper reports 4.44", r)
	}
	r, err = SphereRadiusForMass(9, 1-2*0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.32) > 0.005 {
		t.Errorf("rθ(d=9, θ=0.4) = %g, paper reports 2.32", r)
	}
	m, err := SphereMass(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.39) > 0.005 {
		t.Errorf("Pr(‖x‖≤1), d=2 = %g, paper reports 39%%", m)
	}
	// §VI-B: for d=9 the mass within radius 2 is only ~9 %.
	m, err = SphereMass(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.09) > 0.01 {
		t.Errorf("Pr(‖x‖≤2), d=9 = %g, paper reports ~9%%", m)
	}
}

func TestSphereMassDomain(t *testing.T) {
	if _, err := SphereMass(0, 1); err == nil {
		t.Error("d=0 accepted")
	}
	m, err := SphereMass(3, 0)
	if err != nil || m != 0 {
		t.Errorf("SphereMass(3, 0) = %g, %v", m, err)
	}
	if _, err := SphereRadiusForMass(2, 1); err == nil {
		t.Error("mass=1 accepted")
	}
	if _, err := SphereRadiusForMass(-1, 0.5); err == nil {
		t.Error("d=-1 accepted")
	}
}

// Property: SphereMass is increasing in r and decreasing in d.
func TestSphereMassMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		d := 1 + rng.Intn(14)
		r := rng.Float64()*5 + 0.1
		m1, err := SphereMass(d, r)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := SphereMass(d, r*1.3)
		if m2 < m1 {
			t.Errorf("mass not increasing in r at d=%d r=%g", d, r)
		}
		m3, _ := SphereMass(d+1, r)
		if m3 > m1+1e-13 {
			t.Errorf("mass not decreasing in d at d=%d r=%g: %g → %g", d, r, m1, m3)
		}
	}
}

// Consistency: SphereMass for d=1 equals 2Φ(r) − 1 = erf(r/√2).
func TestSphereMass1D(t *testing.T) {
	for _, r := range []float64{0.5, 1, 2, 3} {
		want := math.Erf(r / math.Sqrt2)
		got, err := SphereMass(1, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("SphereMass(1, %g) = %g, want %g", r, got, want)
		}
	}
}

package mc

import (
	"math"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/quadform"
	"gaussrange/internal/vecmat"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 500000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sum2 += f * f
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("uniform mean = %g", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("uniform variance = %g, want 1/12", variance)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 500000
	var sum, sum2, sum3, sum4 float64
	for i := 0; i < n; i++ {
		z := r.NormFloat64()
		sum += z
		sum2 += z * z
		sum3 += z * z * z
		sum4 += z * z * z * z
	}
	mean := sum / n
	variance := sum2 / n
	skew := sum3 / n
	kurt := sum4 / n
	if math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.01 {
		t.Errorf("normal mean/var = %g/%g", mean, variance)
	}
	if math.Abs(skew) > 0.02 || math.Abs(kurt-3) > 0.05 {
		t.Errorf("normal skew/kurtosis = %g/%g", skew, kurt)
	}
}

func TestRNGIntnPerm(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(10) value %d count %d far from 10000", v, c)
		}
	}
	perm := make([]int, 20)
	r.Perm(perm)
	seen := make(map[int]bool)
	for _, p := range perm {
		if p < 0 || p >= 20 || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
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

func TestNewIntegratorValidation(t *testing.T) {
	if _, err := NewIntegrator(0, 1); err == nil {
		t.Error("samples=0 accepted")
	}
	if _, err := NewIntegrator(1000, 1); err != nil {
		t.Fatal(err)
	}
}

func TestQualificationValidation(t *testing.T) {
	g := paperDist(t, 1)
	in, _ := NewIntegrator(100, 1)
	if _, err := in.Qualification(g, vecmat.Vector{1}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := in.Qualification(g, vecmat.Vector{1, 2}, -5); err == nil {
		t.Error("negative delta accepted")
	}
}

// The MC estimate must agree with the exact Ruben value within sampling error.
func TestQualificationMatchesExact(t *testing.T) {
	g := paperDist(t, 10)
	in, err := NewIntegrator(DefaultSamples, 12345)
	if err != nil {
		t.Fatal(err)
	}
	exact := quadform.NewExact()
	cases := []struct {
		o     vecmat.Vector
		delta float64
	}{
		{vecmat.Vector{500, 500}, 25},
		{vecmat.Vector{510, 495}, 25},
		{vecmat.Vector{530, 520}, 25},
		{vecmat.Vector{470, 480}, 10},
		{vecmat.Vector{545, 500}, 25},
	}
	for _, c := range cases {
		est, err := in.Qualification(g, c.o, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.Qualification(g, c.o, c.delta)
		if err != nil {
			t.Fatal(err)
		}
		se := math.Sqrt(want*(1-want)/DefaultSamples) + 1e-9 // 1σ of a Bernoulli mean
		if math.Abs(est-want) > 6*se {
			t.Errorf("o=%v δ=%g: MC %g vs exact %g (6σ=%g)", c.o, c.delta, est, want, 6*se)
		}
	}
}

// Deterministic behaviour: the same seed must give identical estimates.
func TestIntegratorDeterminism(t *testing.T) {
	g := paperDist(t, 10)
	a, _ := NewIntegrator(20000, 777)
	b, _ := NewIntegrator(20000, 777)
	o := vecmat.Vector{515, 490}
	p1, _ := a.Qualification(g, o, 25)
	p2, _ := b.Qualification(g, o, 25)
	if p1 != p2 {
		t.Errorf("same-seed integrators disagree: %g vs %g", p1, p2)
	}
}

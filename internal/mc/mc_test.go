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
	in, err := NewIntegrator(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Samples() != 1000 {
		t.Errorf("Samples = %d", in.Samples())
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
		se := StandardError(want, DefaultSamples) + 1e-9
		if math.Abs(est-want) > 6*se {
			t.Errorf("o=%v δ=%g: MC %g vs exact %g (6σ=%g)", c.o, c.delta, est, want, 6*se)
		}
	}
	if in.Evaluations() != len(cases) {
		t.Errorf("Evaluations = %d, want %d", in.Evaluations(), len(cases))
	}
}

func TestQualificationReuseMode(t *testing.T) {
	g := paperDist(t, 10)
	in, _ := NewIntegrator(50000, 99)
	in.SetReuse(true)
	exact := quadform.NewExact()
	o := vecmat.Vector{505, 505}
	p1, err := in.Qualification(g, o, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Same object twice: identical estimate (same shared sample set).
	p2, err := in.Qualification(g, o, 25)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("reuse mode not deterministic per distribution: %g vs %g", p1, p2)
	}
	want, _ := exact.Qualification(g, o, 25)
	if math.Abs(p1-want) > 6*StandardError(want, 50000)+1e-9 {
		t.Errorf("reuse estimate %g far from exact %g", p1, want)
	}
}

// Regression: the shared-sample cache must key on distribution *content*,
// not pointer identity. Rebinding the mean in place (same *gauss.Dist, new
// mean) previously kept the sample set drawn around the old mean, reporting
// probabilities for a query object thousands of units away from the truth.
func TestQualificationReuseRebindInPlace(t *testing.T) {
	g := paperDist(t, 10)
	in, _ := NewIntegrator(50000, 42)
	in.SetReuse(true)
	exact := quadform.NewExact()
	o := vecmat.Vector{505, 505}
	p1, err := in.Qualification(g, o, 25)
	if err != nil {
		t.Fatal(err)
	}
	if p1 < 0.05 {
		t.Fatalf("setup: expected a clearly positive probability near the mean, got %g", p1)
	}
	// Shift the mean far away through the accessor: pointer identity is
	// unchanged, content is not. A pointer-keyed cache reuses the old
	// samples and keeps reporting ≈p1 for o, now ~5000 units away.
	g.Mean()[0] += 5000
	p2, err := in.Qualification(g, o, 25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Qualification(g, o, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2-want) > 6*StandardError(want, 50000)+1e-9 {
		t.Errorf("stale shared samples after in-place rebind: MC %g vs exact %g (pre-rebind %g)", p2, want, p1)
	}
}

func TestStandardErrorAndSamples(t *testing.T) {
	if se := StandardError(0.5, 10000); math.Abs(se-0.005) > 1e-12 {
		t.Errorf("SE = %g, want 0.005", se)
	}
	if se := StandardError(0.5, 0); !math.IsInf(se, 1) {
		t.Errorf("SE with n=0 = %g, want +Inf", se)
	}
	n := SamplesForPrecision(0.5, 0.005)
	if n != 10000 {
		t.Errorf("SamplesForPrecision = %d, want 10000", n)
	}
	if n := SamplesForPrecision(0, 0.01); n != 2500 {
		t.Errorf("worst-case sample sizing = %d, want 2500", n)
	}
	if n := SamplesForPrecision(0.5, 0); n != math.MaxInt32 {
		t.Errorf("se=0 sample count = %d", n)
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

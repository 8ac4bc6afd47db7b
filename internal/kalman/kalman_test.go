package kalman

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gaussrange/internal/vecmat"
)

// near reports whether a and b agree within tol on every component.
func near(a, b vecmat.Vector, tol float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return len(a) == len(b)
}

// mulVec is m·v from the entries of m.
func mulVec(m *vecmat.Symmetric, v vecmat.Vector) vecmat.Vector {
	out := make(vecmat.Vector, len(v))
	for i := range out {
		for j, x := range v {
			out[i] += m.At(i, j) * x
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(vecmat.Vector{0}, vecmat.Identity(2)); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := New(vecmat.Vector{math.NaN(), 0}, vecmat.Identity(2)); err == nil {
		t.Error("NaN mean accepted")
	}
	if _, err := New(vecmat.Vector{0, 0}, vecmat.Diagonal(1, -1)); err == nil {
		t.Error("indefinite covariance accepted")
	}
	f, err := New(vecmat.Vector{1, 2}, vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Mean(), vecmat.Vector{1, 2}) {
		t.Error("accessors wrong")
	}
}

func TestPredictInflates(t *testing.T) {
	f, err := New(vecmat.Vector{0, 0}, vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Predict(vecmat.Vector{3, -1}, vecmat.Diagonal(2, 0.5)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Mean(), vecmat.Vector{3, -1}) {
		t.Errorf("mean after predict = %v", f.Mean())
	}
	if f.Cov().At(0, 0) != 3 || f.Cov().At(1, 1) != 1.5 {
		t.Errorf("covariance after predict:\n%v", f.Cov())
	}
	if err := f.Predict(vecmat.Vector{1}, vecmat.Identity(2)); err == nil {
		t.Error("dim mismatch accepted in Predict")
	}
}

// TestScalarClosedForm checks the 1-D Kalman update against the textbook
// formulas: posterior variance = pr/(p+r), posterior mean = weighted average.
func TestScalarClosedForm(t *testing.T) {
	f, err := New(vecmat.Vector{2}, vecmat.Diagonal(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(vecmat.Vector{6}, vecmat.Diagonal(1)); err != nil {
		t.Fatal(err)
	}
	// K = 4/5; mean = 2 + 0.8·4 = 5.2; var = (1 − 0.8)·4 = 0.8.
	if math.Abs(f.Mean()[0]-5.2) > 1e-12 {
		t.Errorf("posterior mean = %g, want 5.2", f.Mean()[0])
	}
	if math.Abs(f.Cov().At(0, 0)-0.8) > 1e-12 {
		t.Errorf("posterior variance = %g, want 0.8", f.Cov().At(0, 0))
	}
}

// Repeated identical measurements must converge to the measurement with
// variance → r/n.
func TestUpdateConvergence(t *testing.T) {
	f, err := New(vecmat.Vector{0, 0}, vecmat.Identity(2).Scale(100))
	if err != nil {
		t.Fatal(err)
	}
	z := vecmat.Vector{7, -3}
	r := vecmat.Identity(2)
	for i := 0; i < 50; i++ {
		if err := f.Update(z, r); err != nil {
			t.Fatal(err)
		}
	}
	// The prior (precision 1/100) retains weight 1/5001 against 50 unit-
	// precision measurements: posterior mean = z·5000/5001.
	if !near(f.Mean(), z, 3e-3) {
		t.Errorf("mean after 50 updates = %v, want ≈%v", f.Mean(), z)
	}
	if f.Cov().At(0, 0) > 1.0/40 {
		t.Errorf("variance after 50 updates = %g, want ≈1/50", f.Cov().At(0, 0))
	}
}

// Predict/update cycles must keep the covariance symmetric positive
// definite and bounded (steady state).
func TestSteadyStateStability(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	f, err := New(vecmat.Vector{0, 0}, vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	q := vecmat.MustFromRows([][]float64{{0.5, 0.1}, {0.1, 0.2}})
	r := vecmat.MustFromRows([][]float64{{1, -0.2}, {-0.2, 2}})
	var lastTrace float64
	for i := 0; i < 200; i++ {
		if err := f.Predict(vecmat.Vector{rng.NormFloat64(), rng.NormFloat64()}, q); err != nil {
			t.Fatal(err)
		}
		if err := f.Update(vecmat.Vector{rng.NormFloat64() * 5, rng.NormFloat64() * 5}, r); err != nil {
			t.Fatal(err)
		}
		eig, err := vecmat.EigenDecompose(f.Cov())
		if err != nil {
			t.Fatal(err)
		}
		if !eig.IsPositiveDefinite(0) {
			t.Fatalf("step %d: covariance lost positive definiteness", i)
		}
		lastTrace = f.Cov().Trace()
	}
	// Steady state: bounded well below the prior-free accumulation 200·tr(Q).
	if lastTrace > 5 {
		t.Errorf("steady-state trace = %g, filter diverged", lastTrace)
	}
}

// The filter must be the exact Bayesian posterior: cross-check a two-step
// scenario against direct Gaussian fusion.
func TestBayesianConsistency(t *testing.T) {
	prior := vecmat.MustFromRows([][]float64{{9, 3}, {3, 4}})
	f, err := New(vecmat.Vector{1, 1}, prior)
	if err != nil {
		t.Fatal(err)
	}
	rCov := vecmat.MustFromRows([][]float64{{2, -1}, {-1, 3}})
	z := vecmat.Vector{4, -2}
	if err := f.Update(z, rCov); err != nil {
		t.Fatal(err)
	}
	// Direct fusion: posterior precision = P⁻¹ + R⁻¹;
	// posterior mean = Σ(P⁻¹ μ + R⁻¹ z).
	pInv, _, err := prior.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	rInv, _, err := rCov.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	precision, err := pInv.Add(rInv)
	if err != nil {
		t.Fatal(err)
	}
	postCov, _, err := precision.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	rhs := mulVec(pInv, vecmat.Vector{1, 1})
	for i, v := range mulVec(rInv, z) {
		rhs[i] += v
	}
	postMean := mulVec(postCov, rhs)
	if !near(f.Mean(), postMean, 1e-9) {
		t.Errorf("posterior mean %v vs direct fusion %v", f.Mean(), postMean)
	}
	if !f.Cov().Equal(postCov, 1e-9) {
		t.Errorf("posterior covariance differs from direct fusion:\n%v\nvs\n%v", f.Cov(), postCov)
	}
}

func TestUpdateValidation(t *testing.T) {
	f, err := New(vecmat.Vector{0, 0}, vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(vecmat.Vector{1}, vecmat.Identity(2)); err == nil {
		t.Error("dim mismatch accepted in Update")
	}
	if err := f.Update(vecmat.Vector{1, 1}, vecmat.Identity(3)); err == nil {
		t.Error("R dim mismatch accepted")
	}
}

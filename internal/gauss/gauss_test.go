package gauss

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gaussrange/internal/vecmat"
)

// paperSigma returns the paper's Eq. (34) covariance γ·[[7, 2√3],[2√3, 3]].
func paperSigma(gamma float64) *vecmat.Symmetric {
	s := math.Sqrt(3)
	return vecmat.MustFromRows([][]float64{
		{7 * gamma, 2 * s * gamma},
		{2 * s * gamma, 3 * gamma},
	})
}

func paperDist(t testing.TB, gamma float64) *Dist {
	t.Helper()
	g, err := New(vecmat.Vector{500, 500}, paperSigma(gamma))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mahalanobis2 is (x−q)ᵗΣ⁻¹(x−q) straight from the definition, the exponent
// of p_q(x).
func mahalanobis2(t testing.TB, g *Dist, x vecmat.Vector) float64 {
	t.Helper()
	inv, _, err := g.Cov().Inverse()
	if err != nil {
		t.Fatal(err)
	}
	diff := x.Sub(g.Mean())
	var m2 float64
	for i := range diff {
		for j := range diff {
			m2 += diff[i] * inv.At(i, j) * diff[j]
		}
	}
	return m2
}

func TestNewValidation(t *testing.T) {
	if _, err := New(vecmat.Vector{0, 0}, vecmat.Identity(3)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := New(vecmat.Vector{0, 0}, vecmat.Diagonal(1, -1)); err == nil {
		t.Error("indefinite covariance accepted")
	}
	if _, err := New(vecmat.Vector{math.NaN(), 0}, vecmat.Identity(2)); err == nil {
		t.Error("NaN mean accepted")
	}
}

func TestLambdaParPerp(t *testing.T) {
	g := paperDist(t, 10)
	// Eigenvalues of Σ are 10 and 90 → λ∥ = 1/90, λ⊥ = 1/10.
	if math.Abs(g.LambdaPar()-1.0/90) > 1e-12 {
		t.Errorf("λ∥ = %g, want 1/90", g.LambdaPar())
	}
	if math.Abs(g.LambdaPerp()-1.0/10) > 1e-12 {
		t.Errorf("λ⊥ = %g, want 1/10", g.LambdaPerp())
	}
	if math.Abs(g.LogDet()-math.Log(900)) > 1e-12 {
		t.Errorf("log |Σ| = %g, want log 900", g.LogDet())
	}
}

func TestSigmaAxis(t *testing.T) {
	g := paperDist(t, 10)
	if math.Abs(g.SigmaAxis(0)-math.Sqrt(70)) > 1e-12 {
		t.Errorf("σ₀ = %g, want √70", g.SigmaAxis(0))
	}
	if math.Abs(g.SigmaAxis(1)-math.Sqrt(30)) > 1e-12 {
		t.Errorf("σ₁ = %g, want √30", g.SigmaAxis(1))
	}
}

// Property 4: p⊥(x) ≤ p_q(x) ≤ p∥(x) everywhere. The three share the
// normalizer, so this is λ∥‖x−q‖² ≥ (x−q)ᵗΣ⁻¹(x−q) ≥ λ⊥‖x−q‖² on exponents
// that carry a minus sign.
func TestBoundingFunctionsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	iso, err := New(vecmat.NewVector(2), vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	dists := []*Dist{
		paperDist(t, 1), paperDist(t, 10), paperDist(t, 100), iso,
	}
	// Random higher-dimensional instance.
	cov := vecmat.Diagonal(0.5, 2, 9, 1, 4)
	g5, err := New(vecmat.NewVector(5), cov)
	if err != nil {
		t.Fatal(err)
	}
	dists = append(dists, g5)

	for di, g := range dists {
		d := g.Dim()
		for i := 0; i < 2000; i++ {
			x := make(vecmat.Vector, d)
			for j := range x {
				x[j] = g.Mean()[j] + (rng.Float64()-0.5)*60
			}
			m2 := mahalanobis2(t, g, x)
			d2 := x.Dist2(g.Mean())
			if m2 < g.LambdaPar()*d2*(1-1e-12) {
				t.Fatalf("dist %d: p(x) exceeds p∥(x) at %v: M² %g < λ∥·d² %g", di, x, m2, g.LambdaPar()*d2)
			}
			if m2 > g.LambdaPerp()*d2*(1+1e-12) {
				t.Fatalf("dist %d: p(x) below p⊥(x) at %v: M² %g > λ⊥·d² %g", di, x, m2, g.LambdaPerp()*d2)
			}
		}
	}
}

// For the normalized Gaussian the bounds collapse onto the density.
func TestBoundingFunctionsTightForSphere(t *testing.T) {
	g, err := New(vecmat.NewVector(3), vecmat.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	x := vecmat.Vector{0.3, -1.2, 0.7}
	m2, d2 := mahalanobis2(t, g, x), x.Norm2()
	if math.Abs(g.LambdaPar()*d2-m2) > 1e-15 || math.Abs(g.LambdaPerp()*d2-m2) > 1e-15 {
		t.Error("bounding functions differ from pdf for isotropic Gaussian")
	}
}

func TestSampleMoments(t *testing.T) {
	g := paperDist(t, 10)
	rng := rand.New(rand.NewSource(59))
	const n = 300000
	d := g.Dim()
	mean := make(vecmat.Vector, d)
	var c00, c01, c11 float64
	scratch := make(vecmat.Vector, d)
	x := make(vecmat.Vector, d)
	for i := 0; i < n; i++ {
		g.Sample(rng, scratch, x)
		mean[0] += x[0]
		mean[1] += x[1]
		dx, dy := x[0]-500, x[1]-500
		c00 += dx * dx
		c01 += dx * dy
		c11 += dy * dy
	}
	mean[0] /= n
	mean[1] /= n
	if math.Abs(mean[0]-500) > 0.1 || math.Abs(mean[1]-500) > 0.1 {
		t.Errorf("sample mean = %v, want (500, 500)", mean)
	}
	c00 /= n
	c01 /= n
	c11 /= n
	if math.Abs(c00-70) > 1.5 || math.Abs(c01-20*math.Sqrt(3)) > 1.5 || math.Abs(c11-30) > 1.5 {
		t.Errorf("sample covariance [[%g %g][%g %g]] far from Σ", c00, c01, c01, c11)
	}
}

func TestThetaRegionRadius(t *testing.T) {
	g := paperDist(t, 10)
	r, err := g.ThetaRegionRadius(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.797) > 0.001 {
		t.Errorf("rθ = %g, want ≈2.797 (paper: 2.79)", r)
	}
	for _, bad := range []float64{0, 0.5, -1, 0.7} {
		if _, err := g.ThetaRegionRadius(bad); err == nil {
			t.Errorf("θ = %g accepted", bad)
		}
	}
}

// Property: the θ-region contains mass ≈ 1−2θ (Monte Carlo check).
func TestThetaRegionMassProperty(t *testing.T) {
	g := paperDist(t, 10)
	rng := rand.New(rand.NewSource(61))
	for _, theta := range []float64{0.01, 0.05, 0.2} {
		r, err := g.ThetaRegionRadius(theta)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200000
		scratch := make(vecmat.Vector, 2)
		x := make(vecmat.Vector, 2)
		var in int
		for i := 0; i < n; i++ {
			g.Sample(rng, scratch, x)
			if mahalanobis2(t, g, x) <= r*r {
				in++
			}
		}
		got := float64(in) / n
		want := 1 - 2*theta
		if math.Abs(got-want) > 0.005 {
			t.Errorf("θ=%g: mass in θ-region = %g, want %g", theta, got, want)
		}
	}
}

// Property 3: the eigen transform maps the ellipsoid to Σλᵢyᵢ² form, i.e.
// Mahalanobis distance is preserved as Σ yᵢ²/eigᵢ(Σ).
func TestTransformToEigenProperty(t *testing.T) {
	g := paperDist(t, 10)
	rng := rand.New(rand.NewSource(67))
	scratch := make(vecmat.Vector, 2)
	y := make(vecmat.Vector, 2)
	for i := 0; i < 1000; i++ {
		x := vecmat.Vector{500 + (rng.Float64()-0.5)*100, 500 + (rng.Float64()-0.5)*100}
		g.TransformToEigen(x, scratch, y)
		var m2 float64
		for j, ev := range g.EigenValuesCov() {
			m2 += y[j] * y[j] / ev
		}
		if want := mahalanobis2(t, g, x); math.Abs(m2-want) > 1e-9*(1+m2) {
			t.Fatalf("transform does not preserve Mahalanobis: %g vs %g", m2, want)
		}
		// Euclidean norm also preserved (E is orthonormal).
		if math.Abs(y.Norm2()-x.Dist2(g.Mean())) > 1e-9*(1+y.Norm2()) {
			t.Fatal("transform does not preserve Euclidean norm")
		}
	}
}

func TestStringAndAccessors(t *testing.T) {
	g := paperDist(t, 1)
	if g.String() == "" {
		t.Error("empty String()")
	}
	if g.Dim() != 2 {
		t.Errorf("Dim = %d", g.Dim())
	}
	if g.LogDet() == 0 {
		t.Error("LogDet = 0 for non-unit determinant")
	}
	if g.Cov().At(0, 0) != 7 {
		t.Error("Cov accessor wrong")
	}
}

func TestWithMean(t *testing.T) {
	g := paperDist(t, 10)
	moved, err := g.WithMean(vecmat.Vector{100, -50})
	if err != nil {
		t.Fatal(err)
	}
	if m := moved.Mean(); m[0] != 100 || m[1] != -50 {
		t.Errorf("WithMean mean = %v", m)
	}
	// The original is untouched and the covariance machinery is shared: the
	// rebound distribution transforms with the original Σ factors.
	if m := g.Mean(); m[0] != 500 || m[1] != 500 {
		t.Errorf("WithMean mutated the receiver: mean = %v", m)
	}
	at := func(d *Dist, x vecmat.Vector) vecmat.Vector {
		return d.TransformToEigen(x, make(vecmat.Vector, 2), make(vecmat.Vector, 2))
	}
	want := at(g, vecmat.Vector{510, 505})
	got := at(moved, vecmat.Vector{110, -45}) // same offset from the new mean
	if !slices.Equal(got, want) {
		t.Errorf("eigen coordinates at shifted point = %v, want %v", got, want)
	}
	// The provided mean is copied, not aliased.
	src := vecmat.Vector{1, 2}
	aliased, err := g.WithMean(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if aliased.Mean()[0] != 1 {
		t.Error("WithMean aliased the caller's slice")
	}

	if _, err := g.WithMean(vecmat.Vector{1, 2, 3}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := g.WithMean(vecmat.Vector{math.NaN(), 0}); err == nil {
		t.Error("NaN mean accepted")
	}
	if _, err := g.WithMean(vecmat.Vector{math.Inf(1), 0}); err == nil {
		t.Error("infinite mean accepted")
	}
}

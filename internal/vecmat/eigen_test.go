package vecmat

import (
	"math"
	"math/rand"
	"testing"
)

func TestEigenDiagonal(t *testing.T) {
	m := Diagonal(3, 1, 2)
	eig, err := EigenDecompose(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, v := range eig.Values {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Errorf("eigenvalue[%d] = %g, want %g", i, v, want[i])
		}
	}
	if !isOrthonormal(eig.Vectors, 1e-12) {
		t.Error("eigenvectors not orthonormal")
	}
}

func TestEigen1D(t *testing.T) {
	eig, err := EigenDecompose(Diagonal(4.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(eig.Values) != 1 || eig.Values[0] != 4.5 {
		t.Errorf("1-D eigenvalues = %v", eig.Values)
	}
}

// TestEigenPaperSigma checks the spectrum of the paper's Eq. (34) covariance
// at γ=10: eigenvalues of Σ are 90 and 10 (trace 100, det 900).
func TestEigenPaperSigma(t *testing.T) {
	eig, err := EigenDecompose(paperSigma(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-10) > 1e-9 || math.Abs(eig.Values[1]-90) > 1e-9 {
		t.Errorf("eigenvalues = %v, want [10, 90]", eig.Values)
	}
	// The major axis should be tilted at 30° (paper §V-A): its eigenvector
	// for λ=90 is proportional to (cos30°, sin30°).
	v := eig.Vectors.Col(1)
	angle := math.Atan2(v[1], v[0]) * 180 / math.Pi
	if angle < 0 {
		angle += 180
	}
	if math.Abs(angle-30) > 1e-6 {
		t.Errorf("major-axis angle = %g°, want 30°", angle)
	}
}

func TestEigenReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{2, 3, 5, 9, 15} {
		m := randomSPD(rng, d, 0.1, 50)
		eig, err := EigenDecompose(m)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		// E·diag(Values)·Eᵗ must give m back.
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				var rec float64
				for k := 0; k < d; k++ {
					rec += eig.Values[k] * eig.Vectors.At(i, k) * eig.Vectors.At(j, k)
				}
				if math.Abs(rec-m.At(i, j)) > 1e-8 {
					t.Errorf("d=%d: reconstruction mismatch at (%d,%d): %g vs %g", d, i, j, rec, m.At(i, j))
				}
			}
		}
		if !isOrthonormal(eig.Vectors, 1e-10) {
			t.Errorf("d=%d: eigenvectors not orthonormal", d)
		}
		for i := 1; i < d; i++ {
			if eig.Values[i] < eig.Values[i-1] {
				t.Errorf("d=%d: eigenvalues not ascending: %v", d, eig.Values)
			}
		}
	}
}

// Property: M·vᵢ = λᵢ·vᵢ for every eigenpair, over random SPD matrices.
func TestEigenPairsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(8)
		m := randomSPD(rng, d, 0.01, 100)
		eig, err := EigenDecompose(m)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < d; k++ {
			v := eig.Vectors.Col(k)
			lv := v.Scale(eig.Values[k])
			for i := 0; i < d; i++ {
				var mv float64
				for j := 0; j < d; j++ {
					mv += m.At(i, j) * v[j]
				}
				if math.Abs(mv-lv[i]) > 1e-7*(1+math.Abs(eig.Values[k])) {
					t.Errorf("trial %d d=%d: eigenpair %d fails M·v=λ·v", trial, d, k)
				}
			}
		}
	}
}

func TestEigenNonFinite(t *testing.T) {
	m := Diagonal(1, math.NaN())
	if _, err := EigenDecompose(m); err == nil {
		t.Error("NaN matrix decomposed without error")
	}
}

func TestInverse(t *testing.T) {
	m := paperSigma(10)
	inv, det, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det-900) > 1e-6 {
		t.Errorf("det = %g, want 900", det)
	}
	// m·inv should be identity.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var s float64
			for k := 0; k < 2; k++ {
				s += m.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-10 {
				t.Errorf("(m·m⁻¹)[%d][%d] = %g, want %g", i, j, s, want)
			}
		}
	}
}

func TestInverseRejectsIndefinite(t *testing.T) {
	m := Diagonal(1, -1)
	if _, _, err := m.Inverse(); err == nil {
		t.Error("indefinite matrix inverted without error")
	}
}

func TestDet(t *testing.T) {
	det, err := paperSigma(1).Det()
	if err != nil {
		t.Fatal(err)
	}
	// det = 7·3 − (2√3)² = 21 − 12 = 9.
	if math.Abs(det-9) > 1e-10 {
		t.Errorf("det = %g, want 9", det)
	}
}

// Property: det(Σ⁻¹) = 1/det(Σ) and eigenvalues of Σ⁻¹ are reciprocals.
func TestInverseSpectrumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(6)
		m := randomSPD(rng, d, 0.5, 20)
		inv, det, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		invDet, err := inv.Det()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(invDet*det-1) > 1e-7 {
			t.Errorf("det(Σ⁻¹)·det(Σ) = %g, want 1", invDet*det)
		}
		me, _ := EigenDecompose(m)
		ie, _ := EigenDecompose(inv)
		for k := 0; k < d; k++ {
			// Ascending eigenvalues of inv pair with descending of m.
			lam := me.Values[d-1-k]
			if math.Abs(ie.Values[k]*lam-1) > 1e-7 {
				t.Errorf("eigenvalue reciprocity fails: %g vs 1/%g", ie.Values[k], lam)
			}
		}
	}
}

func TestEigenMinMax(t *testing.T) {
	eig, err := EigenDecompose(Diagonal(4, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if eig.MinValue() != 1 || eig.MaxValue() != 9 {
		t.Errorf("Min/Max = %g/%g, want 1/9", eig.MinValue(), eig.MaxValue())
	}
	if !eig.IsPositiveDefinite(0) {
		t.Error("PD matrix not reported positive definite")
	}
}

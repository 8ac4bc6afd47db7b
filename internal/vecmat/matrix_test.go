package vecmat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// paperSigma returns the covariance of Eq. (34): γ·[[7, 2√3],[2√3, 3]].
func paperSigma(gamma float64) *Symmetric {
	s := math.Sqrt(3)
	return MustFromRows([][]float64{
		{7 * gamma, 2 * s * gamma},
		{2 * s * gamma, 3 * gamma},
	})
}

// randomSPD builds a random symmetric positive definite d×d matrix with
// eigenvalues in [lo, hi].
func randomSPD(rng *rand.Rand, d int, lo, hi float64) *Symmetric {
	// Random orthonormal basis via Gram–Schmidt on random vectors.
	basis := make([]Vector, d)
	for i := range basis {
		for {
			v := make(Vector, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for k := 0; k < i; k++ {
				proj := v.Dot(basis[k])
				for j := range v {
					v[j] -= proj * basis[k][j]
				}
			}
			if n := v.Norm(); n > 1e-6 {
				for j := range v {
					v[j] /= n
				}
				basis[i] = v
				break
			}
		}
	}
	m := NewSymmetric(d)
	for k := 0; k < d; k++ {
		lam := lo + rng.Float64()*(hi-lo)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				m.Set(i, j, m.At(i, j)+lam*basis[k][i]*basis[k][j])
			}
		}
	}
	return m
}

// isOrthonormal reports whether mᵗ·m ≈ I within tol.
func isOrthonormal(m *Dense, tol float64) bool {
	for i := 0; i < m.d; i++ {
		for j := i; j < m.d; j++ {
			var s float64
			for k := 0; k < m.d; k++ {
				s += m.At(k, i) * m.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(s-want) > tol {
				return false
			}
		}
	}
	return true
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I(3)[%d][%d] = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := Diagonal(2, 5, 9)
	if m.Dim() != 3 || m.At(0, 0) != 2 || m.At(1, 1) != 5 || m.At(2, 2) != 9 || m.At(0, 1) != 0 {
		t.Errorf("Diagonal built wrong matrix:\n%v", m)
	}
}

func TestFromRowsRejectsAsymmetric(t *testing.T) {
	_, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestFromRowsRejectsRagged(t *testing.T) {
	_, err := FromRows([][]float64{{1, 2}, {2}})
	if err == nil {
		t.Error("ragged matrix accepted")
	}
	_, err = FromRows(nil)
	if err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestSymmetricSetMirrors(t *testing.T) {
	m := NewSymmetric(2)
	m.Set(0, 1, 7)
	if m.At(1, 0) != 7 {
		t.Error("Set did not mirror the symmetric entry")
	}
}

func TestScaleAndAdd(t *testing.T) {
	m := paperSigma(1)
	s := m.Scale(10)
	if math.Abs(s.At(0, 0)-70) > 1e-12 {
		t.Errorf("Scale(10)[0][0] = %g, want 70", s.At(0, 0))
	}
	sum, err := m.Add(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.At(1, 1)-6) > 1e-12 {
		t.Errorf("Add[1][1] = %g, want 6", sum.At(1, 1))
	}
	if _, err := m.Add(Identity(3)); err == nil {
		t.Error("Add with dimension mismatch did not error")
	}
}

func TestAddScaledIdentity(t *testing.T) {
	m := Diagonal(1, 2)
	r := m.AddScaledIdentity(0.5)
	if r.At(0, 0) != 1.5 || r.At(1, 1) != 2.5 || r.At(0, 1) != 0 {
		t.Errorf("AddScaledIdentity wrong:\n%v", r)
	}
	// Original untouched.
	if m.At(0, 0) != 1 {
		t.Error("AddScaledIdentity mutated the receiver")
	}
}

func TestTrace(t *testing.T) {
	if got := paperSigma(10).Trace(); math.Abs(got-100) > 1e-12 {
		t.Errorf("Trace = %g, want 100", got)
	}
}

func TestMaxAbsOffDiag(t *testing.T) {
	m := MustFromRows([][]float64{{1, -5, 2}, {-5, 1, 3}, {2, 3, 1}})
	v, p, q := m.MaxAbsOffDiag()
	if v != 5 || p != 0 || q != 1 {
		t.Errorf("MaxAbsOffDiag = %g at (%d,%d), want 5 at (0,1)", v, p, q)
	}
}

func TestDenseColAndMulVec(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	if !slices.Equal(m.Col(1), Vector{2, 4}) {
		t.Errorf("Col(1) = %v", m.Col(1))
	}
	got := m.MulVec(Vector{1, 1})
	if !slices.Equal(got, Vector{3, 7}) {
		t.Errorf("MulVec = %v, want (3,7)", got)
	}
	tr := make(Vector, 2)
	m.MulVecTransTo(Vector{1, 1}, tr)
	if !slices.Equal(tr, Vector{4, 6}) {
		t.Errorf("MulVecTransTo = %v, want (4,6)", tr)
	}
}

func TestSymmetricEqual(t *testing.T) {
	a := paperSigma(1)
	b := paperSigma(1)
	if !a.Equal(b, 0) {
		t.Error("identical matrices not equal")
	}
	b.Set(0, 0, 7.1)
	if a.Equal(b, 1e-3) {
		t.Error("different matrices reported equal")
	}
	if a.Equal(Identity(3), 1e9) {
		t.Error("different-dim matrices reported equal")
	}
}

func TestSymmetricString(t *testing.T) {
	s := Diagonal(1, 2).String()
	if s == "" {
		t.Error("String returned empty")
	}
}

func TestNewSymmetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSymmetric(0) did not panic")
		}
	}()
	NewSymmetric(0)
}

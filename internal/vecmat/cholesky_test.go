package vecmat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestCholeskyIdentity(t *testing.T) {
	c, err := CholeskyDecompose(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(c.l[i*c.d+j]-want) > 1e-15 {
				t.Errorf("L[%d][%d] = %g, want %g", i, j, c.l[i*c.d+j], want)
			}
		}
	}
	if c.LogDet() != 0 {
		t.Errorf("LogDet = %g, want 0", c.LogDet())
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := CholeskyDecompose(Diagonal(1, -2)); err == nil {
		t.Error("indefinite matrix factored without error")
	}
	// Positive semidefinite but singular must also fail.
	if _, err := CholeskyDecompose(Diagonal(1, 0)); err == nil {
		t.Error("singular matrix factored without error")
	}
}

// Property: L·Lᵗ reconstructs the input for random SPD matrices.
func TestCholeskyReconstructProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(10)
		m := randomSPD(rng, d, 0.1, 30)
		c, err := CholeskyDecompose(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < d; i++ {
			for j := 0; j <= i; j++ {
				var s float64
				for k := 0; k <= j; k++ {
					s += c.l[i*d+k] * c.l[j*d+k]
				}
				if math.Abs(s-m.At(i, j)) > 1e-8*(1+math.Abs(m.At(i, j))) {
					t.Errorf("trial %d: (LLᵗ)[%d][%d] = %g, want %g", trial, i, j, s, m.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyDetMatchesEigen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(7)
		m := randomSPD(rng, d, 0.2, 10)
		c, err := CholeskyDecompose(m)
		if err != nil {
			t.Fatal(err)
		}
		det, err := m.Det()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c.LogDet()-math.Log(det)) > 1e-8 {
			t.Errorf("LogDet %g != log(det) %g", c.LogDet(), math.Log(det))
		}
	}
}

func TestCholeskyMulVecTo(t *testing.T) {
	m := Diagonal(4, 9)
	c, err := CholeskyDecompose(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make(Vector, 2)
	c.MulVecTo(Vector{1, 1}, out)
	if !slices.Equal(out, Vector{2, 3}) {
		t.Errorf("L·(1,1) = %v, want (2,3)", out)
	}
	if c.Dim() != 2 {
		t.Errorf("Dim = %d", c.Dim())
	}
}

// Property: sampling transform preserves covariance — empirical covariance of
// L·z over many standard normal z approaches M.
func TestCholeskySamplingCovariance(t *testing.T) {
	m := paperSigma(1)
	c, err := CholeskyDecompose(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	const n = 200000
	var s00, s01, s11 float64
	z := make(Vector, 2)
	x := make(Vector, 2)
	for i := 0; i < n; i++ {
		z[0], z[1] = rng.NormFloat64(), rng.NormFloat64()
		c.MulVecTo(z, x)
		s00 += x[0] * x[0]
		s01 += x[0] * x[1]
		s11 += x[1] * x[1]
	}
	s00 /= n
	s01 /= n
	s11 /= n
	if math.Abs(s00-7) > 0.15 || math.Abs(s01-2*math.Sqrt(3)) > 0.15 || math.Abs(s11-3) > 0.15 {
		t.Errorf("empirical covariance [[%g %g][%g %g]] far from Σ", s00, s01, s01, s11)
	}
}

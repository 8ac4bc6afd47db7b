package vecmat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix M = L·Lᵗ. It is the workhorse for sampling from N(q, Σ):
// if z ~ N(0, I) then q + L·z ~ N(q, Σ), which implements the importance
// sampling integrator of §V-A of the paper.
type Cholesky struct {
	d int
	l []float64 // row-major lower triangle (full d×d storage, upper = 0)
}

// CholeskyDecompose factors m = L·Lᵗ. It returns an error if m is not
// positive definite (within floating-point tolerance).
func CholeskyDecompose(m *Symmetric) (*Cholesky, error) {
	d := m.d
	c := &Cholesky{d: d, l: make([]float64, d*d)}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= c.l[i*d+k] * c.l[j*d+k]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("vecmat: matrix not positive definite at pivot %d (value %g)", i, sum)
				}
				c.l[i*d+j] = math.Sqrt(sum)
			} else {
				c.l[i*d+j] = sum / c.l[j*d+j]
			}
		}
	}
	return c, nil
}

// Dim returns the matrix dimension.
func (c *Cholesky) Dim() int { return c.d }

// LogDet returns log det M, numerically stable for small determinants that
// arise with narrow high-dimensional Gaussians (cf. the paper's Eq. 36–37
// discussion of tiny (λ∥)^{d/2}|Σ|^{1/2} values).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.d; i++ {
		s += math.Log(c.l[i*c.d+i])
	}
	return 2 * s
}

// MulVecTo writes L·z into dst and returns dst. dst must not alias z.
func (c *Cholesky) MulVecTo(z, dst Vector) Vector {
	for i := 0; i < c.d; i++ {
		var s float64
		row := c.l[i*c.d : i*c.d+i+1]
		for j, lij := range row {
			s += lij * z[j]
		}
		dst[i] = s
	}
	return dst
}

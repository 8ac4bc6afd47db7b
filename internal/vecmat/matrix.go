package vecmat

import (
	"fmt"
	"math"
	"strings"
)

// Symmetric is a dense d×d symmetric matrix stored in row-major order.
// Only construction enforces symmetry; mutating methods keep it symmetric.
//
// Covariance matrices of Gaussian query objects are the primary use. The
// zero value is unusable; construct with NewSymmetric or FromRows.
type Symmetric struct {
	d    int
	data []float64 // row-major, length d*d
}

// NewSymmetric returns the d×d zero matrix. It panics if d <= 0.
func NewSymmetric(d int) *Symmetric {
	if d <= 0 {
		panic(fmt.Sprintf("vecmat: invalid matrix dimension %d", d))
	}
	return &Symmetric{d: d, data: make([]float64, d*d)}
}

// Identity returns the d×d identity matrix.
func Identity(d int) *Symmetric {
	m := NewSymmetric(d)
	for i := 0; i < d; i++ {
		m.data[i*d+i] = 1
	}
	return m
}

// Diagonal returns the matrix diag(entries...).
func Diagonal(entries ...float64) *Symmetric {
	m := NewSymmetric(len(entries))
	for i, e := range entries {
		m.data[i*len(entries)+i] = e
	}
	return m
}

// FromRows builds a symmetric matrix from explicit rows. It returns an error
// if the rows are ragged, non-square, or not symmetric to within a relative
// tolerance of 1e-12.
func FromRows(rows [][]float64) (*Symmetric, error) {
	d := len(rows)
	if d == 0 {
		return nil, fmt.Errorf("vecmat: empty matrix")
	}
	m := NewSymmetric(d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimensionMismatch, i, len(r), d)
		}
		copy(m.data[i*d:(i+1)*d], r)
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			a, b := m.At(i, j), m.At(j, i)
			scale := math.Max(math.Abs(a), math.Abs(b))
			if math.Abs(a-b) > 1e-12*math.Max(scale, 1) {
				return nil, fmt.Errorf("vecmat: matrix not symmetric at (%d,%d): %g vs %g", i, j, a, b)
			}
			avg := (a + b) / 2
			m.Set(i, j, avg)
		}
	}
	return m, nil
}

// MustFromRows is FromRows that panics on error; intended for tests and
// literals that are known to be well-formed.
func MustFromRows(rows [][]float64) *Symmetric {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Dim returns the dimension d of the d×d matrix.
func (m *Symmetric) Dim() int { return m.d }

// At returns entry (i, j).
func (m *Symmetric) At(i, j int) float64 { return m.data[i*m.d+j] }

// Set assigns entry (i, j) and its mirror (j, i).
func (m *Symmetric) Set(i, j int, v float64) {
	m.data[i*m.d+j] = v
	m.data[j*m.d+i] = v
}

// Clone returns a deep copy of m.
func (m *Symmetric) Clone() *Symmetric {
	c := NewSymmetric(m.d)
	copy(c.data, m.data)
	return c
}

// Scale returns γ·m as a new matrix.
func (m *Symmetric) Scale(c float64) *Symmetric {
	out := NewSymmetric(m.d)
	for i, v := range m.data {
		out.data[i] = c * v
	}
	return out
}

// AddScaledIdentity returns m + κ·I as a new matrix. This implements the
// regularization Σ = Σ̃ + κI used by the paper's 9-D pseudo-feedback
// experiment (Eq. 35).
func (m *Symmetric) AddScaledIdentity(kappa float64) *Symmetric {
	out := m.Clone()
	for i := 0; i < m.d; i++ {
		out.data[i*m.d+i] += kappa
	}
	return out
}

// Add returns m + n as a new matrix.
func (m *Symmetric) Add(n *Symmetric) (*Symmetric, error) {
	if m.d != n.d {
		return nil, fmt.Errorf("%w: add %d×%[2]d and %d×%[3]d", ErrDimensionMismatch, m.d, n.d)
	}
	out := NewSymmetric(m.d)
	for i := range m.data {
		out.data[i] = m.data[i] + n.data[i]
	}
	return out, nil
}

// Trace returns the sum of diagonal entries.
func (m *Symmetric) Trace() float64 {
	var s float64
	for i := 0; i < m.d; i++ {
		s += m.data[i*m.d+i]
	}
	return s
}

// MaxAbsOffDiag returns the largest |entry| strictly above the diagonal,
// and its position. Used by the Jacobi sweep and by tests.
func (m *Symmetric) MaxAbsOffDiag() (max float64, p, q int) {
	p, q = 0, 1
	for i := 0; i < m.d; i++ {
		for j := i + 1; j < m.d; j++ {
			if a := math.Abs(m.At(i, j)); a > max {
				max, p, q = a, i, j
			}
		}
	}
	return max, p, q
}

// Equal reports whether m and n have the same dimension and all entries agree
// within tol.
func (m *Symmetric) Equal(n *Symmetric, tol float64) bool {
	if m.d != n.d {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix with one row per line.
func (m *Symmetric) String() string {
	var b strings.Builder
	for i := 0; i < m.d; i++ {
		b.WriteByte('[')
		for j := 0; j < m.d; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Dense is a general (not necessarily symmetric) d×d matrix used for
// eigenvector bases and coordinate transforms.
type Dense struct {
	d    int
	data []float64 // row-major
}

// NewDense returns a d×d zero general matrix.
func NewDense(d int) *Dense {
	if d <= 0 {
		panic(fmt.Sprintf("vecmat: invalid matrix dimension %d", d))
	}
	return &Dense{d: d, data: make([]float64, d*d)}
}

// DenseIdentity returns the d×d identity as a Dense matrix.
func DenseIdentity(d int) *Dense {
	m := NewDense(d)
	for i := 0; i < d; i++ {
		m.data[i*d+i] = 1
	}
	return m
}

// Dim returns the dimension of the matrix.
func (m *Dense) Dim() int { return m.d }

// At returns entry (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.d+j] }

// Set assigns entry (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.d+j] = v }

// Col returns column j as a new vector.
func (m *Dense) Col(j int) Vector {
	v := make(Vector, m.d)
	for i := 0; i < m.d; i++ {
		v[i] = m.At(i, j)
	}
	return v
}

// MulVec returns m·v as a new vector.
func (m *Dense) MulVec(v Vector) Vector {
	out := make(Vector, m.d)
	m.MulVecTo(v, out)
	return out
}

// MulVecTo writes m·v into dst and returns dst. dst must not alias v.
func (m *Dense) MulVecTo(v, dst Vector) Vector {
	for i := 0; i < m.d; i++ {
		row := m.data[i*m.d : (i+1)*m.d]
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		dst[i] = s
	}
	return dst
}

// MulVecTransTo writes mᵗ·v into dst and returns dst. For an orthonormal m
// this is the inverse transform. dst must not alias v.
func (m *Dense) MulVecTransTo(v, dst Vector) Vector {
	for j := 0; j < m.d; j++ {
		dst[j] = 0
	}
	for i := 0; i < m.d; i++ {
		row := m.data[i*m.d : (i+1)*m.d]
		vi := v[i]
		for j := range dst {
			dst[j] += row[j] * vi
		}
	}
	return dst
}

// SampleCovariance returns the (biased, 1/n) sample covariance matrix of the
// given points. The paper's 9-D pseudo-feedback experiment derives Σ̃ from
// the k-NN sample set this way (Eq. 35). At least two points are required.
func SampleCovariance(points []Vector) (*Symmetric, error) {
	n := len(points)
	if n < 2 {
		return nil, fmt.Errorf("vecmat: sample covariance needs ≥2 points, got %d", n)
	}
	d := points[0].Dim()
	mean := make(Vector, d)
	for _, p := range points {
		if p.Dim() != d {
			return nil, fmt.Errorf("%w: mixed dimensions in sample", ErrDimensionMismatch)
		}
		for j := range mean {
			mean[j] += p[j]
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := NewSymmetric(d)
	for _, p := range points {
		for i := 0; i < d; i++ {
			di := p[i] - mean[i]
			for j := i; j < d; j++ {
				cov.Set(i, j, cov.At(i, j)+di*(p[j]-mean[j]))
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov.Set(i, j, cov.At(i, j)/float64(n))
		}
	}
	return cov, nil
}

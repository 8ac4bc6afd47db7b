// Package vecmat provides the small, dependency-free dense linear algebra
// needed by Gaussian-based probabilistic range query processing: d-dimensional
// vectors, symmetric positive-definite matrices, Jacobi eigendecomposition,
// Cholesky factorization, inversion and determinants.
//
// The package is deliberately scoped to symmetric matrices of modest dimension
// (d is a spatial or feature-space dimensionality, typically 2–32), which is
// exactly the regime of the ICDE 2009 paper this repository reproduces. All
// operations are allocation-conscious: every function that produces a vector
// or matrix has a *To variant writing into caller-provided storage.
package vecmat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Vector is a dense d-dimensional vector of float64 components.
type Vector []float64

// ErrDimensionMismatch is returned (or wrapped) when operands have
// incompatible dimensions.
var ErrDimensionMismatch = errors.New("vecmat: dimension mismatch")

// NewVector returns a zero vector of dimension d. It panics if d <= 0.
func NewVector(d int) Vector {
	if d <= 0 {
		panic(fmt.Sprintf("vecmat: invalid vector dimension %d", d))
	}
	return make(Vector, d)
}

// Dim returns the dimensionality of the vector.
func (v Vector) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Sub returns v − w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// SubTo writes v − w into dst and returns dst. dst may alias v or w.
func (v Vector) SubTo(w, dst Vector) Vector {
	for i := range v {
		dst[i] = v[i] - w[i]
	}
	return dst
}

// Scale returns c·v as a new vector.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// Dot returns the inner product ⟨v, w⟩.
func (v Vector) Dot(w Vector) float64 {
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean length ‖v‖.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length ‖v‖².
func (v Vector) Norm2() float64 { return v.Dot(v) }

// Dist2 returns the squared Euclidean distance ‖v − w‖².
func (v Vector) Dist2(w Vector) float64 {
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// IsFinite reports whether every component is finite (no NaN or Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String renders the vector as "(x1, x2, …)" with %g formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(')')
	return b.String()
}

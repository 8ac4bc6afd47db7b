package vecmat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the spectral decomposition of a symmetric matrix:
//
//	M = E · diag(Values) · Eᵗ
//
// Values are sorted ascending and Vectors.Col(i) is the unit eigenvector for
// Values[i]. This mirrors Eq. (8) of the paper, where the eigensystem of Σ⁻¹
// drives both the oblique-region (OR) transform and the bounding-function
// (BF) radii λ∥ = min λᵢ and λ⊥ = max λᵢ.
type Eigen struct {
	Values  []float64 // ascending
	Vectors *Dense    // columns are eigenvectors, orthonormal
}

// ErrNotConverged is returned when the Jacobi iteration fails to reach the
// requested precision within its sweep budget. It indicates pathological
// input (e.g. NaN entries), not a tolerance issue for well-formed matrices.
var ErrNotConverged = errors.New("vecmat: Jacobi eigendecomposition did not converge")

// maxJacobiSweeps bounds the number of full Jacobi sweeps. Symmetric matrices
// of the dimensions used here (< 64) converge in well under 20 sweeps.
const maxJacobiSweeps = 64

// EigenDecompose computes the spectral decomposition of m using the cyclic
// Jacobi rotation method. The input is not modified.
//
// Jacobi is quadratically convergent and unconditionally stable for symmetric
// matrices, making it the right tool for the small covariance matrices that
// arise in spatial querying (d ≤ ~32); no stdlib-external LAPACK is needed.
func EigenDecompose(m *Symmetric) (*Eigen, error) {
	d := m.d
	a := m.Clone() // working copy, rotated toward diagonal
	e := DenseIdentity(d)

	if d == 1 {
		return &Eigen{Values: []float64{a.At(0, 0)}, Vectors: e}, nil
	}

	// Frobenius-norm based convergence threshold.
	var fro float64
	for _, v := range a.data {
		fro += v * v
	}
	fro = math.Sqrt(fro)
	if math.IsNaN(fro) || math.IsInf(fro, 0) {
		return nil, fmt.Errorf("vecmat: eigendecomposition of non-finite matrix")
	}
	tol := 1e-14 * math.Max(fro, 1)

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off, _, _ := a.MaxAbsOffDiag()
		if off <= tol {
			vals := make([]float64, d)
			for i := 0; i < d; i++ {
				vals[i] = a.At(i, i)
			}
			return sortEigen(vals, e), nil
		}
		for p := 0; p < d-1; p++ {
			for q := p + 1; q < d; q++ {
				jacobiRotate(a, e, p, q, tol)
			}
		}
	}
	return nil, ErrNotConverged
}

// jacobiRotate applies one Givens rotation zeroing a[p][q] (if it is above
// threshold), updating both the working matrix a and the accumulated
// eigenvector matrix e. The update formulas follow the classical symmetric
// Jacobi scheme (Numerical Recipes §11.1), which keeps the working matrix
// exactly symmetric.
func jacobiRotate(a *Symmetric, e *Dense, p, q int, tol float64) {
	apq := a.At(p, q)
	if math.Abs(apq) <= tol/float64(a.d*a.d) {
		return
	}
	app, aqq := a.At(p, p), a.At(q, q)
	// Stable computation of tan of the rotation angle.
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	tau := s / (1 + c)

	d := a.d
	a.Set(p, p, app-t*apq)
	a.Set(q, q, aqq+t*apq)
	a.Set(p, q, 0)
	for k := 0; k < d; k++ {
		if k == p || k == q {
			continue
		}
		akp, akq := a.At(k, p), a.At(k, q)
		a.Set(k, p, akp-s*(akq+tau*akp))
		a.Set(k, q, akq+s*(akp-tau*akq))
	}
	for k := 0; k < d; k++ {
		ekp, ekq := e.At(k, p), e.At(k, q)
		e.Set(k, p, ekp-s*(ekq+tau*ekp))
		e.Set(k, q, ekq+s*(ekp-tau*ekq))
	}
}

// sortEigen orders eigenpairs by ascending eigenvalue.
func sortEigen(vals []float64, vecs *Dense) *Eigen {
	d := len(vals)
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })

	outVals := make([]float64, d)
	outVecs := NewDense(d)
	for newCol, oldCol := range idx {
		outVals[newCol] = vals[oldCol]
		for r := 0; r < d; r++ {
			outVecs.Set(r, newCol, vecs.At(r, oldCol))
		}
	}
	return &Eigen{Values: outVals, Vectors: outVecs}
}

// MinValue returns the smallest eigenvalue.
func (e *Eigen) MinValue() float64 { return e.Values[0] }

// MaxValue returns the largest eigenvalue.
func (e *Eigen) MaxValue() float64 { return e.Values[len(e.Values)-1] }

// IsPositiveDefinite reports whether all eigenvalues exceed tol.
func (e *Eigen) IsPositiveDefinite(tol float64) bool {
	return e.Values[0] > tol
}

// Inverse returns m⁻¹ computed through the spectral decomposition, together
// with the determinant of m. It returns an error if m is singular or not
// positive definite (covariance matrices must be PD; Σ⁻¹ appears throughout
// the paper's Eq. (1), (5), (8)).
func (m *Symmetric) Inverse() (*Symmetric, float64, error) {
	eig, err := EigenDecompose(m)
	if err != nil {
		return nil, 0, err
	}
	det := 1.0
	for _, v := range eig.Values {
		det *= v
	}
	if !eig.IsPositiveDefinite(0) {
		return nil, det, fmt.Errorf("vecmat: matrix is not positive definite (min eigenvalue %g)", eig.MinValue())
	}
	d := m.d
	inv := NewSymmetric(d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			var s float64
			for k := 0; k < d; k++ {
				s += eig.Vectors.At(i, k) * eig.Vectors.At(j, k) / eig.Values[k]
			}
			inv.Set(i, j, s)
		}
	}
	return inv, det, nil
}

// Det returns the determinant of m via eigendecomposition.
func (m *Symmetric) Det() (float64, error) {
	eig, err := EigenDecompose(m)
	if err != nil {
		return 0, err
	}
	det := 1.0
	for _, v := range eig.Values {
		det *= v
	}
	return det, nil
}

// Package kalman implements the linear-Gaussian localization filter that
// produces the paper's query objects: the robot-localization scenario of
// §I (Example 1) models a moving object's position belief as a Gaussian
// maintained by Kalman prediction (odometry with additive noise) and
// correction (position fixes), exactly the posterior family this filter
// tracks. The filter's state (mean, covariance) plugs directly into
// core.Query as the PRQ query object.
//
// The model is the position-tracking special case — identity dynamics and
// identity measurement — which keeps every matrix symmetric positive
// definite:
//
//	predict:  x ← x + u,        P ← P + Q
//	update:   K = P·(P + R)⁻¹,  x ← x + K(z − x),  P ← (I − K)·P
package kalman

import (
	"errors"
	"fmt"

	"gaussrange/internal/vecmat"
)

// Filter is a Gaussian position belief N(mean, cov) under identity dynamics.
// It is not safe for concurrent use.
type Filter struct {
	mean vecmat.Vector
	cov  *vecmat.Symmetric
	dim  int
}

// New returns a filter initialized to the given belief. The covariance must
// be symmetric positive definite.
func New(mean vecmat.Vector, cov *vecmat.Symmetric) (*Filter, error) {
	if mean.Dim() != cov.Dim() {
		return nil, fmt.Errorf("kalman: mean dim %d vs cov dim %d", mean.Dim(), cov.Dim())
	}
	if !mean.IsFinite() {
		return nil, errors.New("kalman: non-finite initial mean")
	}
	eig, err := vecmat.EigenDecompose(cov)
	if err != nil {
		return nil, err
	}
	if !eig.IsPositiveDefinite(0) {
		return nil, fmt.Errorf("kalman: initial covariance not positive definite (min eigenvalue %g)", eig.MinValue())
	}
	return &Filter{mean: mean.Clone(), cov: cov.Clone(), dim: mean.Dim()}, nil
}

// Mean returns the current belief mean (caller must not mutate).
func (f *Filter) Mean() vecmat.Vector { return f.mean }

// Cov returns the current belief covariance (caller must not mutate).
func (f *Filter) Cov() *vecmat.Symmetric { return f.cov }

// Predict advances the belief by a motion command u with process noise Q:
// odometry moves the mean and inflates the covariance.
func (f *Filter) Predict(u vecmat.Vector, q *vecmat.Symmetric) error {
	if u.Dim() != f.dim || q.Dim() != f.dim {
		return fmt.Errorf("kalman: predict dims (%d, %d) vs state dim %d", u.Dim(), q.Dim(), f.dim)
	}
	for i := range f.mean {
		f.mean[i] += u[i]
	}
	cov, err := f.cov.Add(q)
	if err != nil {
		return err
	}
	f.cov = cov
	return nil
}

// Update incorporates a direct position measurement z with noise covariance
// R, shrinking the belief toward the measurement.
func (f *Filter) Update(z vecmat.Vector, r *vecmat.Symmetric) error {
	if z.Dim() != f.dim || r.Dim() != f.dim {
		return fmt.Errorf("kalman: update dims (%d, %d) vs state dim %d", z.Dim(), r.Dim(), f.dim)
	}
	// Innovation covariance S = P + R and its inverse.
	s, err := f.cov.Add(r)
	if err != nil {
		return err
	}
	sInv, _, err := s.Inverse()
	if err != nil {
		return fmt.Errorf("kalman: innovation covariance singular: %w", err)
	}

	d := f.dim
	// Gain K = P·S⁻¹ (a general matrix).
	k := vecmat.NewDense(d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var sum float64
			for l := 0; l < d; l++ {
				sum += f.cov.At(i, l) * sInv.At(l, j)
			}
			k.Set(i, j, sum)
		}
	}

	// Mean update: x += K(z − x).
	innov := z.Sub(f.mean)
	corr := k.MulVec(innov)
	for i := range f.mean {
		f.mean[i] += corr[i]
	}

	// Covariance update: P ← (I − K)·P, re-symmetrized against rounding.
	newCov := vecmat.NewSymmetric(d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			var sum float64
			for l := 0; l < d; l++ {
				ik := k.At(i, l)
				if l == i {
					ik = ik - 1 // (K − I) entry; negate below
				}
				sum -= ik * f.cov.At(l, j)
			}
			// Average with the transposed computation for exact symmetry.
			var sumT float64
			for l := 0; l < d; l++ {
				jk := k.At(j, l)
				if l == j {
					jk = jk - 1
				}
				sumT -= jk * f.cov.At(l, i)
			}
			newCov.Set(i, j, (sum+sumT)/2)
		}
	}
	f.cov = newCov
	return nil
}

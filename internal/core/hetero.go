package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gaussrange/internal/geom"
	"gaussrange/internal/quadform"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// HeteroIndex extends an Index with per-object location uncertainty: each
// stored point is the mean of a Gaussian with its own covariance. This is
// the paper's §VII future work — "extend the framework to environments
// where the target objects also have uncertain locations" — in its general
// (heteroscedastic) form.
//
// The key fact making the query exact is that for independent Gaussians
// x ~ N(q, Σq) and y ~ N(o, Σo), the difference x − y is Gaussian
// N(q − o, Σq + Σo), so the qualification probability
// Pr(‖x − y‖ ≤ δ) is again a positive quadratic form CDF, evaluated by
// Ruben's series with the summed covariance.
type HeteroIndex struct {
	idx      *Index
	covs     []*vecmat.Symmetric
	maxEig   float64 // largest eigenvalue over all object covariances
	maxTrace float64
}

// NewHeteroIndex builds an uncertain-target collection. covs[i] is the
// location covariance of points[i]; a nil entry means the point is exact
// (zero covariance).
func NewHeteroIndex(points []vecmat.Vector, covs []*vecmat.Symmetric, dim int) (*HeteroIndex, error) {
	if len(covs) != len(points) {
		return nil, fmt.Errorf("core: %d points but %d covariances", len(points), len(covs))
	}
	idx, err := NewIndex(points, dim)
	if err != nil {
		return nil, err
	}
	h := &HeteroIndex{idx: idx, covs: make([]*vecmat.Symmetric, len(covs))}
	for i, c := range covs {
		if c == nil {
			continue
		}
		if c.Dim() != dim {
			return nil, fmt.Errorf("core: covariance %d has dim %d, want %d", i, c.Dim(), dim)
		}
		eig, err := vecmat.EigenDecompose(c)
		if err != nil {
			return nil, fmt.Errorf("core: covariance %d: %w", i, err)
		}
		if eig.MinValue() < 0 {
			return nil, fmt.Errorf("core: covariance %d is not positive semidefinite (min eigenvalue %g)", i, eig.MinValue())
		}
		h.covs[i] = c.Clone()
		if eig.MaxValue() > h.maxEig {
			h.maxEig = eig.MaxValue()
		}
		if tr := c.Trace(); tr > h.maxTrace {
			h.maxTrace = tr
		}
	}
	return h, nil
}

// Len returns the number of stored objects.
func (h *HeteroIndex) Len() int { return h.idx.Len() }

// Dim returns the dimensionality.
func (h *HeteroIndex) Dim() int { return h.idx.Dim() }

// HeteroResult is the outcome of an uncertain-target query.
type HeteroResult struct {
	IDs          []int64
	Retrieved    int
	Integrations int
	Duration     time.Duration
}

// Search answers PRQ(q, Σq, δ, θ) against uncertain targets: every object o
// with Pr(‖x − y_o‖ ≤ δ) ≥ θ, where y_o ~ N(o, Σo).
//
// Phase 1 uses a provably conservative rectilinear region: the θ-region box
// of the inflated covariance Σq + λmax·I (λmax the largest eigenvalue over
// all object covariances) expanded by δ. Because (Σq + Σo)ᵢᵢ ≤ (Σq + λmax·I)ᵢᵢ
// for every object, each per-object RR box is contained in the inflated box,
// so no qualifying object can escape it (Property 2 of the paper applied
// object-wise). Phase 3 evaluates each survivor exactly with its own summed
// covariance.
func (h *HeteroIndex) Search(q Query) (*HeteroResult, error) {
	return h.SearchCtx(context.Background(), q)
}

// SearchCtx is Search with cancellation: a cancelled ctx aborts Phase 3
// between candidates and returns ctx.Err().
func (h *HeteroIndex) SearchCtx(ctx context.Context, q Query) (*HeteroResult, error) {
	if err := q.Validate(h.Dim()); err != nil {
		return nil, err
	}
	start := time.Now()

	// Inflated covariance for the conservative Phase-1 region.
	inflated := q.Dist.Cov().AddScaledIdentity(h.maxEig + 1e-12)
	thetaEff := math.Min(q.Theta, 0.4999)
	rT, err := stats.SphereRadiusForMass(h.Dim(), 1-2*thetaEff)
	if err != nil {
		return nil, err
	}
	hw := make(vecmat.Vector, h.Dim())
	for i := range hw {
		hw[i] = math.Sqrt(inflated.At(i, i))*rT + q.Delta
	}
	box, err := geom.RectAround(q.Dist.Mean(), hw)
	if err != nil {
		return nil, err
	}
	type candidate struct {
		id int64
		o  vecmat.Vector
	}
	var candidates []candidate
	err = h.idx.Current().searchRect(box, func(id int64, o vecmat.Vector) {
		candidates = append(candidates, candidate{id, o})
	})
	if err != nil {
		return nil, err
	}

	res := &HeteroResult{Retrieved: len(candidates)}
	done := ctx.Done()
	for _, c := range candidates {
		if stopped(done) {
			return nil, ctx.Err()
		}
		p, err := h.qualification(q, c.id, c.o)
		if err != nil {
			return nil, err
		}
		res.Integrations++
		if p >= q.Theta {
			res.IDs = append(res.IDs, c.id)
		}
	}
	sortIDs(res.IDs)
	res.Duration = time.Since(start)
	return res, nil
}

// Qualification returns the exact probability that object id lies within
// distance δ of the query object, both locations being Gaussian.
func (h *HeteroIndex) Qualification(q Query, id int64) (float64, error) {
	o, err := h.idx.Point(id)
	if err != nil {
		return 0, err
	}
	return h.qualification(q, id, o)
}

// qualification is Qualification for object id at o.
func (h *HeteroIndex) qualification(q Query, id int64, o vecmat.Vector) (float64, error) {
	cov := q.Dist.Cov()
	if oc := h.covs[id]; oc != nil {
		var err error
		cov, err = cov.Add(oc)
		if err != nil {
			return 0, err
		}
	}
	eig, err := vecmat.EigenDecompose(cov)
	if err != nil {
		return 0, err
	}
	if eig.MinValue() <= 0 {
		return 0, errors.New("core: degenerate summed covariance")
	}
	// Offset in the eigenbasis of the summed covariance.
	diff := q.Dist.Mean().Sub(o)
	u := make(vecmat.Vector, h.Dim())
	eig.Vectors.MulVecTransTo(diff, u)
	b := make([]float64, h.Dim())
	for j := range b {
		b[j] = u[j] / math.Sqrt(eig.Values[j])
	}
	return quadform.RubenCDF(eig.Values, b, q.Delta*q.Delta)
}

// BruteForce evaluates every object (reference implementation for tests).
func (h *HeteroIndex) BruteForce(q Query) ([]int64, error) {
	if err := q.Validate(h.Dim()); err != nil {
		return nil, err
	}
	var ids []int64
	for id := int64(0); id < int64(h.Len()); id++ {
		p, err := h.Qualification(q, id)
		if err != nil {
			return nil, err
		}
		if p >= q.Theta {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// UncertainObject couples a mean location with its covariance, for
// convenience construction.
type UncertainObject struct {
	Mean vecmat.Vector
	Cov  *vecmat.Symmetric // nil = exact location
}

// NewHeteroIndexFromObjects builds a HeteroIndex from object structs.
func NewHeteroIndexFromObjects(objs []UncertainObject, dim int) (*HeteroIndex, error) {
	pts := make([]vecmat.Vector, len(objs))
	covs := make([]*vecmat.Symmetric, len(objs))
	for i, o := range objs {
		pts[i] = o.Mean
		covs[i] = o.Cov
	}
	return NewHeteroIndex(pts, covs, dim)
}

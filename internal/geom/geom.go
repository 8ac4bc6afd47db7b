// Package geom provides the d-dimensional axis-aligned geometry used by the
// query processing strategies: rectangles (R-tree node regions and search
// boxes) and Minkowski-sum regions — a box
// expanded by a δ-ball, whose fringe (bounding-box corners outside the
// rounded region, the black areas of the paper's Fig. 4) can be filtered
// exactly in any dimension via clamped point-to-box distance.
package geom

import (
	"fmt"
	"math"

	"gaussrange/internal/vecmat"
)

// Rect is a closed axis-aligned box [Lo, Hi] in d dimensions.
// Lo[i] ≤ Hi[i] must hold for all i.
type Rect struct {
	Lo, Hi vecmat.Vector
}

// RectAround returns the box centered at c with the given half-widths.
func RectAround(c vecmat.Vector, halfWidths vecmat.Vector) (Rect, error) {
	if c.Dim() != halfWidths.Dim() {
		return Rect{}, fmt.Errorf("geom: center dim %d vs half-width dim %d: %w", c.Dim(), halfWidths.Dim(), vecmat.ErrDimensionMismatch)
	}
	lo := make(vecmat.Vector, c.Dim())
	hi := make(vecmat.Vector, c.Dim())
	for i := range c {
		if halfWidths[i] < 0 {
			return Rect{}, fmt.Errorf("geom: negative half-width %g on axis %d", halfWidths[i], i)
		}
		lo[i] = c[i] - halfWidths[i]
		hi[i] = c[i] + halfWidths[i]
	}
	return Rect{Lo: lo, Hi: hi}, nil
}

// PointRect returns the degenerate box containing exactly p.
func PointRect(p vecmat.Vector) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// Dim returns the dimensionality of the box.
func (r Rect) Dim() int { return r.Lo.Dim() }

// Contains reports whether p lies inside the closed box.
func (r Rect) Contains(p vecmat.Vector) bool {
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other lies entirely inside r.
func (r Rect) ContainsRect(other Rect) bool {
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] || other.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the closed boxes overlap.
func (r Rect) Intersects(other Rect) bool {
	for i := range r.Lo {
		if other.Hi[i] < r.Lo[i] || other.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Volume returns the product of side lengths (area for d=2).
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// UnionInPlace grows r to cover other, avoiding allocation.
func (r *Rect) UnionInPlace(other Rect) {
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] {
			r.Lo[i] = other.Lo[i]
		}
		if other.Hi[i] > r.Hi[i] {
			r.Hi[i] = other.Hi[i]
		}
	}
}

// Expand returns the box grown by delta on every side (the Minkowski sum
// bounding box used by Phase 1 of the RR strategy).
func (r Rect) Expand(delta float64) Rect {
	lo := make(vecmat.Vector, r.Dim())
	hi := make(vecmat.Vector, r.Dim())
	for i := range lo {
		lo[i] = r.Lo[i] - delta
		hi[i] = r.Hi[i] + delta
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dist2 returns the squared Euclidean distance from p to the box (0 when p
// is inside): the clamped point-to-box distance.
func (r Rect) Dist2(p vecmat.Vector) float64 {
	var s float64
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// String renders the rect as "[lo; hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v; %v]", r.Lo, r.Hi)
}

// MinkowskiRegion is the Minkowski sum of a box and a δ-ball: the rounded
// box of the paper's Fig. 4. Membership is exact in every dimension via the
// clamped distance test dist(p, box) ≤ δ, which subsumes the paper's
// d=2-only fringe filter.
type MinkowskiRegion struct {
	Box   Rect
	Delta float64
}

// NewMinkowskiRegion validates and returns the region.
func NewMinkowskiRegion(box Rect, delta float64) (MinkowskiRegion, error) {
	if delta < 0 {
		return MinkowskiRegion{}, fmt.Errorf("geom: negative Minkowski delta %g", delta)
	}
	return MinkowskiRegion{Box: box.Clone(), Delta: delta}, nil
}

// Contains reports whether p lies in box ⊕ ball(δ).
func (m MinkowskiRegion) Contains(p vecmat.Vector) bool {
	return m.Box.Dist2(p) <= m.Delta*m.Delta
}

// BoundingRect returns the box expanded by δ.
func (m MinkowskiRegion) BoundingRect() Rect {
	return m.Box.Expand(m.Delta)
}

// Volume returns the exact volume of the rounded box for d ≤ 3 and the
// Steiner-formula volume in general dimension d:
//
//	vol(K ⊕ B_δ) = Σ_{k=0}^{d} V_k(box)·κ_k·δ^k
//
// where for a box the intrinsic volumes V_k are elementary symmetric
// polynomials of the side lengths and κ_k is the k-ball volume.
func (m MinkowskiRegion) Volume() float64 {
	d := m.Box.Dim()
	sides := make([]float64, d)
	for i := range sides {
		sides[i] = m.Box.Hi[i] - m.Box.Lo[i]
	}
	// Elementary symmetric polynomials e_0..e_d of the side lengths.
	e := make([]float64, d+1)
	e[0] = 1
	for _, s := range sides {
		for k := d; k >= 1; k-- {
			e[k] += e[k-1] * s
		}
	}
	var vol float64
	for k := 0; k <= d; k++ {
		// V_{d−k}(box) = e_{d−k}; κ_k·δ^k term.
		kk := float64(k)
		lg, _ := math.Lgamma(kk/2 + 1)
		ballVol := math.Exp(kk/2*math.Log(math.Pi) - lg)
		vol += e[d-k] * ballVol * math.Pow(m.Delta, kk)
	}
	return vol
}

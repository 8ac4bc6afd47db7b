// Package ucatalog implements the paper's U-catalog: precomputed lookup
// tables that replace runtime numerical inversion of Gaussian integrals.
//
// Two tables are defined:
//
//   - RCatalog maps a probability threshold θ to the θ-region radius rθ of
//     Definition 5 (used by the RR and OR strategies). The paper builds it by
//     offline numerical integration; here construction uses the exact inverse
//     incomplete gamma, and lookup applies the paper's conservative fallback:
//     the entry with the largest θ* ≤ θ is used, which yields rθ* ≥ rθ and
//     therefore never loses an answer (Algorithm 1, line 4).
//
//   - BFCatalog maps (δ, θ) to the offset α at which a δ-sphere captures
//     exactly mass θ of the normalized Gaussian (Eq. 21). Lookups apply the
//     conservative rules of Eqs. (32) and (33): for the pruning radius α∥ the
//     next-larger entry is returned; for the acceptance radius α⊥ the
//     next-smaller entry.
//
// Both tables are immutable after construction and safe for concurrent use.
package ucatalog

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gaussrange/internal/stats"
)

// ErrNoEntry is returned when no catalog entry satisfies the conservative
// lookup constraint.
var ErrNoEntry = errors.New("ucatalog: no entry satisfies the lookup constraint")

// RCatalog is the θ → rθ table for one dimensionality.
type RCatalog struct {
	dim    int
	thetas []float64 // ascending
	radii  []float64 // radii[i] = rθ(thetas[i]); descending since rθ falls with θ
}

// DefaultThetaGrid returns the θ values used to build catalogs when the
// caller does not supply a grid: a log-spaced grid from 1e-6 to 0.499
// (64 entries), dense enough that conservative lookup costs at most a few
// additional candidates.
func DefaultThetaGrid() []float64 {
	const n = 64
	grid := make([]float64, 0, n)
	lo, hi := math.Log(1e-6), math.Log(0.499)
	for i := 0; i < n; i++ {
		grid = append(grid, math.Exp(lo+(hi-lo)*float64(i)/float64(n-1)))
	}
	return grid
}

// NewRCatalog builds the θ-region radius table for dimension d over the
// given θ grid (defaulting to DefaultThetaGrid when nil). Grid values must
// lie in (0, ½).
func NewRCatalog(d int, thetaGrid []float64) (*RCatalog, error) {
	if d <= 0 {
		return nil, fmt.Errorf("ucatalog: invalid dimension %d", d)
	}
	if thetaGrid == nil {
		thetaGrid = DefaultThetaGrid()
	}
	grid := append([]float64(nil), thetaGrid...)
	sort.Float64s(grid)
	c := &RCatalog{dim: d}
	for _, th := range grid {
		if th <= 0 || th >= 0.5 {
			return nil, fmt.Errorf("ucatalog: θ grid value %g outside (0, 1/2)", th)
		}
		r, err := stats.SphereRadiusForMass(d, 1-2*th)
		if err != nil {
			return nil, err
		}
		c.thetas = append(c.thetas, th)
		c.radii = append(c.radii, r)
	}
	if len(c.thetas) == 0 {
		return nil, errors.New("ucatalog: empty θ grid")
	}
	return c, nil
}

// Dim returns the dimensionality the catalog was built for.
func (c *RCatalog) Dim() int { return c.dim }

// Len returns the number of entries.
func (c *RCatalog) Len() int { return len(c.thetas) }

// Lookup returns the conservative radius rθ* for the requested θ: the entry
// with the largest θ* ≤ θ. Because rθ decreases with θ, the returned radius
// is never smaller than the exact rθ, so the search region can only grow.
// ErrNoEntry is returned when every entry exceeds θ.
func (c *RCatalog) Lookup(theta float64) (float64, error) {
	if theta <= 0 || theta >= 0.5 {
		return 0, fmt.Errorf("ucatalog: θ = %g outside (0, 1/2)", theta)
	}
	// First index with thetas[i] > theta; the entry before it is θ*.
	i := sort.SearchFloat64s(c.thetas, math.Nextafter(theta, 1))
	if i == 0 {
		return 0, fmt.Errorf("%w: θ = %g below smallest entry %g", ErrNoEntry, theta, c.thetas[0])
	}
	return c.radii[i-1], nil
}

// BFEntry is one (δ, θ, α) row of the bounding-function catalog.
type BFEntry struct {
	Delta float64 // sphere radius in normalized space
	Theta float64 // probability mass captured
	Alpha float64 // center offset achieving exactly that mass
}

// BFCatalog is the (δ, θ) → α table for one dimensionality.
type BFCatalog struct {
	dim     int
	entries []BFEntry // sorted by (Delta, Theta)
}

// DefaultDeltaGrid returns a log-spaced δ grid from 0.01 to 100 with 48
// entries, covering the normalized radii √λ·δ that arise for the
// experiments' parameter ranges.
func DefaultDeltaGrid() []float64 {
	const n = 48
	grid := make([]float64, 0, n)
	lo, hi := math.Log(0.01), math.Log(100.0)
	for i := 0; i < n; i++ {
		grid = append(grid, math.Exp(lo+(hi-lo)*float64(i)/float64(n-1)))
	}
	return grid
}

// DefaultBFThetaGrid returns a log-spaced probability grid from 1e-8 to
// 0.999. BF lookups scale θ by (λ)^{d/2}|Σ|^{1/2}, which can push the target
// mass far below any θ a user would write, hence the deep lower end.
func DefaultBFThetaGrid() []float64 {
	const n = 56
	grid := make([]float64, 0, n)
	lo, hi := math.Log(1e-8), math.Log(0.999)
	for i := 0; i < n; i++ {
		grid = append(grid, math.Exp(lo+(hi-lo)*float64(i)/float64(n-1)))
	}
	return grid
}

// NewBFCatalog builds the (δ, θ, α) table for dimension d over the given
// grids (nil selects the defaults). Grid combinations for which no α exists
// — the sphere cannot capture mass θ even when centered at the origin — are
// skipped, mirroring the paper's observation that an internal "hole" may not
// exist (discussion around Eq. 37).
func NewBFCatalog(d int, deltaGrid, thetaGrid []float64) (*BFCatalog, error) {
	if d <= 0 {
		return nil, fmt.Errorf("ucatalog: invalid dimension %d", d)
	}
	if deltaGrid == nil {
		deltaGrid = DefaultDeltaGrid()
	}
	if thetaGrid == nil {
		thetaGrid = DefaultBFThetaGrid()
	}
	dg := append([]float64(nil), deltaGrid...)
	tg := append([]float64(nil), thetaGrid...)
	sort.Float64s(dg)
	sort.Float64s(tg)

	c := &BFCatalog{dim: d}
	for _, delta := range dg {
		if delta <= 0 {
			return nil, fmt.Errorf("ucatalog: δ grid value %g must be positive", delta)
		}
		for _, th := range tg {
			if th <= 0 || th >= 1 {
				return nil, fmt.Errorf("ucatalog: probability grid value %g outside (0, 1)", th)
			}
			nc, err := stats.NoncentralityForCDF(float64(d), delta*delta, th)
			if errors.Is(err, stats.ErrNoSolution) {
				continue
			}
			if err != nil {
				return nil, err
			}
			c.entries = append(c.entries, BFEntry{Delta: delta, Theta: th, Alpha: math.Sqrt(nc)})
		}
	}
	if len(c.entries) == 0 {
		return nil, errors.New("ucatalog: empty BF catalog")
	}
	return c, nil
}

// Dim returns the dimensionality the catalog was built for.
func (c *BFCatalog) Dim() int { return c.dim }

// Len returns the number of (δ, θ, α) entries.
func (c *BFCatalog) Len() int { return len(c.entries) }

// LookupUpper implements Eq. (32): the conservative pruning offset
//
//	β∥* = min{ α | (δ', θ', α) ∈ U ∧ δ' ≥ δ ∧ θ' ≤ θ }.
//
// Every admissible entry has α ≥ the exact α(δ, θ), so the minimum is the
// tightest safe over-approximation. ErrNoEntry when no entry qualifies.
func (c *BFCatalog) LookupUpper(delta, theta float64) (float64, error) {
	if delta <= 0 || theta <= 0 || theta >= 1 {
		return 0, fmt.Errorf("ucatalog: invalid BF lookup (δ=%g, θ=%g)", delta, theta)
	}
	best := math.Inf(1)
	for _, e := range c.entries {
		if e.Delta >= delta && e.Theta <= theta && e.Alpha < best {
			best = e.Alpha
		}
	}
	if math.IsInf(best, 1) {
		return 0, ErrNoEntry
	}
	return best, nil
}

// LookupLower implements Eq. (33): the conservative acceptance offset
//
//	β⊥* = max{ α | (δ', θ', α) ∈ U ∧ δ' ≤ δ ∧ θ' ≥ θ }.
//
// Every admissible entry has α ≤ the exact α(δ, θ), so acceptance within the
// returned radius is always safe. ErrNoEntry when no entry qualifies.
func (c *BFCatalog) LookupLower(delta, theta float64) (float64, error) {
	if delta <= 0 || theta <= 0 || theta >= 1 {
		return 0, fmt.Errorf("ucatalog: invalid BF lookup (δ=%g, θ=%g)", delta, theta)
	}
	best := math.Inf(-1)
	found := false
	for _, e := range c.entries {
		if e.Delta <= delta && e.Theta >= theta && e.Alpha > best {
			best = e.Alpha
			found = true
		}
	}
	if !found {
		return 0, ErrNoEntry
	}
	return best, nil
}

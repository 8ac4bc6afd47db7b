// Package gauss models the d-dimensional Gaussian query-object distribution
// of Definition 1 of the paper:
//
//	p_q(x) = (2π)^{−d/2} |Σ|^{−1/2} · exp(−½ (x−q)ᵗ Σ⁻¹ (x−q)),
//
// together with the derived quantities that drive the three filtering
// strategies: the eigensystem of Σ⁻¹ (OR), per-axis standard deviations σᵢ
// (RR), the spherical bounding functions p∥/p⊥ (BF, Definition 6), and exact
// θ-region radii (Definition 3/5).
package gauss

import (
	"fmt"
	"math"

	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// NormalSource yields standard normal variates; *math/rand.Rand and the
// deterministic generator in internal/mc both satisfy it.
type NormalSource interface {
	NormFloat64() float64
}

// Dist is an immutable d-dimensional Gaussian N(q, Σ). Construct with New;
// all derived factorizations are computed once up front so queries pay no
// per-candidate decomposition cost.
type Dist struct {
	mean vecmat.Vector
	cov  *vecmat.Symmetric

	inv        *vecmat.Symmetric // Σ⁻¹
	det        float64           // |Σ|
	logDet     float64           // log |Σ|
	chol       *vecmat.Cholesky  // Σ = L·Lᵗ, for sampling
	eigCov     *vecmat.Eigen     // eigensystem of Σ (ascending)
	logNorm    float64           // log of (2π)^{−d/2}|Σ|^{−1/2}
	lambdaPar  float64           // λ∥ = min eigenvalue of Σ⁻¹ (paper Eq. 9)
	lambdaPerp float64           // λ⊥ = max eigenvalue of Σ⁻¹ (paper Eq. 10)
}

// New constructs the Gaussian N(mean, cov). It returns an error unless cov is
// symmetric positive definite and dimensions agree.
func New(mean vecmat.Vector, cov *vecmat.Symmetric) (*Dist, error) {
	d := mean.Dim()
	if cov.Dim() != d {
		return nil, fmt.Errorf("gauss: mean dim %d vs cov dim %d: %w", d, cov.Dim(), vecmat.ErrDimensionMismatch)
	}
	if !mean.IsFinite() {
		return nil, fmt.Errorf("gauss: non-finite mean %v", mean)
	}
	chol, err := vecmat.CholeskyDecompose(cov)
	if err != nil {
		return nil, fmt.Errorf("gauss: covariance must be positive definite: %w", err)
	}
	inv, det, err := cov.Inverse()
	if err != nil {
		return nil, err
	}
	eig, err := vecmat.EigenDecompose(cov)
	if err != nil {
		return nil, err
	}
	logDet := chol.LogDet()
	g := &Dist{
		mean:    mean.Clone(),
		cov:     cov.Clone(),
		inv:     inv,
		det:     det,
		logDet:  logDet,
		chol:    chol,
		eigCov:  eig,
		logNorm: -0.5*float64(d)*math.Log(2*math.Pi) - 0.5*logDet,
		// Eigenvalues of Σ⁻¹ are reciprocals of those of Σ:
		// λ∥ = min λᵢ(Σ⁻¹) = 1/max λᵢ(Σ);  λ⊥ = max λᵢ(Σ⁻¹) = 1/min λᵢ(Σ).
		lambdaPar:  1 / eig.MaxValue(),
		lambdaPerp: 1 / eig.MinValue(),
	}
	return g, nil
}

// WithMean returns a distribution with the same covariance Σ but a new mean.
// All Σ-derived factorizations (Cholesky, inverse, eigensystem) are shared
// with the receiver, so rebinding a mean costs O(d) — this is what lets a
// compiled query plan follow a moving query object without re-decomposing Σ.
func (g *Dist) WithMean(mean vecmat.Vector) (*Dist, error) {
	if mean.Dim() != g.Dim() {
		return nil, fmt.Errorf("gauss: mean dim %d vs cov dim %d: %w", mean.Dim(), g.Dim(), vecmat.ErrDimensionMismatch)
	}
	if !mean.IsFinite() {
		return nil, fmt.Errorf("gauss: non-finite mean %v", mean)
	}
	out := *g
	out.mean = mean.Clone()
	return &out, nil
}

// Normalized returns the d-dimensional standard Gaussian N(0, I) of
// Definition 4.
func Normalized(d int) *Dist {
	g, err := New(vecmat.NewVector(d), vecmat.Identity(d))
	if err != nil {
		panic(err) // identity covariance cannot fail
	}
	return g
}

// Dim returns the dimensionality d.
func (g *Dist) Dim() int { return g.mean.Dim() }

// Mean returns the distribution mean q (caller must not mutate).
func (g *Dist) Mean() vecmat.Vector { return g.mean }

// Cov returns the covariance Σ (caller must not mutate).
func (g *Dist) Cov() *vecmat.Symmetric { return g.cov }

// Det returns |Σ|.
func (g *Dist) Det() float64 { return g.det }

// LogDet returns log |Σ|.
func (g *Dist) LogDet() float64 { return g.logDet }

// LambdaPar returns λ∥, the smallest eigenvalue of Σ⁻¹ (Eq. 9). It scales
// the upper bounding function p∥.
func (g *Dist) LambdaPar() float64 { return g.lambdaPar }

// LambdaPerp returns λ⊥, the largest eigenvalue of Σ⁻¹ (Eq. 10). It scales
// the lower bounding function p⊥.
func (g *Dist) LambdaPerp() float64 { return g.lambdaPerp }

// SigmaAxis returns σᵢ = √(Σ)ᵢᵢ, the marginal standard deviation along
// coordinate axis i (Property 2, Eq. 17).
func (g *Dist) SigmaAxis(i int) float64 { return math.Sqrt(g.cov.At(i, i)) }

// EigenBasis returns the orthonormal matrix E = [v₁ … v_d] whose columns are
// eigenvectors of Σ (equivalently of Σ⁻¹), ordered by ascending eigenvalue
// of Σ. Used by the OR transform y = Eᵗ(x − q) (Property 3).
func (g *Dist) EigenBasis() *vecmat.Dense { return g.eigCov.Vectors }

// EigenValuesCov returns the ascending eigenvalues of Σ; entry i pairs with
// EigenBasis column i. The paper's λᵢ (eigenvalues of Σ⁻¹) are their
// reciprocals.
func (g *Dist) EigenValuesCov() []float64 { return g.eigCov.Values }

// Mahalanobis2 returns (x−q)ᵗ Σ⁻¹ (x−q), the squared Mahalanobis distance.
func (g *Dist) Mahalanobis2(x vecmat.Vector) float64 {
	diff := x.Sub(g.mean)
	return g.inv.QuadForm(diff)
}

// LogPDF returns log p_q(x).
func (g *Dist) LogPDF(x vecmat.Vector) float64 {
	return g.logNorm - 0.5*g.Mahalanobis2(x)
}

// PDF returns the density p_q(x) of Eq. (1).
func (g *Dist) PDF(x vecmat.Vector) float64 {
	return math.Exp(g.LogPDF(x))
}

// UpperBoundPDF evaluates p∥(x) of Eq. (24): the spherical upper bounding
// function with exponent coefficient λ∥. For all x, p∥(x) ≥ p_q(x).
func (g *Dist) UpperBoundPDF(x vecmat.Vector) float64 {
	d2 := x.Dist2(g.mean)
	return math.Exp(g.logNorm - 0.5*g.lambdaPar*d2)
}

// LowerBoundPDF evaluates p⊥(x) of Eq. (25): the spherical lower bounding
// function with exponent coefficient λ⊥. For all x, p⊥(x) ≤ p_q(x).
func (g *Dist) LowerBoundPDF(x vecmat.Vector) float64 {
	d2 := x.Dist2(g.mean)
	return math.Exp(g.logNorm - 0.5*g.lambdaPerp*d2)
}

// Sample draws x ~ N(q, Σ) into dst using src for standard normal variates:
// x = q + L·z. dst must have length d; scratch must have length d and not
// alias dst. It returns dst.
func (g *Dist) Sample(src NormalSource, scratch, dst vecmat.Vector) vecmat.Vector {
	for i := range scratch {
		scratch[i] = src.NormFloat64()
	}
	g.chol.MulVecTo(scratch, dst)
	for i := range dst {
		dst[i] += g.mean[i]
	}
	return dst
}

// ThetaRegionRadius returns the exact rθ of Definition 3/5: the Mahalanobis
// radius whose ellipsoid (x−q)ᵗΣ⁻¹(x−q) ≤ rθ² contains probability mass
// 1−2θ. Requires 0 < θ < ½.
//
// By Property 1 this reduces to the normalized Gaussian, whose radial mass is
// the chi distribution: rθ = √(2·P⁻¹(d/2, 1−2θ)).
func (g *Dist) ThetaRegionRadius(theta float64) (float64, error) {
	if theta <= 0 || theta >= 0.5 {
		return 0, fmt.Errorf("gauss: θ-region requires 0 < θ < 1/2, got %g", theta)
	}
	return stats.SphereRadiusForMass(g.Dim(), 1-2*theta)
}

// InThetaRegion reports whether x lies inside the θ-region of radius r:
// (x−q)ᵗΣ⁻¹(x−q) ≤ r².
func (g *Dist) InThetaRegion(x vecmat.Vector, r float64) bool {
	return g.Mahalanobis2(x) <= r*r
}

// TransformToEigen writes y = Eᵗ(x − q) into dst (Property 3's axis
// transformation used by the OR filter) and returns dst. dst must not alias
// x; scratch must have length d.
func (g *Dist) TransformToEigen(x vecmat.Vector, scratch, dst vecmat.Vector) vecmat.Vector {
	x.SubTo(g.mean, scratch)
	// y = Eᵗ·(x − q).
	g.eigCov.Vectors.MulVecTransTo(scratch, dst)
	return dst
}

// String summarizes the distribution.
func (g *Dist) String() string {
	return fmt.Sprintf("N(q=%v, |Σ|=%g, d=%d)", g.mean, g.det, g.Dim())
}

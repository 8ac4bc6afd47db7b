package stats

import "math"

// ChiSquareCDF returns Pr(X ≤ x) for X ~ χ²(k), k > 0 degrees of freedom.
//
// For a d-dimensional normalized Gaussian, ‖x‖² ~ χ²(d), so this function
// evaluates Eq. (7) of the paper: the probability that the query object lies
// within radius r of its mean is ChiSquareCDF(d, r²).
func ChiSquareCDF(k float64, x float64) (float64, error) {
	if k <= 0 {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaP(k/2, x/2)
}

// SphereMass returns the probability that a d-dimensional standard normal
// vector has Euclidean norm at most r: Pr(‖x‖ ≤ r) = P(d/2, r²/2).
// This is the curve family plotted in Fig. 17 of the paper.
func SphereMass(d int, r float64) (float64, error) {
	if d <= 0 {
		return 0, ErrDomain
	}
	if r <= 0 {
		return 0, nil
	}
	return GammaP(float64(d)/2, r*r/2)
}

// SphereRadiusForMass returns the radius r such that a d-dimensional standard
// normal vector satisfies Pr(‖x‖ ≤ r) = mass. It is the exact inverse used to
// derive rθ: rθ = SphereRadiusForMass(d, 1−2θ) (Definition 5 / Property 1).
func SphereRadiusForMass(d int, mass float64) (float64, error) {
	if d <= 0 || mass < 0 || mass >= 1 {
		return 0, ErrDomain
	}
	g, err := GammaPInv(float64(d)/2, mass)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(2 * g), nil
}

package stats

import (
	"errors"
	"math"
	"testing"
)

// The ladder must reproduce direct χ² CDF evaluations at every rung, within
// its own reported error bound plus GammaP's accuracy at the rung (whose
// log-space prefactor is only good to ~(x/2)·2⁻⁵² there). x = 6 250 starts
// with decrements below the float64 floor.
func TestChiSquareLadderMatchesDirect(t *testing.T) {
	for _, x := range []float64{0.25, 62.5, 625, 6250} {
		for _, nu := range []float64{1, 2, 9} {
			l, err := NewChiSquareLadder(nu, x)
			if err != nil {
				t.Fatal(err)
			}
			steps := int(x/2+8*math.Sqrt(x/2)) + 40
			prev := l.F
			for k := 0; k <= steps; k++ {
				if k > 0 {
					l.Next()
				}
				if l.F > prev || l.F < 0 {
					t.Fatalf("x=%g ν=%g k=%d: F=%g not in [0, previous %g]", x, nu, k, l.F, prev)
				}
				prev = l.F
				if k%7 != 0 && k != steps {
					continue
				}
				want, err := ChiSquareCDF(nu+2*float64(k), x)
				if err != nil {
					t.Fatal(err)
				}
				tol := l.ErrBound() + (x*math.Log(x+2)+16)*0x1p-52
				if diff := math.Abs(l.F - want); diff > tol {
					t.Errorf("x=%g ν=%g k=%d: ladder %.16g vs direct %.16g (|diff| %g > %g)", x, nu, k, l.F, want, diff, tol)
				}
			}
			// Ruben's term cap: the true value is below 1e-12 here, so what
			// is left is rounding the ladder must own up to.
			if l.F > 1e-12+l.ErrBound() {
				t.Errorf("x=%g ν=%g: F=%g after %d steps, want < 1e-12 + ErrBound %g", x, nu, l.F, steps, l.ErrBound())
			}
			if eb := l.ErrBound(); !(eb > 0 && eb < 1e-10) {
				t.Errorf("x=%g ν=%g: ErrBound %g", x, nu, eb)
			}
		}
	}
}

func TestChiSquareLadderDomain(t *testing.T) {
	for _, c := range [][2]float64{{0, 1}, {-1, 1}, {2, 0}, {2, -3}, {2, math.Inf(1)}, {math.NaN(), 1}, {2, math.NaN()}} {
		if _, err := NewChiSquareLadder(c[0], c[1]); !errors.Is(err, ErrDomain) {
			t.Errorf("NewChiSquareLadder(%g, %g): got %v, want ErrDomain", c[0], c[1], err)
		}
	}
	// Far past the mode the decrement underflows for good: F just stays put.
	l, err := NewChiSquareLadder(2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	l.Next()
	if l.F != 0 {
		t.Errorf("F = %g past the mode, want 0", l.F)
	}
}

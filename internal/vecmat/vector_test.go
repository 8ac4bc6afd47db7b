package vecmat

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewVector(t *testing.T) {
	v := NewVector(3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("component %d = %g, want 0", i, x)
		}
	}
}

func TestNewVectorPanicsOnBadDim(t *testing.T) {
	for _, d := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewVector(%d) did not panic", d)
				}
			}()
			NewVector(d)
		}()
	}
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -1, 0.5}
	diff := v.Sub(w)
	want := Vector{-3, 3, 2.5}
	if !slices.Equal(diff, want) {
		t.Errorf("Sub = %v, want %v", diff, want)
	}
}

func TestVectorSubTo(t *testing.T) {
	v := Vector{5, 7}
	w := Vector{2, 3}
	dst := make(Vector, 2)
	got := v.SubTo(w, dst)
	if &got[0] != &dst[0] {
		t.Error("SubTo did not return dst")
	}
	if !slices.Equal(got, Vector{3, 4}) {
		t.Errorf("SubTo = %v, want (3,4)", got)
	}
	// Aliasing with the receiver must be safe.
	v.SubTo(w, v)
	if !slices.Equal(v, Vector{3, 4}) {
		t.Errorf("aliased SubTo = %v, want (3,4)", v)
	}
}

func TestVectorDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); math.Abs(got-5) > 1e-15 {
		t.Errorf("Norm = %g, want 5", got)
	}
	if got := v.Norm2(); got != 25 {
		t.Errorf("Norm2 = %g, want 25", got)
	}
	w := Vector{-4, 3}
	if got := v.Dot(w); got != 0 {
		t.Errorf("Dot = %g, want 0", got)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestVectorIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVectorString(t *testing.T) {
	got := Vector{1, 2.5}.String()
	if got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

// Property: the triangle inequality holds for √Dist2.
func TestVectorTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		u, v, w := Vector(a[:]), Vector(b[:]), Vector(c[:])
		if !u.IsFinite() || !v.IsFinite() || !w.IsFinite() {
			return true
		}
		dist := func(a, b Vector) float64 { return math.Sqrt(a.Dist2(b)) }
		return dist(u, w) <= dist(u, v)+dist(v, w)+1e-9*(1+dist(u, v)+dist(v, w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy–Schwarz |⟨v,w⟩| ≤ ‖v‖·‖w‖.
func TestVectorCauchySchwarzProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		v, w := Vector(a[:]), Vector(b[:])
		for i := range v {
			// Clamp to avoid overflow-dominated comparisons.
			v[i] = math.Mod(v[i], 1e6)
			w[i] = math.Mod(w[i], 1e6)
			if math.IsNaN(v[i]) || math.IsNaN(w[i]) {
				return true
			}
		}
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm() * w.Norm()
		return lhs <= rhs*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 agrees with Sub followed by Norm2.
func TestVectorDistMatchesSubNormProperty(t *testing.T) {
	f := func(a, b [5]float64) bool {
		v, w := Vector(a[:]), Vector(b[:])
		for i := range v {
			v[i] = math.Mod(v[i], 1e8)
			w[i] = math.Mod(w[i], 1e8)
			if math.IsNaN(v[i]) || math.IsNaN(w[i]) {
				return true
			}
		}
		d1 := v.Dist2(w)
		d2 := v.Sub(w).Norm2()
		return math.Abs(d1-d2) <= 1e-9*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

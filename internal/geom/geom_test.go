package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gaussrange/internal/vecmat"
)

func rect(lo, hi vecmat.Vector) Rect { return Rect{Lo: lo, Hi: hi} }

func TestRectAround(t *testing.T) {
	r, err := RectAround(vecmat.Vector{5, 5}, vecmat.Vector{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Lo, vecmat.Vector{3, 2}) || !slices.Equal(r.Hi, vecmat.Vector{7, 8}) {
		t.Errorf("RectAround = %v", r)
	}
	if _, err := RectAround(vecmat.Vector{0, 0}, vecmat.Vector{-1, 1}); err == nil {
		t.Error("negative half-width accepted")
	}
	if _, err := RectAround(vecmat.Vector{0}, vecmat.Vector{1, 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestRectContains(t *testing.T) {
	r := rect(vecmat.Vector{0, 0}, vecmat.Vector{10, 5})
	cases := []struct {
		p    vecmat.Vector
		want bool
	}{
		{vecmat.Vector{5, 2}, true},
		{vecmat.Vector{0, 0}, true},  // closed boundary
		{vecmat.Vector{10, 5}, true}, // closed boundary
		{vecmat.Vector{10.01, 5}, false},
		{vecmat.Vector{-0.01, 2}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersectsAndIntersection(t *testing.T) {
	a := rect(vecmat.Vector{0, 0}, vecmat.Vector{4, 4})
	b := rect(vecmat.Vector{3, 3}, vecmat.Vector{6, 6})
	c := rect(vecmat.Vector{5, 0}, vecmat.Vector{7, 2})
	if !a.Intersects(b) || b.Intersects(c) == false && !a.Intersects(a) {
		t.Error("Intersects wrong")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes intersect")
	}
	// Touching boxes: the closed boxes intersect.
	d := rect(vecmat.Vector{4, 0}, vecmat.Vector{8, 4})
	if !a.Intersects(d) {
		t.Error("touching boxes should intersect (closed)")
	}
}

func TestRectUnionEnlargement(t *testing.T) {
	a := rect(vecmat.Vector{0, 0}, vecmat.Vector{2, 2})
	b := rect(vecmat.Vector{3, 1}, vecmat.Vector{4, 2})
	u := a.Clone()
	u.UnionInPlace(b)
	if !slices.Equal(u.Lo, vecmat.Vector{0, 0}) || !slices.Equal(u.Hi, vecmat.Vector{4, 2}) {
		t.Errorf("UnionInPlace = %v", u)
	}
	if a.Hi[0] != 2 {
		t.Error("UnionInPlace on a clone changed the original")
	}
	if !u.ContainsRect(a) || !u.ContainsRect(b) || a.ContainsRect(u) {
		t.Error("ContainsRect wrong")
	}
}

func TestRectVolumeMarginCenter(t *testing.T) {
	r := rect(vecmat.Vector{0, 0, 0}, vecmat.Vector{2, 3, 4})
	if r.Volume() != 24 {
		t.Errorf("Volume = %g", r.Volume())
	}
}

func TestRectExpand(t *testing.T) {
	r := rect(vecmat.Vector{1, 1}, vecmat.Vector{2, 2}).Expand(0.5)
	if !slices.Equal(r.Lo, vecmat.Vector{0.5, 0.5}) || !slices.Equal(r.Hi, vecmat.Vector{2.5, 2.5}) {
		t.Errorf("Expand = %v", r)
	}
}

func TestRectDist2(t *testing.T) {
	r := rect(vecmat.Vector{0, 0}, vecmat.Vector{4, 4})
	cases := []struct {
		p    vecmat.Vector
		want float64
	}{
		{vecmat.Vector{2, 2}, 0},  // inside
		{vecmat.Vector{4, 4}, 0},  // corner
		{vecmat.Vector{6, 4}, 4},  // right side
		{vecmat.Vector{7, 8}, 25}, // corner 3-4-5
		{vecmat.Vector{-3, 0}, 9}, // left
	}
	for _, c := range cases {
		if got := r.Dist2(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist2(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMinkowskiContains(t *testing.T) {
	box := rect(vecmat.Vector{-2, -1}, vecmat.Vector{2, 1})
	m, err := NewMinkowskiRegion(box, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    vecmat.Vector
		want bool
	}{
		{vecmat.Vector{0, 0}, true},                               // inside box
		{vecmat.Vector{3, 0}, true},                               // on rounded boundary (side)
		{vecmat.Vector{2.9, 1.9}, false},                          // corner fringe: dist > 1
		{vecmat.Vector{2.7, 1.7}, true},                           // inside corner arc
		{vecmat.Vector{3.01, 0}, false},                           // beyond side
		{vecmat.Vector{2 + math.Sqrt2/2, 1 + math.Sqrt2/2}, true}, // exactly on arc
	}
	for _, c := range cases {
		if got := m.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := NewMinkowskiRegion(box, -1); err == nil {
		t.Error("negative delta accepted")
	}
}

// TestMinkowskiVolume2D checks against the closed form for a rounded
// rectangle: A = ab + 2δ(a+b) + πδ².
func TestMinkowskiVolume2D(t *testing.T) {
	box := rect(vecmat.Vector{0, 0}, vecmat.Vector{3, 2})
	m, _ := NewMinkowskiRegion(box, 1.5)
	want := 3*2 + 2*1.5*(3+2) + math.Pi*1.5*1.5
	if got := m.Volume(); math.Abs(got-want) > 1e-9 {
		t.Errorf("rounded-rect area = %g, want %g", got, want)
	}
}

// TestMinkowskiVolume3D checks the Steiner formula in 3-D:
// V = abc + 2δ(ab+bc+ca) + πδ²(a+b+c) + 4/3·πδ³.
func TestMinkowskiVolume3D(t *testing.T) {
	box := rect(vecmat.Vector{0, 0, 0}, vecmat.Vector{2, 3, 4})
	m, _ := NewMinkowskiRegion(box, 0.5)
	d := 0.5
	want := 24 + 2*d*(6+12+8) + math.Pi*d*d*(2+3+4) + 4.0/3*math.Pi*d*d*d
	if got := m.Volume(); math.Abs(got-want) > 1e-9 {
		t.Errorf("3-D Minkowski volume = %g, want %g", got, want)
	}
}

// Property: Monte Carlo volume of the Minkowski region matches Volume().
func TestMinkowskiVolumeMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	box := rect(vecmat.Vector{0, 0}, vecmat.Vector{4, 2})
	m, _ := NewMinkowskiRegion(box, 1)
	br := m.BoundingRect()
	const n = 400000
	var in int
	p := make(vecmat.Vector, 2)
	for i := 0; i < n; i++ {
		for j := range p {
			p[j] = br.Lo[j] + rng.Float64()*(br.Hi[j]-br.Lo[j])
		}
		if m.Contains(p) {
			in++
		}
	}
	est := float64(in) / n * br.Volume()
	if math.Abs(est-m.Volume()) > 0.05*m.Volume() {
		t.Errorf("MC volume %g vs analytic %g", est, m.Volume())
	}
}

// Property: containment in the Minkowski region equals existence of a box
// point within δ.
func TestMinkowskiDefinitionProperty(t *testing.T) {
	f := func(px, py, lox, loy, w, h, delta float64) bool {
		w, h = math.Abs(math.Mod(w, 10)), math.Abs(math.Mod(h, 10))
		delta = math.Abs(math.Mod(delta, 5))
		lo := vecmat.Vector{math.Mod(lox, 100), math.Mod(loy, 100)}
		hi := vecmat.Vector{lo[0] + w, lo[1] + h}
		if !lo.IsFinite() || !hi.IsFinite() {
			return true
		}
		box := Rect{Lo: lo, Hi: hi}
		m := MinkowskiRegion{Box: box, Delta: delta}
		p := vecmat.Vector{math.Mod(px, 200), math.Mod(py, 200)}
		if !p.IsFinite() {
			return true
		}
		// Clamp p to box = closest box point.
		cl := p.Clone()
		for i := range cl {
			cl[i] = math.Max(lo[i], math.Min(hi[i], cl[i]))
		}
		near := p.Dist2(cl) <= delta*delta
		return m.Contains(p) == near
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative, contains both inputs, and Dist2 is zero
// exactly for contained points.
func TestRectProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 500; i++ {
		d := 1 + rng.Intn(5)
		randRect := func() Rect {
			lo := make(vecmat.Vector, d)
			hi := make(vecmat.Vector, d)
			for j := range lo {
				a, b := rng.Float64()*100, rng.Float64()*100
				lo[j], hi[j] = math.Min(a, b), math.Max(a, b)
			}
			return Rect{Lo: lo, Hi: hi}
		}
		a, b := randRect(), randRect()
		u1, u2 := a.Clone(), b.Clone()
		u1.UnionInPlace(b)
		u2.UnionInPlace(a)
		if !slices.Equal(u1.Lo, u2.Lo) || !slices.Equal(u1.Hi, u2.Hi) {
			t.Fatal("union not commutative")
		}
		if !u1.ContainsRect(a) || !u1.ContainsRect(b) {
			t.Fatal("union does not contain inputs")
		}
		p := make(vecmat.Vector, d)
		for j := range p {
			p[j] = rng.Float64() * 120
		}
		if (a.Dist2(p) == 0) != a.Contains(p) {
			t.Fatalf("Dist2/Contains disagree for %v in %v", p, a)
		}
	}
}

func TestPointRect(t *testing.T) {
	p := vecmat.Vector{3, 4}
	r := PointRect(p)
	if !r.Contains(p) || r.Volume() != 0 {
		t.Errorf("PointRect wrong: %v", r)
	}
	p[0] = 99 // must not affect the rect (deep copy)
	if r.Lo[0] != 3 {
		t.Error("PointRect shares storage")
	}
}

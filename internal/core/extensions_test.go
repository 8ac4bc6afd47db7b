package core

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/vecmat"
)

func TestPNNValidation(t *testing.T) {
	ix := uniformIndex(t, rand.New(rand.NewSource(8)), 100, 2, 100)
	e := newExactEngine(t, ix, Options{})
	g, err := gauss.New(vecmat.Vector{50, 50}, vecmat.Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PNN(nil, 0.1, 100, 1); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := e.PNN(g, 0, 100, 1); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := e.PNN(g, 1.5, 100, 1); err == nil {
		t.Error("theta>1 accepted")
	}
	if _, err := e.PNN(g, 0.1, 0, 1); err == nil {
		t.Error("samples=0 accepted")
	}
	g3, err := gauss.New(vecmat.NewVector(3), vecmat.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PNN(g3, 0.1, 100, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestPNNEmptyIndex(t *testing.T) {
	ix, err := NewDynamicIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	e := newExactEngine(t, ix, Options{})
	g, _ := gauss.New(vecmat.Vector{0, 0}, vecmat.Identity(2))
	res, err := e.PNN(g, 0.1, 100, 1)
	if err != nil || res != nil {
		t.Errorf("empty index PNN = %v, %v", res, err)
	}
}

// With a tiny, tight Gaussian the nearest data point wins with probability
// ≈ 1.
func TestPNNCertainCase(t *testing.T) {
	pts := []vecmat.Vector{{10, 10}, {90, 90}, {50, 10}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newExactEngine(t, ix, Options{})
	g, err := gauss.New(vecmat.Vector{12, 12}, vecmat.Identity(2).Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PNN(g, 0.5, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 0 || res[0].Probability < 0.999 {
		t.Errorf("PNN certain case = %+v", res)
	}
}

// Probabilities across all returned objects plus the implicit remainder sum
// to 1; frequencies match an analytically simple two-point configuration.
func TestPNNTwoPointSymmetry(t *testing.T) {
	pts := []vecmat.Vector{{-10, 0}, {10, 0}}
	ix, err := NewIndex(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newExactEngine(t, ix, Options{})
	// Query centered exactly between the two points: each wins with p ≈ ½.
	g, err := gauss.New(vecmat.Vector{0, 0}, vecmat.Identity(2).Scale(25))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PNN(g, 0.05, 50000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("PNN returned %d objects, want 2", len(res))
	}
	total := res[0].Probability + res[1].Probability
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %g", total)
	}
	if math.Abs(res[0].Probability-0.5) > 0.01 {
		t.Errorf("symmetric PNN probability = %g, want ≈0.5", res[0].Probability)
	}
}

func TestPNNSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := uniformIndex(t, rng, 500, 2, 100)
	e := newExactEngine(t, ix, Options{})
	g, err := gauss.New(vecmat.Vector{50, 50}, vecmat.Identity(2).Scale(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PNN(g, 0.01, 20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("PNN returned nothing")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Probability > res[i-1].Probability {
			t.Fatal("PNN results not sorted by probability")
		}
	}
}

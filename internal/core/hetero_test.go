package core

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

func randomHetero(t *testing.T, rng *rand.Rand, n, d int, extent float64) *HeteroIndex {
	t.Helper()
	objs := make([]UncertainObject, n)
	for i := range objs {
		mean := make(vecmat.Vector, d)
		for j := range mean {
			mean[j] = rng.Float64() * extent
		}
		var cov *vecmat.Symmetric
		switch i % 3 {
		case 0:
			// exact object
		case 1:
			cov = vecmat.Identity(d).Scale(0.5 + rng.Float64()*4)
		default:
			entries := make([]float64, d)
			for j := range entries {
				entries[j] = 0.2 + rng.Float64()*6
			}
			cov = vecmat.Diagonal(entries...)
		}
		objs[i] = UncertainObject{Mean: mean, Cov: cov}
	}
	h, err := NewHeteroIndexFromObjects(objs, d)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHeteroIndexValidation(t *testing.T) {
	pts := []vecmat.Vector{{1, 2}}
	if _, err := NewHeteroIndex(pts, nil, 2); err == nil {
		t.Error("mismatched covariance count accepted")
	}
	if _, err := NewHeteroIndex(pts, []*vecmat.Symmetric{vecmat.Identity(3)}, 2); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := NewHeteroIndex(pts, []*vecmat.Symmetric{vecmat.Diagonal(1, -1)}, 2); err == nil {
		t.Error("indefinite covariance accepted")
	}
	h, err := NewHeteroIndex(pts, []*vecmat.Symmetric{nil}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 || h.Dim() != 2 {
		t.Errorf("Len/Dim = %d/%d", h.Len(), h.Dim())
	}
}

// The central invariant: the indexed search returns exactly the brute-force
// answer set for mixed exact/uncertain targets. Search takes each
// candidate's point from the rect walk, so it builds no by-id index
// (BruteForce, a by-id reader, does).
func TestHeteroNoLostAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	h := randomHetero(t, rng, 3000, 2, 500)
	for trial := 0; trial < 5; trial++ {
		center := vecmat.Vector{100 + rng.Float64()*300, 100 + rng.Float64()*300}
		g, err := gauss.New(center, vecmat.MustFromRows([][]float64{
			{20 + rng.Float64()*50, 5},
			{5, 10 + rng.Float64()*20},
		}))
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Dist: g, Delta: 10 + rng.Float64()*20, Theta: 0.02 + rng.Float64()*0.2}
		got, err := h.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 && h.idx.Current().byID.rows != nil {
			t.Fatal("Search built the by-id index")
		}
		want, err := h.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(got.IDs, want) {
			t.Fatalf("trial %d: indexed %d answers, brute force %d", trial, len(got.IDs), len(want))
		}
		if got.Retrieved > h.Len() || got.Integrations != got.Retrieved {
			t.Errorf("trial %d: stats inconsistent %+v", trial, got)
		}
	}
}

// Target uncertainty must match the analytic covariance-addition rule: an
// uncertain target behaves exactly like an exact target queried with the
// summed covariance.
func TestHeteroMatchesCovarianceAddition(t *testing.T) {
	oCov := vecmat.Diagonal(9, 4)
	h, err := NewHeteroIndex([]vecmat.Vector{{30, 40}}, []*vecmat.Symmetric{oCov}, 2)
	if err != nil {
		t.Fatal(err)
	}
	qCov := vecmat.MustFromRows([][]float64{{16, 2}, {2, 8}})
	g, err := gauss.New(vecmat.Vector{0, 0}, qCov)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 45, Theta: 0.1}
	p, err := h.Qualification(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	summed, err := qCov.Add(oCov)
	if err != nil {
		t.Fatal(err)
	}
	gSum, err := gauss.New(vecmat.Vector{0, 0}, summed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExactEvaluator().Qualification(gSum, vecmat.Vector{30, 40}, 45)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("hetero qualification %g vs covariance addition %g", p, want)
	}
}

// Monte Carlo ground truth: simulate both uncertain locations directly.
func TestHeteroMonteCarloAgreement(t *testing.T) {
	oCov := vecmat.Diagonal(6, 2)
	qCov := vecmat.Diagonal(3, 5)
	h, err := NewHeteroIndex([]vecmat.Vector{{8, -3}}, []*vecmat.Symmetric{oCov}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gauss.New(vecmat.Vector{0, 0}, qCov)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 9, Theta: 0.5}
	p, err := h.Qualification(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	gO, err := gauss.New(vecmat.Vector{8, -3}, oCov)
	if err != nil {
		t.Fatal(err)
	}
	rng := mc.NewRNG(31)
	const n = 400000
	scratch := make(vecmat.Vector, 2)
	x := make(vecmat.Vector, 2)
	y := make(vecmat.Vector, 2)
	hits := 0
	for i := 0; i < n; i++ {
		g.Sample(rng, scratch, x)
		gO.Sample(rng, scratch, y)
		if x.Dist2(y) <= 81 {
			hits++
		}
	}
	mcEst := float64(hits) / n
	se := math.Sqrt(p*(1-p)/n) + 1e-9
	if math.Abs(p-mcEst) > 6*se {
		t.Errorf("hetero analytic %g vs two-Gaussian MC %g (6σ=%g)", p, mcEst, 6*se)
	}
}

func TestHeteroUncertaintyWidensAnswers(t *testing.T) {
	// The same target with larger uncertainty has a different probability
	// profile: nearby objects get less certain, far objects more possible.
	exact, err := NewHeteroIndex([]vecmat.Vector{{30, 0}}, []*vecmat.Symmetric{nil}, 2)
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := NewHeteroIndex([]vecmat.Vector{{30, 0}},
		[]*vecmat.Symmetric{vecmat.Identity(2).Scale(100)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gauss.New(vecmat.Vector{0, 0}, vecmat.Identity(2).Scale(4))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 20, Theta: 0.5}
	pExact, err := exact.Qualification(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	pFuzzy, err := fuzzy.Qualification(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The exact target at distance 30 > δ+4σ is almost surely out of range;
	// with target uncertainty there is a real chance it is within range.
	if pExact > 0.01 {
		t.Errorf("exact far target p = %g", pExact)
	}
	if pFuzzy < pExact {
		t.Errorf("uncertainty lowered the far-object probability: %g < %g", pFuzzy, pExact)
	}
}

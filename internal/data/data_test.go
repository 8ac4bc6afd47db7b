package data

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

func TestLongBeachShape(t *testing.T) {
	pts := LongBeach(1)
	if len(pts) != LongBeachSize {
		t.Fatalf("size = %d, want %d", len(pts), LongBeachSize)
	}
	for i, p := range pts {
		if p.Dim() != 2 {
			t.Fatalf("point %d has dim %d", i, p.Dim())
		}
		if p[0] < 0 || p[0] > 1000 || p[1] < 0 || p[1] > 1000 {
			t.Fatalf("point %d out of [0,1000]²: %v", i, p)
		}
	}
}

func TestLongBeachDeterministic(t *testing.T) {
	a := LongBeach(7)
	b := LongBeach(7)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatal("same seed produced different datasets")
		}
	}
	c := LongBeach(8)
	diff := 0
	for i := range a {
		if !slices.Equal(a[i], c[i]) {
			diff++
		}
	}
	if diff < LongBeachSize/2 {
		t.Errorf("different seeds produced mostly identical datasets (%d differ)", diff)
	}
}

// TestLongBeachClustered verifies the street structure exists: the local
// density at data points exceeds the uniform expectation (midpoints lie on
// streets), but within the factor observed for real road data.
func TestLongBeachClustered(t *testing.T) {
	pts := LongBeach(1)
	rng := mc.NewRNG(99)
	const radius = 58.5
	avgDensity := float64(LongBeachSize) / 1e6
	uniformExpect := avgDensity * math.Pi * radius * radius

	var sum float64
	const trials = 15
	for k := 0; k < trials; k++ {
		q := pts[rng.Intn(len(pts))]
		count := 0
		for _, p := range pts {
			if p.Dist2(q) <= radius*radius {
				count++
			}
		}
		sum += float64(count)
	}
	ratio := sum / trials / uniformExpect
	if ratio < 1.0 || ratio > 2.5 {
		t.Errorf("local/uniform density ratio = %.2f, want clustering in [1.0, 2.5]", ratio)
	}
}

func TestColorMomentsShape(t *testing.T) {
	pts := ColorMomentsN(1, 5000)
	if len(pts) != 5000 {
		t.Fatalf("size = %d", len(pts))
	}
	for i, p := range pts {
		if p.Dim() != 9 {
			t.Fatalf("point %d dim %d", i, p.Dim())
		}
		if !p.IsFinite() {
			t.Fatalf("point %d not finite", i)
		}
	}
	// Full-size constant check without generating twice.
	if ColorMomentsSize != 68040 {
		t.Errorf("ColorMomentsSize = %d", ColorMomentsSize)
	}
}

// TestColorMomentsCalibration: a δ=0.7 range query at a random data point
// returns ≈15.3 neighbors on the full dataset (paper §VI-A anchor).
func TestColorMomentsCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset generation in -short mode")
	}
	pts := ColorMoments(1)
	if len(pts) != ColorMomentsSize {
		t.Fatalf("size = %d", len(pts))
	}
	rng := mc.NewRNG(5)
	var sum float64
	const trials = 12
	for k := 0; k < trials; k++ {
		q := pts[rng.Intn(len(pts))]
		count := 0
		for _, p := range pts {
			if p.Dist2(q) <= 0.49 {
				count++
			}
		}
		sum += float64(count)
	}
	avg := sum / trials
	if avg < 5 || avg > 45 {
		t.Errorf("δ=0.7 neighborhood size = %.1f, want within 3× of the paper's 15.3", avg)
	}
}

func TestUniform(t *testing.T) {
	pts, err := Uniform(3, 1000, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1000 {
		t.Fatalf("size = %d", len(pts))
	}
	for _, p := range pts {
		for _, x := range p {
			if x < 0 || x > 50 {
				t.Fatalf("out of range: %v", p)
			}
		}
	}
	if _, err := Uniform(1, -1, 2, 10); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Uniform(1, 10, 0, 10); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := Uniform(1, 10, 2, 0); err == nil {
		t.Error("extent=0 accepted")
	}
}

func TestClustered(t *testing.T) {
	pts, err := Clustered(3, 2000, 3, 10, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2000 {
		t.Fatalf("size = %d", len(pts))
	}
	// Clustering: average nearest-neighbor distance well below uniform.
	var nnSum float64
	for i := 0; i < 200; i++ {
		best := math.Inf(1)
		for j := range pts {
			if j == i {
				continue
			}
			if d := pts[i].Dist2(pts[j]); d < best {
				best = d
			}
		}
		nnSum += math.Sqrt(best)
	}
	avgNN := nnSum / 200
	// Uniform expectation for 2000 pts in 100³ is ≈ 0.554·(10⁶/2000)^(1/3) ≈ 4.4.
	if avgNN > 3.5 {
		t.Errorf("avg NN distance %.2f suggests no clustering", avgNN)
	}
	if _, err := Clustered(1, 10, 2, 0, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Clustered(1, 10, 2, 3, 10, -1); err == nil {
		t.Error("negative std accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := []vecmat.Vector{{1.5, -2.25}, {0, 1e-9}, {12345.678, 9}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pts) {
		t.Fatalf("round trip size %d", len(back))
	}
	for i := range pts {
		if !slices.Equal(pts[i], back[i]) {
			t.Errorf("row %d: %v != %v", i, back[i], pts[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("1,2\n3\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,abc\n")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
	pts, err := ReadCSV(bytes.NewBufferString("\n\n  \n"))
	if err != nil || len(pts) != 0 {
		t.Errorf("blank CSV: %v, %v", pts, err)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	pts := []vecmat.Vector{{1, 2}, {3, 4}}
	if err := SaveCSV(path, pts); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !slices.Equal(back[1], vecmat.Vector{3, 4}) {
		t.Errorf("file round trip: %v", back)
	}
	if _, err := LoadCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

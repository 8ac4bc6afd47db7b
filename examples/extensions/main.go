// Extensions tour: the features this library adds beyond the ICDE 2009
// paper — probabilistic nearest neighbors, top-k answers with probabilities,
// uncertain target objects, and database snapshots.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"gaussrange"
)

func main() {
	rng := rand.New(rand.NewSource(2026))
	points := make([][]float64, 30000)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	db, err := gaussrange.Load(points)
	if err != nil {
		log.Fatal(err)
	}
	spec := gaussrange.QuerySpec{
		Center: []float64{500, 500},
		Cov:    [][]float64{{70, 34.64}, {34.64, 30}},
		Delta:  25,
		Theta:  0.01,
	}

	// --- 1. Top-k answers with probabilities -----------------------------
	top, err := db.QueryTopK(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 most probable in-range points:")
	for _, m := range top {
		fmt.Printf("  id %-6d p=%.3f\n", m.ID, m.Probability)
	}

	// --- 2. Probabilistic nearest neighbor -------------------------------
	pnn, err := db.PNN(spec.Center, spec.Cov, 0.02, 20000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d points have ≥2%% probability of being the nearest neighbor:\n", len(pnn))
	for i, r := range pnn {
		if i == 3 {
			fmt.Println("  …")
			break
		}
		fmt.Printf("  id %-6d p=%.3f\n", r.ID, r.Probability)
	}

	// --- 3. Uncertain targets (sensor error on the stored objects) -------
	covs := make([][][]float64, len(points))
	for i := range covs {
		covs[i] = [][]float64{{25, 0}, {0, 25}} // each target ±5 m sensor noise
	}
	udb, err := gaussrange.LoadUncertain(points, covs)
	if err != nil {
		log.Fatal(err)
	}
	exactIDs, err := db.Query(spec)
	if err != nil {
		log.Fatal(err)
	}
	fuzzyIDs, err := udb.Query(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact targets: %d answers; with ±5 m target noise: %d answers\n",
		len(exactIDs.IDs), len(fuzzyIDs))

	// --- 4. Snapshots ------------------------------------------------------
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		log.Fatal(err)
	}
	snapshotBytes := buf.Len()
	restored, err := gaussrange.Restore(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot round trip: %d bytes → %d points restored\n", snapshotBytes, restored.Len())
}

// Quickstart: build a database of 2-D points and run one probabilistic range
// query with an uncertain (Gaussian) query location.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gaussrange"
)

func main() {
	// A dataset of 20 000 points scattered over a 1000×1000 area.
	rng := rand.New(rand.NewSource(42))
	points := make([][]float64, 20000)
	for i := range points {
		points[i] = []float64{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	db, err := gaussrange.Load(points)
	if err != nil {
		log.Fatal(err)
	}

	// The query object believes it is near (500, 500), but its position is
	// uncertain: a Gaussian with a tilted, elongated covariance (the paper's
	// Eq. 34 at γ=10 — a 30°-tilted ellipse with 3:1 axes).
	spec := gaussrange.QuerySpec{
		Center: []float64{500, 500},
		Cov:    [][]float64{{70, 34.64}, {34.64, 30}},
		Delta:  25,   // "within 25 meters of me"
		Theta:  0.01, // "with probability at least 1 %"
	}
	res, err := db.Query(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d of %d points are within δ=%.0f of the query object "+
		"with probability ≥ %.0f%%\n", len(res.IDs), db.Len(), spec.Delta, spec.Theta*100)
	fmt.Printf("R-tree retrieved %d candidates; filters removed %d; "+
		"only %d needed probability computation\n",
		res.Stats.Retrieved,
		res.Stats.PrunedFringe+res.Stats.PrunedOR+res.Stats.PrunedBF,
		res.Stats.Integrations)

	// Inspect the top answers with exact probabilities.
	shown := res.IDs
	if len(shown) > 5 {
		shown = shown[:5]
	}
	for _, id := range shown {
		p, err := db.QueryProb(spec, id)
		if err != nil {
			log.Fatal(err)
		}
		coords, _ := db.Point(id)
		fmt.Printf("  point %-6d at (%.1f, %.1f): qualification probability %.3f\n",
			id, coords[0], coords[1], p)
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gaussrange/internal/vecmat"
)

// BenchmarkColdQuery is what a shape's first query pays: Compile plus the
// first Execute of the fresh plan, on 50 000 uniform points. A fresh plan
// never builds an answer-region hull, so this must not move when the hull
// does; BenchmarkHullBuild is the one-off cost the first reuse adds.
func BenchmarkColdQuery(b *testing.B) {
	ix := uniformIndex(b, rand.New(rand.NewSource(1)), 50000, 2, 1000)
	e := newExactEngine(b, ix, Options{})
	for _, sh := range []struct{ gamma, delta float64 }{{100, 5}, {10, 25}, {1, 25}, {0.1, 25}} {
		b.Run(fmt.Sprintf("gamma=%g", sh.gamma), func(b *testing.B) {
			q := paperQuery(b, vecmat.Vector{500, 500}, sh.gamma, sh.delta, 0.01)
			for i := 0; i < b.N; i++ {
				plan, err := e.Compile(q, StrategyAll)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := plan.Execute(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

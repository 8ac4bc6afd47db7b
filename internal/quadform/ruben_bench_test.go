package quadform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/vecmat"
)

// shellCandidates returns n objects in the shell Phase 3 really integrates
// over for the paper's 2-D Σ at scale gamma: distance δ ± 3·σmax from the
// query center, where the qualification probability crosses θ.
func shellCandidates(gamma, delta float64, n int, seed int64) []vecmat.Vector {
	rng := rand.New(rand.NewSource(seed))
	sigMax := math.Sqrt(9 * gamma)
	out := make([]vecmat.Vector, n)
	for i := range out {
		r := delta + (2*rng.Float64()-1)*3*sigMax
		phi := 2 * math.Pi * rng.Float64()
		out[i] = vecmat.Vector{500 + r*math.Cos(phi), 500 + r*math.Sin(phi)}
	}
	return out
}

var benchSink float64

// BenchmarkRuben times one integration per iteration on the three paper
// shapes (bench/'s read workloads): the full 1e-12 value, and the θ = 0.01
// decision the query executors ask for.
func BenchmarkRuben(b *testing.B) {
	for _, c := range []struct{ gamma, delta float64 }{{1, 25}, {10, 25}, {100, 5}} {
		g := paperDist(b, c.gamma)
		cands := shellCandidates(c.gamma, c.delta, 256, 97)
		e := NewExact()
		b.Run(fmt.Sprintf("gamma=%g/value", c.gamma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := e.Qualification(g, cands[i%len(cands)], c.delta)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += p
			}
		})
		b.Run(fmt.Sprintf("gamma=%g/decide", c.gamma), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Decide(g, cands[i%len(cands)], c.delta, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

// The sharded-correctness property: for random (Σ, δ, θ) queries and every
// shard count K ∈ {1, 2, 4, 8}, the routed answer is id-identical to the
// unsharded DB built from the same points — on datasets with tile-boundary
// ties, and across interleaved insert/delete batches. The exact evaluator's
// decision for a candidate is a pure function of its coordinates,
// independent of which shard evaluates it or in what order.

// boundaryPoints builds a lattice whose coordinates repeat across many
// points (so STR cut hyperplanes land on shared values and exercise the
// lowest-shard-id tie rule) plus random fill.
func boundaryPoints(r *rand.Rand, lattice, fill int) [][]float64 {
	var pts [][]float64
	for i := 0; i < lattice; i++ {
		for j := 0; j < lattice; j++ {
			pts = append(pts, []float64{float64(i) * 20, float64(j) * 20})
		}
	}
	span := float64(lattice) * 20
	for i := 0; i < fill; i++ {
		pts = append(pts, []float64{r.Float64() * span, r.Float64() * span})
	}
	return pts
}

// randomSpec draws a random SPD covariance and thresholds.
func randomSpec(r *rand.Rand, span float64) gaussrange.QuerySpec {
	a, b, c, d := r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
	scale := 5 + r.Float64()*20
	// Σ = A·Aᵀ·scale + εI is symmetric positive definite by construction.
	cov := [][]float64{
		{(a*a + b*b) * scale * 0.2, (a*c + b*d) * scale * 0.2},
		{(a*c + b*d) * scale * 0.2, (c*c + d*d) * scale * 0.2},
	}
	cov[0][0] += 1
	cov[1][1] += 1
	return gaussrange.QuerySpec{
		Center: []float64{r.Float64() * span, r.Float64() * span},
		Cov:    cov,
		Delta:  5 + r.Float64()*25,
		Theta:  0.01 + r.Float64()*0.3,
	}
}

func assertSameAnswer(t *testing.T, tag string, ref *gaussrange.DB, router *Router, spec gaussrange.QuerySpec) int {
	t.Helper()
	want, err := ref.Query(spec)
	if err != nil {
		t.Fatalf("%s: unsharded query: %v", tag, err)
	}
	got, err := router.Query(context.Background(), server.RequestFromSpec(spec))
	if err != nil {
		t.Fatalf("%s: routed query: %v", tag, err)
	}
	wantIDs := want.IDs
	if wantIDs == nil {
		wantIDs = []int64{}
	}
	if !reflect.DeepEqual(got.IDs, wantIDs) {
		t.Fatalf("%s: routed answer diverged\n  routed:    %v\n  unsharded: %v", tag, got.IDs, wantIDs)
	}
	return len(wantIDs)
}

func TestPropertyShardedMatchesUnsharded(t *testing.T) {
	const name = "per-candidate-exact"
	t.Run(name, func(t *testing.T) {
		for _, k := range []int{1, 2, 4, 8} {
			k := k
			t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(1000*k) + int64(len(name))))
				pts := boundaryPoints(r, 12, 60)
				c := newCluster(t, pts, k)
				span := 12.0 * 20

				matched := 0
				for qi := 0; qi < 5; qi++ {
					spec := randomSpec(r, span)
					matched += assertSameAnswer(t, fmt.Sprintf("pre-mutation q%d", qi), c.ref, c.router, spec)
				}
				if matched == 0 {
					t.Fatal("all pre-mutation queries empty — property vacuous")
				}

				// Interleaved insert/delete batches through the router,
				// mirrored onto the unsharded reference with the router's
				// global ids.
				ctx := context.Background()
				var live []int64
				for round := 0; round < 3; round++ {
					batch := make([][]float64, 8)
					for i := range batch {
						// Half on lattice coordinates (boundary ties),
						// half random.
						if i%2 == 0 {
							batch[i] = []float64{float64(r.Intn(12)) * 20, float64(r.Intn(12)) * 20}
						} else {
							batch[i] = []float64{r.Float64() * span, r.Float64() * span}
						}
					}
					ids, _, err := c.router.Insert(ctx, batch, nil)
					if err != nil {
						t.Fatalf("round %d insert: %v", round, err)
					}
					if _, _, err := c.ref.ApplyWithIDs(batch, ids, nil); err != nil {
						t.Fatalf("round %d mirror insert: %v", round, err)
					}
					live = append(live, ids...)

					// Delete a mix of initial-load and router-inserted ids.
					dels := []int64{int64(r.Intn(len(pts))), live[r.Intn(len(live))]}
					for _, id := range dels {
						if _, _, err := c.router.Delete(ctx, id); err != nil {
							t.Fatalf("round %d delete %d: %v", round, id, err)
						}
						if _, _, err := c.ref.ApplyWithIDs(nil, nil, []int64{id}); err != nil {
							t.Fatalf("round %d mirror delete %d: %v", round, id, err)
						}
					}

					for qi := 0; qi < 3; qi++ {
						spec := randomSpec(r, span)
						assertSameAnswer(t, fmt.Sprintf("round %d q%d", round, qi), c.ref, c.router, spec)
					}
				}
			})
		}
	})
}

// TestPropertyIDsFormatThroughRouter: the router asks its shards for id
// blocks and answers each caller in the form that caller asked for. A plain
// caller gets the decimal array, an opted-in one the block, the typed client
// (always opted in) and in-process Router.Query callers the expanded ids —
// and all of them the unsharded answer.
func TestPropertyIDsFormatThroughRouter(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pts := boundaryPoints(r, 12, 60)
	c := newCluster(t, pts, 4)
	srv, err := server.New(server.Config{Backend: c.router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	answered := 0
	for qi := 0; qi < 12; qi++ {
		spec := randomSpec(r, 12*20)
		tag := fmt.Sprintf("q%d", qi)
		want := assertSameAnswer(t, tag, c.ref, c.router, spec)
		answered += want
		ref, _ := c.ref.Query(spec)

		plainReq := server.RequestFromSpec(spec)
		plain, err := cl.QueryRaw(ctx, plainReq)
		if err != nil {
			t.Fatalf("%s: plain: %v", tag, err)
		}
		optReq := plainReq
		optReq.IDsFormat = server.IDsFormatDV1
		opted, err := cl.QueryRaw(ctx, optReq)
		if err != nil {
			t.Fatalf("%s: opted in: %v", tag, err)
		}
		typed, err := cl.Query(ctx, spec)
		if err != nil {
			t.Fatalf("%s: typed client: %v", tag, err)
		}
		if plain.IDs == nil || plain.IDsDV1 != nil || opted.IDs != nil || (want > 0) != (opted.IDsDV1 != nil) {
			t.Fatalf("%s: plain reply ids %v / block %v, opted-in reply ids %v / block %v", tag, plain.IDs, plain.IDsDV1, opted.IDs, opted.IDsDV1)
		}
		for name, got := range map[string][]int64{"plain": plain.AnswerIDs(), "opted in": opted.AnswerIDs(), "typed client": typed.IDs} {
			if !slices.Equal(got, ref.IDs) {
				t.Fatalf("%s: %s caller got %v, unsharded %v", tag, name, got, ref.IDs)
			}
		}
	}
	if answered == 0 {
		t.Fatal("all queries empty — property vacuous")
	}
}

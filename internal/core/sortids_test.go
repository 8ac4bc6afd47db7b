package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortIDsMatchesSlicesSort holds the radix sort to slices.Sort's output
// on both sides of the length cut-over, and runs the radix pass alone at
// every length, on random lengths up to 5 000, with
// duplicates, ids near 2⁶² (eight passes) and a negative id (the fallback).
func TestSortIDsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	lengths := []int{0, 1, radixMinIDs - 1, radixMinIDs, radixMinIDs + 1, 47, 48, 49}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(5001))
	}
	gens := map[string]func(n int) []int64{
		"dense":    func(n int) []int64 { return randIDs(rng, n, 50747) },
		"dups":     func(n int) []int64 { return randIDs(rng, n, int64(n/4+1)) },
		"one-byte": func(n int) []int64 { return randIDs(rng, n, 256) },
		"near-2^62": func(n int) []int64 {
			ids := randIDs(rng, n, 1<<20)
			for i := range ids {
				ids[i] += 1<<62 - 1<<19
			}
			return ids
		},
		"negative": func(n int) []int64 {
			ids := randIDs(rng, n, 50747)
			if n > 0 {
				ids[rng.Intn(n)] = -1 - rng.Int63n(1000)
			}
			return ids
		},
		"zeros": func(n int) []int64 { return make([]int64, n) },
		"sorted": func(n int) []int64 {
			ids := randIDs(rng, n, 50747)
			slices.Sort(ids)
			return ids
		},
	}
	for name, gen := range gens {
		for _, n := range lengths {
			got := gen(n)
			in := slices.Clone(got)
			want := slices.Clone(got)
			slices.Sort(want)
			sortIDs(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: sortIDs disagrees with slices.Sort", name, n)
			}
			// The radix pass alone, below the cut-over too: it sorts, or
			// refuses a negative id and leaves the input as it was.
			radix := slices.Clone(in)
			if radixSortIDs(radix) {
				if !slices.Equal(radix, want) {
					t.Fatalf("%s, n=%d: radixSortIDs disagrees with slices.Sort", name, n)
				}
			} else if name != "negative" || !slices.Equal(radix, in) {
				t.Fatalf("%s, n=%d: radixSortIDs refused or changed the input", name, n)
			}
		}
	}
}

func randIDs(rng *rand.Rand, n int, below int64) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = rng.Int63n(below)
	}
	return ids
}

// BenchmarkSortIDs sorts shuffled answers drawn from the 50 747-point Long
// Beach set: 197 and 344 ids are what coarse_read and paper_read return, and
// 8 … 64 ids bracket radixMinIDs, where the two arms cross. The radix arm runs
// the radix pass at every length, bypassing the cut-over it measures. Each
// iteration takes the next of 256 different answers, so no arm is timed on an
// input its branch predictor has learnt. The radix arm must stay at 0 allocs.
func BenchmarkSortIDs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	radix := func(ids []int64) { radixSortIDs(ids) }
	for _, n := range []int{8, 16, 24, 32, 40, 48, 64, 197, 344} {
		inputs := make([][]int64, 256)
		for k := range inputs {
			inputs[k] = make([]int64, n)
			for i, v := range rng.Perm(50747)[:n] {
				inputs[k][i] = int64(v)
			}
		}
		work := make([]int64, n)
		for _, arm := range []struct {
			name string
			sort func([]int64)
		}{{"radix", radix}, {"slices", slices.Sort[[]int64]}} {
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				arm.sort(slices.Clone(inputs[0])) // fills the scratch pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, inputs[i%len(inputs)])
					arm.sort(work)
				}
			})
		}
	}
}

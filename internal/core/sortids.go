package core

import (
	"math/bits"
	"slices"
	"sync"
)

// radixMinIDs is the length below which sortIDs leaves the answer to
// slices.Sort: a radix pass clears and scans a 256-entry histogram per digit,
// which short answers do not repay. BenchmarkSortIDs puts the crossover
// between 32 and 40 ids; a few per cent of the bench workloads' answers are
// shorter.
const radixMinIDs = 40

// radixScratch recycles the radix sort's second buffer.
var radixScratch = sync.Pool{New: func() any { return new([]int64) }}

// sortIDs sorts ascending in place. An answer's ids are dense and
// non-negative, so it runs an LSD radix sort on 8-bit digits, with as many
// passes as the largest id has bytes — two for ids under 65 536 — in linear
// time where a comparison sort pays n log n. Short answers and any negative
// id go to slices.Sort. The result is slices.Sort's either way: equal int64s
// are indistinguishable.
func sortIDs(ids []int64) {
	if len(ids) < radixMinIDs || !radixSortIDs(ids) {
		slices.Sort(ids)
	}
}

// radixSortIDs radix-sorts ids in place and reports true, or leaves them
// untouched and reports false when one is negative.
func radixSortIDs(ids []int64) bool {
	sp := radixScratch.Get().(*[]int64)
	if cap(*sp) < len(ids) {
		*sp = make([]int64, len(ids))
	}
	ok := radixSort(ids, (*sp)[:len(ids)])
	radixScratch.Put(sp)
	return ok
}

// radixSort is radixSortIDs with tmp, as long as ids, for its second buffer.
func radixSort(ids, tmp []int64) bool {
	var or int64
	for _, id := range ids {
		or |= id
	}
	if or < 0 {
		return false
	}
	src, dst := ids, tmp
	passes := (bits.Len64(uint64(or)) + 7) / 8
	for shift := uint(0); shift < uint(8*passes); shift += 8 {
		var at [256]uint32 // digit counts, then each digit's next slot
		for _, id := range src {
			at[byte(id>>shift)]++
		}
		var sum uint32
		for i := range at {
			n := at[i]
			at[i] = sum
			sum += n
		}
		dst = dst[:len(src)] // a no-op that measures ≈ 1.5× faster scatter on amd64
		for _, id := range src {
			b := byte(id >> shift)
			dst[at[b]] = id
			at[b]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ids, src)
	}
	return true
}

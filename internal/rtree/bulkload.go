package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gaussrange/internal/vecmat"
)

// BuildPacked builds the packed index of a static point set with
// Sort-Tile-Recursive (STR) packing: near-100 % leaf fill and strongly
// square leaf regions, the standard way to materialize a dataset like the
// experiments' TIGER point set before issuing queries. The build works on
// flat coordinates and an int32 permutation and fills the level-order arrays
// directly — no pointer tree is made; Unpack derives one for the callers
// that still want it. The points are copied, not retained.
func BuildPacked(points []vecmat.Vector, ids []int64, dim int, opts ...Option) (*Packed, error) {
	if len(points) != len(ids) {
		return nil, fmt.Errorf("rtree: %d points but %d ids", len(points), len(ids))
	}
	coords, err := flattenPoints(points, dim)
	if err != nil {
		return nil, err
	}
	maxFill, minFill, err := nodeFill(dim, opts)
	if err != nil {
		return nil, err
	}
	return buildPacked(coords, ids, dim, maxFill, minFill), nil
}

// BulkLoadPoints is Unpack(BuildPacked(...)): the STR-packed pointer tree.
func BulkLoadPoints(points []vecmat.Vector, ids []int64, dim int, opts ...Option) (*Tree, error) {
	p, err := BuildPacked(points, ids, dim, opts...)
	if err != nil {
		return nil, err
	}
	return Unpack(p), nil
}

// flattenPoints validates the points and copies them into one row-major
// coordinate block: point i occupies [i·dim, (i+1)·dim).
func flattenPoints(points []vecmat.Vector, dim int) ([]float64, error) {
	coords := make([]float64, 0, len(points)*max(dim, 0))
	for i, p := range points {
		if p.Dim() != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, p.Dim(), dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("rtree: non-finite point %d: %v", i, p)
		}
		coords = append(coords, p...)
	}
	return coords, nil
}

// strKey is what STR actually sorts: the order-preserving uint64 image of an
// entry's center on the sort axis (centerKey), the entry's position before
// the sort, and its index. STR needs a stable sort by center, because slicing
// on axis a+1 must keep ties in their axis-a order: the radix pass is stable
// by construction, and the comparison sort that short runs take orders by
// (key, pos) to the same effect. 16 pointer-free bytes.
type strKey struct {
	key      uint64
	pos, idx int32
}

// centerKey maps a center to a uint64 whose unsigned order is the float
// order: −0 folds into +0 (they compare equal), a non-negative value gets its
// sign bit set, a negative one has every bit flipped. ±Inf — the center of a
// coordinate beyond ±MaxFloat64/2 — sorts past every finite value. Centers
// are never NaN: the build rejects non-finite points and bounds stay finite.
func centerKey(c float64) uint64 {
	if c == 0 {
		return 1 << 63
	}
	b := math.Float64bits(c)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// The LSD radix pass sorts keys on radixBits-bit digits; runs shorter than
// radixMinKeys take slices.SortFunc instead, where clearing and scanning the
// digit histograms would cost more than the sort.
const (
	radixBits    = 11
	radixDigits  = (64 + radixBits - 1) / radixBits
	radixMinKeys = 256
)

// centerSorter is the STR key sort with its scratch, allocated once per
// build: keys holds two runs of the longest sort, hist one histogram per
// digit.
type centerSorter struct {
	keys []strKey
	hist *[radixDigits][1 << radixBits]uint32
}

func newCenterSorter(n int) centerSorter {
	return centerSorter{keys: make([]strKey, 2*n), hist: new([radixDigits][1 << radixBits]uint32)}
}

// sortByCenter stably reorders the entry indices in perm by the entries'
// centers (lo+hi)/2 on axis.
func (cs *centerSorter) sortByCenter(perm []int32, lo, hi []float64, dim, axis int) {
	n := len(perm)
	src, dst := cs.keys[:n:n], cs.keys[n:2*n:2*n]
	for k, i := range perm {
		o := int(i)*dim + axis
		src[k] = strKey{key: centerKey((lo[o] + hi[o]) / 2), pos: int32(k), idx: i}
	}
	if n < radixMinKeys {
		slices.SortFunc(src, func(a, b strKey) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return int(a.pos) - int(b.pos)
		})
	} else {
		// Every digit's histogram in one read of the keys; a digit whose
		// histogram holds all n keys in one bucket is shared by every key
		// and needs no pass.
		h := cs.hist
		*h = [radixDigits][1 << radixBits]uint32{}
		for _, k := range src {
			for d := range h {
				h[d][k.key>>(d*radixBits)&(1<<radixBits-1)]++
			}
		}
		for d := range h {
			at := &h[d]
			shift := d * radixBits
			if at[src[0].key>>shift&(1<<radixBits-1)] == uint32(n) {
				continue
			}
			var sum uint32
			for i, c := range at {
				at[i] = sum
				sum += c
			}
			for _, k := range src {
				b := k.key >> shift & (1<<radixBits - 1)
				dst[at[b]] = k
				at[b]++
			}
			src, dst = dst, src
		}
	}
	for k := range src {
		perm[k] = src[k].idx
	}
}

func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// strLevel is one level of the tree under construction: the bounds of its
// entries (the data rectangles at level 0, the MBRs of the nodes one level
// down above that), the order STR put them in, and where that order is cut
// into nodes.
type strLevel struct {
	lo, hi []float64 // entry i's bounds at [i·dim, (i+1)·dim)
	perm   []int32   // entry indices in packed order
	starts []int32   // node j holds perm[starts[j]:starts[j+1]]
}

// strBuilder carries what the recursive slicing of one level shares.
type strBuilder struct {
	strLevel
	centerSorter
	dim, maxFill int
}

// tile groups perm — the level's entries from position off on — into nodes
// by sort-tile slicing: sorted on axis, it is cut into
// ⌈(node count)^(1/(d−axis))⌉ slabs that recurse on the next axis, and the
// last axis cuts each slab into nodes. Cuts are even (sizes differ by at most
// one): STR's naive "last chunk gets the remainder" rule would violate the
// minimum fill, while even chunks of more than M entries hold at least
// ⌊(M+1)/2⌋ ≥ m each.
func (b *strBuilder) tile(perm []int32, off int32, axis int) {
	last := axis == b.dim-1
	k := (len(perm) + b.maxFill - 1) / b.maxFill
	if !last {
		k = min(max(int(math.Ceil(math.Pow(float64(k), 1/float64(b.dim-axis)))), 1), len(perm))
	}
	b.sortByCenter(perm, b.lo, b.hi, b.dim, axis)
	s := 0
	for i := 0; i < k; i++ {
		e := s + (len(perm)-s)/(k-i)
		if e == s {
			continue
		}
		if last {
			b.starts = append(b.starts, off+int32(e))
		} else {
			b.tile(perm[s:e], off+int32(s), axis+1)
		}
		s = e
	}
}

// nodeBounds returns the MBR of every node of the level, folding entries in
// node order with the comparisons geom.Rect.UnionInPlace makes.
func (lv *strLevel) nodeBounds(dim int) (lo, hi []float64) {
	nodes := len(lv.starts) - 1
	both := make([]float64, 2*nodes*dim)
	lo, hi = both[:nodes*dim:nodes*dim], both[nodes*dim:]
	for j := 0; j < nodes; j++ {
		ents := lv.perm[lv.starts[j]:lv.starts[j+1]]
		nlo, nhi := lo[j*dim:(j+1)*dim], hi[j*dim:(j+1)*dim]
		first := int(ents[0]) * dim
		copy(nlo, lv.lo[first:first+dim])
		copy(nhi, lv.hi[first:first+dim])
		for _, i := range ents[1:] {
			o := int(i) * dim
			for a := 0; a < dim; a++ {
				if v := lv.lo[o+a]; v < nlo[a] {
					nlo[a] = v
				}
				if v := lv.hi[o+a]; v > nhi[a] {
					nhi[a] = v
				}
			}
		}
	}
	return lo, hi
}

// buildPacked STR-packs the points (coords: row-major, point i at
// [i·dim, (i+1)·dim)) level by level, then emits the levels top-down in level
// order. The result equals Pack of the pointer tree the same STR would have
// built, field for field: same node order, same entry order within nodes,
// same bounds bits.
func buildPacked(coords []float64, ids []int64, dim, maxFill, minFill int) *Packed {
	b := strBuilder{dim: dim, maxFill: maxFill}
	if len(ids) > maxFill {
		b.centerSorter = newCenterSorter(len(ids))
	}
	levels := make([]strLevel, 0, 8)
	count := len(ids)
	// The data level's entries are the points, their bounds the point twice.
	lo, hi := coords, coords
	for count > maxFill {
		b.strLevel = strLevel{lo: lo, hi: hi, perm: identityPerm(count), starts: make([]int32, 1, 2*count/maxFill+1)}
		b.tile(b.perm, 0, 0)
		levels = append(levels, b.strLevel)
		lo, hi = b.nodeBounds(dim)
		count = len(b.starts) - 1
	}
	// The root keeps what is left in the order it was produced.
	levels = append(levels, strLevel{lo: lo, hi: hi, perm: identityPerm(count), starts: []int32{0, int32(count)}})

	nodes, total := 0, 0
	for _, lv := range levels {
		nodes += len(lv.starts) - 1
		total += len(lv.perm)
	}
	p := newPacked(dim, nodes, total, len(ids))
	p.height = len(levels)
	p.maxFill, p.minFill = maxFill, minFill
	p.firstLeaf = int32(nodes - (len(levels[0].starts) - 1))

	// A level's nodes in level order are the entries of the level above,
	// read node by node — so each pass both emits its level and yields the
	// next one's order. The root level has the one node.
	order := []int32{0}
	for l := len(levels) - 1; l >= 0; l-- {
		lv, leaf := &levels[l], l == 0
		var below []int32
		if !leaf {
			below = make([]int32, 0, len(lv.perm))
		}
		for _, j := range order {
			ents := lv.perm[lv.starts[j]:lv.starts[j+1]]
			p.openNode(len(ents))
			for _, i := range ents {
				o := int(i) * dim
				if leaf {
					p.putLeaf(ids[i], coords[o:o+dim])
				} else {
					p.putNode(lv.lo[o:o+dim], lv.hi[o:o+dim])
				}
			}
			if !leaf {
				below = append(below, ents...)
			}
		}
		order = below
	}
	p.seal()
	return p
}

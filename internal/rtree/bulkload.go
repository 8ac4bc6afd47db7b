package rtree

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"gaussrange/internal/vecmat"
)

// BuildPacked builds the packed index of a static point set: it copies the
// points into one row-major block and runs BuildPackedFlat on it, for callers
// that hold the points as vectors.
func BuildPacked(points []vecmat.Vector, ids []int64, dim int, opts ...Option) (*Packed, error) {
	if len(points) != len(ids) {
		return nil, fmt.Errorf("rtree: %d points but %d ids", len(points), len(ids))
	}
	coords, err := flattenPoints(points, dim)
	if err != nil {
		return nil, err
	}
	return BuildPackedFlat(coords, ids, nil, dim, opts...)
}

// BuildPackedFlat builds the packed index of a static point set with
// Sort-Tile-Recursive (STR) packing: near-100 % leaf fill and strongly
// square leaf regions, the standard way to materialize a dataset like the
// experiments' TIGER point set before issuing queries. coords holds the
// points row-major — point i at [i·dim, (i+1)·dim) — and is read, not
// retained; point i's id is ids[i], or i when ids is nil, and must fit an
// int32: the index stores its ids in four bytes. When rows is not nil, the
// build writes point i's leaf position (Leaf's j) to rows[i]. The build works on
// the flat coordinates and an int32 permutation and fills the level-order
// arrays directly — no pointer tree is made; Unpack derives one for the
// callers that still want it. It runs on up to runtime.GOMAXPROCS(0)
// goroutines, and its result does not depend on how many.
func BuildPackedFlat(coords []float64, ids []int64, rows []int32, dim int, opts ...Option) (*Packed, error) {
	maxFill, minFill, err := nodeFill(dim, opts)
	if err != nil {
		return nil, err
	}
	if len(coords)%dim != 0 || ids != nil && len(coords) != len(ids)*dim || rows != nil && len(coords) != len(rows)*dim {
		return nil, fmt.Errorf("%w: %d coordinates for %d ids and %d rows of dim %d", ErrDimension, len(coords), len(ids), len(rows), dim)
	}
	for i, id := range ids {
		if id != int64(int32(id)) {
			return nil, fmt.Errorf("rtree: point %d's id %d does not fit an int32", i, id)
		}
	}
	for o, v := range coords {
		if v-v != 0 { // NaN or ±Inf
			i := o / dim
			return nil, fmt.Errorf("rtree: non-finite point %d: %v", i, coords[i*dim:(i+1)*dim])
		}
	}
	return buildPacked(coords, ids, rows, dim, maxFill, minFill, runtime.GOMAXPROCS(0), parallelGrain), nil
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

// parallelGrain is the least work one build goroutine is given: a sort, a
// level's tiling or its emission over n entries runs in
// min(GOMAXPROCS, ⌊n/parallelGrain⌋) parts, at least one, each on its own
// goroutine. Measured by BenchmarkBuildParts on the 2-core box, each build
// right after a forced GC as a load's is (medians of three, one part → two):
// uniform 2-D sets of 2 000 points 0.34 → 0.49 ms, 8 000 1.28 → 1.30 ms,
// 16 000 2.62 → 2.43 ms and 50 000 8.2 → 7.2 ms; Long Beach's 50 747
// 7.7 → 6.1 ms — a part's hand-off, its own bucket tables and a GC that
// takes the other core cost what sorting a few thousand keys does. At the
// paper's page size only the leaf level of a 50 747-point load splits.
const parallelGrain = 8192

// splitWork returns how many of workers share a job of n entries, each
// given at least grain.
func splitWork(n, workers, grain int) int {
	return max(1, min(workers, n/grain))
}

// chunk returns the bounds of part g of n items cut into w even parts.
func chunk(n, w, g int) (s, e int) {
	return n * g / w, n * (g + 1) / w
}

// stepper is one parallel step of the build: step(g) does part g. Each
// implementation is the shared state of its step, with a field saying which
// step is running.
type stepper interface{ step(g int) }

type crewJob struct {
	s stepper
	g int
}

// crew runs the parts of a build's parallel steps: part 0 on the calling
// goroutine, the others on goroutines started once per build, so a step
// costs a channel send per part and no allocation. A nil crew runs one-part
// steps.
type crew struct {
	jobs   chan crewJob
	wg     sync.WaitGroup // the step's parts in flight
	exited sync.WaitGroup // the crew's goroutines
}

// newCrew starts w−1 goroutines; stop ends them.
func newCrew(w int) *crew {
	if w == 1 {
		return nil
	}
	// A step sends at most w−1 parts, so a send never waits for a goroutine.
	c := &crew{jobs: make(chan crewJob, w)}
	c.exited.Add(w - 1)
	for range w - 1 {
		go func() {
			defer c.exited.Done()
			for j := range c.jobs {
				j.s.step(j.g)
				c.wg.Done()
			}
		}()
	}
	return c
}

// run does s.step(0) .. s.step(w−1) and returns when all have; w is at most
// the crew's size.
func (c *crew) run(w int, s stepper) {
	if w == 1 {
		s.step(0)
		return
	}
	c.wg.Add(w - 1)
	for g := 1; g < w; g++ {
		c.jobs <- crewJob{s, g}
	}
	s.step(0)
	c.wg.Wait()
}

// stop ends the crew's goroutines and returns once they have exited.
func (c *crew) stop() {
	if c != nil {
		close(c.jobs)
		c.exited.Wait()
	}
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

// The key sort is a most-significant-digit radix sort: a run is bucketed on
// the top bits of its keys' spread (key − min), radixBits at most and at
// most two buckets per key, and every bucket recurses on the bits below; a
// run of at most insertionMax keys takes an insertion sort. Float keys
// cluster by exponent, so a bucket can hold far more than its share — it
// recurses, each level on fewer bits. A run of more than insertionMax keys
// is bucketed on at least bits.Len(insertionMax+1) = 5 bits, so radixDepth
// levels reach a spread of one key.
const (
	radixBits    = 11
	insertionMax = 24
	radixDepth   = (64 + 4) / 5 // ⌈64 / 5⌉
)

// radixHist holds one bucket table per recursion depth.
type radixHist [radixDepth][1 << radixBits]uint32

// centerSorter is the STR key sort with its scratch — keys holds two runs of
// keys for the longest sort and idx one run of the entries' indices (the
// sorted perm is the other), hists one set of bucket tables per part the
// sort is cut into, and sp (with more than one) the split's scratch — and
// the sort in progress, which its parts share. A key is the order-preserving
// uint64 image of an entry's center on the sort axis (centerKey); STR needs a
// stable sort by center, because slicing on axis a+1 must keep ties in their
// axis-a order, and every step of the sort keeps equal keys in input order.
type centerSorter struct {
	keys  []uint64
	idx   []int32
	hists []radixHist
	sp    *keySplit
	crew  *crew

	phase     sortPhase
	perm      []int32
	lo, hi    []float64
	ka, kb    []uint64 // the keys, and the buffer a pass moves them to
	xa, xb    []int32  // their entry indices, and the same; perm is one of the two
	dim, axis int
	ranges    []int // key range r is ka[ranges[r]:ranges[r+1]]
	whole     [2]int
}

type sortPhase uint8

const (
	keyPhase     sortPhase = iota // keyChunk
	countPhase                    // countChunk
	scatterPhase                  // scatterChunk
	rangePhase                    // sortRange
)

// keySplit is the scratch of the key sort's split into key ranges.
type keySplit struct {
	min, max []uint64              // part g's chunk's least and greatest key
	base     uint64                // the least key
	shift    int                   // a key's bucket is (key − base) >> shift
	rangeOf  [1 << radixBits]int32 // a bucket's range
	offsets  []int                 // part g's next slot in range r at [g·w+r]
	starts   []int                 // w+1 range bounds
}

// newCenterSorter allocates the scratch of sorts of up to n keys in w parts,
// run by c.
func newCenterSorter(n, w int, c *crew) centerSorter {
	cs := centerSorter{keys: make([]uint64, 2*n), idx: make([]int32, n), hists: make([]radixHist, w), crew: c}
	if w > 1 {
		ints := make([]int, w*w+w+1)
		lims := make([]uint64, 2*w)
		cs.sp = &keySplit{min: lims[:w], max: lims[w:], offsets: ints[:w*w], starts: ints[w*w:]}
	}
	return cs
}

// sortByCenter stably reorders the entry indices in perm by the entries'
// centers (lo+hi)/2 on axis, in len(cs.hists) parts. Each part keys one
// chunk of the entries. With several, split then cuts the keys into as many
// key ranges and each part sorts one range on its own. Both steps keep
// equal keys in input order, so the result is the one-part sort's, key for
// key.
func (cs *centerSorter) sortByCenter(perm []int32, lo, hi []float64, dim, axis int) {
	n := len(perm)
	cs.perm, cs.lo, cs.hi, cs.dim, cs.axis = perm, lo, hi, dim, axis
	cs.ka, cs.kb = cs.keys[:n:n], cs.keys[n:2*n:2*n]
	cs.xa, cs.xb = perm, cs.idx[:n:n]
	w := len(cs.hists)
	cs.phase = keyPhase
	cs.crew.run(w, cs)
	cs.whole[1] = n
	cs.ranges = cs.whole[:]
	if w > 1 {
		cs.split()
	}
	cs.phase = rangePhase
	cs.crew.run(w, cs)
}

func (cs *centerSorter) step(g int) {
	switch cs.phase {
	case keyPhase:
		cs.keyChunk(g)
	case countPhase:
		cs.countChunk(g)
	case scatterPhase:
		cs.scatterChunk(g)
	case rangePhase:
		cs.sortRange(g)
	}
}

// keyChunk writes chunk g's keys and, in several parts, notes their least
// and greatest.
func (cs *centerSorter) keyChunk(g int) {
	s, e := chunk(len(cs.perm), len(cs.hists), g)
	lo, hi := ^uint64(0), uint64(0)
	for k := s; k < e; k++ {
		i := cs.perm[k]
		o := int(i)*cs.dim + cs.axis
		key := centerKey((cs.lo[o] + cs.hi[o]) / 2)
		cs.ka[k] = key
		lo, hi = min(lo, key), max(hi, key)
	}
	if cs.sp != nil && len(cs.hists) > 1 {
		cs.sp.min[g], cs.sp.max[g] = lo, hi
	}
}

// split cuts the keys into len(cs.hists) ranges on their top radixBits
// bits of spread — range r takes the buckets from the one where the running
// count first reaches r·n/w — and moves each chunk's keys to their ranges in
// order, at range-major, chunk-minor offsets, as one stable bucket pass
// would. So no two parts write near each other's keys. Keys that are all
// equal stay where they are, as one range.
func (cs *centerSorter) split() {
	n, w, sp := len(cs.perm), len(cs.hists), cs.sp
	lo, hi := slices.Min(sp.min[:w]), slices.Max(sp.max[:w])
	if lo == hi {
		return
	}
	sp.base, sp.shift = lo, max(0, bits.Len64(hi-lo)-radixBits)
	cs.phase = countPhase
	cs.crew.run(w, cs)
	r, seen := 0, 0
	clear(sp.offsets)
	sp.starts[0] = 0
	for b := range 1 << radixBits {
		for r+1 < w && seen >= n*(r+1)/w {
			r++
			sp.starts[r] = seen
		}
		sp.rangeOf[b] = int32(r)
		for g := range cs.hists {
			c := int(cs.hists[g][0][b])
			sp.offsets[g*w+r] += c
			seen += c
		}
	}
	for r++; r <= w; r++ {
		sp.starts[r] = n
	}
	for r := 0; r < w; r++ {
		at := sp.starts[r]
		for g := 0; g < w; g++ {
			c := sp.offsets[g*w+r]
			sp.offsets[g*w+r] = at
			at += c
		}
	}
	cs.phase = scatterPhase
	cs.crew.run(w, cs)
	cs.ka, cs.kb, cs.xa, cs.xb = cs.kb, cs.ka, cs.xb, cs.xa
	cs.ranges = sp.starts
}

// countChunk counts chunk g's keys per bucket of the split.
func (cs *centerSorter) countChunk(g int) {
	s, e := chunk(len(cs.perm), len(cs.hists), g)
	at, base, shift := &cs.hists[g][0], cs.sp.base, cs.sp.shift
	*at = [1 << radixBits]uint32{}
	for _, key := range cs.ka[s:e] {
		at[(key-base)>>shift]++
	}
}

// scatterChunk moves chunk g's keys to their ranges, in order.
func (cs *centerSorter) scatterChunk(g int) {
	s, e := chunk(len(cs.perm), len(cs.hists), g)
	w, sp := len(cs.hists), cs.sp
	off := sp.offsets[g*w : (g+1)*w]
	for k, key := range cs.ka[s:e] {
		r := sp.rangeOf[(key-sp.base)>>sp.shift]
		cs.kb[off[r]], cs.xb[off[r]] = key, cs.xa[s+k]
		off[r]++
	}
}

// sortRange sorts key range g and writes its entry order into perm.
func (cs *centerSorter) sortRange(g int) {
	if g+1 >= len(cs.ranges) {
		return
	}
	s, e := cs.ranges[g], cs.ranges[g+1]
	sortRun(cs.ka[s:e], cs.kb[s:e], cs.xa[s:e], cs.xb[s:e], cs.perm[s:e], &cs.hists[g], 0)
}

// sortRun stably sorts the keys ka and their entry indices xa, with kb and
// xb (as long) as scratch and h's table at depth and below as its buckets,
// and writes the entry order into perm, which is xa, xb or neither.
func sortRun(ka, kb []uint64, xa, xb, perm []int32, h *radixHist, depth int) {
	if len(ka) <= insertionMax {
		for i := 1; i < len(ka); i++ {
			key, x, j := ka[i], xa[i], i
			for ; j > 0 && ka[j-1] > key; j-- {
				ka[j], xa[j] = ka[j-1], xa[j-1]
			}
			ka[j], xa[j] = key, x
		}
		copy(perm, xa)
		return
	}
	lo, hi := ka[0], ka[0]
	for _, key := range ka[1:] {
		lo, hi = min(lo, key), max(hi, key)
	}
	if lo == hi {
		copy(perm, xa)
		return
	}
	// bits.Len(n) bits of the spread — at most two buckets per key — and
	// radixBits at most.
	shift := max(0, bits.Len64(hi-lo)-min(radixBits, bits.Len(uint(len(ka)))))
	top := int((hi - lo) >> shift)
	at := h[depth][:top+1]
	clear(at)
	for _, key := range ka {
		at[(key-lo)>>shift]++
	}
	var sum uint32
	for b, c := range at {
		at[b] = sum
		sum += c
	}
	for k, key := range ka {
		b := (key - lo) >> shift
		kb[at[b]], xb[at[b]] = key, xa[k]
		at[b]++
	}
	// at[b] is now where bucket b ends.
	s := 0
	for _, e := range at {
		switch int(e) - s {
		case 0:
		case 1:
			perm[s] = xb[s]
		default:
			sortRun(kb[s:e], ka[s:e], xb[s:e], xa[s:e], perm[s:e], h, depth+1)
		}
		s = int(e)
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

// strTiler carries what the recursive slicing of one level shares: the
// level's bounds, the sort with its scratch, and the node cuts made so far.
type strTiler struct {
	centerSorter
	lo, hi       []float64
	dim, maxFill int
	starts       []int32
	groups       slabGroups
}

// evenCuts calls fn(s, e) for the non-empty parts from .. to−1 of n entries
// cut into k even parts (sizes differ by at most one).
func evenCuts(n, k, from, to int, fn func(s, e int)) {
	s := 0
	for i := 0; i < to; i++ {
		e := s + (n-s)/(k-i)
		if i >= from && e > s {
			fn(s, e)
		}
		s = e
	}
}

// tile groups perm — the level's entries from position off on — into nodes
// by sort-tile slicing: sorted on axis, it is cut into
// ⌈(node count)^(1/(d−axis))⌉ slabs that recurse on the next axis, and the
// last axis cuts each slab into nodes. Cuts are even: STR's naive "last chunk
// gets the remainder" rule would violate the minimum fill, while even chunks
// of more than M entries hold at least ⌊(M+1)/2⌋ ≥ m each. A tiler whose
// sort has several parts (the top call of a large level) tiles its slabs in
// slabGroups.
func (t *strTiler) tile(perm []int32, off int32, axis int) {
	n, last := len(perm), axis == t.dim-1
	k := (n + t.maxFill - 1) / t.maxFill
	if !last {
		k = min(max(int(math.Ceil(math.Pow(float64(k), 1/float64(t.dim-axis)))), 1), n)
	}
	t.sortByCenter(perm, t.lo, t.hi, t.dim, axis)
	switch w := min(len(t.hists), k); {
	case last:
		evenCuts(n, k, 0, k, func(_, e int) { t.starts = append(t.starts, off+int32(e)) })
	case w == 1:
		evenCuts(n, k, 0, k, func(s, e int) { t.tile(perm[s:e], off+int32(s), axis+1) })
	default:
		sg := &t.groups
		*sg = slabGroups{t: t, perm: perm, off: off, axis: axis, k: k, subs: make([]strTiler, w)}
		t.crew.run(w, sg)
		for g := range sg.subs {
			t.starts = append(t.starts, sg.subs[g].starts...)
		}
	}
}

// slabGroups tiles the k slabs of one sorted run in len(subs) parts: part g
// takes a contiguous group of slabs with its own bucket tables, the slabs' own
// stretch of the key scratch and its own cuts (subs[g]), and the groups'
// cuts join in slab order — so the cuts are the one-part tiling's.
type slabGroups struct {
	t       *strTiler
	perm    []int32
	off     int32
	axis, k int
	subs    []strTiler
}

func (sg *slabGroups) step(g int) {
	t, n, sub := sg.t, len(sg.perm), &sg.subs[g]
	from, to := chunk(sg.k, len(sg.subs), g)
	*sub = strTiler{lo: t.lo, hi: t.hi, dim: t.dim, maxFill: t.maxFill}
	sub.hists = t.hists[g : g+1]
	sub.starts = make([]int32, 0, (to-from)*(n/sg.k/t.maxFill+2))
	evenCuts(n, sg.k, from, to, func(s, e int) {
		sub.keys, sub.idx = t.keys[2*s:2*e], t.idx[s:e]
		sub.tile(sg.perm[s:e], sg.off+int32(s), sg.axis+1)
	})
}

// strBuilder is one build's shared state: the input, the level being
// bounded or emitted, and the packed index being filled. As a stepper it
// runs nodeBounds' and the emission's parts.
type strBuilder struct {
	coords       []float64
	ids          []int64
	rows         []int32 // point i's leaf position goes to rows[i], when not nil
	dim, maxFill int
	workers      int // a step over n entries runs in splitWork(n, workers, grain) parts
	grain        int
	crew         *crew
	tiler        strTiler

	emitting bool
	lv       *strLevel
	w        int       // parts of the current step
	lo, hi   []float64 // nodeBounds: the MBRs of lv's nodes

	p          *Packed
	order      []int32   // emit: lv's nodes in level order
	below      []int32   // emit: lv's entries in level order — the next level's order
	node, base int       // emit: the packed index of order[0] and of its first entry
	errs       []float64 // emit: per-part rounding-error bounds, dim each
}

func (b *strBuilder) step(g int) {
	if b.emitting {
		b.emitPart(g)
	} else {
		b.boundsPart(g)
	}
}

// nodeBounds sets b.lo and b.hi to the MBR of every node of b.lv, folding
// entries in node order with the comparisons geom.Rect.UnionInPlace makes;
// parts take contiguous runs of nodes.
func (b *strBuilder) nodeBounds() {
	nodes, dim := len(b.lv.starts)-1, b.dim
	both := make([]float64, 2*nodes*dim)
	b.lo, b.hi = both[:nodes*dim:nodes*dim], both[nodes*dim:]
	b.w, b.emitting = splitWork(len(b.lv.perm), b.workers, b.grain), false
	b.crew.run(b.w, b)
}

func (b *strBuilder) boundsPart(g int) {
	lv, dim := b.lv, b.dim
	from, to := chunk(len(lv.starts)-1, b.w, g)
	for j := from; j < to; j++ {
		ents := lv.perm[lv.starts[j]:lv.starts[j+1]]
		nlo, nhi := b.lo[j*dim:(j+1)*dim], b.hi[j*dim:(j+1)*dim]
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
}

// emitPart writes part g of the level's nodes (b.order) into the packed
// arrays at the offsets p.start already holds, and their entries into
// b.below.
func (b *strBuilder) emitPart(g int) {
	lv, p, dim, leaf := b.lv, b.p, b.dim, b.below == nil
	ge := b.errs[g*dim : (g+1)*dim]
	from, to := chunk(len(b.order), b.w, g)
	for q := from; q < to; q++ {
		j := b.order[q]
		ents := lv.perm[lv.starts[j]:lv.starts[j+1]]
		e := int(p.start[b.node+q])
		if !leaf {
			copy(b.below[e-b.base:], ents)
		}
		for x, i := range ents {
			o := int(i) * dim
			if leaf {
				id := int64(i)
				if b.ids != nil {
					id = b.ids[i]
				}
				j := e + x - int(p.leafBase)
				p.setLeaf(j, id, b.coords[o:o+dim])
				if b.rows != nil {
					b.rows[i] = int32(j)
				}
			} else {
				p.setNode(e+x, lv.lo[o:o+dim], lv.hi[o:o+dim], ge)
			}
		}
	}
}

// buildPacked STR-packs the points (coords: row-major, point i at
// [i·dim, (i+1)·dim)) level by level, then emits the levels top-down in level
// order, each step in up to workers parts on as many goroutines. The result
// equals Pack of the pointer tree the same STR would have built, field for
// field: same node order, same entry order within nodes, same bounds bits —
// whatever workers and the least part (grain) are.
func buildPacked(coords []float64, ids []int64, rows []int32, dim, maxFill, minFill, workers, grain int) *Packed {
	n := len(coords) / dim
	workers = splitWork(n, workers, grain)
	b := &strBuilder{coords: coords, ids: ids, rows: rows, dim: dim, maxFill: maxFill, workers: workers, grain: grain, crew: newCrew(workers)}
	defer b.crew.stop()
	var cs centerSorter
	if n > maxFill {
		cs = newCenterSorter(n, workers, b.crew)
	}
	levels := make([]strLevel, 0, 8)
	count := n
	// The data level's entries are the points, their bounds the point twice.
	lo, hi := coords, coords
	for count > maxFill {
		t := &b.tiler
		*t = strTiler{centerSorter: cs, lo: lo, hi: hi, dim: dim, maxFill: maxFill, starts: make([]int32, 1, 2*count/maxFill+1)}
		t.hists = cs.hists[:splitWork(count, workers, grain)]
		levels = append(levels, strLevel{lo: lo, hi: hi, perm: identityPerm(count)})
		b.lv = &levels[len(levels)-1]
		t.tile(b.lv.perm, 0, 0)
		b.lv.starts = t.starts
		b.nodeBounds()
		lo, hi = b.lo, b.hi
		count = len(b.lv.starts) - 1
	}
	// The root keeps what is left in the order it was produced.
	levels = append(levels, strLevel{lo: lo, hi: hi, perm: identityPerm(count), starts: []int32{0, int32(count)}})

	nodes, total := 0, 0
	for _, lv := range levels {
		nodes += len(lv.starts) - 1
		total += len(lv.perm)
	}
	p := newPacked(dim, nodes, total, n)
	p.height = len(levels)
	p.maxFill, p.minFill = maxFill, minFill
	p.firstLeaf = int32(nodes - (len(levels[0].starts) - 1))

	// A level's nodes in level order are the entries of the level above,
	// read node by node — so each pass both emits its level and yields the
	// next one's order. The root level has the one node. The spans fix every
	// node's offset up front, so parts fill disjoint runs of nodes.
	b.p, b.errs, b.emitting = p, make([]float64, workers*dim), true
	b.order = []int32{0}
	entry := int32(0)
	for l := len(levels) - 1; l >= 0; l-- {
		b.lv, b.base = &levels[l], int(entry)
		for q, j := range b.order {
			span := b.lv.starts[j+1] - b.lv.starts[j]
			p.start[b.node+q] = entry
			p.maxSpan = max(p.maxSpan, int(span))
			entry += span
		}
		b.below = nil
		if l > 0 {
			b.below = make([]int32, len(b.lv.perm))
		}
		b.w = splitWork(len(b.lv.perm), workers, grain)
		b.crew.run(b.w, b)
		b.node += len(b.order)
		b.order = b.below
	}
	p.start[nodes] = entry
	for g := 0; g < workers; g++ {
		for a := range p.errs {
			p.errs[a] = max(p.errs[a], b.errs[g*dim+a])
		}
	}
	return p
}

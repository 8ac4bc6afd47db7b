package rtree

import (
	"math"
	"slices"

	"gaussrange/internal/geom"
)

// Packed is the immutable, cache-linear form of an R-tree and the structure
// every base snapshot serves from: BuildPacked STR-builds it directly at
// load, restore and overlay-fold time, and Pack derives it from a pointer
// tree. Where the pointer tree stores one heap node per page with a slice of
// entries, Packed stores every node's bounds in level-order contiguous
// structure-of-arrays form, so a search walks flat arrays instead of chasing
// pointers:
//
//   - per-axis Lo/Hi float64 bounds for every entry, plus a round-to-nearest
//     float32 mirror of both and a per-axis worst-case rounding error — the
//     certificate that lets searches decide most entries 8-wide in float32
//     and recheck only the straddling band in float64 (see packed_search.go);
//   - child node indices as int32 (internal entries occupy the array prefix,
//     because level order places all leaves last);
//   - leaf ids as int64 and leaf Lo corners in one flat []float64 block — for
//     point data (degenerate rects) this is the point itself, letting the
//     engine stream Phase-2 filters over leaf blocks without id→point
//     lookups.
//
// A Packed never mutates and carries no counters, so any number of searches
// may share it; per-search accounting is returned to the caller instead of
// accumulated in the structure.
type Packed struct {
	dim       int
	size      int   // leaf entries (== Tree.Len of the packed tree)
	height    int   // tree height (recursion depth bound for scratch buffers)
	firstLeaf int32 // node index of the first leaf; all nodes ≥ it are leaves
	leafBase  int32 // entry index of the first leaf entry
	maxSpan   int   // widest node entry span (classification buffer size)
	maxFill   int   // node capacity M and minimum fill m the index was built
	minFill   int   // for; Unpack hands them to the pointer tree

	// start[i] .. start[i+1] is node i's entry span; len(start) = nodes+1.
	start []int32

	// Per-axis entry bounds: lo[a][e], hi[a][e] are the exact float64 bounds
	// of entry e on axis a; lo32/hi32 are their round-to-nearest float32
	// mirrors and errs[a] bounds |float64(float32(v)) − v| over every value
	// stored on axis a.
	lo, hi     [][]float64
	lo32, hi32 [][]float32
	errs       []float64

	// child[e] is the packed node index of internal entry e (e < leafBase).
	child []int32
	// ids[e-leafBase] is the data id of leaf entry e.
	ids []int64
	// pts holds leaf Lo corners: entry e's block is
	// pts[(e-leafBase)*dim : (e-leafBase+1)*dim].
	pts []float64
	// pointData reports that every leaf rect is degenerate (Lo == Hi), i.e.
	// pts holds the actual indexed points.
	pointData bool
}

// newPacked allocates the arrays of a packed index with the given node,
// entry and leaf-entry counts; the caller fills them in level order with
// openNode and putEntry, then seals it.
func newPacked(dim, nodes, total, leafTotal int) *Packed {
	p := &Packed{dim: dim, size: leafTotal, pointData: true}
	p.start = make([]int32, 0, nodes+1)
	// One block per element type, carved into the per-axis arrays.
	axes64, axes32 := make([][]float64, 2*dim), make([][]float32, 2*dim)
	p.lo, p.hi = axes64[:dim:dim], axes64[dim:]
	p.lo32, p.hi32 = axes32[:dim:dim], axes32[dim:]
	f64 := make([]float64, 2*dim*total)
	f32 := make([]float32, 2*dim*total)
	for a := 0; a < dim; a++ {
		p.lo[a], f64 = f64[:total:total], f64[total:]
		p.hi[a], f64 = f64[:total:total], f64[total:]
		p.lo32[a], f32 = f32[:total:total], f32[total:]
		p.hi32[a], f32 = f32[:total:total], f32[total:]
	}
	p.errs = make([]float64, dim)
	p.child = make([]int32, 0, total-leafTotal)
	p.ids = make([]int64, 0, leafTotal)
	p.pts = make([]float64, 0, leafTotal*dim)
	return p
}

// openNode starts the next node in level order, span entries wide.
func (p *Packed) openNode(span int) {
	p.start = append(p.start, int32(len(p.child)+len(p.ids)))
	p.maxSpan = max(p.maxSpan, span)
}

// putEntry appends one entry to the open node: its bounds with their float32
// mirrors (widening the per-axis rounding-error bounds to cover them), and
// either its id and Lo corner (leaf) or its child index. Level order
// enumerates children in exactly the order parents enumerate their entries,
// and internal entries occupy the array prefix, so child indices are simply
// sequential from 1.
func (p *Packed) putEntry(lo, hi []float64, leaf bool, id int64) {
	e := len(p.child) + len(p.ids)
	for a := 0; a < p.dim; a++ {
		l, h := lo[a], hi[a]
		p.lo[a][e], p.hi[a][e] = l, h
		l32, h32 := float32(l), float32(h)
		p.lo32[a][e], p.hi32[a][e] = l32, h32
		if d := math.Abs(float64(l32) - l); d > p.errs[a] {
			p.errs[a] = d
		}
		if d := math.Abs(float64(h32) - h); d > p.errs[a] {
			p.errs[a] = d
		}
	}
	if !leaf {
		p.child = append(p.child, int32(len(p.child)+1))
		return
	}
	p.ids = append(p.ids, id)
	p.pts = append(p.pts, lo...)
	p.pointData = p.pointData && slices.Equal(lo, hi)
}

// seal closes the last node.
func (p *Packed) seal() {
	p.start = append(p.start, int32(len(p.child)+len(p.ids)))
	p.leafBase = p.start[p.firstLeaf]
}

// Pack builds the packed form of a pointer tree — the inverse of Unpack, and
// the way a tree shaped by R* insertion and deletion (rather than built by
// BuildPacked) gets one. The tree must not mutate concurrently.
func Pack(t *Tree) *Packed {
	// Level-order (BFS) node enumeration. The tree is height-balanced, so BFS
	// order groups nodes by level and all leaves form a contiguous tail.
	nodes := []*node{t.root}
	total, firstLeaf := 0, -1
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		total += len(n.entries)
		if n.isLeaf() {
			if firstLeaf < 0 {
				firstLeaf = i
			}
			continue
		}
		for j := range n.entries {
			nodes = append(nodes, n.entries[j].child)
		}
	}

	p := newPacked(t.dim, len(nodes), total, t.size)
	p.height = t.height
	p.maxFill, p.minFill = t.maxFill, t.minFill
	p.firstLeaf = int32(firstLeaf)
	for _, n := range nodes {
		p.openNode(len(n.entries))
		for j := range n.entries {
			ent := &n.entries[j]
			p.putEntry(ent.Rect.Lo, ent.Rect.Hi, n.isLeaf(), ent.ID)
		}
	}
	p.seal()
	return p
}

// Unpack materializes the pointer tree a packed index describes — the
// inverse of Pack, with no sorting: nodes, entries and rectangle coordinates
// come from three allocations and are wired up in one pass over the arrays.
// Search order and node-visit counts on the result equal the packed
// index's; it is an ordinary Tree and may be mutated independently.
func Unpack(p *Packed) *Tree {
	dim := p.dim
	nodes := make([]node, p.NumNodes())
	entries := make([]Entry, p.start[len(nodes)])
	coords := make([]float64, 2*dim*len(entries))
	nodes[0].level = p.height - 1
	for i := range nodes {
		n := &nodes[i]
		s, end := p.start[i], p.start[i+1]
		n.entries = entries[s:end:end]
		for e := s; e < end; e++ {
			ent := &entries[e]
			ent.Rect = geom.Rect{Lo: coords[:dim:dim], Hi: coords[dim : 2*dim : 2*dim]}
			coords = coords[2*dim:]
			for a := 0; a < dim; a++ {
				ent.Rect.Lo[a], ent.Rect.Hi[a] = p.lo[a][e], p.hi[a][e]
			}
			if e < p.leafBase {
				ent.child = &nodes[p.child[e]]
				ent.child.parent, ent.child.level = n, n.level-1
			} else {
				ent.ID = p.ids[e-p.leafBase]
			}
		}
	}
	return &Tree{dim: dim, root: &nodes[0], size: p.size, maxFill: p.maxFill, minFill: p.minFill, height: p.height}
}

// Dim returns the dimensionality of packed rectangles.
func (p *Packed) Dim() int { return p.dim }

// Len returns the number of packed data entries.
func (p *Packed) Len() int { return p.size }

// NumNodes returns how many tree nodes the mirror packs.
func (p *Packed) NumNodes() int { return len(p.start) - 1 }

// PointData reports whether every leaf entry is a degenerate (point)
// rectangle, i.e. the flat leaf block holds the indexed points themselves.
func (p *Packed) PointData() bool { return p.pointData }

// EachPoint calls fn with every data entry's id and Lo corner (the indexed
// point itself when PointData), in leaf order. Unlike a PointVisitor's, the
// slice may be retained: it is a window on the packed point block, valid and
// never written for the life of p, and the caller must not write it either.
func (p *Packed) EachPoint(fn func(id int64, pt []float64)) {
	for j, id := range p.ids {
		fn(id, p.pts[j*p.dim:(j+1)*p.dim:(j+1)*p.dim])
	}
}

// Bytes returns the mirror's approximate memory footprint, for build-cost
// accounting in experiments.
func (p *Packed) Bytes() int {
	total := len(p.start) * 4
	for a := 0; a < p.dim; a++ {
		total += len(p.lo[a])*8*2 + len(p.lo32[a])*4*2
	}
	total += len(p.child)*4 + len(p.ids)*8 + len(p.pts)*8 + len(p.errs)*8
	return total
}

package rtree

import (
	"fmt"
	"math"

	"gaussrange/internal/geom"
)

// Packed is the immutable, cache-linear form of an R-tree over points and the
// structure every base snapshot serves from: BuildPacked STR-builds it
// directly at load, restore and overlay-fold time, and Pack derives it from a
// pointer tree whose data entries are points. Where the pointer tree stores
// one heap node per page with a slice of entries, Packed stores the tree in
// level order as flat arrays, so a search walks arrays instead of chasing
// pointers. Level order places every node entry (one per child node) before
// every leaf entry (one per data point), and the two halves are stored
// differently:
//
//   - node entries, e < leafBase: per-axis Lo/Hi float64 bounds, a
//     round-to-nearest float32 mirror of both and a per-axis worst-case
//     rounding error — the certificate that lets searches decide most node
//     entries 8-wide in float32 and recheck only the straddling band in
//     float64 (see packed_search.go). No child index is stored: level order
//     enumerates children in exactly the order parents enumerate their
//     entries, so node entry e's child is node e+1;
//   - leaf entries, e ≥ leafBase: the data id as int32 (BuildPackedFlat
//     refuses one that does not fit) and the point in one row-major
//     []float64 block. A point is its own bounding box, so it is stored once
//     and searches test it exactly in float64.
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

	// Per-axis node-entry bounds: lo[a][e], hi[a][e] are the exact float64
	// bounds of node entry e < leafBase on axis a; lo32/hi32 are their
	// round-to-nearest float32 mirrors and errs[a] bounds
	// |float64(float32(v)) − v| over every value stored on axis a.
	lo, hi     [][]float64
	lo32, hi32 [][]float32
	errs       []float64

	// ids[e-leafBase] is the data id of leaf entry e, and its point is
	// pts[(e-leafBase)*dim : (e-leafBase+1)*dim].
	ids []int32
	pts []float64
}

// newPacked allocates the arrays of a packed index with the given node,
// entry and leaf-entry counts at their full lengths; the caller fills start,
// maxSpan and firstLeaf and writes every entry with setNode or setLeaf.
func newPacked(dim, nodes, total, leafTotal int) *Packed {
	inner := total - leafTotal
	p := &Packed{dim: dim, size: leafTotal, leafBase: int32(inner)}
	p.start = make([]int32, nodes+1)
	// One block per element type, carved into the per-axis arrays.
	axes64, axes32 := make([][]float64, 2*dim), make([][]float32, 2*dim)
	p.lo, p.hi = axes64[:dim:dim], axes64[dim:]
	p.lo32, p.hi32 = axes32[:dim:dim], axes32[dim:]
	f64 := make([]float64, 2*dim*inner)
	f32 := make([]float32, 2*dim*inner)
	for a := 0; a < dim; a++ {
		p.lo[a], f64 = f64[:inner:inner], f64[inner:]
		p.hi[a], f64 = f64[:inner:inner], f64[inner:]
		p.lo32[a], f32 = f32[:inner:inner], f32[inner:]
		p.hi32[a], f32 = f32[:inner:inner], f32[inner:]
	}
	p.errs = make([]float64, dim)
	p.ids = make([]int32, leafTotal)
	p.pts = make([]float64, leafTotal*dim)
	return p
}

// setNode writes node entry e: its bounds with their float32 mirrors. errs
// (one per axis) is widened to cover the mirrors' rounding errors; the
// caller folds it into p.errs.
func (p *Packed) setNode(e int, lo, hi, errs []float64) {
	for a := 0; a < p.dim; a++ {
		l, h := lo[a], hi[a]
		p.lo[a][e], p.hi[a][e] = l, h
		l32, h32 := float32(l), float32(h)
		p.lo32[a][e], p.hi32[a][e] = l32, h32
		errs[a] = max(errs[a], math.Abs(float64(l32)-l), math.Abs(float64(h32)-h))
	}
}

// setLeaf writes leaf entry j (entry leafBase+j): a data id, which the
// caller has checked fits an int32, and its point.
func (p *Packed) setLeaf(j int, id int64, pt []float64) {
	p.ids[j] = int32(id)
	copy(p.pts[j*p.dim:(j+1)*p.dim], pt)
}

// Pack builds the packed form of a pointer tree — the inverse of Unpack.
// Every data entry must be a point (Lo and Hi equal bit for bit): Packed
// stores a leaf entry as its point alone.
func Pack(t *Tree) (*Packed, error) {
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
			for j := range n.entries {
				if r := n.entries[j].Rect; !samePoint(r.Lo, r.Hi) {
					return nil, fmt.Errorf("rtree: cannot pack data entry %d: rect %v is not a point", n.entries[j].ID, r)
				}
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
	e := 0
	for i, n := range nodes {
		p.start[i] = int32(e)
		p.maxSpan = max(p.maxSpan, len(n.entries))
		for j := range n.entries {
			ent := &n.entries[j]
			if n.isLeaf() {
				p.setLeaf(e-int(p.leafBase), ent.ID, ent.Rect.Lo)
			} else {
				p.setNode(e, ent.Rect.Lo, ent.Rect.Hi, p.errs)
			}
			e++
		}
	}
	p.start[len(nodes)] = int32(e)
	return p, nil
}

// samePoint reports whether lo and hi hold the same bits on every axis.
func samePoint(lo, hi []float64) bool {
	for a := range lo {
		if math.Float64bits(lo[a]) != math.Float64bits(hi[a]) {
			return false
		}
	}
	return true
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
			if e < p.leafBase {
				for a := 0; a < dim; a++ {
					ent.Rect.Lo[a], ent.Rect.Hi[a] = p.lo[a][e], p.hi[a][e]
				}
				ent.child = &nodes[e+1]
				ent.child.parent, ent.child.level = n, n.level-1
			} else {
				// A leaf entry is its point: a degenerate rect.
				var pt []float64
				ent.ID, pt = p.Leaf(int(e - p.leafBase))
				copy(ent.Rect.Lo, pt)
				copy(ent.Rect.Hi, pt)
			}
		}
	}
	return &Tree{dim: dim, root: &nodes[0], size: p.size, maxFill: p.maxFill, minFill: p.minFill, height: p.height}
}

// Dim returns the dimensionality of the packed points.
func (p *Packed) Dim() int { return p.dim }

// Len returns the number of packed data entries.
func (p *Packed) Len() int { return p.size }

// NumNodes returns how many tree nodes the mirror packs.
func (p *Packed) NumNodes() int { return len(p.start) - 1 }

// Leaf returns leaf entry j's data id and point, 0 ≤ j < Len(), in leaf
// order. The point is a window on the packed point block: valid and never
// written for the life of p, and the caller must not write it either.
func (p *Packed) Leaf(j int) (id int64, pt []float64) {
	o := j * p.dim
	return int64(p.ids[j]), p.pts[o : o+p.dim : o+p.dim]
}

// Bytes returns the size of every array the index holds, the per-axis
// slice headers included, for build-cost accounting.
func (p *Packed) Bytes() int {
	const header = 24 // a slice header on 64-bit platforms
	total := len(p.start)*4 + len(p.errs)*8
	total += (len(p.lo) + len(p.hi) + len(p.lo32) + len(p.hi32)) * header
	for a := 0; a < p.dim; a++ {
		total += (len(p.lo[a])+len(p.hi[a]))*8 + (len(p.lo32[a])+len(p.hi32[a]))*4
	}
	total += len(p.ids)*4 + len(p.pts)*8
	return total
}

package rtree

import (
	"fmt"
	"math"
	"sort"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// This file keeps the pointer-tree STR bulk load and the Entry-based STR
// partition exactly as they stood before the flat build in bulkload.go
// replaced them — reflective stable sort over pointer-carrying Entry values
// and all. They are the differential reference: TestBuildPackedMatchesReference
// and FuzzPackedBuild require BuildPacked to equal Pack(referenceBulkLoad...)
// field for field, and TestPartitionSTRMatchesReference holds the tiles to
// the same standard.

func referenceBulkLoadPoints(points []vecmat.Vector, ids []int64, dim int, opts ...Option) (*Tree, error) {
	if len(points) != len(ids) {
		return nil, fmt.Errorf("rtree: %d points but %d ids", len(points), len(ids))
	}
	entries := make([]Entry, len(points))
	for i, p := range points {
		if p.Dim() != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimension, i, p.Dim(), dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("rtree: non-finite point %d: %v", i, p)
		}
		entries[i] = Entry{Rect: geom.PointRect(p), ID: ids[i]}
	}
	return referenceBulkLoad(entries, dim, opts...)
}

func referenceBulkLoad(entries []Entry, dim int, opts ...Option) (*Tree, error) {
	maxFill, minFill, err := nodeFill(dim, opts)
	if err != nil {
		return nil, err
	}
	t := &Tree{dim: dim, root: &node{}, maxFill: maxFill, minFill: minFill, height: 1}
	if len(entries) == 0 {
		return t, nil
	}
	for i := range entries {
		if err := t.checkRect(entries[i].Rect); err != nil {
			return nil, err
		}
	}
	es := append([]Entry(nil), entries...)
	level := 0
	for len(es) > t.maxFill {
		nodes := t.referenceSTRPack(es, level)
		es = es[:0]
		for _, n := range nodes {
			es = append(es, Entry{Rect: referenceMBR(n), child: n})
		}
		level++
	}
	t.root = &node{level: level, entries: es}
	for i := range es {
		if es[i].child != nil {
			es[i].child.parent = t.root
		}
	}
	t.height = level + 1
	t.size = len(entries)
	return t, nil
}

// referenceMBR returns the bounding rectangle of all entries of n.
func referenceMBR(n *node) geom.Rect {
	r := n.entries[0].Rect.Clone()
	for i := 1; i < len(n.entries); i++ {
		r.UnionInPlace(n.entries[i].Rect)
	}
	return r
}

// referenceSTRPack groups entries into nodes of the given level using
// recursive sort-tile slicing across the dimensions, chunks distributed
// evenly.
func (t *Tree) referenceSTRPack(es []Entry, level int) []*node {
	groups := [][]Entry{es}
	for axis := 0; axis < t.dim-1; axis++ {
		remainingDims := t.dim - axis
		var next [][]Entry
		for _, g := range groups {
			gNodes := (len(g) + t.maxFill - 1) / t.maxFill
			slabs := int(math.Ceil(math.Pow(float64(gNodes), 1/float64(remainingDims))))
			if slabs < 1 {
				slabs = 1
			}
			if slabs > len(g) {
				slabs = len(g)
			}
			referenceSortEntriesByAxis(g, axis)
			next = append(next, referenceEvenChunks(g, slabs)...)
		}
		groups = next
	}
	var nodes []*node
	for _, g := range groups {
		referenceSortEntriesByAxis(g, t.dim-1)
		chunkCount := (len(g) + t.maxFill - 1) / t.maxFill
		for _, chunk := range referenceEvenChunks(g, chunkCount) {
			n := &node{level: level, entries: append([]Entry(nil), chunk...)}
			for i := range n.entries {
				if n.entries[i].child != nil {
					n.entries[i].child.parent = n
				}
			}
			nodes = append(nodes, n)
		}
	}
	return nodes
}

func referenceEvenChunks(s []Entry, k int) [][]Entry {
	if k <= 1 {
		return [][]Entry{s}
	}
	out := make([][]Entry, 0, k)
	n := len(s)
	start := 0
	for i := 0; i < k; i++ {
		end := start + (n-start)/(k-i)
		if end > start {
			out = append(out, s[start:end])
		}
		start = end
	}
	return out
}

func referenceSortEntriesByAxis(es []Entry, axis int) {
	sort.SliceStable(es, func(i, j int) bool {
		ci := (es[i].Rect.Lo[axis] + es[i].Rect.Hi[axis]) / 2
		cj := (es[j].Rect.Lo[axis] + es[j].Rect.Hi[axis]) / 2
		return ci < cj
	})
}

func referencePartitionSTR(points []vecmat.Vector, dim, k int) []PartitionTile {
	entries := make([]Entry, len(points))
	for i, p := range points {
		entries[i] = Entry{Rect: geom.PointRect(p), ID: int64(i)}
	}
	tiles := make([]PartitionTile, 0, k)
	referenceSTRTile(entries, infiniteRect(dim), 0, dim, k, &tiles)
	for t := range tiles {
		sort.Ints(tiles[t].Indices)
	}
	return tiles
}

func referenceSTRTile(es []Entry, region geom.Rect, axis, dim, k int, out *[]PartitionTile) {
	if k == 1 || axis >= dim {
		t := PartitionTile{Region: region}
		if len(es) > 0 {
			t.Indices = make([]int, len(es))
			mbr := es[0].Rect.Clone()
			for i := range es {
				t.Indices[i] = int(es[i].ID)
				mbr.UnionInPlace(es[i].Rect)
			}
			t.Bounds = mbr
		}
		*out = append(*out, t)
		return
	}
	slabs := int(math.Ceil(math.Pow(float64(k), 1/float64(dim-axis))))
	if axis == dim-1 {
		slabs = k
	}
	if slabs < 1 {
		slabs = 1
	}
	if slabs > k {
		slabs = k
	}
	referenceSortEntriesByAxis(es, axis)
	start, tileStart := 0, 0
	prevHi := region.Lo[axis]
	for s := 0; s < slabs; s++ {
		tiles := (k - tileStart) / (slabs - s)
		end := start + (len(es)-start)*tiles/(k-tileStart)
		if s == slabs-1 {
			end = len(es)
		}
		sub := region.Clone()
		sub.Lo[axis] = prevHi
		if s < slabs-1 {
			cut := midCut(es[end-1].Rect.Lo[axis], es[end].Rect.Lo[axis])
			sub.Hi[axis] = cut
			prevHi = cut
		}
		referenceSTRTile(es[start:end], sub, axis+1, dim, tiles, out)
		start = end
		tileStart += tiles
	}
}

// Package rtree implements an in-memory R*-tree (Beckmann et al. 1990) over
// d-dimensional rectangles, the index family the paper uses for Phase 1
// (§III-B: "We use the R-tree index family since it is the most widely used
// one"; §V-A pairs it with 1 KB pages).
//
// Node capacity is derived from a configurable page size exactly as a
// disk-resident implementation would: each entry costs 2·d·8 bytes of
// rectangle plus 8 bytes of child pointer / data identifier, so a 1 KB page
// holds 25 entries at d=2 and 6 entries at d=9 — reproducing the paper's
// fan-out regime while remaining an in-memory structure.
//
// Features: R* insertion (choose-subtree with overlap minimization, forced
// reinsertion, margin-driven split), deletion with subtree reinsertion,
// rectangle range search with early-terminating callbacks, best-first k-NN
// search, and STR bulk loading.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// DefaultPageSize mirrors the paper's experimental setup (§V-A).
const DefaultPageSize = 1024

// reinsertFraction is the share of entries force-reinserted on first
// overflow, the 30 % recommended by the R*-tree paper.
const reinsertFraction = 0.3

// minFillFraction is the minimum node fill m/M (R*: 40 %).
const minFillFraction = 0.4

// Entry is one slot of a node: a bounding rectangle plus either a data
// identifier (leaf) or a child node (internal).
type Entry struct {
	Rect  geom.Rect
	ID    int64 // valid in leaves
	child *node // non-nil in internal nodes
}

type node struct {
	level   int // 0 = leaf
	parent  *node
	entries []Entry
}

func (n *node) isLeaf() bool { return n.level == 0 }

// mbr returns the bounding rectangle of all entries of n.
func (n *node) mbr() geom.Rect {
	r := n.entries[0].Rect.Clone()
	for i := 1; i < len(n.entries); i++ {
		r.UnionInPlace(n.entries[i].Rect)
	}
	return r
}

// entryIndexOf returns the index of the entry pointing at child, or -1.
func (n *node) entryIndexOf(child *node) int {
	for i := range n.entries {
		if n.entries[i].child == child {
			return i
		}
	}
	return -1
}

// Tree is an R*-tree. It is not safe for concurrent mutation; concurrent
// read-only searches are safe once loading is complete.
type Tree struct {
	dim       int
	root      *node
	size      int
	maxFill   int // M
	minFill   int // m
	height    int
	nodesRead atomic.Int64 // node visits (I/O surrogate); safe for concurrent readers
	pool      *BufferPool  // optional LRU page-cache simulation
}

// Option configures tree construction.
type Option func(*config) error

type config struct {
	pageSize int
}

// WithPageSize sets the simulated disk page size in bytes from which the
// node capacity is derived.
func WithPageSize(bytes int) Option {
	return func(c *config) error {
		if bytes < 128 {
			return fmt.Errorf("rtree: page size %d too small (min 128)", bytes)
		}
		c.pageSize = bytes
		return nil
	}
}

// nodeFill derives the node capacity M and minimum fill m for
// dim-dimensional entries from the configured page size.
func nodeFill(dim int, opts []Option) (maxFill, minFill int, err error) {
	if dim <= 0 {
		return 0, 0, fmt.Errorf("rtree: invalid dimension %d", dim)
	}
	cfg := config{pageSize: DefaultPageSize}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return 0, 0, err
		}
	}
	entryBytes := 2*8*dim + 8
	maxFill = cfg.pageSize / entryBytes
	if maxFill < 4 {
		maxFill = 4
	}
	minFill = int(minFillFraction * float64(maxFill))
	if minFill < 2 {
		minFill = 2
	}
	return maxFill, minFill, nil
}

// New returns an empty tree for dim-dimensional data.
func New(dim int, opts ...Option) (*Tree, error) {
	maxFill, minFill, err := nodeFill(dim, opts)
	if err != nil {
		return nil, err
	}
	return &Tree{
		dim:     dim,
		root:    &node{level: 0},
		maxFill: maxFill,
		minFill: minFill,
		height:  1,
	}, nil
}

// Dim returns the dimensionality of indexed rectangles.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored data entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height in levels (1 for a lone leaf root).
func (t *Tree) Height() int { return t.height }

// MaxFill returns the derived node capacity M.
func (t *Tree) MaxFill() int { return t.maxFill }

// MinFill returns the derived minimum node fill m.
func (t *Tree) MinFill() int { return t.minFill }

// NodesRead returns the cumulative number of node visits — the in-memory
// surrogate for page I/O in the experiments. Concurrent searches update it
// atomically; callers measuring a single operation should difference two
// readings.
func (t *Tree) NodesRead() int { return int(t.nodesRead.Load()) }

// ResetStats zeroes the node-visit counter.
func (t *Tree) ResetStats() { t.nodesRead.Store(0) }

// visit records one node access for statistics and the optional buffer
// pool.
func (t *Tree) visit(n *node) {
	t.nodesRead.Add(1)
	if t.pool != nil {
		t.pool.touch(n)
	}
}

// ErrDimension is returned when an argument's dimensionality does not match
// the tree.
var ErrDimension = errors.New("rtree: dimension mismatch")

func (t *Tree) checkRect(r geom.Rect) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("%w: rect dim %d vs tree dim %d", ErrDimension, r.Dim(), t.dim)
	}
	return nil
}

// InsertPoint stores a point with the given identifier.
func (t *Tree) InsertPoint(p vecmat.Vector, id int64) error {
	if p.Dim() != t.dim {
		return fmt.Errorf("%w: point dim %d vs tree dim %d", ErrDimension, p.Dim(), t.dim)
	}
	if !p.IsFinite() {
		return fmt.Errorf("rtree: non-finite point %v", p)
	}
	return t.Insert(geom.PointRect(p), id)
}

// Insert stores a rectangle with the given identifier.
func (t *Tree) Insert(r geom.Rect, id int64) error {
	if err := t.checkRect(r); err != nil {
		return err
	}
	overflowed := make(map[int]bool) // levels already force-reinserted
	t.insertEntry(Entry{Rect: r.Clone(), ID: id}, 0, overflowed)
	t.size++
	return nil
}

// insertEntry inserts e at the given target level with R* overflow
// treatment. The overflowed set records levels that already used forced
// reinsertion during the current top-level operation.
func (t *Tree) insertEntry(e Entry, level int, overflowed map[int]bool) {
	target := t.chooseNode(e.Rect, level)
	target.entries = append(target.entries, e)
	if e.child != nil {
		e.child.parent = target
	}
	t.adjustUp(target)
	t.handleOverflow(target, overflowed)
}

// chooseNode descends from the root to the node at the target level using
// the R* choose-subtree criteria.
func (t *Tree) chooseNode(r geom.Rect, level int) *node {
	n := t.root
	for n.level > level {
		n = t.chooseSubtree(n, r)
	}
	return n
}

// chooseSubtree picks the child of n best suited to receive rect r.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) *node {
	t.visit(n)
	if n.level == 1 {
		// Children are leaves: minimize overlap enlargement, ties by area
		// enlargement, then area.
		bestIdx := 0
		bestOverlap := math.Inf(1)
		bestEnlarge := math.Inf(1)
		bestArea := math.Inf(1)
		for i := range n.entries {
			cand := n.entries[i].Rect.Union(r)
			var overlap float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += cand.OverlapVolume(n.entries[j].Rect) -
					n.entries[i].Rect.OverlapVolume(n.entries[j].Rect)
			}
			enlarge := n.entries[i].Rect.Enlargement(r)
			area := n.entries[i].Rect.Volume()
			if better3(overlap, enlarge, area, bestOverlap, bestEnlarge, bestArea) {
				bestIdx, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
			}
		}
		return n.entries[bestIdx].child
	}
	// Children are internal: minimize area enlargement, ties by area.
	bestIdx := 0
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	for i := range n.entries {
		enlarge := n.entries[i].Rect.Enlargement(r)
		area := n.entries[i].Rect.Volume()
		if enlarge < bestEnlarge || (enlarge == bestEnlarge && area < bestArea) {
			bestIdx, bestEnlarge, bestArea = i, enlarge, area
		}
	}
	return n.entries[bestIdx].child
}

// better3 implements lexicographic (a1, a2, a3) < (b1, b2, b3).
func better3(a1, a2, a3, b1, b2, b3 float64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// adjustUp refreshes bounding rectangles from n to the root.
func (t *Tree) adjustUp(n *node) {
	for n.parent != nil {
		p := n.parent
		if i := p.entryIndexOf(n); i >= 0 {
			p.entries[i].Rect = n.mbr()
		}
		n = p
	}
}

// handleOverflow resolves an overflowing node by forced reinsertion (first
// overflow per level and not the root) or split, propagating upward.
func (t *Tree) handleOverflow(n *node, overflowed map[int]bool) {
	for n != nil && len(n.entries) > t.maxFill {
		if n.parent == nil {
			// Root: always split and grow.
			sibling := t.split(n)
			newRoot := &node{level: n.level + 1}
			newRoot.entries = []Entry{
				{Rect: n.mbr(), child: n},
				{Rect: sibling.mbr(), child: sibling},
			}
			n.parent = newRoot
			sibling.parent = newRoot
			t.root = newRoot
			t.height++
			return
		}
		if !overflowed[n.level] {
			overflowed[n.level] = true
			t.forceReinsert(n, overflowed)
			return // reinsertion recursion handled any residual overflow
		}
		sibling := t.split(n)
		parent := n.parent
		sibling.parent = parent
		if i := parent.entryIndexOf(n); i >= 0 {
			parent.entries[i].Rect = n.mbr()
		}
		parent.entries = append(parent.entries, Entry{Rect: sibling.mbr(), child: sibling})
		t.adjustUp(parent)
		n = parent
	}
}

// forceReinsert removes the p entries whose centers are farthest from the
// node's center and reinserts them at the node's level (R* forced
// reinsertion, "close reinsert" order).
func (t *Tree) forceReinsert(n *node, overflowed map[int]bool) {
	p := int(reinsertFraction * float64(len(n.entries)))
	if p < 1 {
		p = 1
	}
	center := n.mbr().Center()
	type distEntry struct {
		d float64
		e Entry
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		des[i] = distEntry{d: center.Dist2(e.Rect.Center()), e: e}
	}
	// Partial selection: move the p farthest to the front.
	for i := 0; i < p; i++ {
		maxIdx := i
		for j := i + 1; j < len(des); j++ {
			if des[j].d > des[maxIdx].d {
				maxIdx = j
			}
		}
		des[i], des[maxIdx] = des[maxIdx], des[i]
	}
	removed := make([]Entry, p)
	for i := 0; i < p; i++ {
		removed[i] = des[i].e
	}
	n.entries = n.entries[:0]
	for _, de := range des[p:] {
		n.entries = append(n.entries, de.e)
	}
	t.adjustUp(n)
	for _, e := range removed {
		t.insertEntry(e, n.level, overflowed)
	}
}

package rtree

import (
	"container/heap"
	"fmt"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// Visitor receives a matching data entry. Returning false stops the search.
type Visitor func(rect geom.Rect, id int64) bool

// SearchRect invokes fn for every data entry whose rectangle intersects
// query. The traversal order is unspecified.
func (t *Tree) SearchRect(query geom.Rect, fn Visitor) error {
	if err := t.checkRect(query); err != nil {
		return err
	}
	t.searchNode(t.root, query, fn)
	return nil
}

func (t *Tree) searchNode(n *node, query geom.Rect, fn Visitor) bool {
	t.visit(n)
	for i := range n.entries {
		e := &n.entries[i]
		if !query.Intersects(e.Rect) {
			continue
		}
		if n.isLeaf() {
			if !fn(e.Rect, e.ID) {
				return false
			}
		} else if !t.searchNode(e.child, query, fn) {
			return false
		}
	}
	return true
}

// CollectRect returns the IDs of all data entries intersecting query.
func (t *Tree) CollectRect(query geom.Rect) ([]int64, error) {
	var ids []int64
	err := t.SearchRect(query, func(_ geom.Rect, id int64) bool {
		ids = append(ids, id)
		return true
	})
	return ids, err
}

// Neighbor is one k-NN result: a data entry and its squared distance from
// the query point.
type Neighbor struct {
	Rect  geom.Rect
	ID    int64
	Dist2 float64
}

// nnItem is a priority-queue element for best-first k-NN traversal.
type nnItem struct {
	dist2 float64
	node  *node // nil for data entries
	rect  geom.Rect
	id    int64
}

type nnQueue []nnItem

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnItem)) }

// Less orders by distance, then nodes before entries, then entries by id: a
// node pops before an entry at its own distance, so entries come out in
// (distance, id) order and the k nearest break ties to the smaller ids.
func (q nnQueue) Less(i, j int) bool {
	a, b := &q[i], &q[j]
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	if (a.node == nil) != (b.node == nil) {
		return a.node != nil
	}
	return a.id < b.id
}

func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NearestNeighbors returns the k data entries closest to p in Euclidean
// distance, ordered nearest first (ties by ascending id), using best-first
// (Hjaltason–Samet) traversal. Fewer than k results are returned when the
// tree is smaller than k. The paper's 9-D experiment uses k-NN with k=20 to
// build the pseudo-feedback covariance (§VI-A).
func (t *Tree) NearestNeighbors(p vecmat.Vector, k int) ([]Neighbor, error) {
	if p.Dim() != t.dim {
		return nil, fmt.Errorf("%w: point dim %d vs tree dim %d", ErrDimension, p.Dim(), t.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("rtree: k must be positive, got %d", k)
	}
	if t.size == 0 {
		return nil, nil
	}
	q := &nnQueue{{dist2: 0, node: t.root}}
	out := make([]Neighbor, 0, k)
	for q.Len() > 0 && len(out) < k {
		it := heap.Pop(q).(nnItem)
		if it.node == nil {
			out = append(out, Neighbor{Rect: it.rect, ID: it.id, Dist2: it.dist2})
			continue
		}
		t.visit(it.node)
		for i := range it.node.entries {
			e := &it.node.entries[i]
			d2 := e.Rect.Dist2(p)
			if e.child != nil {
				heap.Push(q, nnItem{dist2: d2, node: e.child})
			} else {
				heap.Push(q, nnItem{dist2: d2, rect: e.Rect, id: e.ID})
			}
		}
	}
	return out, nil
}

// SearchSphere invokes fn for every data entry whose rectangle intersects
// the ball around center. For point data this is an exact distance range
// query.
func (t *Tree) SearchSphere(center vecmat.Vector, radius float64, fn Visitor) error {
	if center.Dim() != t.dim {
		return fmt.Errorf("%w: point dim %d vs tree dim %d", ErrDimension, center.Dim(), t.dim)
	}
	if radius < 0 {
		return fmt.Errorf("rtree: negative radius %g", radius)
	}
	r2 := radius * radius
	t.searchSphereNode(t.root, center, r2, fn)
	return nil
}

func (t *Tree) searchSphereNode(n *node, center vecmat.Vector, r2 float64, fn Visitor) bool {
	t.visit(n)
	for i := range n.entries {
		e := &n.entries[i]
		if e.Rect.Dist2(center) > r2 {
			continue
		}
		if n.isLeaf() {
			if !fn(e.Rect, e.ID) {
				return false
			}
		} else if !t.searchSphereNode(e.child, center, r2, fn) {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the structural invariants of the tree and returns
// a descriptive error when one is violated. Intended for tests and
// debugging; cost is O(n).
//
// Invariants: every node's entry rectangles are covered by the parent entry
// rectangle; non-root nodes hold between m and M entries (roots may
// underflow); all leaves sit at level 0 and share a common depth; entry
// counts sum to Len(); parent pointers are consistent.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	count := 0
	if err := t.checkNode(t.root, nil, &count); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d leaf entries found", t.size, count)
	}
	if t.root.level != t.height-1 {
		return fmt.Errorf("rtree: root level %d but height %d", t.root.level, t.height)
	}
	return nil
}

func (t *Tree) checkNode(n *node, parentRect *geom.Rect, count *int) error {
	if n != t.root {
		if len(n.entries) < t.minFill || len(n.entries) > t.maxFill {
			return fmt.Errorf("rtree: node at level %d has %d entries outside [%d, %d]",
				n.level, len(n.entries), t.minFill, t.maxFill)
		}
	} else if len(n.entries) > t.maxFill {
		return fmt.Errorf("rtree: root has %d entries above max %d", len(n.entries), t.maxFill)
	}
	for i := range n.entries {
		e := &n.entries[i]
		if parentRect != nil && !parentRect.ContainsRect(e.Rect) {
			return fmt.Errorf("rtree: entry rect %v escapes parent rect %v", e.Rect, *parentRect)
		}
		if n.isLeaf() {
			if e.child != nil {
				return fmt.Errorf("rtree: leaf entry with child pointer")
			}
			*count++
			continue
		}
		if e.child == nil {
			return fmt.Errorf("rtree: internal entry without child")
		}
		if e.child.parent != n {
			return fmt.Errorf("rtree: broken parent pointer at level %d", n.level)
		}
		if e.child.level != n.level-1 {
			return fmt.Errorf("rtree: child level %d under node level %d", e.child.level, n.level)
		}
		if err := t.checkNode(e.child, &e.Rect, count); err != nil {
			return err
		}
	}
	return nil
}

// Stats describes the tree shape for diagnostics and experiments.
type Stats struct {
	Size    int
	Height  int
	Nodes   int
	Leaves  int
	AvgFill float64 // mean entries per node / M
	MaxFill int
	MinFill int
}

// ComputeStats walks the tree and summarizes its shape.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Size: t.size, Height: t.height, MaxFill: t.maxFill, MinFill: t.minFill}
	var totalEntries int
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		if n.isLeaf() {
			s.Leaves++
		}
		totalEntries += len(n.entries)
		for i := range n.entries {
			if n.entries[i].child != nil {
				walk(n.entries[i].child)
			}
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.AvgFill = float64(totalEntries) / float64(s.Nodes) / float64(t.maxFill)
	}
	return s
}

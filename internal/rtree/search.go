package rtree

import (
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

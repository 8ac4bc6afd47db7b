// Package rtree implements the R-tree index the paper uses for Phase 1
// (§III-B: "We use the R-tree index family since it is the most widely used
// one"; §V-A pairs it with 1 KB pages), over d-dimensional points.
//
// Node capacity is derived from a configurable page size exactly as a
// disk-resident implementation would: each entry costs 2·d·8 bytes of
// rectangle plus 8 bytes of child pointer / data identifier, so a 1 KB page
// holds 25 entries at d=2 and 6 entries at d=9 — reproducing the paper's
// fan-out regime while remaining an in-memory structure.
//
// The index every query runs on is Packed, built by STR bulk loading
// (BuildPacked) with rectangle and sphere range search. Tree is the pointer
// form of the same nodes (Unpack), with best-first k-NN search; it is never
// mutated after it is built.
package rtree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gaussrange/internal/geom"
)

// DefaultPageSize mirrors the paper's experimental setup (§V-A).
const DefaultPageSize = 1024

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

// Tree is the pointer form of a packed index (Unpack). It is never mutated,
// so concurrent searches are safe.
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

// Dim returns the dimensionality of indexed rectangles.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of stored data entries.
func (t *Tree) Len() int { return t.size }

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

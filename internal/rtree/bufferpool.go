package rtree

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool simulates an LRU page cache over tree nodes, the disk-resident
// deployment model the paper's 1 KB-page setup implies. Every node visit is
// a page request: present in the pool → hit, otherwise → miss (a simulated
// disk read) with LRU eviction. Hit/miss counts let the experiments report
// I/O rather than just node touches.
//
// The pool serializes its bookkeeping internally, so attaching one keeps
// concurrent read-only searches safe (at the cost of the lock).
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List              // front = most recently used
	pages    map[*node]*list.Element // node → lru element
	hits     int64
	misses   int64
}

// NewBufferPool returns a pool holding the given number of pages.
func NewBufferPool(pages int) (*BufferPool, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("rtree: buffer pool needs a positive page count, got %d", pages)
	}
	return &BufferPool{
		capacity: pages,
		lru:      list.New(),
		pages:    make(map[*node]*list.Element),
	}, nil
}

// touch records an access to the page holding n.
func (bp *BufferPool) touch(n *node) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if el, ok := bp.pages[n]; ok {
		bp.hits++
		bp.lru.MoveToFront(el)
		return
	}
	bp.misses++
	el := bp.lru.PushFront(n)
	bp.pages[n] = el
	if bp.lru.Len() > bp.capacity {
		old := bp.lru.Back()
		bp.lru.Remove(old)
		delete(bp.pages, old.Value.(*node))
	}
}

// Stats returns the hit and miss counts so far.
func (bp *BufferPool) Stats() (hits, misses int64) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.hits, bp.misses
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (bp *BufferPool) HitRate() float64 {
	h, m := bp.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Reset zeroes the counters and empties the pool.
func (bp *BufferPool) Reset() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.hits, bp.misses = 0, 0
	bp.lru.Init()
	bp.pages = make(map[*node]*list.Element)
}

// AttachBufferPool installs (or, with nil, removes) an I/O-simulation pool.
// Not safe to call concurrently with searches.
func (t *Tree) AttachBufferPool(bp *BufferPool) { t.pool = bp }

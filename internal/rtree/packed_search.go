package rtree

import (
	"fmt"
	"math"
	"sync"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// SearchStats accumulates per-search accounting for packed traversal. Packed
// is shared immutably across goroutines, so counters live with the caller
// instead of inside the structure (the pointer tree's atomic nodesRead has no
// equivalent here, and none is wanted on the hot path).
type SearchStats struct {
	// Nodes is the number of packed nodes visited — the exact analogue of the
	// pointer tree's NodesRead for the same query.
	Nodes int64
	// F32Rechecks counts node entries whose float32 certificate straddled
	// the query boundary and required an exact float64 recheck. Leaf points
	// have no mirror: they are always tested exactly and never counted.
	F32Rechecks int64
}

// PointVisitor receives a matching packed leaf entry: its data id and its
// point as a window on the packed point block (valid for the life of the
// Packed; do not mutate). Returning false stops the search.
type PointVisitor func(id int64, pt []float64) bool

// Entry classification bits produced by the float32 certificate.
const (
	clsRecheck = 1 << 0 // straddles a certificate band → exact float64 test
	clsReject  = 1 << 1 // certified disjoint → skip without touching float64
)

// f32Down rounds v to the largest float32 ≤ v; f32Up to the smallest
// float32 ≥ v. NaN passes through (NaN thresholds certify nothing — every
// comparison against them fails, which routes entries to the exact recheck).
func f32Down(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func f32Up(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// rectCtx holds the per-search float32 certificate constants for a rect
// query. With E = errs[a] the per-axis worst-case |float64(float32(v)) − v|
// over stored node bounds, a node entry's true bound b relates to its mirror
// b32 by
// |float64(b32) − b| ≤ E, giving two one-sided certificates per axis:
//
//	reject:  hi32 < f32Down(q.Lo−E) ⇒ hi < q.Lo   (disjoint below)
//	         lo32 > f32Up(q.Hi+E)   ⇒ lo > q.Hi   (disjoint above)
//	accept:  hi32 ≥ f32Up(q.Lo+E)   ⇒ hi ≥ q.Lo   (overlaps from below)
//	         lo32 ≤ f32Down(q.Hi−E) ⇒ lo ≤ q.Hi   (overlaps from above)
//
// Entries failing a reject test on some axis are certified disjoint; entries
// passing both accept tests on every axis are certified intersecting; the
// band between is rechecked in float64. Non-finite accept thresholds (E
// overflowing float32, or q.Lo+E = +Inf) are replaced by NaN so that an
// infinite mirror value can never satisfy ≥ +Inf spuriously — NaN certifies
// nothing and falls through to the recheck.
type rectCtx struct {
	q                  geom.Rect
	rejBelow, rejAbove []float32
	accLo, accHi       []float32
	buf                []float32 // backs the four above
	cls                []uint8   // height × maxSpan, sliced per recursion depth
	st                 *SearchStats
}

// rectCtxPool recycles rect-search contexts, so a search allocates nothing
// of its own once a context of its tree's size has been pooled.
var rectCtxPool = sync.Pool{New: func() any { return new(rectCtx) }}

// newRectCtx takes a context from rectCtxPool and sets it up for q; the
// search puts it back.
func (p *Packed) newRectCtx(q geom.Rect, st *SearchStats) *rectCtx {
	d := p.dim
	ctx := rectCtxPool.Get().(*rectCtx)
	if cap(ctx.buf) < 4*d {
		ctx.buf = make([]float32, 4*d)
	}
	if n := p.height * p.maxSpan; cap(ctx.cls) < n {
		ctx.cls = make([]uint8, n)
	} else {
		ctx.cls = ctx.cls[:n]
	}
	buf := ctx.buf
	ctx.q, ctx.st = q, st
	ctx.rejBelow = buf[0*d : 1*d]
	ctx.rejAbove = buf[1*d : 2*d]
	ctx.accLo = buf[2*d : 3*d]
	ctx.accHi = buf[3*d : 4*d]
	nan := float32(math.NaN())
	for a := 0; a < d; a++ {
		e := p.errs[a]
		ctx.rejBelow[a] = f32Down(q.Lo[a] - e)
		ctx.rejAbove[a] = f32Up(q.Hi[a] + e)
		al := f32Up(q.Lo[a] + e)
		if al > math.MaxFloat32 { // +Inf would accept an overflowed mirror
			al = nan
		}
		ah := f32Down(q.Hi[a] - e)
		if ah < -math.MaxFloat32 {
			ah = nan
		}
		ctx.accLo[a], ctx.accHi[a] = al, ah
	}
	return ctx
}

// classifyRect fills cls[0:e-s] with certificate bits for node entries
// [s, e). The inner loop runs in 8-entry blocks over the float32 mirror —
// one cache line of lo32/hi32 per axis per block, no float64 touched.
// The accept test must stay in the negated ≥/≤ form: NaN thresholds then
// fail the comparison and set clsRecheck, never a false accept.
func (p *Packed) classifyRect(s, e int32, ctx *rectCtx, cls []uint8) {
	n := int(e - s)
	for i := 0; i < n; i++ {
		cls[i] = 0
	}
	for a := 0; a < p.dim; a++ {
		lo32 := p.lo32[a][s:e:e]
		hi32 := p.hi32[a][s:e:e]
		rb, ra := ctx.rejBelow[a], ctx.rejAbove[a]
		al, ah := ctx.accLo[a], ctx.accHi[a]
		i := 0
		for ; i+8 <= n; i += 8 {
			l8 := lo32[i : i+8 : i+8]
			h8 := hi32[i : i+8 : i+8]
			c8 := cls[i : i+8 : i+8]
			for j := 0; j < 8; j++ {
				l, h := l8[j], h8[j]
				c := c8[j]
				if h < rb || l > ra {
					c |= clsReject
				}
				if !(h >= al && l <= ah) {
					c |= clsRecheck
				}
				c8[j] = c
			}
		}
		for ; i < n; i++ {
			l, h := lo32[i], hi32[i]
			c := cls[i]
			if h < rb || l > ra {
				c |= clsReject
			}
			if !(h >= al && l <= ah) {
				c |= clsRecheck
			}
			cls[i] = c
		}
	}
}

// rectIntersects is the exact float64 recheck of node entry e, replicating
// geom.Rect.Intersects semantics: disjoint iff on some axis
// entry.Hi < q.Lo or entry.Lo > q.Hi.
func (p *Packed) rectIntersects(e int32, q geom.Rect) bool {
	for a := 0; a < p.dim; a++ {
		if p.hi[a][e] < q.Lo[a] || p.lo[a][e] > q.Hi[a] {
			return false
		}
	}
	return true
}

// LeafVisitor receives one leaf the rect walk reached, its points untested:
// the leaf position of its first entry (ids[k] is Leaf(first+k)'s id), its
// ids, as the index stores them, and their row-major point block, windows on
// the packed arrays (valid for the life of the Packed; do not mutate). False
// stops the walk.
type LeafVisitor func(first int, ids []int32, pts []float64) bool

// SearchRectLeaves is the one rect walk: it descends into every node entry
// whose rectangle intersects query, in exactly the pointer tree's DFS order,
// and hands each leaf it reaches to fn whole, so the caller runs its own
// point test over the block with no call per point. st may be nil.
func (p *Packed) SearchRectLeaves(query geom.Rect, fn LeafVisitor, st *SearchStats) error {
	if query.Dim() != p.dim {
		return fmt.Errorf("%w: query dim %d vs packed dim %d", ErrDimension, query.Dim(), p.dim)
	}
	if st == nil {
		st = &SearchStats{}
	}
	ctx := p.newRectCtx(query, st)
	p.searchRectNode(0, 0, ctx, fn)
	ctx.q, ctx.st = geom.Rect{}, nil
	rectCtxPool.Put(ctx)
	return nil
}

func (p *Packed) searchRectNode(ni int32, depth int, ctx *rectCtx, fn LeafVisitor) bool {
	ctx.st.Nodes++
	s, e := p.start[ni], p.start[ni+1]
	if ni >= p.firstLeaf {
		s, e = s-p.leafBase, e-p.leafBase
		d := int32(p.dim)
		return fn(int(s), p.ids[s:e:e], p.pts[s*d:e*d:e*d])
	}
	// Recursion below reuses the scratch arena, so each depth owns its slice.
	cls := ctx.cls[depth*p.maxSpan : depth*p.maxSpan+int(e-s)]
	p.classifyRect(s, e, ctx, cls)
	for k := int32(0); k < e-s; k++ {
		c := cls[k]
		if c&clsReject != 0 {
			continue
		}
		idx := s + k
		if c&clsRecheck != 0 {
			ctx.st.F32Rechecks++
			if !p.rectIntersects(idx, ctx.q) {
				continue
			}
		}
		if !p.searchRectNode(idx+1, depth+1, ctx, fn) {
			return false
		}
	}
	return true
}

// SearchRect invokes fn for every data entry whose rectangle intersects
// query, visiting nodes and entries in exactly the pointer tree's DFS order,
// so callback sequences — and therefore collected id slices — are identical.
// It is SearchRectLeaves with query.Contains — geom.Rect.Intersects on a
// point's degenerate rect, so a NaN bound rejects nothing — over each leaf.
// st may be nil.
func (p *Packed) SearchRect(query geom.Rect, fn PointVisitor, st *SearchStats) error {
	d := p.dim
	return p.SearchRectLeaves(query, func(_ int, ids []int32, pts []float64) bool {
		for j, id := range ids {
			pt := pts[j*d : (j+1)*d : (j+1)*d]
			if query.Contains(pt) && !fn(int64(id), pt) {
				return false
			}
		}
		return true
	}, st)
}

// sphereRelMargin over-covers the accumulated relative rounding error of the
// widened float64 distance computation (≤ (dim+3)·2⁻⁵³ per axis chain —
// vastly below 1e-9 for any realistic dim); sphereAbsMargin covers absolute
// error from subnormal underflow.
const (
	sphereRelMargin = 1e-9
	sphereAbsMargin = 1e-300
)

// SearchSphere invokes fn for every data point inside the closed ball around
// center, matching the pointer tree's SearchSphere decisions and traversal
// order exactly. For node entries the float32 mirror yields a one-sided
// certificate: a lower bound on Rect.Dist2 computed from bounds widened by
// the per-axis mirror error; only entries whose lower bound cannot certify
// Dist2 > r² are rechecked with the exact float64 computation (replicating
// geom.Rect.Dist2's operation order, so the decision is bit-identical). Leaf
// points are tested exactly. st may be nil.
func (p *Packed) SearchSphere(center vecmat.Vector, radius float64, fn PointVisitor, st *SearchStats) error {
	if center.Dim() != p.dim {
		return fmt.Errorf("%w: point dim %d vs packed dim %d", ErrDimension, center.Dim(), p.dim)
	}
	if radius < 0 {
		return fmt.Errorf("rtree: negative radius %g", radius)
	}
	if st == nil {
		st = &SearchStats{}
	}
	p.searchSphereNode(0, center, radius*radius, fn, st)
	return nil
}

func (p *Packed) searchSphereNode(ni int32, center vecmat.Vector, r2 float64, fn PointVisitor, st *SearchStats) bool {
	st.Nodes++
	s, e := p.start[ni], p.start[ni+1]
	if ni >= p.firstLeaf {
		d := p.dim
		for j := int(s - p.leafBase); j < int(e-p.leafBase); j++ {
			pt := p.pts[j*d : (j+1)*d : (j+1)*d]
			if pointDist2(pt, center) > r2 { // not ≤: a NaN r² keeps the point, as in the pointer tree
				continue
			}
			if !fn(int64(p.ids[j]), pt) {
				return false
			}
		}
		return true
	}
	for idx := s; idx < e; idx++ {
		// Certified lower bound on Dist2 from the widened float32 mirror:
		// true lo ≥ f64(lo32)−E and true hi ≤ f64(hi32)+E, so each axis
		// contribution computed from the widened interval under-estimates the
		// true clamped distance.
		lb := 0.0
		for a := 0; a < p.dim; a++ {
			ea := p.errs[a]
			c := center[a]
			if d := (float64(p.lo32[a][idx]) - ea) - c; d > 0 {
				lb += d * d
			} else if d := c - (float64(p.hi32[a][idx]) + ea); d > 0 {
				lb += d * d
			}
		}
		if lb*(1-sphereRelMargin) > r2+sphereAbsMargin {
			continue // certified Dist2 > r²
		}
		st.F32Rechecks++
		if p.rectDist2(idx, center) > r2 {
			continue
		}
		if !p.searchSphereNode(idx+1, center, r2, fn, st) {
			return false
		}
	}
	return true
}

// rectDist2 replicates geom.Rect.Dist2's exact operation order over node
// entry e's float64 bounds, so its result is bit-identical to the pointer
// path.
func (p *Packed) rectDist2(e int32, pt vecmat.Vector) float64 {
	s := 0.0
	for a := 0; a < p.dim; a++ {
		v := pt[a]
		if lo := p.lo[a][e]; v < lo {
			d := lo - v
			s += d * d
		} else if hi := p.hi[a][e]; v > hi {
			d := v - hi
			s += d * d
		}
	}
	return s
}

// pointDist2 is geom.Rect.Dist2 on the degenerate rect of pt, operation for
// operation, so its result is bit-identical to the pointer path.
func pointDist2(pt []float64, c vecmat.Vector) float64 {
	s := 0.0
	for a, x := range pt {
		if v := c[a]; v < x {
			d := x - v
			s += d * d
		} else if v > x {
			d := v - x
			s += d * d
		}
	}
	return s
}

// Neighbor is one k-NN result: a data id and its squared distance from the
// query point.
type Neighbor struct {
	ID    int64
	Dist2 float64
}

// nnItem is a best-first queue element: a node (node ≥ 0, its entry's
// rectDist2) or a data point (node < 0, its pointDist2).
type nnItem struct {
	dist2 float64
	id    int32
	node  int32
}

// before orders by distance, then nodes before points, then points by id: a
// node pops before a point at its own distance, so points come out in
// (distance, id) order and the k nearest break ties to the smaller ids.
func (a *nnItem) before(b *nnItem) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	if (a.node < 0) != (b.node < 0) {
		return a.node >= 0
	}
	return a.id < b.id
}

// nnQueue is a binary min-heap of nnItems under before.
type nnQueue []nnItem

func (q *nnQueue) push(it nnItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *nnQueue) pop() nnItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h[:n]
	return h[n]
}

// nnBest holds the k best points seen so far as a max-heap under before:
// once it is full, best[0] is the k-th best, and nothing behind it can be
// among the k nearest.
type nnBest []nnItem

// offer keeps point it if it is among the k best seen so far, dropping
// the k-th best to make room, and reports whether it did.
func (b *nnBest) offer(it nnItem, k int) bool {
	h := *b
	if len(h) < k {
		h = append(h, it)
		for j := len(h) - 1; j > 0; {
			i := (j - 1) / 2
			if !h[i].before(&h[j]) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		*b = h
		return true
	}
	if !it.before(&h[0]) {
		return false
	}
	h[0] = it
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c].before(&h[c+1]) {
			c++
		}
		if !h[i].before(&h[c]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return true
}

// NearestNeighbors returns the k data points closest to pt in Euclidean
// distance, nearest first with ties by ascending id — the k smallest
// (Dist2, id) pairs — by best-first (Hjaltason–Samet) traversal. Fewer than
// k are returned when the index holds fewer. The paper's 9-D experiment
// uses k-NN with k=20 to build the pseudo-feedback covariance (§VI-A).
//
// The queue is bounded by the k best points seen so far: a point that would
// not be among them is never queued, and neither is a node farther than the
// k-th best (one at its distance may still hold a point with a smaller id).
// A point that drops out of the k best stays queued, behind the k that
// pushed it out, so it never reaches the answer.
func (p *Packed) NearestNeighbors(pt vecmat.Vector, k int) ([]Neighbor, error) {
	if pt.Dim() != p.dim {
		return nil, fmt.Errorf("%w: point dim %d vs packed dim %d", ErrDimension, pt.Dim(), p.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("rtree: k must be positive, got %d", k)
	}
	if p.size == 0 {
		return nil, nil
	}
	d := int32(p.dim)
	kk := min(k, p.size)
	buf := make([]nnItem, kk+4*p.maxSpan)
	best := nnBest(buf[:0:kk])
	q := nnQueue(buf[kk : kk+1]) // q[0], the zero item, is the root: node 0 at distance 0
	out := make([]Neighbor, 0, kk)
	for len(q) > 0 && len(out) < k {
		it := q.pop()
		if it.node < 0 {
			out = append(out, Neighbor{ID: int64(it.id), Dist2: it.dist2})
			continue
		}
		s, e := p.start[it.node], p.start[it.node+1]
		if it.node >= p.firstLeaf {
			for j := s - p.leafBase; j < e-p.leafBase; j++ {
				pi := nnItem{dist2: pointDist2(p.pts[j*d:(j+1)*d:(j+1)*d], pt), id: p.ids[j], node: -1}
				if best.offer(pi, kk) {
					q.push(pi)
				}
			}
			continue
		}
		for idx := s; idx < e; idx++ {
			if d2 := p.rectDist2(idx, pt); len(best) < kk || d2 <= best[0].dist2 {
				q.push(nnItem{dist2: d2, node: idx + 1})
			}
		}
	}
	return out, nil
}

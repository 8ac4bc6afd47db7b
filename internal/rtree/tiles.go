package rtree

import (
	"fmt"
	"math"
	"sort"

	"gaussrange/internal/geom"
	"gaussrange/internal/vecmat"
)

// PartitionTile is one cell of an STR space partition: the indices of the
// points assigned to it, their minimum bounding rectangle, and a routing
// region. The routing regions jointly cover all of R^d (outer edges extend to
// ±Inf), every member point lies inside its tile's closed region, and two
// regions overlap only on shared cut hyperplanes — so a point on a cut is
// contained by at most two adjacent regions and a deterministic tie rule
// (lowest tile index wins) yields a total assignment of space to tiles.
type PartitionTile struct {
	// Indices are positions into the input point slice, in input order
	// within the tile.
	Indices []int
	// Bounds is the MBR of the member points; the zero Rect for an empty
	// tile.
	Bounds geom.Rect
	// Region is the closed routing region: the slab box this tile was carved
	// from, with ±Inf on the outermost edges.
	Region geom.Rect
}

// PartitionSTR splits points into k spatial tiles using the same
// Sort-Tile-Recursive slicing that BuildPacked uses to pack leaf nodes, lifted
// from page granularity to an arbitrary tile count: along axis a the point
// set is cut into ⌈k^(1/(d−a))⌉ slabs, tile counts are distributed evenly
// across slabs, and each slab recurses on the next axis. Tile sizes differ by
// at most a few points, and cuts fall on coordinate midpoints between
// adjacent slabs so routing regions are as tight as the data allows.
//
// The assignment is deterministic: equal inputs produce equal tiles.
func PartitionSTR(points []vecmat.Vector, dim, k int) ([]PartitionTile, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: invalid partition dimension %d", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("rtree: partition into %d tiles", k)
	}
	if k > len(points) {
		return nil, fmt.Errorf("rtree: cannot partition %d points into %d tiles", len(points), k)
	}
	coords, err := flattenPoints(points, dim)
	if err != nil {
		return nil, err
	}
	b := tileBuilder{coords: coords, dim: dim, centerSorter: newCenterSorter(len(points), 1, nil), tiles: make([]PartitionTile, 0, k)}
	b.slice(identityPerm(len(points)), infiniteRect(dim), 0, k)
	// Restore input order inside each tile (slicing sorted by coordinates).
	for t := range b.tiles {
		sort.Ints(b.tiles[t].Indices)
	}
	return b.tiles, nil
}

// tileBuilder carries what the recursive slicing shares: the flat point
// coordinates, the sort scratch and the tiles finished so far.
type tileBuilder struct {
	centerSorter
	coords []float64
	dim    int
	tiles  []PartitionTile
}

// point returns point i as a view into the flat coordinates.
func (b *tileBuilder) point(i int32) vecmat.Vector { return b.coords[int(i)*b.dim:][:b.dim] }

// slice recursively cuts the points in perm (within region) along axis into
// slabs, appending k finished tiles.
func (b *tileBuilder) slice(perm []int32, region geom.Rect, axis, k int) {
	if k == 1 || axis >= b.dim {
		b.tiles = append(b.tiles, b.makeTile(perm, region))
		return
	}
	slabs := int(math.Ceil(math.Pow(float64(k), 1/float64(b.dim-axis))))
	if axis == b.dim-1 {
		slabs = k
	}
	if slabs < 1 {
		slabs = 1
	}
	if slabs > k {
		slabs = k
	}
	b.sortByCenter(perm, b.coords, b.coords, b.dim, axis)
	// Distribute the k tiles over the slabs as evenly as possible, then cut
	// the sorted points proportionally to each slab's tile share.
	start, tileStart := 0, 0
	prevHi := region.Lo[axis]
	for s := 0; s < slabs; s++ {
		tiles := (k - tileStart) / (slabs - s)
		end := start + (len(perm)-start)*tiles/(k-tileStart)
		if s == slabs-1 {
			end = len(perm)
		}
		sub := region.Clone()
		sub.Lo[axis] = prevHi
		if s < slabs-1 {
			// Cut midway between the last point of this slab and the first
			// of the next; with equal coordinates the cut degenerates to the
			// shared value and both closed regions contain it.
			cut := midCut(b.point(perm[end-1])[axis], b.point(perm[end])[axis])
			sub.Hi[axis] = cut
			prevHi = cut
		}
		b.slice(perm[start:end], sub, axis+1, tiles)
		start = end
		tileStart += tiles
	}
}

// makeTile finalizes one tile from its member points.
func (b *tileBuilder) makeTile(perm []int32, region geom.Rect) PartitionTile {
	t := PartitionTile{Region: region}
	if len(perm) > 0 {
		t.Indices = make([]int, len(perm))
		mbr := geom.PointRect(b.point(perm[0]))
		for i, pt := range perm {
			t.Indices[i] = int(pt)
			v := b.point(pt)
			mbr.UnionInPlace(geom.Rect{Lo: v, Hi: v})
		}
		t.Bounds = mbr
	}
	return t
}

// midCut returns the cut coordinate between two adjacent sorted values.
func midCut(a, b float64) float64 {
	if a == b {
		return a
	}
	return a + (b-a)/2
}

// infiniteRect returns the all-of-space box.
func infiniteRect(dim int) geom.Rect {
	lo := make(vecmat.Vector, dim)
	hi := make(vecmat.Vector, dim)
	for i := 0; i < dim; i++ {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// Package shard implements spatial scatter-gather serving: a versioned shard
// map that partitions the point set into STR tiles (one prqserved shard per
// tile), a query router that fans a probabilistic range query out only to the
// shards whose routing region overlaps the compiled plan's Phase-1 search
// rectangle, and deterministic mutation routing over a global id space.
//
// The routing idea is the paper's filter-and-refine design lifted from the
// index level to the cluster level: the compile-once plan already yields a
// tight rectangle that every answer point must lie in, so the router prunes
// whole shards exactly the way the R-tree prunes subtrees — before any
// probability work runs.
package shard

import (
	"encoding/json"
	"fmt"
	"math"

	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// MapVersion identifies the shard-map format.
const MapVersion = 1

// Bound is one routing-region coordinate. It marshals ±Inf as the JSON
// strings "inf" / "-inf" (JSON numbers cannot express infinities), so shard
// maps round-trip through files and HTTP losslessly.
type Bound float64

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(b), 1):
		return []byte(`"inf"`), nil
	case math.IsInf(float64(b), -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(float64(b)):
		return nil, fmt.Errorf("shard: NaN bound")
	}
	return json.Marshal(float64(b))
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bound) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"inf"`, `"+inf"`:
		*b = Bound(math.Inf(1))
		return nil
	case `"-inf"`:
		*b = Bound(math.Inf(-1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("shard: invalid bound %s", data)
	}
	*b = Bound(f)
	return nil
}

// Shard is one entry of the map: the routing region assigned to the shard,
// the (tight, finite) bounds of the points initially loaded into it, and the
// initial id interval for delete routing.
type Shard struct {
	// ID is the shard's index: both the routing tie-breaker (a point on a
	// region boundary belongs to the lowest containing ID) and the index into
	// the router's endpoint list.
	ID int `json:"id"`
	// RegionLo/RegionHi delimit the closed routing region. Regions jointly
	// cover all of space (outer edges are ±Inf) and overlap only on shared
	// cut hyperplanes, so Locate is total and deterministic.
	RegionLo []Bound `json:"region_lo"`
	RegionHi []Bound `json:"region_hi"`
	// BoundsLo/BoundsHi is the MBR of the initially loaded points —
	// informational (the region, not the MBR, is what routing uses, because
	// later inserts may land anywhere in the region).
	BoundsLo []float64 `json:"bounds_lo,omitempty"`
	BoundsHi []float64 `json:"bounds_hi,omitempty"`
	// Points is the initial point count.
	Points int `json:"points"`
	// IDMin/IDMax delimit the shard's initial ids (inclusive; both -1 when
	// empty). Initial id intervals may interleave across shards — they are a
	// delete-routing filter, not a partition.
	IDMin int64 `json:"id_min"`
	IDMax int64 `json:"id_max"`
}

// Map is the versioned routing state of one sharded deployment.
type Map struct {
	// Version is the map format version (MapVersion).
	Version int `json:"version"`
	// RoutingEpoch versions the partitioning itself: mutations are stamped
	// with it so a batch routed under one partitioning is never applied under
	// another (a future re-split bumps it).
	RoutingEpoch uint64 `json:"routing_epoch"`
	// Dim is the point dimensionality.
	Dim int `json:"dim"`
	// NextID is the exclusive upper bound of ids assigned at build time; the
	// router's global allocator starts at max(NextID, shards' live max).
	NextID int64 `json:"next_id"`
	// Shards lists the shards in id order.
	Shards []Shard `json:"shards"`
}

// Part is one shard's slice of the partitioned point set, ready for
// gaussrange.LoadWithIDs: Points[i] is the row stored under global id IDs[i].
type Part struct {
	Points [][]float64
	IDs    []int64
}

// Split partitions points into k spatial shards with rtree.PartitionSTR and
// returns the shard map plus each shard's load set. Global id i is the index
// of points[i], so a sharded deployment loaded from the parts answers with
// ids identical to an unsharded Load of points.
func Split(points [][]float64, k int) (*Map, []Part, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("shard: no points to split")
	}
	dim := len(points[0])
	vecs := make([]vecmat.Vector, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, nil, fmt.Errorf("shard: point %d has dim %d, want %d", i, len(p), dim)
		}
		vecs[i] = vecmat.Vector(p)
	}
	tiles, err := rtree.PartitionSTR(vecs, dim, k)
	if err != nil {
		return nil, nil, err
	}
	m := &Map{
		Version:      MapVersion,
		RoutingEpoch: 1,
		Dim:          dim,
		NextID:       int64(len(points)),
		Shards:       make([]Shard, len(tiles)),
	}
	parts := make([]Part, len(tiles))
	for si, tile := range tiles {
		sh := Shard{
			ID:       si,
			RegionLo: toBounds(tile.Region.Lo),
			RegionHi: toBounds(tile.Region.Hi),
			Points:   len(tile.Indices),
			IDMin:    -1,
			IDMax:    -1,
		}
		if len(tile.Indices) > 0 {
			sh.BoundsLo = append([]float64(nil), tile.Bounds.Lo...)
			sh.BoundsHi = append([]float64(nil), tile.Bounds.Hi...)
			sh.IDMin = int64(tile.Indices[0])
			sh.IDMax = int64(tile.Indices[len(tile.Indices)-1])
		}
		part := Part{
			Points: make([][]float64, len(tile.Indices)),
			IDs:    make([]int64, len(tile.Indices)),
		}
		for i, idx := range tile.Indices {
			part.Points[i] = points[idx]
			part.IDs[i] = int64(idx)
		}
		m.Shards[si] = sh
		parts[si] = part
	}
	return m, parts, nil
}

func toBounds(v vecmat.Vector) []Bound {
	out := make([]Bound, len(v))
	for i, x := range v {
		out[i] = Bound(x)
	}
	return out
}

// Validate checks structural invariants: version, dimensions, shard ids in
// order, and space coverage of the regions along each axis' projection.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("shard: map version %d, want %d", m.Version, MapVersion)
	}
	if m.Dim <= 0 {
		return fmt.Errorf("shard: invalid dimension %d", m.Dim)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: empty shard list")
	}
	for i, sh := range m.Shards {
		if sh.ID != i {
			return fmt.Errorf("shard: shard %d has id %d (ids must be 0..k-1 in order)", i, sh.ID)
		}
		if len(sh.RegionLo) != m.Dim || len(sh.RegionHi) != m.Dim {
			return fmt.Errorf("shard: shard %d region has dim %d/%d, want %d", i, len(sh.RegionLo), len(sh.RegionHi), m.Dim)
		}
		for d := 0; d < m.Dim; d++ {
			if float64(sh.RegionLo[d]) > float64(sh.RegionHi[d]) {
				return fmt.Errorf("shard: shard %d region inverted on axis %d", i, d)
			}
		}
		if (sh.IDMin < 0) != (sh.IDMax < 0) || sh.IDMin > sh.IDMax {
			return fmt.Errorf("shard: shard %d id range [%d, %d] invalid", i, sh.IDMin, sh.IDMax)
		}
	}
	return nil
}

// regionContains reports whether the shard's closed region contains p.
func (sh *Shard) regionContains(p []float64) bool {
	for d, x := range p {
		if x < float64(sh.RegionLo[d]) || x > float64(sh.RegionHi[d]) {
			return false
		}
	}
	return true
}

// regionIntersects reports whether the shard's closed region intersects the
// closed rectangle [lo, hi].
func (sh *Shard) regionIntersects(lo, hi []float64) bool {
	for d := range lo {
		if hi[d] < float64(sh.RegionLo[d]) || lo[d] > float64(sh.RegionHi[d]) {
			return false
		}
	}
	return true
}

// Locate returns the shard owning point p: the lowest shard id whose closed
// region contains it. Regions cover all of space, so Locate is total for
// points of the right dimensionality (-1 only on a malformed map or a
// dimension mismatch).
func (m *Map) Locate(p []float64) int {
	if len(p) != m.Dim {
		return -1
	}
	for i := range m.Shards {
		if m.Shards[i].regionContains(p) {
			return i
		}
	}
	return -1
}

// Overlapping returns the ids of shards whose region intersects the closed
// rectangle [lo, hi] — the fan-out set for a plan whose Phase-1 search
// rectangle that is. Boundary touches count (a candidate's δ-ball may
// straddle the cut; the router de-duplicates).
func (m *Map) Overlapping(lo, hi []float64) []int {
	var out []int
	for i := range m.Shards {
		if m.Shards[i].regionIntersects(lo, hi) {
			out = append(out, i)
		}
	}
	return out
}

// DeleteCandidates returns the shards that may hold id, per the initial id
// intervals. An empty result means the id was not part of the initial load —
// it was allocated by a router after the split, and the caller must consult
// its own allocation record or broadcast.
func (m *Map) DeleteCandidates(id int64) []int {
	var out []int
	for i := range m.Shards {
		sh := &m.Shards[i]
		if sh.IDMin >= 0 && id >= sh.IDMin && id <= sh.IDMax {
			out = append(out, i)
		}
	}
	return out
}

// Encode serializes the map as indented JSON.
func (m *Map) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// DecodeMap parses and validates a serialized map.
func DecodeMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: decoding map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

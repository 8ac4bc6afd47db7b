package experiments

import (
	"fmt"
	"io"

	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/gauss"
	"gaussrange/internal/geom"
	"gaussrange/internal/mc"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// IOStatsResult reports simulated page-I/O behaviour of Phase 1 under an
// LRU buffer pool, for the Table I/II workload (γ=10, δ=25, θ=0.01). The
// paper's setup implies a disk-resident tree with 1 KB pages; this
// experiment quantifies how many of the node accesses would actually hit
// disk for various buffer sizes.
type IOStatsResult struct {
	PoolSizes []int
	HitRates  []float64
	Misses    []float64 // mean misses (simulated disk reads) per query
	NodeReads float64   // mean node accesses per query (pool-independent)
	TreeNodes int
	Config    Config
}

// RunIOStats executes the Table I/II query mix over several pool sizes. The
// paged structure being modelled is a pointer R-tree STR-built over the
// same points, ids and page size as the engine's packed index; each query's
// Phase 1 is that tree's rect search over the compiled plan's search box,
// so it visits the nodes the engine's packed walk visits, in its order.
func RunIOStats(cfg Config, points []vecmat.Vector) (*IOStatsResult, error) {
	cfg = cfg.withDefaults(5)
	if points == nil {
		points = data.LongBeach(cfg.Seed)
	}
	ix, err := core.NewIndex(points, 2)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(ix, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(points))
	for i := range ids {
		ids[i] = int64(i)
	}
	tree, err := rtree.BulkLoadPoints(points, ids, 2)
	if err != nil {
		return nil, err
	}
	rng := mc.NewRNG(cfg.Seed + 17)
	centers := make([]vecmat.Vector, cfg.Trials)
	for i := range centers {
		centers[i] = points[rng.Intn(len(points))]
	}
	cov := PaperSigmaBase().Scale(10)

	res := &IOStatsResult{
		PoolSizes: []int{8, 32, 128, 512, 4096},
		TreeNodes: tree.ComputeStats().Nodes,
		Config:    cfg,
	}
	// An empty plan (a θ no point can reach) runs no Phase 1, as in the
	// engine; it still counts as a query.
	var boxes []geom.Rect
	queries := 0
	for _, c := range centers {
		g, err := gauss.New(c, cov)
		if err != nil {
			return nil, err
		}
		q := core.Query{Dist: g, Delta: 25, Theta: 0.01}
		for _, strat := range core.PaperStrategies {
			plan, err := engine.Compile(q, strat)
			if err != nil {
				return nil, err
			}
			if !plan.Empty() {
				boxes = append(boxes, plan.SearchRect())
			}
			queries++
		}
	}
	runAll := func() error {
		for _, box := range boxes {
			if err := tree.SearchRect(box, func(geom.Rect, int64) bool { return true }); err != nil {
				return err
			}
		}
		return nil
	}

	// Pool-independent node accesses.
	if err := runAll(); err != nil {
		return nil, err
	}
	res.NodeReads = float64(tree.NodesRead()) / float64(queries)

	for _, size := range res.PoolSizes {
		bp, err := rtree.NewBufferPool(size)
		if err != nil {
			return nil, err
		}
		tree.AttachBufferPool(bp)
		if err := runAll(); err != nil {
			return nil, err
		}
		_, misses := bp.Stats()
		res.HitRates = append(res.HitRates, bp.HitRate())
		res.Misses = append(res.Misses, float64(misses)/float64(queries))
	}
	return res, nil
}

// Render writes the I/O table.
func (r *IOStatsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Simulated page I/O (LRU buffer pool, Table I/II workload; tree has %d pages)\n", r.TreeNodes)
	fmt.Fprintf(w, "node accesses per query: %.1f\n\n", r.NodeReads)
	fmt.Fprintf(w, "%-12s%12s%16s\n", "pool pages", "hit rate", "misses/query")
	for i, size := range r.PoolSizes {
		fmt.Fprintf(w, "%-12d%12.3f%16.2f\n", size, r.HitRates[i], r.Misses[i])
	}
	fmt.Fprintf(w, "\nOnce the pool covers the tree's hot path, repeated probabilistic range\n")
	fmt.Fprintf(w, "queries become CPU-bound — Phase 3 dominates, as the paper reports.\n")
}

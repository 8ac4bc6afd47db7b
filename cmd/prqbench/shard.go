package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/server"
	"gaussrange/shard"
)

// Capacity model. A single box cannot show scatter-gather read scaling
// directly — every in-process "shard" shares the same cores — so each shard
// is served behind an explicit capacity gate: at most capSlots requests
// execute concurrently per shard, and every request occupies its slot for at
// least capFloor (the modelled per-node service time). Aggregate capacity is
// then K·capSlots/capFloor requests per second, exactly as it would be for K
// real nodes, and the measured speedup at K=4 is governed by how rarely the
// router touches more than one shard — the quantity the shard map is for —
// rather than by local parallelism.
// The floor must dominate the real single-box compute (~1–4 ms per query
// here) or the shared CPU — not the model — becomes the bottleneck and the
// measured ratio says nothing about routing.
const (
	capSlots = 2
	capFloor = 20 * time.Millisecond
)

// shardCell is one shard-count's measurements.
type shardCell struct {
	Shards        int     `json:"shards"`
	Queries       int     `json:"queries"`
	WallNS        int64   `json:"wall_ns"`
	ThroughputQPS float64 `json:"throughput_qps"`
	MeanFanout    float64 `json:"mean_fanout"`
	SpeedupVsK1   float64 `json:"speedup_vs_single"`
	IDsMatch      bool    `json:"ids_match_unsharded"`
}

// shardScatter measures the router's own cost with the capacity model off:
// the same single-shard deployment queried directly and through the router.
type shardScatter struct {
	DirectMeanUS  float64 `json:"direct_mean_us"`
	RoutedMeanUS  float64 `json:"routed_mean_us"`
	OverheadRatio float64 `json:"overhead_ratio"`
}

type shardGates struct {
	SpeedupK4Ge3x    bool `json:"speedup_k4_ge_3x"`
	ViewportFanoutLt bool `json:"viewport_fanout_lt_k"`
	RoutedIDsMatch   bool `json:"routed_ids_identical"`
}

// shardReport is the JSON document written by -json and archived as
// BENCH_shard.json.
type shardReport struct {
	Dataset       string       `json:"dataset"`
	Points        int          `json:"points"`
	Gamma         float64      `json:"gamma"`
	Delta         float64      `json:"delta"`
	Theta         float64      `json:"theta"`
	Seed          uint64       `json:"seed"`
	Workers       int          `json:"workers"`
	CapacityModel string       `json:"capacity_model"`
	Cells         []shardCell  `json:"cells"`
	Scatter       shardScatter `json:"scatter"`
	Gates         shardGates   `json:"gates"`
}

// capacityHandler wraps a shard's handler in the capacity gate.
func capacityHandler(next http.Handler) http.Handler {
	sem := make(chan struct{}, capSlots)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sem <- struct{}{}
		defer func() { <-sem }()
		start := time.Now()
		next.ServeHTTP(w, r)
		if rest := capFloor - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
	})
}

// shardCluster stands up K capacity-gated in-process shards plus a router.
func shardCluster(raw [][]float64, k int, gated bool) (*shard.Router, func(), error) {
	m, parts, err := shard.Split(raw, k)
	if err != nil {
		return nil, nil, err
	}
	var servers []*httptest.Server
	closeAll := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	endpoints := make([]string, k)
	for i, part := range parts {
		db, err := gaussrange.LoadWithIDs(part.Points, part.IDs)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		srv, err := server.New(server.Config{DB: db})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		h := srv.Handler()
		if gated {
			h = capacityHandler(h)
		}
		ts := httptest.NewServer(h)
		servers = append(servers, ts)
		endpoints[i] = ts.URL
	}
	router, err := shard.NewRouter(shard.Config{Map: m, Endpoints: endpoints})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return router, closeAll, nil
}

// runShard measures scatter-gather serving: the paper workload against K ∈
// {1, 2, 4} spatially-sharded deployments behind the capacity model, plus a
// router-overhead microbenchmark with the model off. The committed
// BENCH_shard.json is produced with -json; -compare gates a fresh run
// against it.
func runShard(cfg experiments.Config, workers, queries int, jsonPath, comparePath string) error {
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	// The default -queries (64) is sized for batch cells; a throughput ratio
	// needs enough work to amortize ramp-up against the 2ms service floor.
	if queries < 600 {
		queries = 600
	}
	points := data.LongBeach(seed)
	raw := make([][]float64, len(points))
	for i, p := range points {
		raw[i] = p
	}

	// Table I's γ=1 cell: viewport-sized queries whose Phase-1 rectangle is
	// small against the shard tiles, so the router can actually prune.
	const (
		gamma = 1.0
		delta = 10.0
		theta = 0.01
	)
	// Every deployment — shards and the unsharded reference — runs the
	// default exact Phase-3 path, whose decision for a candidate depends on
	// its coordinates alone, so routed and unsharded answers stay
	// id-identical.
	sigma := experiments.PaperSigmaBase().Scale(gamma)
	covRows := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}
	spec := func(i int) gaussrange.QuerySpec {
		c := points[(i*7919)%len(points)]
		return gaussrange.QuerySpec{
			Center: []float64{c[0], c[1]},
			Cov:    covRows,
			Delta:  delta,
			Theta:  theta,
		}
	}

	ref, err := gaussrange.Load(raw)
	if err != nil {
		return err
	}
	report := shardReport{
		Dataset: "longbeach",
		Points:  len(raw),
		Gamma:   gamma,
		Delta:   delta,
		Theta:   theta,
		Seed:    seed,
		Workers: workers,
		CapacityModel: fmt.Sprintf("%d slots per shard, %v service-time floor (aggregate %d req/s per shard)",
			capSlots, capFloor, int(float64(capSlots)/capFloor.Seconds())),
	}

	fmt.Printf("sharded scatter-gather serving (%d points, %d queries, γ=%g, δ=%g, θ=%g, %d workers, seed %d)\n",
		report.Points, queries, gamma, delta, theta, workers, seed)
	fmt.Printf("  capacity model: %s\n", report.CapacityModel)
	fmt.Printf("  %-7s %12s %14s %12s %10s %10s\n", "shards", "wall", "throughput", "mean-fanout", "speedup", "ids-match")

	ctx := context.Background()
	for _, k := range []int{1, 2, 4} {
		router, closeAll, err := shardCluster(raw, k, true)
		if err != nil {
			return err
		}
		cell := shardCell{Shards: k, Queries: queries, IDsMatch: true}

		// Correctness first, sequentially: routed answers must be
		// id-identical to the unsharded DB at the same epoch.
		for i := 0; i < 32; i++ {
			s := spec(i)
			want, err := ref.Query(s)
			if err != nil {
				closeAll()
				return err
			}
			got, err := router.Query(ctx, server.RequestFromSpec(s))
			if err != nil {
				closeAll()
				return err
			}
			if !slices.Equal(want.IDs, got.IDs) {
				cell.IDsMatch = false
			}
		}

		// Throughput: workers drain a shared query counter.
		var next atomic.Int64
		var wg sync.WaitGroup
		var firstErr atomic.Value
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= queries {
						return
					}
					if _, err := router.Query(ctx, server.RequestFromSpec(spec(i))); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		cell.WallNS = time.Since(t0).Nanoseconds()
		closeAll()
		if err, _ := firstErr.Load().(error); err != nil {
			return err
		}
		cell.ThroughputQPS = float64(queries) / (float64(cell.WallNS) / 1e9)
		cell.MeanFanout = router.CountersSnapshot().MeanFanout
		if len(report.Cells) > 0 {
			cell.SpeedupVsK1 = cell.ThroughputQPS / report.Cells[0].ThroughputQPS
		} else {
			cell.SpeedupVsK1 = 1
		}
		report.Cells = append(report.Cells, cell)
		fmt.Printf("  %-7d %12v %11.0f/s %12.2f %9.2fx %10v\n",
			k, time.Duration(cell.WallNS), cell.ThroughputQPS, cell.MeanFanout, cell.SpeedupVsK1, cell.IDsMatch)
	}

	// Router overhead with the capacity model off: K=1 so the routed path
	// does the same single upstream request as the direct path, plus the
	// plan-region routing and merge.
	if err := measureScatterOverhead(ctx, raw, spec, &report.Scatter); err != nil {
		return err
	}
	fmt.Printf("  scatter overhead: direct %.0fµs, routed %.0fµs -> %.2fx\n",
		report.Scatter.DirectMeanUS, report.Scatter.RoutedMeanUS, report.Scatter.OverheadRatio)

	last := report.Cells[len(report.Cells)-1]
	report.Gates = shardGates{
		SpeedupK4Ge3x:    last.SpeedupVsK1 >= 3.0,
		ViewportFanoutLt: last.MeanFanout < float64(last.Shards),
		RoutedIDsMatch:   allIDsMatch(report.Cells),
	}
	fmt.Printf("  gates: K=4 speedup >= 3x: %v, viewport fanout < K: %v, routed ids identical: %v\n",
		report.Gates.SpeedupK4Ge3x, report.Gates.ViewportFanoutLt, report.Gates.RoutedIDsMatch)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if comparePath != "" {
		return compareShard(&report, comparePath)
	}
	return nil
}

func allIDsMatch(cells []shardCell) bool {
	for _, c := range cells {
		if !c.IDsMatch {
			return false
		}
	}
	return true
}

// measureScatterOverhead times the same query set against one ungated shard
// directly (stock client) and through the router.
func measureScatterOverhead(ctx context.Context, raw [][]float64, spec func(int) gaussrange.QuerySpec, out *shardScatter) error {
	const n = 200
	router, closeAll, err := shardCluster(raw, 1, false)
	if err != nil {
		return err
	}
	defer closeAll()
	direct := client.New(router.Endpoints()[0])

	// Warm both paths (plan compile, connection setup) before timing.
	for i := 0; i < 8; i++ {
		if _, err := direct.Query(ctx, spec(i)); err != nil {
			return err
		}
		if _, err := router.Query(ctx, server.RequestFromSpec(spec(i))); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := direct.Query(ctx, spec(i)); err != nil {
			return err
		}
	}
	directNS := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := router.Query(ctx, server.RequestFromSpec(spec(i))); err != nil {
			return err
		}
	}
	routedNS := time.Since(t0).Nanoseconds()
	out.DirectMeanUS = float64(directNS) / float64(n) / 1e3
	out.RoutedMeanUS = float64(routedNS) / float64(n) / 1e3
	if directNS > 0 {
		out.OverheadRatio = float64(routedNS) / float64(directNS)
	}
	return nil
}

// compareShard gates CI on the scatter-gather properties: the routed answers
// must stay id-identical, K=4 must keep its >=3x modelled speedup with
// viewport fan-out below K, and the router's per-query scatter overhead must
// not regress more than 25% against the committed baseline ratio. Ratios —
// not absolute times — are compared, so a slower CI box still gates
// meaningfully.
func compareShard(report *shardReport, baselinePath string) error {
	if !report.Gates.RoutedIDsMatch {
		return fmt.Errorf("routed answers diverged from the unsharded DB — identity broken, not a perf question")
	}
	// The committed baseline must clear 3x; a fresh CI run gets 10% of
	// scheduler-jitter headroom below that.
	if last := report.Cells[len(report.Cells)-1]; last.SpeedupVsK1 < 2.7 {
		return fmt.Errorf("K=4 modelled speedup %.2fx below the gate (3x committed, 2.7x with CI jitter headroom)",
			last.SpeedupVsK1)
	}
	if !report.Gates.ViewportFanoutLt {
		return fmt.Errorf("viewport queries fan out to every shard (mean fanout %.2f of %d) — the shard map prunes nothing",
			report.Cells[len(report.Cells)-1].MeanFanout, report.Cells[len(report.Cells)-1].Shards)
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base shardReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Scatter.OverheadRatio <= 0 {
		return fmt.Errorf("baseline %s carries no scatter overhead ratio", baselinePath)
	}
	if !base.Gates.SpeedupK4Ge3x {
		return fmt.Errorf("baseline %s was committed without the 3x K=4 gate — regenerate it", baselinePath)
	}
	limit := base.Scatter.OverheadRatio * 1.25
	fmt.Printf("bench-compare: scatter overhead %.2fx direct (baseline %.2fx, limit %.2fx)\n",
		report.Scatter.OverheadRatio, base.Scatter.OverheadRatio, limit)
	if report.Scatter.OverheadRatio > limit {
		return fmt.Errorf("scatter overhead %.2fx regressed beyond %.2fx (baseline %.2fx +25%%)",
			report.Scatter.OverheadRatio, limit, base.Scatter.OverheadRatio)
	}
	fmt.Println("bench-compare: shard gates OK")
	return nil
}

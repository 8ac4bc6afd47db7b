// Command prqbench regenerates the paper's tables and figures.
//
// Usage:
//
//	prqbench [flags] <experiment>
//
// Experiments:
//
//	table1   — Table I:  query time per strategy × γ (2-D road data)
//	table2   — Table II: integration counts per strategy × γ (same runs)
//	table3   — Table III: integration counts, 9-D pseudo-feedback
//	fig13    — integration-region geometry at γ=10 (also fig14's ALL region)
//	fig14    — alias of fig13
//	fig15    — region geometry at γ=1
//	fig16    — region geometry at γ=100
//	fig17    — Pr(‖x‖≤r) curves for d ∈ {2,3,5,9,15}
//	sweep    — §V-B.3 parameter sensitivity (δ, θ, Σ shape)
//	all      — everything above
//	batch    — batched query throughput: serial vs pooled QueryBatch, with
//	           plan-cache statistics (uses -workers and -queries; not in "all")
//	serve    — network query service: starts an in-process prqserved on
//	           loopback, drives it with -workers concurrent clients issuing
//	           -queries queries, and reports throughput, latency quantiles,
//	           plan-cache and admission statistics (not in "all")
//	shard    — sharded scatter-gather serving: the paper workload against
//	           K ∈ {1, 2, 4} spatially-sharded in-process deployments behind
//	           an explicit per-shard capacity model, reporting aggregate
//	           throughput, mean fan-out, routed-vs-unsharded answer identity
//	           and the router's scatter overhead; -json writes the report
//	           (committed as BENCH_shard.json) and -compare gates a fresh
//	           run against it (not in "all")
//	phase1   — packed flat-index front half: the Table-I workload (2-D road
//	           data, γ=1, δ=25, θ=0.01), reporting front-half time per
//	           query, the summed node/recheck/prune counters, an FNV-64a
//	           hash of the answer ids and the index build cost; -json writes
//	           the report (committed as BENCH_phase1.json) and -compare gates
//	           a fresh run against it (counters, hash and build gates; not
//	           in "all")
//	churn    — mixed read/write experiment: -workers goroutines run -queries
//	           operations against one live DB per cell, sweeping the write
//	           fraction (0–20%) and both overlay-rebuild strategies, and
//	           reporting read-latency quantiles vs write rate; an ingest
//	           section then measures sustained insert throughput at 64
//	           concurrent writers under synchronous (per-batch fsync) vs
//	           grouped wal commit and checks sync/grouped/follower answer
//	           and epoch identity; -json writes the measurements as a JSON
//	           document and -compare reruns only the ingest section, gating
//	           on the ≥5× group-commit speedup and the identity booleans
//	           (not in "all")
//
// Flags:
//
//	-seed N        dataset / query seed (default 1)
//	-trials N      query centers per cell (default: paper settings)
//	-eval NAME     "mc" (paper) or "exact" (Ruben series; default)
//	-samples N     MC samples per object (default 100000)
//	-workers N     worker goroutines for the batch experiment (default NumCPU)
//	-queries N     queries per batch for the batch experiment (default 64)
//	-json PATH     write the phase1/shard/churn report as JSON to PATH
//	-compare PATH  phase1/shard/churn: gate a fresh run against the
//	               committed baseline report at PATH (phase1: counters and
//	               answer hash equal the baseline's + build allocations; shard: routed identity, K=4 speedup,
//	               scatter overhead; churn: group-commit ingest speedup +
//	               replay identity)
//	-cpuprofile PATH  write a pprof CPU profile of the selected experiment
//	-memprofile PATH  write a pprof heap profile at exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
)

func main() {
	os.Exit(benchMain())
}

// benchMain is main with an exit code instead of os.Exit calls, so the
// profiling defers (-cpuprofile/-memprofile) always flush before exit.
func benchMain() int {
	seed := flag.Uint64("seed", 1, "dataset and query-center seed")
	trials := flag.Int("trials", 0, "query centers per cell (0 = paper defaults)")
	evalName := flag.String("eval", "exact", `evaluator: "mc" (paper) or "exact"`)
	samples := flag.Int("samples", 100000, "Monte Carlo samples per object")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for the batch experiment")
	queries := flag.Int("queries", 64, "queries per batch for the batch experiment")
	svg := flag.String("svg", "", "write the region figure (fig13/15/16) as SVG to this path")
	jsonPath := flag.String("json", "", "write the phase1/shard/churn report as JSON to this path")
	comparePath := flag.String("compare", "", "phase1/shard/churn: compare a fresh run against the committed baseline report at this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prqbench [flags] table1|table2|table3|fig13|fig14|fig15|fig16|fig17|sweep|iostats|catalog|batch|serve|shard|phase1|churn|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prqbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prqbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prqbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "prqbench: -memprofile: %v\n", err)
			}
		}()
	}

	var kind experiments.EvaluatorKind
	switch strings.ToLower(*evalName) {
	case "mc":
		kind = experiments.EvalMC
	case "exact":
		kind = experiments.EvalExact
	default:
		fmt.Fprintf(os.Stderr, "prqbench: unknown evaluator %q\n", *evalName)
		return 2
	}
	cfg := experiments.Config{Seed: *seed, Trials: *trials, Samples: *samples, Evaluator: kind}

	var err error
	switch {
	case *svg != "":
		err = writeSVG(flag.Arg(0), *svg)
	case strings.EqualFold(flag.Arg(0), "batch"):
		err = runBatch(cfg, *workers, *queries)
	case strings.EqualFold(flag.Arg(0), "phase1"):
		err = runPhase1(cfg, *queries, *jsonPath, *comparePath)
	case strings.EqualFold(flag.Arg(0), "churn"):
		err = runChurn(cfg, *workers, *queries, *jsonPath, *comparePath)
	case strings.EqualFold(flag.Arg(0), "shard"):
		err = runShard(cfg, *workers, *queries, *jsonPath, *comparePath)
	case strings.EqualFold(flag.Arg(0), "serve"):
		err = runServe(cfg, *workers, *queries)
	default:
		err = run(flag.Arg(0), cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "prqbench: %v\n", err)
		return 1
	}
	return 0
}

// runBatch measures batched query throughput through the public API: the
// same query set is answered serially (one QueryCtx per spec) and through
// the pooled DB.QueryBatch, and the plan cache's hit counters are reported.
// Every spec shares the paper's Σ = 10·Σ₀ shape, so after the first compile
// all remaining queries are cache hits rebound to new centers.
func runBatch(cfg experiments.Config, workers, queries int) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1, got %d", queries)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	points := data.LongBeach(seed)
	raw := make([][]float64, len(points))
	for i, p := range points {
		raw[i] = p
	}
	db, err := gaussrange.Load(raw)
	if err != nil {
		return err
	}

	sigma := experiments.PaperSigmaBase().Scale(10)
	covRows := [][]float64{
		{sigma.At(0, 0), sigma.At(0, 1)},
		{sigma.At(1, 0), sigma.At(1, 1)},
	}
	specs := make([]gaussrange.QuerySpec, queries)
	for i := range specs {
		c := points[(i*7919)%len(points)]
		specs[i] = gaussrange.QuerySpec{
			Center: []float64{c[0], c[1]},
			Cov:    covRows,
			Delta:  25,
			Theta:  0.01,
		}
	}
	ctx := context.Background()

	t0 := time.Now()
	for _, spec := range specs {
		if _, err := db.QueryCtx(ctx, spec); err != nil {
			return err
		}
	}
	serial := time.Since(t0)

	t1 := time.Now()
	results, err := db.QueryBatch(ctx, specs, workers)
	if err != nil {
		return err
	}
	batched := time.Since(t1)

	answers := 0
	for _, r := range results {
		answers += len(r.IDs)
	}
	hits, misses := db.PlanCacheStats()
	fmt.Printf("batch throughput (%d points, %d queries, δ=25, θ=0.01, γ=10)\n",
		db.Len(), queries)
	fmt.Printf("  serial     : %10v  (%.1f queries/s)\n", serial, float64(queries)/serial.Seconds())
	fmt.Printf("  batch x%-3d : %10v  (%.1f queries/s, %.2fx speedup)\n",
		workers, batched, float64(queries)/batched.Seconds(), serial.Seconds()/batched.Seconds())
	fmt.Printf("  answers    : %d total across the batch\n", answers)
	fmt.Printf("  plan cache : %d hits, %d misses\n", hits, misses)
	return nil
}

// writeSVG renders a region figure to an SVG file.
func writeSVG(name, path string) error {
	var gamma float64
	switch strings.ToLower(name) {
	case "fig13", "fig14":
		gamma = 10
	case "fig15":
		gamma = 1
	case "fig16":
		gamma = 100
	default:
		return fmt.Errorf("-svg applies to fig13/fig14/fig15/fig16, not %q", name)
	}
	res, err := experiments.RunRegions(gamma)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.RenderSVG(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}

func run(name string, cfg experiments.Config) error {
	out := os.Stdout
	switch strings.ToLower(name) {
	case "table1", "table2", "tables12":
		res, err := experiments.RunTables12(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(out)
	case "table3":
		res, err := experiments.RunTable3(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(out)
	case "fig13", "fig14":
		res, err := experiments.RunRegions(10)
		if err != nil {
			return err
		}
		res.Render(out)
	case "fig15":
		res, err := experiments.RunRegions(1)
		if err != nil {
			return err
		}
		res.Render(out)
	case "fig16":
		res, err := experiments.RunRegions(100)
		if err != nil {
			return err
		}
		res.Render(out)
	case "fig17":
		res, err := experiments.RunFig17()
		if err != nil {
			return err
		}
		res.Render(out)
	case "sweep":
		res, err := experiments.RunSweep(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(out)
	case "iostats":
		res, err := experiments.RunIOStats(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(out)
	case "catalog":
		res, err := experiments.RunCatalogAblation(cfg, nil)
		if err != nil {
			return err
		}
		res.Render(out)
	case "all":
		for _, sub := range []string{"table1", "table3", "fig13", "fig15", "fig16", "fig17", "sweep", "iostats", "catalog"} {
			if err := run(sub, cfg); err != nil {
				return err
			}
			fmt.Fprintln(out, strings.Repeat("-", 72))
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

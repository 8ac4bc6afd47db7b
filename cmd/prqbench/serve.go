package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/server"
)

// runServe measures the network query service end-to-end: an in-process
// server on a loopback listener is driven by `workers` concurrent clients
// issuing `queries` paper-shaped queries (γ=10, δ=25, θ=0.01), then
// /statsz is read back for latency quantiles, plan-cache hit rates and
// admission counters. The loopback round-trip bounds the
// protocol overhead a remote deployment adds on top of direct library calls.
func runServe(cfg experiments.Config, workers, queries int) error {
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
	srv, err := server.New(server.Config{DB: db, MaxInflight: workers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

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

	cl := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	var (
		next     atomic.Int64
		answers  atomic.Int64
		rejected atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res, err := cl.Query(ctx, specs[i])
				if client.IsOverloaded(err) {
					// Shed load is part of the experiment: back off and retry.
					rejected.Add(1)
					time.Sleep(time.Millisecond)
					next.Add(-1)
					continue
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				answers.Add(int64(len(res.IDs)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		return firstErr
	}

	snap, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	<-serveErr

	lat := snap.Endpoints["/v1/query"].Latency
	fmt.Printf("network service throughput (%d points, %d queries, %d client workers, δ=25, θ=0.01, γ=10)\n",
		db.Len(), queries, workers)
	fmt.Printf("  wall time  : %10v  (%.1f queries/s over loopback HTTP)\n",
		elapsed, float64(queries)/elapsed.Seconds())
	fmt.Printf("  latency    : mean %.2fms  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		lat.MeanMS(), lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99), float64(lat.MaxNS)/1e6)
	fmt.Printf("  answers    : %d total across all queries\n", answers.Load())
	fmt.Printf("  plan cache : %d hits, %d misses (%.1f%% hit rate)\n",
		snap.PlanCache.Hits, snap.PlanCache.Misses, 100*snap.PlanCache.HitRate)
	fmt.Printf("  admission  : limit %d, %d admitted, %d shed with 429 (client retried %d)\n",
		snap.Admission.MaxInflight, snap.Admission.Admitted, snap.Admission.Rejected, rejected.Load())
	fmt.Printf("  phase totals: retrieved %d, integrations %d, index %v, filter %v, prob %v\n",
		snap.Queries.Retrieved, snap.Queries.Integrations,
		time.Duration(snap.Queries.IndexNS), time.Duration(snap.Queries.FilterNS), time.Duration(snap.Queries.ProbNS))
	return nil
}

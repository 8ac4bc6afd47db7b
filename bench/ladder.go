package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/core"
	"gaussrange/internal/gauss"
	"gaussrange/internal/quadform"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
	"gaussrange/internal/wal"
	"gaussrange/replica"
	"gaussrange/server"
	"gaussrange/shard"
)

const (
	// ladderRequests caps how many of the stream's first requests each rung
	// replays; slow shapes replay what fits the rung's time budget instead,
	// but never fewer than ladderMinimum (two batches' worth), however slow
	// the box.
	ladderRequests = 500
	ladderMinimum  = 2 * batchSize
	// ladderWrites is the write ladder's replay length, under the same rule.
	ladderWrites = 300
	// batchSize is the same-shape batch core.batch16_us_per_q runs.
	batchSize = 16
	// planShapes must exceed the 128-entry plan cache so every one compiles.
	planShapes = 256
	// qualSpecs is how many specs contribute shell candidates to quadform.qual_us.
	qualSpecs = 64
	// foldCycles is how many overlay folds the fold rung crosses.
	foldCycles = 3
	// buildReps is how often bulk-load and Pack are timed for their medians.
	buildReps = 3
)

// layerResult is one workload's traced pass.
type layerResult struct {
	Workload string        `json:"workload"`
	Metrics  []measurement `json:"metrics"`
	Calls    int           `json:"calls"`
	Trace    string        `json:"trace_file"`
}

func (r *layerResult) add(name, unit string, value float64) {
	r.Metrics = append(r.Metrics, measurement{Name: name, Unit: unit, Value: value})
}

// timed runs fn and returns when it started and ended.
func timed(fn func() error) (start, end time.Time, err error) {
	start = time.Now()
	err = fn()
	return start, time.Now(), err
}

// How a rung is called for one request.
const (
	prime    = iota // untimed: warms what the timed call that follows reads
	untraced        // timed, no span recorded
	traced          // timed, span recorded
)

// readLadder replays read requests through the rungs R-1 router, R0 client,
// R1 handler, R2 DB, R3 core, and keeps what they returned beside the spans.
//
// Each request goes through every rung back to back, so a rung and the one
// below it run milliseconds apart and drift between them cancels in the
// per-request self times. Every timed call directly follows an untimed call
// of the same rung: the rungs above the DB share its index while core.execute
// reads the bench's own, and without the primer whichever memory was touched
// less recently looks slower by more than the self times being measured. The
// in-memory handler is timed twice, with its span recorded and without, in
// alternating order, for trace.overhead_ratio: it runs every server-side
// layer, and loopback jitter (±3 % here) would swamp the 2 % the ratio is
// held to.
type readLadder struct {
	st      *stream
	tr      *tracer
	sys     *sut
	handler http.Handler // sys's, built once: Handler() assembles a new mux per call
	cl      *client.Client
	router  *shard.Router
	base    *core.Plan    // compiled once on the bench-owned index
	packed  *rtree.Packed // that index's packed tree

	answers    [][]int64 // client.query's ids, per request
	plans      []*core.Plan
	total      gaussrange.Stats // summed over db.query results
	answered   int
	respBytes  []float64
	fanout     []float64
	phase      [3][]float64
	unattrUS   []float64
	tracedUS   []float64
	untracedUS []float64
	search     rtree.SearchStats
	found      int
	calls      int
}

// request sends stream read i through every rung and checks that all of them
// answer the same ids.
func (l *readLadder) request(ctx context.Context, i int) error {
	spec := l.st.spec(i)
	wire := server.RequestFromSpec(spec)
	body, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	got := make(map[string][]int64)

	shardQuery := func(mode int) error {
		var resp server.QueryResponse
		start, end, err := timed(func() (err error) { resp, err = l.router.Query(ctx, wire); return err })
		if err != nil || mode == prime {
			return err
		}
		l.tr.record("shard.query", i, start, end)
		l.fanout = append(l.fanout, float64(resp.Routing.Fanout))
		got["shard.query"] = resp.IDs
		start, end, err = timed(func() error { _, _, err := l.router.Route(wire); return err })
		l.tr.record("shard.route", i, start, end)
		return err
	}
	clientQuery := func(mode int) error {
		var r *gaussrange.Result
		start, end, err := timed(func() (err error) { r, err = l.cl.Query(ctx, spec); return err })
		if err != nil || mode == prime {
			return err
		}
		l.tr.record("client.query", i, start, end)
		got["client.query"] = r.IDs
		return nil
	}
	serverHandler := func(mode int) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start, end, _ := timed(func() error { l.handler.ServeHTTP(rec, req); return nil })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("server.handler: status %d: %s", rec.Code, rec.Body.String())
		}
		switch mode {
		case prime:
			return nil
		case untraced:
			l.untracedUS = append(l.untracedUS, micros(end.Sub(start)))
			return nil
		}
		l.tr.record("server.handler", i, start, end)
		l.tracedUS = append(l.tracedUS, micros(end.Sub(start)))
		l.respBytes = append(l.respBytes, float64(rec.Body.Len()))
		var out server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			return err
		}
		got["server.handler"] = out.IDs
		return nil
	}
	dbQuery := func(mode int) error {
		var r *gaussrange.Result
		start, end, err := timed(func() (err error) { r, err = l.sys.db.QueryCtx(ctx, spec); return err })
		if err != nil || mode == prime {
			return err
		}
		l.tr.record("db.query", i, start, end)
		l.total.Add(r.Stats)
		l.answered += len(r.IDs)
		got["db.query"] = r.IDs
		return nil
	}
	coreExecute := func(mode int) error {
		var (
			p *core.Plan
			r *core.Result
		)
		start, end, err := timed(func() error {
			d, err := l.base.Dist().WithMean(vecmat.Vector(spec.Center))
			if err != nil {
				return err
			}
			if p, err = l.base.Rebind(d); err != nil {
				return err
			}
			r, err = p.Execute(ctx)
			return err
		})
		if err != nil || mode == prime {
			return err
		}
		l.tr.record("core.execute", i, start, end)
		l.plans = append(l.plans, p)
		inPhases := time.Duration(0)
		for k, d := range r.Stats.PhaseDurations {
			l.phase[k] = append(l.phase[k], micros(d))
			inPhases += d
		}
		l.unattrUS = append(l.unattrUS, micros(end.Sub(start)-inPhases))
		got["core.execute"] = r.IDs

		// Below core: the packed R-tree alone on the plan's Phase-1 rectangle.
		rect := p.SearchRect()
		start, end, err = timed(func() error {
			return l.packed.SearchRect(rect, func(int64, []float64) bool { l.found++; return true }, &l.search)
		})
		l.tr.record("rtree.search", i, start, end)
		return err
	}

	first, second := traced, untraced
	if i%2 == 1 {
		first, second = untraced, traced
	}
	calls := []struct {
		rung func(int) error
		mode int
	}{
		{shardQuery, prime}, {shardQuery, traced},
		{clientQuery, prime}, {clientQuery, traced},
		{serverHandler, prime}, {serverHandler, first}, {serverHandler, second},
		{dbQuery, prime}, {dbQuery, traced},
		{coreExecute, prime}, {coreExecute, traced},
	}
	for _, c := range calls {
		if err := c.rung(c.mode); err != nil {
			return fmt.Errorf("read ladder, request %d: %w", i, err)
		}
	}
	for rung, ids := range got {
		if !slices.Equal(ids, got["client.query"]) {
			return fmt.Errorf("request %d: %s answers %d ids, client.query %d", i, rung, len(ids), len(got["client.query"]))
		}
	}
	l.answers = append(l.answers, got["client.query"])
	l.calls += len(calls)
	return nil
}

// benchIndex bulk-loads the points into an index the bench owns, for the
// layers below the DB that no public DB method reaches.
func benchIndex(points [][]float64, prefill *stream) (*core.Index, error) {
	vecs := make([]vecmat.Vector, len(points))
	for i, p := range points {
		vecs[i] = p
	}
	idx, err := core.NewIndex(vecs, 2)
	if err != nil || prefill == nil {
		return idx, err
	}
	return idx, prefill.prefill(func(inserts [][]float64, deletes []int64) ([]int64, error) {
		vecs := make([]vecmat.Vector, len(inserts))
		for i, p := range inserts {
			vecs[i] = p
		}
		ids, _, _, err := idx.Apply(vecs, deletes)
		return ids, err
	})
}

// compileShape compiles the stream's query shape once on idx, as DB.planFor
// does on a plan-cache miss; requests rebind it to their centre.
func compileShape(idx *core.Index, st *stream) (*core.Plan, error) {
	eng, err := core.NewEngine(idx, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		return nil, err
	}
	cov, err := vecmat.FromRows(st.cov)
	if err != nil {
		return nil, err
	}
	dist, err := gauss.New(vecmat.Vector(st.center(0)), cov)
	if err != nil {
		return nil, err
	}
	return eng.Compile(core.Query{Dist: dist, Delta: st.delta, Theta: st.theta}, core.StrategyAll)
}

// runLadder is the traced pass for one workload: single-threaded replays of
// the stream's first requests through each public entry point, from the
// router and the client down to the R-tree and the wal. Nothing inside the
// program is instrumented; in-program numbers are only those its public API
// returns. Every workload's pass runs every rung — the driver wants every
// per-layer metric from every run — with the workload's own stream.
func runLadder(ctx context.Context, cfg config, w workload, points [][]float64) (*layerResult, error) {
	res := &layerResult{Workload: w.name}
	st := newStream(w, cfg.seed, points)
	// budget caps one rung group: the read ladder gets two, the batch rung
	// half of one, the write ladder one.
	budget := cfg.seconds / 8

	var prefill *stream
	if w.churn {
		prefill = st // the ladder reads through the overlay the run starts behind
	}
	sys, _, err := startSUT(ctx, points, "", prefill)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	idx, err := benchIndex(points, prefill)
	if err != nil {
		return nil, err
	}
	base, err := compileShape(idx, st)
	if err != nil {
		return nil, err
	}
	router, stopShards, err := startShards(ctx, points)
	if err != nil {
		return nil, err
	}
	defer stopShards()

	l := &readLadder{st: st, tr: newTracer(), sys: sys, handler: sys.srv.Handler(), cl: client.New(sys.url),
		router: router, base: base, packed: idx.Current().Packed()}
	for started := time.Now(); len(l.answers) < ladderMinimum ||
		(len(l.answers) < ladderRequests && time.Since(started) < 2*budget); {
		if err := l.request(ctx, len(l.answers)); err != nil {
			return nil, err
		}
	}
	n := len(l.answers)
	res.Calls = l.calls
	hits, misses := sys.db.PlanCacheStats()
	statsz := sys.srv.Stats()

	// The batch path: QueryBatch of 16 same-shape specs on one worker.
	var batchUS []float64
	for b, started := 0, time.Now(); (b+1)*batchSize <= n && (b == 0 || time.Since(started) < budget/2); b++ {
		specs := make([]gaussrange.QuerySpec, batchSize)
		for j := range specs {
			specs[j] = st.spec(b*batchSize + j)
		}
		start, end, err := timed(func() error { _, err := sys.db.QueryBatch(ctx, specs, 1); return err })
		if err != nil {
			return nil, fmt.Errorf("core.batch16 %d: %w", b, err)
		}
		l.tr.record("core.batch16", b, start, end)
		batchUS = append(batchUS, micros(end.Sub(start))/batchSize)
		res.Calls++
	}

	bulkMS, packMS, err := timeIndexBuild(points)
	if err != nil {
		return nil, err
	}
	qualUS, err := timeQualifications(sys.db, l.plans, st)
	if err != nil {
		return nil, err
	}
	hitUS, missUS, err := timePlanCache(st)
	if err != nil {
		return nil, err
	}
	wl, err := runWriteLadder(ctx, cfg, l.tr, st, points, budget)
	if err != nil {
		return nil, err
	}
	res.Calls += wl.calls
	fold, err := runFoldRung(idx, st)
	if err != nil {
		return nil, err
	}

	l.tr.link()
	sp := l.tr.spans
	perQ := func(v int) float64 { return ratio(float64(v), float64(n)) }
	res.add("client.query_us", "us", median(durationsUS(sp, "client.query")))
	res.add("client.transport_self_us", "us", median(selfUS(sp, "client.query")))
	res.add("server.handler_us", "us", median(durationsUS(sp, "server.handler")))
	res.add("server.self_us", "us", median(selfUS(sp, "server.handler")))
	res.add("server.resp_bytes_per_q", "B", mean(l.respBytes))
	res.add("server.reject_ratio", "ratio", ratio(float64(statsz.Admission.Rejected),
		float64(statsz.Admission.Admitted+statsz.Admission.Rejected)))
	res.add("db.query_us", "us", median(durationsUS(sp, "db.query")))
	res.add("db.self_us", "us", median(selfUS(sp, "db.query")))
	res.add("gaussrange.plan_hit_us", "us", median(hitUS))
	res.add("gaussrange.plan_miss_us", "us", median(missUS))
	res.add("gaussrange.plan_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	res.add("core.execute_us", "us", median(durationsUS(sp, "core.execute")))
	res.add("core.phase1_us", "us", median(l.phase[0]))
	res.add("core.phase2_us", "us", median(l.phase[1]))
	res.add("core.phase3_us", "us", median(l.phase[2]))
	res.add("core.unattributed_us", "us", median(l.unattrUS))
	res.add("core.retrieved_per_q", "count", perQ(l.total.Retrieved))
	res.add("core.integrations_per_q", "count", perQ(l.total.Integrations))
	res.add("core.answers_per_q", "count", perQ(l.answered))
	res.add("core.bf_accept_ratio", "ratio", ratio(float64(l.total.AcceptedBF), float64(l.total.Retrieved)))
	res.add("core.useful_ratio", "ratio", ratio(float64(l.answered), float64(l.total.Retrieved)))
	res.add("core.sample_free_ratio", "ratio", sampleFreeRatio(l.total))
	res.add("core.batch16_us_per_q", "us", median(batchUS))
	res.add("core.overlay_scanned_per_q", "count", perQ(l.total.OverlayScanned))
	res.add("rtree.search_us", "us", median(durationsUS(sp, "rtree.search")))
	res.add("rtree.nodes_per_q", "count", perQ(int(l.search.Nodes)))
	res.add("rtree.f32_recheck_ratio", "ratio", ratio(float64(l.search.F32Rechecks), float64(l.found)))
	res.add("rtree.bulkload_ms", "ms", median(bulkMS))
	res.add("rtree.pack_ms", "ms", median(packMS))
	res.add("quadform.qual_us", "us", median(qualUS))
	res.Metrics = append(res.Metrics, wl.metrics(sp)...)
	res.Metrics = append(res.Metrics, fold...)
	res.add("shard.route_us", "us", median(durationsUS(sp, "shard.route")))
	res.add("shard.query_overhead_us", "us", median(selfUS(sp, "shard.query")))
	res.add("shard.fanout_mean", "count", mean(l.fanout))
	res.add("trace.overhead_ratio", "ratio", orderBalancedRatio(l.tracedUS, l.untracedUS))

	res.Trace = filepath.Join(cfg.out, "trace-"+w.name+".jsonl")
	if err := l.tr.writeJSONL(res.Trace); err != nil {
		return nil, err
	}
	return res, sys.stop()
}

// timeIndexBuild times bulk-load and Pack on the dataset: the cost behind
// setup_s and behind every fold.
func timeIndexBuild(points [][]float64) (bulkMS, packMS []float64, err error) {
	vecs := make([]vecmat.Vector, len(points))
	ids := make([]int64, len(points))
	for i, p := range points {
		vecs[i], ids[i] = p, int64(i)
	}
	for rep := 0; rep < buildReps; rep++ {
		var tree *rtree.Tree
		start, end, err := timed(func() (err error) { tree, err = rtree.BulkLoadPoints(vecs, ids, 2); return err })
		if err != nil {
			return nil, nil, err
		}
		bulkMS = append(bulkMS, micros(end.Sub(start))/1e3)
		start, end, _ = timed(func() error { rtree.Pack(tree); return nil })
		packMS = append(packMS, micros(end.Sub(start))/1e3)
	}
	return bulkMS, packMS, nil
}

// timeQualifications times single Ruben evaluations over the candidates
// Phase 3 really sees — the shell between the BF accept and reject radii —
// for the first qualSpecs plans.
func timeQualifications(db *gaussrange.DB, plans []*core.Plan, st *stream) ([]float64, error) {
	var us []float64
	exact := quadform.NewExact()
	for i := 0; i < qualSpecs && i < len(plans); i++ {
		p := plans[i]
		outer, err := db.RangeSearch(st.center(i), p.AlphaUpper())
		if err != nil {
			return nil, err
		}
		inner, err := db.RangeSearch(st.center(i), p.AlphaLower())
		if err != nil {
			return nil, err
		}
		for _, id := range outer {
			if _, accepted := slices.BinarySearch(inner, id); accepted {
				continue
			}
			o, err := db.Point(id)
			if err != nil {
				return nil, err
			}
			start, end, err := timed(func() error {
				_, _, err := exact.QualificationBound(p.Dist(), vecmat.Vector(o), st.delta)
				return err
			})
			if err != nil {
				return nil, err
			}
			us = append(us, micros(end.Sub(start)))
		}
	}
	return us, nil
}

// timePlanCache times DB.PlanRegion on an empty planner DB: planShapes
// distinct shapes, more than the cache holds, so each compiles; then one
// repeated shape, so each but the first is a hit.
func timePlanCache(st *stream) (hitUS, missUS []float64, err error) {
	planner, err := gaussrange.Open(2)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 2*planShapes; i++ {
		spec := st.spec(i)
		distinct := i < planShapes
		if distinct {
			spec.Delta *= 1 + float64(i+1)/(2*planShapes)
		}
		start, end, err := timed(func() error { _, _, _, err := planner.PlanRegion(spec); return err })
		if err != nil {
			return nil, nil, err
		}
		switch {
		case distinct:
			missUS = append(missUS, micros(end.Sub(start)))
		case i > planShapes: // the first repeat compiles the shape
			hitUS = append(hitUS, micros(end.Sub(start)))
		}
	}
	return hitUS, missUS, nil
}

// sampleFreeRatio is the share of retrieved candidates decided without
// touching a Monte Carlo sample. The tiered kernel reports its sampling
// fallback as TierMC; a shared-cloud kernel samples every integration; the
// default exact evaluator samples nothing.
func sampleFreeRatio(total gaussrange.Stats) float64 {
	sampled := total.TierMC
	if total.TierMC+total.SampleFreeDecisions() == 0 && total.SamplesTouched > 0 {
		sampled = total.Integrations
	}
	return 1 - ratio(float64(sampled), float64(total.Retrieved))
}

// writeLadder holds what the write rungs measured besides their spans.
type writeLadder struct {
	calls           int
	fsyncsPerWrite  float64
	bytesPerPoint   float64
	catchupUSPerRec float64
}

// runWriteLadder replays the stream's first writes through W0 client insert
// over loopback (wal attached), W1 DB.Apply with the wal, W2 DB.Apply without
// one, W3 a bare wal.Store append+sync of an equal record; then a follower
// replays the directory W0 and W1 wrote.
func runWriteLadder(ctx context.Context, cfg config, tr *tracer, st *stream, points [][]float64, budget time.Duration) (*writeLadder, error) {
	out := &writeLadder{}
	walDir, err := os.MkdirTemp(cfg.out, "wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	leader, _, err := startSUT(ctx, points, walDir, nil)
	if err != nil {
		return nil, err
	}
	defer leader.stop()
	mem, err := gaussrange.Load(points)
	if err != nil {
		return nil, err
	}

	storeDir, err := os.MkdirTemp(cfg.out, "wal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	store, err := wal.OpenStore(storeDir, wal.StoreConfig{Dim: 2})
	if err != nil {
		return nil, err
	}
	defer store.Close()

	// Like the read ladder, every write goes through all four rungs back to
	// back. A write cannot be primed — a repeat is another write — so the
	// starting rung rotates instead, and no rung always runs first.
	cl := client.New(leader.url)
	n := 0
	for started := time.Now(); n < ladderMinimum || (n < ladderWrites && time.Since(started) < budget); n++ {
		i, batch := n, [][]float64{st.write(n)}
		rungs := []struct {
			name string
			call func() error
		}{
			{"client.insert", func() error { _, _, err := cl.InsertPoints(ctx, batch); return err }},
			{"db.apply_wal", func() error { _, _, _, err := leader.db.Apply(batch, nil); return err }},
			{"db.apply_mem", func() error { _, _, _, err := mem.Apply(batch, nil); return err }},
			{"wal.append_sync", func() error {
				rec := wal.Record{Epoch: uint64(i + 2), Inserts: batch, InsertIDs: []int64{int64(len(points) + i)}}
				if err := store.Append(rec); err != nil {
					return err
				}
				return store.Sync()
			}},
		}
		for k := range rungs {
			r := rungs[(i+k)%len(rungs)]
			start, end, err := timed(r.call)
			if err != nil {
				return nil, fmt.Errorf("%s %d: %w", r.name, i, err)
			}
			tr.record(r.name, i, start, end)
		}
	}
	out.calls = 4 * n

	ws, ok := leader.db.WALStats()
	if !ok {
		return nil, fmt.Errorf("write ladder: no wal attached")
	}
	bytes, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	out.fsyncsPerWrite = ratio(float64(ws.Store.Fsyncs), float64(2*n))
	out.bytesPerPoint = ratio(float64(bytes), float64(2*n))

	followed, err := gaussrange.Load(points)
	if err != nil {
		return nil, err
	}
	f, err := replica.New(followed, replica.Config{Dir: walDir})
	if err != nil {
		return nil, err
	}
	var applied int
	start, end, err := timed(func() (err error) { applied, err = f.CatchUp(); return err })
	if err != nil {
		return nil, fmt.Errorf("replica catch-up: %w", err)
	}
	if got, want := followed.Epoch(), leader.db.Epoch(); got != want {
		return nil, fmt.Errorf("replica caught up to epoch %d, leader is at %d", got, want)
	}
	out.catchupUSPerRec = ratio(micros(end.Sub(start)), float64(applied))
	return out, nil
}

func (w *writeLadder) metrics(sp []span) []measurement {
	walSelf := median(durationsUS(sp, "db.apply_wal")) - median(durationsUS(sp, "db.apply_mem"))
	return []measurement{
		{Name: "client.insert_us", Unit: "us", Value: median(durationsUS(sp, "client.insert"))},
		{Name: "db.apply_wal_us", Unit: "us", Value: median(durationsUS(sp, "db.apply_wal"))},
		{Name: "db.apply_mem_us", Unit: "us", Value: median(durationsUS(sp, "db.apply_mem"))},
		{Name: "wal.self_us", Unit: "us", Value: walSelf},
		{Name: "wal.append_sync_us", Unit: "us", Value: median(durationsUS(sp, "wal.append_sync"))},
		{Name: "wal.commit_wait_us", Unit: "us", Value: median(selfUS(sp, "db.apply_wal"))},
		{Name: "wal.fsyncs_per_write", Unit: "count", Value: w.fsyncsPerWrite},
		{Name: "wal.bytes_per_point", Unit: "B", Value: w.bytesPerPoint},
		{Name: "replica.catchup_us_per_record", Unit: "us", Value: w.catchupUSPerRec},
	}
}

// runFoldRung drives insert+delete pairs straight into the bench-owned index
// until its overlay has been folded into a fresh base tree foldCycles times,
// timing the Apply calls that did the folding.
func runFoldRung(idx *core.Index, st *stream) ([]measurement, error) {
	overlay := func() int {
		ins, del := idx.Current().OverlaySize()
		return ins + del
	}
	var (
		foldMS []float64
		foldAt []int // applies made when each fold happened
	)
	applies, before := 0, overlay()
	apply := func(ins []vecmat.Vector, del []int64) ([]int64, error) {
		var ids []int64
		start, end, err := timed(func() (err error) { ids, _, _, err = idx.Apply(ins, del); return err })
		if err != nil {
			return nil, err
		}
		applies++
		now := overlay()
		if now < before {
			foldMS = append(foldMS, micros(end.Sub(start))/1e3)
			foldAt = append(foldAt, applies)
		}
		before = now
		return ids, nil
	}
	for i := 0; len(foldMS) < foldCycles; i++ {
		ids, err := apply([]vecmat.Vector{st.write(i)}, nil)
		if err != nil {
			return nil, err
		}
		if _, err := apply(nil, ids); err != nil {
			return nil, err
		}
	}
	return []measurement{
		{Name: "core.fold_ms", Unit: "ms", Value: median(foldMS)},
		{Name: "core.folds", Unit: "count", Value: float64(len(foldMS))},
		// From the first fold on: the churn ladder starts behind a prefilled overlay.
		{Name: "core.applies_per_fold", Unit: "count", Value: float64(foldAt[foldCycles-1]-foldAt[0]) / (foldCycles - 1)},
	}, nil
}

// startShards splits the points over two in-process shard servers and
// returns a router over them.
func startShards(ctx context.Context, points [][]float64) (*shard.Router, func(), error) {
	m, parts, err := shard.Split(points, 2)
	if err != nil {
		return nil, nil, err
	}
	var servers []*sut
	stop := func() {
		for _, s := range servers {
			s.stop()
		}
	}
	urls := make([]string, len(parts))
	for i, part := range parts {
		db, err := gaussrange.LoadWithIDs(part.Points, part.IDs)
		if err != nil {
			stop()
			return nil, nil, err
		}
		s, err := serve(ctx, db)
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, s)
		urls[i] = s.url
	}
	router, err := shard.NewRouter(shard.Config{Map: m, Endpoints: urls})
	if err != nil {
		stop()
		return nil, nil, err
	}
	return router, stop, nil
}

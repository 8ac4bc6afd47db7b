package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

const (
	// clients is fixed, not nproc-derived: each caller (a localisation step, a
	// map client) waits for its answer, and two of them keep both cores of the
	// reference box busy without queueing behind admission (limit 2×GOMAXPROCS).
	clients = 2
	// windows is how many equal measured windows a run has; every end-to-end
	// metric is the median of the per-window values.
	windows = 3
	// setupReps is how many times a run builds the system to time set-up; the
	// last build is the one measured.
	setupReps = 5
	// churnLag is how many bench-inserted points stay live: the writer deletes
	// its oldest insert once this many are outstanding, so after warm-up the
	// live count is constant while every write still grows the overlay.
	churnLag = 256
	// minReadsPerWindow leaves ten samples beyond the window's p99; a window
	// with fewer is reported on stderr.
	minReadsPerWindow = 1000
	// minFolds is how many overlay folds churn_mixed must cross while measured
	// (see churnPrefill for why it is not more).
	minFolds = 1
	// smokeRequests is the whole -smoke run of one workload; smokeLag lets its
	// few writes reach the delete path.
	smokeRequests = 200
	smokeLag      = 8
)

// metricDef names one end-to-end metric and fixes its regression bound: the
// share of the baseline by which it may worsen (absolute for failed_frac).
// Timings get the widest bound a driver accepts, 0.25: on the reference VM one
// and the same spin loop runs 20–30 % faster or slower from one ten-second
// stretch to the next (see README, "Sandbox caveats"), and a bound inside
// that noise would reject unchanged code.
//
// driver marks the metrics BENCHMARK.json lists. Its driver wants every listed
// metric from every run, never 0, and steady from run to run. The write
// metrics exist on churn_mixed alone; failed_frac is 0 on a healthy run (the
// result line's attempted/failed carry it); between runs of the same code here
// query_p99_ms moves by 50–150 % and query_qps, which follows the mean latency
// and so the tail, by 15–45 %, so both are printed and compared by -aa but
// cannot gate a change.
type metricDef struct {
	name     string
	unit     string
	better   string
	bound    float64
	absolute bool
	driver   bool
}

var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, driver: true},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25, driver: true},
	{name: "query_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25, driver: true},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "write_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "write_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "wal_bytes_per_point", unit: "B", better: "lower", bound: 0.01},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.05, driver: true},
	{name: "failed_frac", unit: "frac", better: "lower", bound: 0.001, absolute: true},
}

// metricNamed looks an end-to-end metric's definition up.
func metricNamed(name string) metricDef {
	for _, d := range e2eMetrics {
		if d.name == name {
			return d
		}
	}
	return metricDef{}
}

// measurement is one reported number. windows holds the per-window values a
// median was taken over (nil for single-shot metrics); n is the sample count
// behind the value.
type measurement struct {
	Name    string    `json:"name"`
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// sut is the system under test, built exactly as a user gets it out of the
// box: Load with no options behind server.New on a loopback listener. The
// bench passes no kernel, plan-cache, coalesce or rebuild option, so a later
// change of defaults shows up here.
type sut struct {
	db     *gaussrange.DB
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error

	stopOnce sync.Once
	stopErr  error
}

// serve mounts db on a fresh 127.0.0.1:0 listener and returns once it accepts.
func serve(ctx context.Context, db *gaussrange.DB) (*sut, error) {
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sut{db: db, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := client.New(s.url).Health(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("server not accepting: %w", err)
	}
	return s, nil
}

// startSUT builds the system and returns how long set-up took: bulk-load +
// Pack, wal attach when walDir is set (default grouped commit), listener
// accepting. A non-nil prefill stream is applied in between, untimed.
func startSUT(ctx context.Context, points [][]float64, walDir string, prefill *stream) (*sut, time.Duration, error) {
	start := time.Now()
	db, err := gaussrange.Load(points)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	if prefill != nil {
		if err := prefill.prefill(dbApply(db)); err != nil {
			return nil, 0, err
		}
	}
	start = time.Now()
	if walDir != "" {
		if _, err := db.AttachWAL(gaussrange.WALConfig{Dir: walDir}); err != nil {
			return nil, 0, err
		}
	}
	s, err := serve(ctx, db)
	return s, setup + time.Since(start), err
}

// stop drains the listener, waits for Serve to return and closes the wal.
// Later calls return the first call's error.
func (s *sut) stop() error {
	s.stopOnce.Do(func() {
		err := s.hs.Shutdown(context.Background())
		<-s.served
		s.stopErr = errors.Join(err, s.db.DetachWAL())
	})
	return s.stopErr
}

// sample is one completed request of the closed loop.
type sample struct {
	end   time.Duration // completion, since the loop started
	lat   time.Duration
	write bool
	fail  bool
}

// loopLimit ends the closed loop after a duration or, for -smoke, a request
// count; exactly one is set. lag is how many of the writer's inserts stay live.
type loopLimit struct {
	dur  time.Duration
	reqs int64
	lag  int
}

// liveRecord is the bench's own account of what churn left in the database:
// the writer's inserts that it has not deleted again.
type liveRecord struct {
	ids      []int64
	points   [][]float64
	mutated  int // acknowledged inserts + deletes
	lastEpch uint64
}

type loopResult struct {
	samples  []sample
	folds    []time.Duration // when the reader saw the overlay reset
	live     liveRecord
	elapsed  time.Duration
	firstErr error
}

// closedLoop drives the server from `clients` goroutines, each on its own
// keep-alive connection and each sending its next request only when the
// previous one is answered. Reads take stream indices from a shared counter
// starting at `from`; on a churn workload one of the two goroutines writes.
func closedLoop(ctx context.Context, url string, st *stream, churn bool, from int64, lim loopLimit) loopResult {
	var (
		res   loopResult
		mu    sync.Mutex
		wg    sync.WaitGroup
		next  atomic.Int64
		done  atomic.Int64
		start = time.Now()
	)
	next.Store(from)
	more := func() bool {
		if lim.reqs > 0 {
			return done.Add(1) <= lim.reqs
		}
		return time.Since(start) < lim.dur
	}
	merge := func(own []sample, err error) {
		mu.Lock()
		res.samples = append(res.samples, own...)
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}

	reader := func() {
		defer wg.Done()
		cl := client.New(url)
		var (
			own      []sample
			firstErr error
			prevOv   int
		)
		for more() {
			spec := st.spec(int(next.Add(1) - 1))
			t := time.Now()
			r, err := cl.Query(ctx, spec)
			now := time.Now()
			own = append(own, sample{end: now.Sub(start), lat: now.Sub(t), fail: err != nil})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			// A fold empties the overlay, so the scanned count collapses.
			if ov := r.Stats.OverlayScanned; ov < prevOv/2 {
				mu.Lock()
				res.folds = append(res.folds, now.Sub(start))
				mu.Unlock()
				prevOv = ov
			} else if ov > prevOv {
				prevOv = ov
			}
		}
		merge(own, firstErr)
	}

	writer := func() {
		defer wg.Done()
		cl := client.New(url)
		var (
			own      []sample
			firstErr error
			live     liveRecord
		)
		note := func(t time.Time, epoch uint64, err error) {
			now := time.Now()
			own = append(own, sample{end: now.Sub(start), lat: now.Sub(t), write: true, fail: err != nil})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			live.mutated++
			live.lastEpch = epoch
		}
		for i := 0; more(); i++ {
			p := st.write(i)
			t := time.Now()
			ids, epoch, err := cl.InsertPoints(ctx, [][]float64{p})
			note(t, epoch, err)
			if err == nil {
				live.ids = append(live.ids, ids[0])
				live.points = append(live.points, p)
			}
			if len(live.ids) > lim.lag && more() {
				t = time.Now()
				_, epoch, err = cl.DeletePoint(ctx, live.ids[0])
				note(t, epoch, err)
				if err == nil {
					live.ids, live.points = live.ids[1:], live.points[1:]
				}
			}
		}
		mu.Lock()
		res.live = live
		mu.Unlock()
		merge(own, firstErr)
	}

	readers := clients
	if churn {
		readers--
		wg.Add(1)
		go writer()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go reader()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuAt samples process CPU at each boundary (offsets from now, ascending).
func cpuAt(boundaries []time.Duration) []time.Duration {
	start := time.Now()
	out := make([]time.Duration, len(boundaries))
	for i, b := range boundaries {
		time.Sleep(b - time.Since(start))
		out[i] = cpuTime()
	}
	return out
}

// windowValues are one measured window's end-to-end numbers.
type windowValues struct {
	reads, writes, failed int
	qP50, qP99, qps       float64
	wP50, wP99, wps       float64
	cpuPerOp              float64
}

func latenciesMS(samples []sample, write bool) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.write == write && !s.fail {
			ms = append(ms, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(ms)
	return ms
}

// summarize turns the samples completed inside [lo, hi) into window values.
func summarize(samples []sample, lo, hi, cpu time.Duration) windowValues {
	var in []sample
	var v windowValues
	for _, s := range samples {
		if s.end >= lo && s.end < hi {
			in = append(in, s)
			if s.fail {
				v.failed++
			}
		}
	}
	secs := (hi - lo).Seconds()
	q, w := latenciesMS(in, false), latenciesMS(in, true)
	v.reads, v.writes = len(q), len(w)
	v.qP50, v.qP99, v.qps = percentile(q, 0.50), percentile(q, 0.99), float64(len(q))/secs
	v.wP50, v.wP99, v.wps = percentile(w, 0.50), percentile(w, 0.99), float64(len(w))/secs
	v.cpuPerOp = ratio(float64(cpu)/float64(time.Millisecond), float64(len(q)+len(w)))
	return v
}

// e2eResult is one workload's untraced run.
type e2eResult struct {
	Workload  string        `json:"workload"`
	Metrics   []measurement `json:"metrics"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Folds     int           `json:"folds,omitempty"`
}

func (r *e2eResult) metric(name string) (measurement, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return measurement{}, false
}

func (r *e2eResult) add(name string, n int, perWindow []float64) {
	m := measurement{Name: name, Unit: metricNamed(name).unit, N: n, Value: median(perWindow)}
	if len(perWindow) > 1 {
		m.Spread, m.Windows = spread(perWindow), perWindow
	}
	r.Metrics = append(r.Metrics, m)
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// runE2E measures one workload untraced: timed set-up, answer check on the
// first requests, warm-up, the measured windows, and on churn the quiesced
// rebuild and follower checks.
func runE2E(ctx context.Context, cfg config, w workload, points [][]float64) (*e2eResult, error) {
	res := &e2eResult{Workload: w.name}

	st := newStream(w, cfg.seed, points)
	var prefill *stream
	if w.churn {
		prefill = st
	}

	// Set-up, repeated so that setup_s is a median; the last build is kept.
	var (
		s       *sut
		walDir  string
		setupsS []float64
	)
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		if w.churn {
			var err error
			if walDir, err = os.MkdirTemp(cfg.out, "wal-*"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(walDir)
		}
		runtime.GC()
		var (
			took time.Duration
			err  error
		)
		if s, took, err = startSUT(ctx, points, walDir, prefill); err != nil {
			return nil, err
		}
		setupsS = append(setupsS, took.Seconds())
	}
	defer func() { s.stop() }()
	res.add("setup_s", reps, setupsS)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	if err := checkAgainstOracle(ctx, s.url, st, cfg.checks(), points, liveRecord{}); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	// Closed loop: warm-up (discarded) then the measured windows.
	var (
		loop   loopResult
		bounds []time.Duration
		cpu    []time.Duration
	)
	if cfg.smoke {
		c0 := cpuTime()
		loop = closedLoop(ctx, s.url, st, w.churn, int64(cfg.checks()), loopLimit{reqs: smokeRequests, lag: smokeLag})
		bounds, cpu = []time.Duration{0, loop.elapsed + 1}, []time.Duration{c0, cpuTime()}
	} else {
		warm, win := cfg.warmup(), cfg.seconds/windows
		for i := 0; i <= windows; i++ {
			bounds = append(bounds, warm+time.Duration(i)*win)
		}
		sampled := make(chan []time.Duration, 1)
		go func() { sampled <- cpuAt(bounds) }()
		loop = closedLoop(ctx, s.url, st, w.churn, int64(cfg.checks()), loopLimit{dur: bounds[windows], lag: churnLag})
		cpu = <-sampled
	}
	if loop.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failed request: %v\n", w.name, loop.firstErr)
	}

	vals := make([]windowValues, len(bounds)-1)
	for i := range vals {
		vals[i] = summarize(loop.samples, bounds[i], bounds[i+1], cpu[i+1]-cpu[i])
		res.Attempted += vals[i].reads + vals[i].writes + vals[i].failed
		res.Failed += vals[i].failed
		if !cfg.smoke && vals[i].reads < minReadsPerWindow {
			fmt.Fprintf(os.Stderr, "bench: %s: window %d completed %d reads, under the %d that leave ten samples beyond its p99\n",
				w.name, i, vals[i].reads, minReadsPerWindow)
		}
	}
	col := func(f func(windowValues) float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = f(v)
		}
		return out
	}
	var reads, writes int
	for _, v := range vals {
		reads, writes = reads+v.reads, writes+v.writes
	}
	res.add("query_p50_ms", reads, col(func(v windowValues) float64 { return v.qP50 }))
	res.add("query_p99_ms", reads, col(func(v windowValues) float64 { return v.qP99 }))
	res.add("query_qps", reads, col(func(v windowValues) float64 { return v.qps }))
	res.add("cpu_ms_per_op", reads+writes, col(func(v windowValues) float64 { return v.cpuPerOp }))
	if w.churn {
		res.add("write_p50_ms", writes, col(func(v windowValues) float64 { return v.wP50 }))
		res.add("write_p99_ms", writes, col(func(v windowValues) float64 { return v.wP99 }))
		res.add("write_ops_s", writes, col(func(v windowValues) float64 { return v.wps }))

		for _, at := range loop.folds {
			if at >= bounds[0] && at < bounds[len(bounds)-1] {
				res.Folds++
			}
		}
		if !cfg.smoke && res.Folds < minFolds {
			return nil, fmt.Errorf("%s: %d overlay folds in the measured windows, need %d", w.name, res.Folds, minFolds)
		}
		// Quiesced: the loop has returned, so every write is acknowledged.
		bytes, err := dirBytes(walDir)
		if err != nil {
			return nil, err
		}
		res.add("wal_bytes_per_point", loop.live.mutated, []float64{ratio(float64(bytes), float64(loop.live.mutated))})
		if err := checkChurn(ctx, s, st, cfg.checks(), points, loop.live, walDir); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	res.add("heap_mb", 1, []float64{heapMB})
	res.add("failed_frac", res.Attempted, []float64{ratio(float64(res.Failed), float64(res.Attempted))})

	return res, s.stop()
}

// Command prqserved loads (or restores) a point dataset and serves
// probabilistic range queries over HTTP — one warm DB, plan cache and
// admission controller shared by every client. See gaussrange/server for
// the endpoint reference and gaussrange/client for the Go client.
//
// Usage:
//
//	prqserved -csv points.csv [flags]
//	prqserved -snapshot db.grdb [flags]
//	prqserved -router -shard-map map.json -shards http://h1:p,http://h2:p [flags]
//
// In -router mode the process serves the same /v1 protocol but owns no data:
// it routes each query to the shards whose regions overlap the query's
// Phase-1 rectangle, scatters via the Go client, and merges the answers into
// one deterministic sorted id list. Mutations are routed by point location
// (inserts) or id ownership (deletes).
//
// Flags:
//
//	-addr A             listen address (default 127.0.0.1:8080; use :0 with
//	                    -addr-file for an ephemeral port)
//	-addr-file PATH     write the bound address to PATH once listening
//	-csv PATH           load points from a CSV file
//	-snapshot PATH      restore a gaussrange snapshot (Save/SaveFile)
//	-log PATH           append-only mutation log: replayed past the snapshot's
//	                    epoch on startup (created if absent), then every
//	                    insert/delete appends to it, so a restart reproduces
//	                    the latest epoch
//	-wal DIR            group-commit write-ahead log (leader mode; excludes
//	                    -log): mutations ride a commit window, one fsync per
//	                    group, segments roll and chain lineage roots so a
//	                    follower can verify the shipped history
//	-commit-window D    longest a mutation waits for its group (default 2ms)
//	-commit-bytes N     flush a group early at this encoded size (default 4MiB)
//	-segment-bytes N    roll wal segments at this size (default 64MiB)
//	-wal-sync           synchronous wal: one fsync per mutation batch (the
//	                    baseline group commit is measured against)
//	-follow DIR         read-only follower: tail DIR (a leader's -wal
//	                    directory, shipped or shared), verify segment lineage,
//	                    replay committed groups, refuse mutations with 403 and
//	                    stamp replica_epoch on query responses. Start the
//	                    follower from the leader's base state (the same -csv
//	                    or an epoch-stamped -snapshot); without either the
//	                    database starts empty, sized from the wal itself,
//	                    which is correct only when the wal holds the full
//	                    history
//	-follow-interval D  follower tail poll interval (default 100ms)
//	-mc N               Monte Carlo evaluator with N samples (default: exact)
//	-adaptive N         adaptive Monte Carlo with budget N
//	-seed N             evaluator seed (default 1)
//	-plan-cache N       compiled-plan cache size (default 128)
//	-max-inflight N     admission limit on concurrent queries (default 2×CPU)
//	-default-timeout D  per-query deadline when the request has none (0 = none)
//	-max-batch N        largest accepted batch (default 1024)
//	-batch-workers N    worker-pool cap for batch requests (default CPU)
//	-drain-timeout D    graceful-drain budget on SIGINT/SIGTERM (default 30s)
//	-pprof ADDR         serve net/http/pprof on a separate loopback address
//	                    (e.g. 127.0.0.1:6060; empty = disabled)
//	-router             run as a scatter-gather query router (no local data)
//	-shard-map PATH     shard map JSON produced by prqshard (router mode)
//	-shards URLS        comma-separated shard base URLs, one per shard id, in
//	                    shard-id order (router mode)
//	-fanout N           bound on concurrent per-query shard requests
//	                    (default: all overlapping shards at once)
//	-allow-partial      serve partial answers when a shard fails instead of
//	                    failing closed (per-request allow_partial also works)
//	-answer-cache N     router-side LRU of fully-merged answers, invalidated
//	                    whenever a higher shard epoch is observed (router
//	                    mode; 0 = disabled)
//
// On SIGINT/SIGTERM the server stops accepting connections, drains every
// in-flight query, and exits 0; queries still running after -drain-timeout
// are aborted. With -wal the batcher is then drained (queued mutations reach
// their fsync durability point) and the segment store closed; with -log the
// mutation log is synced to stable storage before it closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"strings"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/replica"
	"gaussrange/server"
	"gaussrange/shard"
)

type config struct {
	addr           string
	addrFile       string
	csvPath        string
	snapshotPath   string
	logPath        string
	walDir         string
	commitWindow   time.Duration
	commitBytes    int64
	segmentBytes   int64
	walSync        bool
	followDir      string
	followInterval time.Duration
	mcSamples      int
	adaptive       int
	seed           uint64
	planCache      int
	maxInflight    int
	defaultTimeout time.Duration
	maxBatch       int
	batchWorkers   int
	drainTimeout   time.Duration
	pprofAddr      string
	router         bool
	shardMapPath   string
	shards         string
	fanout         int
	allowPartial   bool
	answerCache    int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.StringVar(&cfg.csvPath, "csv", "", "load points from this CSV file")
	flag.StringVar(&cfg.snapshotPath, "snapshot", "", "restore a gaussrange snapshot from this file")
	flag.StringVar(&cfg.logPath, "log", "", "replay and append to this mutation log (empty = mutations are not journaled)")
	flag.StringVar(&cfg.walDir, "wal", "", "group-commit write-ahead log: segment store directory (leader mode; excludes -log)")
	flag.DurationVar(&cfg.commitWindow, "commit-window", 0, "group-commit window: longest a mutation waits for its group's fsync (0 = default 2ms)")
	flag.Int64Var(&cfg.commitBytes, "commit-bytes", 0, "flush a commit group early at this encoded size (0 = default 4MiB)")
	flag.Int64Var(&cfg.segmentBytes, "segment-bytes", 0, "roll wal segments at this size (0 = default 64MiB)")
	flag.BoolVar(&cfg.walSync, "wal-sync", false, "synchronous wal: one fsync per mutation batch instead of per commit group")
	flag.StringVar(&cfg.followDir, "follow", "", "run as a read-only follower tailing this wal segment directory")
	flag.DurationVar(&cfg.followInterval, "follow-interval", 0, "follower tail poll interval (0 = default 100ms)")
	flag.IntVar(&cfg.mcSamples, "mc", 0, "Monte Carlo samples per object (0 = exact evaluator)")
	flag.IntVar(&cfg.adaptive, "adaptive", 0, "adaptive Monte Carlo budget (0 = off)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "evaluator seed")
	flag.IntVar(&cfg.planCache, "plan-cache", gaussrange.DefaultPlanCacheSize, "compiled-plan cache size")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 2*runtime.GOMAXPROCS(0), "admission limit on concurrently executing queries")
	flag.DurationVar(&cfg.defaultTimeout, "default-timeout", 0, "per-query deadline when the request carries none (0 = unbounded)")
	flag.IntVar(&cfg.maxBatch, "max-batch", 1024, "largest accepted batch request")
	flag.IntVar(&cfg.batchWorkers, "batch-workers", runtime.GOMAXPROCS(0), "worker-pool cap for batch requests")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this loopback address (empty = disabled)")
	flag.BoolVar(&cfg.router, "router", false, "run as a scatter-gather query router over existing shards")
	flag.StringVar(&cfg.shardMapPath, "shard-map", "", "shard map JSON produced by prqshard (router mode)")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated shard base URLs in shard-id order (router mode)")
	flag.IntVar(&cfg.fanout, "fanout", 0, "bound on concurrent per-query shard requests (0 = all overlapping shards)")
	flag.BoolVar(&cfg.allowPartial, "allow-partial", false, "serve partial answers when a shard fails instead of failing closed")
	flag.IntVar(&cfg.answerCache, "answer-cache", 0, "router-side merged-answer LRU size (router mode; 0 = disabled)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: prqserved -csv points.csv | -snapshot db.grdb | -router -shard-map map.json -shards URLS [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := serve(cfg, sig, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "prqserved: %v\n", err)
		os.Exit(1)
	}
}

// loadDB builds the DB from exactly one of -csv / -snapshot; in -follow mode
// both may be absent, and an empty database is sized from the wal's first
// segment header instead (the follower replays everything from the log).
func loadDB(cfg config) (*gaussrange.DB, error) {
	if cfg.followDir != "" && cfg.csvPath == "" && cfg.snapshotPath == "" {
		dim, err := replica.DirDim(cfg.followDir)
		if err != nil {
			return nil, fmt.Errorf("-follow without -snapshot needs a wal with at least one segment: %w", err)
		}
		return gaussrange.Open(dim, loadOpts(cfg)...)
	}
	if (cfg.csvPath == "") == (cfg.snapshotPath == "") {
		return nil, errors.New("exactly one of -csv and -snapshot is required")
	}
	opts := loadOpts(cfg)

	if cfg.snapshotPath != "" {
		return gaussrange.RestoreFile(cfg.snapshotPath, opts...)
	}
	pts, err := data.LoadCSV(cfg.csvPath)
	if err != nil {
		return nil, err
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	return gaussrange.Load(raw, opts...)
}

// loadOpts maps the evaluator/cache flags to DB options.
func loadOpts(cfg config) []gaussrange.Option {
	var opts []gaussrange.Option
	switch {
	case cfg.adaptive > 0:
		opts = append(opts, gaussrange.WithAdaptiveMonteCarlo(cfg.adaptive))
	case cfg.mcSamples > 0:
		opts = append(opts, gaussrange.WithMonteCarlo(cfg.mcSamples))
	}
	return append(opts, gaussrange.WithSeed(cfg.seed), gaussrange.WithPlanCacheSize(cfg.planCache))
}

// pprofHandler builds a mux with the net/http/pprof endpoints. The handlers
// are wired explicitly rather than through the package's DefaultServeMux
// side-effect registration, so the profiling surface exists only on the
// dedicated -pprof listener — never on the query-serving address.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildHandler assembles the HTTP handler for the configured mode: a
// single-node server over a local DB, or a scatter-gather router over
// remote shards. cleanup (possibly nil) runs when serving ends.
func buildHandler(cfg config, logw io.Writer) (h http.Handler, banner string, cleanup func(), err error) {
	if cfg.router {
		h, banner, err = buildRouter(cfg)
		return h, banner, nil, err
	}
	if moreThanOne(cfg.logPath != "", cfg.walDir != "", cfg.followDir != "") {
		return nil, "", nil, errors.New("-log, -wal and -follow are mutually exclusive")
	}
	db, err := loadDB(cfg)
	if err != nil {
		return nil, "", nil, err
	}
	srvCfg := server.Config{
		DB:             db,
		MaxInflight:    cfg.maxInflight,
		DefaultTimeout: cfg.defaultTimeout,
		MaxBatchSize:   cfg.maxBatch,
		BatchWorkers:   cfg.batchWorkers,
	}
	switch {
	case cfg.logPath != "":
		replayed, err := db.AttachMutationLog(cfg.logPath)
		if err != nil {
			return nil, "", nil, fmt.Errorf("attaching mutation log: %w", err)
		}
		// Shutdown ordering: the listener has already drained every in-flight
		// mutation, so Sync flushes the last appended records to stable
		// storage before the log closes — a clean SIGTERM loses nothing.
		cleanup = func() {
			db.SyncLog()
			db.DetachMutationLog()
		}
		fmt.Fprintf(logw, "prqserved: mutation log %s: replayed %d batches, now at epoch %d\n",
			cfg.logPath, replayed, db.Epoch())
	case cfg.walDir != "":
		replayed, err := db.AttachWAL(gaussrange.WALConfig{
			Dir:          cfg.walDir,
			CommitWindow: cfg.commitWindow,
			CommitBytes:  cfg.commitBytes,
			SegmentBytes: cfg.segmentBytes,
			Synchronous:  cfg.walSync,
		})
		if err != nil {
			return nil, "", nil, fmt.Errorf("attaching wal: %w", err)
		}
		// DetachWAL drains the batcher (queued mutations reach their fsync
		// durability point), then syncs and closes the segment store.
		cleanup = func() { db.DetachWAL() }
		mode := "grouped"
		if cfg.walSync {
			mode = "synchronous"
		}
		fmt.Fprintf(logw, "prqserved: wal %s (%s): replayed %d groups, now at epoch %d\n",
			cfg.walDir, mode, replayed, db.Epoch())
	case cfg.followDir != "":
		f, err := replica.New(db, replica.Config{Dir: cfg.followDir, Interval: cfg.followInterval})
		if err != nil {
			return nil, "", nil, err
		}
		applied, err := f.CatchUp()
		if err != nil {
			f.Stop()
			return nil, "", nil, fmt.Errorf("follower catch-up: %w", err)
		}
		f.Start()
		cleanup = f.Stop
		srvCfg.ReadOnly = true
		srvCfg.Follower = f
		fmt.Fprintf(logw, "prqserved: following %s: applied %d groups, now at epoch %d (read-only)\n",
			cfg.followDir, applied, db.Epoch())
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, "", nil, err
	}
	banner = fmt.Sprintf("serving %d points (%d-D)", db.Len(), db.Dim())
	if cfg.followDir != "" {
		banner += " as read-only follower"
	}
	return srv.Handler(), banner, cleanup, nil
}

// moreThanOne reports whether two or more of the given modes are set.
func moreThanOne(modes ...bool) bool {
	n := 0
	for _, m := range modes {
		if m {
			n++
		}
	}
	return n > 1
}

// buildRouter wires -shard-map and -shards into a shard.Router handler.
func buildRouter(cfg config) (http.Handler, string, error) {
	if cfg.csvPath != "" || cfg.snapshotPath != "" || cfg.logPath != "" || cfg.walDir != "" || cfg.followDir != "" {
		return nil, "", errors.New("-router cannot be combined with -csv, -snapshot, -log, -wal or -follow")
	}
	if cfg.shardMapPath == "" || cfg.shards == "" {
		return nil, "", errors.New("-router requires -shard-map and -shards")
	}
	data, err := os.ReadFile(cfg.shardMapPath)
	if err != nil {
		return nil, "", fmt.Errorf("reading -shard-map: %w", err)
	}
	m, err := shard.DecodeMap(data)
	if err != nil {
		return nil, "", fmt.Errorf("parsing -shard-map: %w", err)
	}
	endpoints := strings.Split(cfg.shards, ",")
	for i := range endpoints {
		endpoints[i] = strings.TrimSpace(endpoints[i])
	}
	router, err := shard.NewRouter(shard.Config{
		Map:             m,
		Endpoints:       endpoints,
		Fanout:          cfg.fanout,
		AllowPartial:    cfg.allowPartial,
		AnswerCacheSize: cfg.answerCache,
	})
	if err != nil {
		return nil, "", err
	}
	h, err := shard.NewHandler(shard.HandlerConfig{
		Router:         router,
		DefaultTimeout: cfg.defaultTimeout,
		MaxBatchSize:   cfg.maxBatch,
	})
	if err != nil {
		return nil, "", err
	}
	banner := fmt.Sprintf("routing over %d shards (routing epoch %d, fanout %s)",
		len(m.Shards), m.RoutingEpoch, fanoutLabel(cfg.fanout))
	return h.Mux(), banner, nil
}

func fanoutLabel(n int) string {
	if n <= 0 {
		return "unbounded"
	}
	return fmt.Sprint(n)
}

// serve runs the server until an error or a signal on sig; on a signal it
// drains in-flight queries (bounded by cfg.drainTimeout) before returning.
func serve(cfg config, sig <-chan os.Signal, logw io.Writer) error {
	handler, banner, cleanup, err := buildHandler(cfg, logw)
	if err != nil {
		return err
	}
	if cleanup != nil {
		defer cleanup()
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "prqserved: %s on %s\n", banner, ln.Addr())

	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("listening on -pprof address: %w", err)
		}
		ps := &http.Server{Handler: pprofHandler(), ReadHeaderTimeout: 10 * time.Second}
		defer ps.Close()
		go ps.Serve(pln)
		fmt.Fprintf(logw, "prqserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(logw, "prqserved: received %v, draining in-flight queries (budget %v)\n", s, cfg.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
			return fmt.Errorf("drain exceeded %v: %w", cfg.drainTimeout, err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		fmt.Fprintf(logw, "prqserved: drained, exiting\n")
		return nil
	}
}

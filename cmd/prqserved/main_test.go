package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
	"gaussrange/shard"
)

// writeTestCSV writes a 400-point grid around (500, 500) so the standard
// paper query (δ=25, θ=0.01) has a rich candidate set.
func writeTestCSV(t *testing.T, dir string) string {
	t.Helper()
	return writeGridCSV(t, dir, 20, 6, 440)
}

// writeGridCSV writes a side×side grid of the given step from (origin,
// origin).
func writeGridCSV(t *testing.T, dir string, side, step, origin int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < side*side; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", origin+(i%side)*step, origin+(i/side)*step)
	}
	path := filepath.Join(dir, "points.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testConfig(dir, csvPath string) config {
	return config{
		addr:         "127.0.0.1:0",
		addrFile:     filepath.Join(dir, "addr"),
		csvPath:      csvPath,
		planCache:    gaussrange.DefaultPlanCacheSize,
		maxInflight:  8,
		maxBatch:     64,
		drainTimeout: 30 * time.Second,
	}
}

// startServe runs serve in a goroutine and returns the bound address, the
// injected signal channel, and the exit channel.
func startServe(t *testing.T, cfg config) (string, chan os.Signal, chan error) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(cfg, sig, io.Discard) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := os.ReadFile(cfg.addrFile); err == nil && len(data) > 0 {
			return string(data), sig, done
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func paperSpec() gaussrange.QuerySpec {
	return gaussrange.QuerySpec{
		Center: []float64{500, 500},
		Cov:    [][]float64{{70, 34.6}, {34.6, 30}},
		Delta:  25,
		Theta:  0.01,
	}
}

// TestServeQueryAndDrainOnSIGTERM boots prqserved's serve loop, answers
// queries through the client, then delivers SIGTERM while queries are in
// flight and asserts that at least one was still running when the signal
// was sent and that every one completes, with answers, before serve returns.
func TestServeQueryAndDrainOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	// A dense 100×100 grid and γ = 0.01: each query's shell holds ~75
	// candidates whose series run to δ²/λmin ≈ 6·10⁴, so one cold query takes
	// ~0.2 s (~0.8 s under -race) on the exact path — long enough to be
	// caught in flight, short enough to drain three within the budget.
	cfg := testConfig(dir, writeGridCSV(t, dir, 100, 1, 450))
	addr, sig, done := startServe(t, cfg)

	cl := client.New("http://" + addr)
	ctx := context.Background()
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Points != 10000 || h.Dim != 2 {
		t.Fatalf("Health = %+v", h)
	}

	res, err := cl.Query(ctx, paperSpec())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.IDs) == 0 {
		t.Fatal("query over the grid dataset returned no answers")
	}

	// Fire slow queries — distinct shapes, so each compiles cold and none
	// decides from a reused plan's hull — wait until one is admitted, then
	// SIGTERM.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	results := make([]*gaussrange.Result, 3)
	finished := make([]time.Time, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := paperSpec()
			spec.Cov = [][]float64{{0.07, 0.0346}, {0.0346, 0.03}}
			spec.Theta = 0.01 + 0.001*float64(i)
			results[i], errs[i] = cl.Query(ctx, spec)
			finished[i] = time.Now()
		}(i)
	}
	admitted := false
	for deadline := time.Now().Add(10 * time.Second); !admitted && time.Now().Before(deadline); {
		snap, err := cl.Stats(ctx)
		admitted = err == nil && snap.Admission.Inflight > 0
	}
	if !admitted {
		t.Error("no query was admitted within 10 s")
	}
	signalled := time.Now()
	sig <- syscall.SIGTERM

	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after SIGTERM, want clean drain", err)
	}
	wg.Wait()
	drained := 0
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight query %d failed during drain: %v", i, err)
		} else if len(results[i].IDs) == 0 {
			t.Errorf("in-flight query %d drained with no answers", i)
		}
		if finished[i].After(signalled) {
			drained++
		}
	}
	if drained == 0 {
		t.Error("every query finished before SIGTERM was sent; the drain was not exercised")
	}
}

// TestServeDrainsIdleStream: SIGTERM with a query stream open and idle —
// one whose client answers a query on it and then neither sends nor ends
// anything — still drains well inside -drain-timeout, because the server's
// shutdown hook ends the stream; and a typed client's pooled stream goes
// with it.
func TestServeDrainsIdleStream(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir, writeTestCSV(t, dir))
	cfg.drainTimeout = 10 * time.Second
	addr, sig, done := startServe(t, cfg)
	if _, err := client.New("http://"+addr).Query(context.Background(), paperSpec()); err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "POST /v1/query/stream HTTP/1.1\r\nHost: prqserved\r\nTransfer-Encoding: chunked\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("opening a stream: %v, %v", resp, err)
	}
	body, _ := json.Marshal(server.RequestFromSpec(paperSpec()))
	frame := fmt.Sprintf("%d\n%s", len(body), body)
	fmt.Fprintf(c, "%x\r\n%s\r\n", len(frame), frame)
	reply := bufio.NewReader(resp.Body)
	var status, n int
	if _, err := fmt.Fscanf(reply, "%d %d\n", &status, &n); err != nil || status != http.StatusOK {
		t.Fatalf("reply frame head: %d, %v", status, err)
	}
	if _, err := io.ReadFull(reply, make([]byte, n)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM, want a clean drain", err)
		}
	case <-time.After(cfg.drainTimeout + 5*time.Second):
		t.Fatal("serve did not return after SIGTERM")
	}
	if d := time.Since(start); d > cfg.drainTimeout/2 {
		t.Errorf("drain took %v with an idle stream open", d)
	}
	if rest, err := io.ReadAll(reply); err != nil || len(rest) > 0 {
		t.Errorf("the idle stream did not end cleanly: %q, %v", rest, err)
	}
}

// TestServeFromSnapshot restores the dataset from a Save snapshot instead of
// CSV and asserts the served answers match a direct query on the source DB.
func TestServeFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeTestCSV(t, dir)

	cfg := testConfig(dir, "")
	cfg.snapshotPath = filepath.Join(dir, "db.grdb")

	// Build the snapshot from the same grid.
	src, err := loadDB(testConfig(dir, csvPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveFile(cfg.snapshotPath); err != nil {
		t.Fatal(err)
	}
	direct, err := src.Query(paperSpec())
	if err != nil {
		t.Fatal(err)
	}

	addr, sig, done := startServe(t, cfg)
	served, err := client.New("http://"+addr).Query(context.Background(), paperSpec())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(served.IDs) != len(direct.IDs) {
		t.Errorf("served %d answers, direct %d", len(served.IDs), len(direct.IDs))
	}
	for i := range served.IDs {
		if served.IDs[i] != direct.IDs[i] {
			t.Errorf("answer %d: served id %d, direct id %d", i, served.IDs[i], direct.IDs[i])
			break
		}
	}
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestLoadDBValidation(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeTestCSV(t, dir)

	both := testConfig(dir, csvPath)
	both.snapshotPath = filepath.Join(dir, "db.grdb")
	if _, err := loadDB(both); err == nil {
		t.Error("both -csv and -snapshot accepted")
	}
	neither := testConfig(dir, "")
	if _, err := loadDB(neither); err == nil {
		t.Error("neither -csv nor -snapshot accepted")
	}
	missing := testConfig(dir, filepath.Join(dir, "missing.csv"))
	if _, err := loadDB(missing); err == nil {
		t.Error("missing CSV accepted")
	}
}

// TestServeLeaderFollower runs the full replication loop through the daemon:
// a leader serving -csv with -wal takes inserts, a follower on -follow (no
// snapshot — sized from the wal itself) serves them read-only at ≥ the
// published epoch, and a SIGTERM'd leader loses nothing: a restarted leader
// resumes at the exact pre-shutdown epoch.
func TestServeLeaderFollower(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	lcfg := testConfig(dir, writeTestCSV(t, dir))
	lcfg.walDir = walDir
	laddr, lsig, ldone := startServe(t, lcfg)

	ctx := context.Background()
	lcl := client.New("http://" + laddr)
	ids, epoch, err := lcl.InsertPoints(ctx, [][]float64{{500, 500}, {501, 501}})
	if err != nil {
		t.Fatalf("leader insert: %v", err)
	}
	if _, epoch2, err := lcl.DeletePoint(ctx, ids[0]); err != nil || epoch2 <= epoch {
		t.Fatalf("leader delete: epoch %d after %d, err %v", epoch2, epoch, err)
	}
	lh, err := lcl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Follower over the same directory (shared ship path), bootstrapped from
	// the same base state the leader started from — the wal only carries
	// history after that base.
	fcfg := testConfig(dir, lcfg.csvPath)
	fcfg.addrFile = filepath.Join(dir, "faddr")
	fcfg.followDir = walDir
	fcfg.followInterval = 2 * time.Millisecond
	faddr, fsig, fdone := startServe(t, fcfg)
	fcl := client.New("http://" + faddr)

	deadline := time.Now().Add(5 * time.Second)
	for {
		fh, err := fcl.Health(ctx)
		if err != nil {
			t.Fatalf("follower health: %v", err)
		}
		if fh.ReplicaError != "" {
			t.Fatalf("follower replication error: %s", fh.ReplicaError)
		}
		if fh.ReadOnly && fh.Epoch >= lh.Epoch {
			if fh.Points != lh.Points || fh.MaxID != lh.MaxID {
				t.Fatalf("follower %+v diverged from leader %+v", fh, lh)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d, leader at %d", fh.Epoch, lh.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p, err := fcl.Point(ctx, ids[1]); err != nil || p[0] != 501 {
		t.Fatalf("follower Point(%d) = %v, %v", ids[1], p, err)
	}
	if _, _, err := fcl.InsertPoints(ctx, [][]float64{{1, 1}}); err == nil {
		t.Fatal("follower accepted an insert")
	}

	// SIGTERM the leader: the drain must leave a wal a restart resumes from.
	lsig <- syscall.SIGTERM
	if err := <-ldone; err != nil {
		t.Fatalf("leader drain: %v", err)
	}
	lcfg2 := lcfg
	lcfg2.addrFile = filepath.Join(dir, "addr2")
	laddr2, lsig2, ldone2 := startServe(t, lcfg2)
	lh2, err := client.New("http://" + laddr2).Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lh2.Epoch != lh.Epoch || lh2.Points != lh.Points || lh2.MaxID != lh.MaxID {
		t.Fatalf("restarted leader %+v, want %+v", lh2, lh)
	}

	fsig <- syscall.SIGTERM
	lsig2 <- syscall.SIGTERM
	if err := <-fdone; err != nil {
		t.Fatalf("follower drain: %v", err)
	}
	if err := <-ldone2; err != nil {
		t.Fatalf("restarted leader drain: %v", err)
	}
}

// TestRouterModeServesThroughServer builds router mode's handler over two
// in-process shards and checks what it shares with a shard's server — the
// -max-inflight admission limit, endpoint histograms and the /statsz schema,
// with the router section — and its two router-only answers: /v1/shardmap
// and a JSON 404 for /v1/prob.
func TestRouterModeServesThroughServer(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 400; i++ {
		pts = append(pts, []float64{float64(440 + (i%20)*6), float64(440 + (i/20)*6)})
	}
	m, parts, err := shard.Split(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(parts))
	for i, part := range parts {
		db, err := gaussrange.LoadWithIDs(part.Points, part.IDs)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	dir := t.TempDir()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(dir, "")
	cfg.router = true
	cfg.maxInflight = 3
	cfg.shardMapPath = filepath.Join(dir, "shardmap.json")
	cfg.shards = strings.Join(urls, ",")
	if err := os.WriteFile(cfg.shardMapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h, _, cleanup, err := buildHandler(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cleanup != nil {
		t.Fatal("router mode returned a cleanup")
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var got shard.Map
	get("/v1/shardmap", &got)
	if !reflect.DeepEqual(&got, m) {
		t.Fatalf("/v1/shardmap = %+v, want %+v", got, *m)
	}

	res, err := client.New(ts.URL).Query(context.Background(), paperSpec())
	if err != nil || len(res.IDs) == 0 {
		t.Fatalf("routed query: %d ids, %v", len(res.IDs), err)
	}
	var st server.StatsSnapshot
	get("/statsz", &st)
	if st.Admission.MaxInflight != cfg.maxInflight {
		t.Errorf("admission.max_inflight = %d, want -max-inflight %d", st.Admission.MaxInflight, cfg.maxInflight)
	}
	if ep := st.Endpoints["/v1/query"]; ep.Requests != 1 || ep.Latency.Count != 1 {
		t.Errorf("endpoints[/v1/query] = %+v, want one request in its histogram", ep)
	}
	if st.Router == nil || len(st.Router.PerShard) != len(parts) || st.Router.Queries != 1 {
		t.Fatalf("router section %+v, want %d shards and one query", st.Router, len(parts))
	}
	if st.Points != len(pts) || st.Dim != 2 || st.Queries.Queries != 1 || st.Queries.Answers != uint64(len(res.IDs)) {
		t.Errorf("statsz points %d dim %d queries %+v", st.Points, st.Dim, st.Queries)
	}

	body, _ := json.Marshal(server.ProbRequest{QueryRequest: server.RequestFromSpec(paperSpec()), ID: 1})
	resp, err := http.Post(ts.URL+"/v1/prob", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); resp.StatusCode != http.StatusNotFound || err != nil || e.Error == "" {
		t.Fatalf("/v1/prob: status %d, body %+v, %v; want a JSON 404", resp.StatusCode, e, err)
	}
}

package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/internal/data"
	"gaussrange/server"
)

// paperStrategies are the six filter combinations evaluated in the paper.
var paperStrategies = []string{"RR", "BF", "RR+BF", "RR+OR", "BF+OR", "ALL"}

func testDB(t *testing.T, opts ...gaussrange.Option) *gaussrange.DB {
	t.Helper()
	pts, err := data.Clustered(1, 2000, 2, 20, 1000, 10)
	if err != nil {
		t.Fatalf("generating points: %v", err)
	}
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	db, err := gaussrange.Load(raw, opts...)
	if err != nil {
		t.Fatalf("loading db: %v", err)
	}
	return db
}

func testSpec(db *gaussrange.DB, strategy string) gaussrange.QuerySpec {
	center, _ := db.Point(0)
	return gaussrange.QuerySpec{
		Center:   center,
		Cov:      [][]float64{{70, 34.6}, {34.6, 30}},
		Delta:    25,
		Theta:    0.01,
		Strategy: strategy,
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, client.New(ts.URL)
}

// TestServerMatchesDirectQuery proves the network layer is transparent: for
// all six paper strategies the served answer IDs are identical to a direct
// DB.Query on the same dataset.
func TestServerMatchesDirectQuery(t *testing.T) {
	db := testDB(t)
	_, _, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()

	for _, strat := range paperStrategies {
		spec := testSpec(db, strat)
		// Compare two executions of a reused plan: the shape's first query
		// runs the paper's filter chain, later ones may decide from the
		// answer-region hull, and their counters differ (their ids do not).
		if _, err := db.Query(spec); err != nil {
			t.Fatalf("%s: priming query: %v", strat, err)
		}
		direct, err := db.Query(spec)
		if err != nil {
			t.Fatalf("%s: direct query: %v", strat, err)
		}
		served, err := cl.Query(ctx, spec)
		if err != nil {
			t.Fatalf("%s: served query: %v", strat, err)
		}
		if !reflect.DeepEqual(direct.IDs, served.IDs) {
			t.Errorf("%s: served IDs differ from direct query:\n direct: %v\n served: %v",
				strat, direct.IDs, served.IDs)
		}
		if strat == "ALL" && len(served.IDs) == 0 {
			t.Errorf("ALL: expected a non-empty answer set for a query centered on a stored point")
		}
		if served.Stats.Retrieved != direct.Stats.Retrieved ||
			served.Stats.Integrations != direct.Stats.Integrations {
			t.Errorf("%s: served stats differ: direct %+v served %+v", strat, direct.Stats, served.Stats)
		}
	}
}

// TestServerMatchesDirectQueryMonteCarlo repeats the identity check with the
// paper's Monte Carlo evaluator: the per-candidate streams are deterministic
// for a fixed seed, so served and direct answers must still agree exactly.
func TestServerMatchesDirectQueryMonteCarlo(t *testing.T) {
	db := testDB(t, gaussrange.WithMonteCarlo(2000), gaussrange.WithSeed(7))
	_, _, cl := newTestServer(t, server.Config{DB: db})
	spec := testSpec(db, "ALL")

	direct, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cl.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.IDs, served.IDs) {
		t.Errorf("MC answers differ:\n direct: %v\n served: %v", direct.IDs, served.IDs)
	}
}

func TestBatchMatchesDirectQueries(t *testing.T) {
	db := testDB(t)
	_, _, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()

	var specs []gaussrange.QuerySpec
	for i := 0; i < 8; i++ {
		center, err := db.Point(int64(i * 17))
		if err != nil {
			t.Fatal(err)
		}
		spec := testSpec(db, "ALL")
		spec.Center = center
		specs = append(specs, spec)
	}
	served, err := cl.QueryBatch(ctx, specs, 4)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(served) != len(specs) {
		t.Fatalf("got %d results, want %d", len(served), len(specs))
	}
	for i, spec := range specs {
		direct, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct.IDs, served[i].IDs) {
			t.Errorf("batch query %d: served %v, direct %v", i, served[i].IDs, direct.IDs)
		}
	}
}

func TestProbAndPoints(t *testing.T) {
	db := testDB(t)
	_, ts, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()
	spec := testSpec(db, "ALL")

	direct, err := db.QueryProb(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cl.QueryProb(ctx, spec, 0)
	if err != nil {
		t.Fatalf("QueryProb: %v", err)
	}
	if served != direct {
		t.Errorf("served probability %v, direct %v", served, direct)
	}

	coords, err := cl.Point(ctx, 3)
	if err != nil {
		t.Fatalf("Point: %v", err)
	}
	want, _ := db.Point(3)
	if !reflect.DeepEqual(coords, want) {
		t.Errorf("Point(3) = %v, want %v", coords, want)
	}

	if _, err := cl.Point(ctx, int64(db.Len())); err == nil {
		t.Error("expected 404 for out-of-range point id")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusNotFound {
		t.Errorf("expected APIError 404, got %v", err)
	}

	// /v1/prob with an unknown id is 404 too.
	body, _ := json.Marshal(server.ProbRequest{QueryRequest: server.RequestFromSpec(spec), ID: -1})
	resp, err := http.Post(ts.URL+"/v1/prob", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("prob(-1) status = %d, want 404", resp.StatusCode)
	}
}

// TestAdmissionSaturation429 fills every admission slot with held requests
// and asserts the next request is rejected with 429 — and that slots are
// reusable after the held requests complete.
func TestAdmissionSaturation429(t *testing.T) {
	db := testDB(t)
	s, _, cl := newTestServer(t, server.Config{DB: db, MaxInflight: 2})

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.SetPreQuery(func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	})
	ctx := context.Background()
	spec := testSpec(db, "ALL")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Query(ctx, spec)
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("held queries never reached execution")
		}
	}

	// Both slots are held: the third query must be shed with 429.
	_, err := cl.Query(ctx, spec)
	if !client.IsOverloaded(err) {
		t.Fatalf("expected 429 overload rejection, got %v", err)
	}

	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("held query %d failed: %v", i, err)
		}
	}

	// Slots drained: the same query is admitted now.
	s.SetPreQuery(nil)
	if _, err := cl.Query(ctx, spec); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if snap := s.Stats().Admission; snap.Rejected != 1 || snap.Inflight != 0 {
		t.Errorf("admission stats = %+v, want 1 rejection and 0 inflight", snap)
	}
}

// TestDeadlineExpiry holds a query past its requested timeout_ms and asserts
// the server maps the expired query context to 504.
func TestDeadlineExpiry(t *testing.T) {
	db := testDB(t)
	s, ts, _ := newTestServer(t, server.Config{DB: db})
	s.SetPreQuery(func(ctx context.Context) { <-ctx.Done() })

	req := server.RequestFromSpec(testSpec(db, "ALL"))
	req.TimeoutMS = 30
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var er server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", er.Error)
	}
}

// TestServerDefaultTimeout proves the configured default applies when the
// request carries no deadline of its own.
func TestServerDefaultTimeout(t *testing.T) {
	db := testDB(t)
	s, ts, _ := newTestServer(t, server.Config{DB: db, DefaultTimeout: 30 * time.Millisecond})
	s.SetPreQuery(func(ctx context.Context) { <-ctx.Done() })

	body, _ := json.Marshal(server.RequestFromSpec(testSpec(db, "ALL")))
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 from the default timeout", resp.StatusCode)
	}
}

// TestClientCancelMidQuery: cancelling a query the server is executing
// returns the client's call at once with context.Canceled — the client hangs
// up, which also ends the server's query — and the client's next query works.
func TestClientCancelMidQuery(t *testing.T) {
	db := testDB(t)
	s, _, cl := newTestServer(t, server.Config{DB: db})
	spec := testSpec(db, "ALL")
	if _, err := cl.Query(context.Background(), spec); err != nil {
		t.Fatal(err) // leaves a pooled connection for the held query
	}
	entered, ended := make(chan struct{}, 1), make(chan struct{}, 1)
	s.SetPreQuery(func(ctx context.Context) {
		entered <- struct{}{}
		<-ctx.Done()
		ended <- struct{}{}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Query(ctx, spec)
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached execution")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept executing the abandoned query")
	}
	s.SetPreQuery(nil)
	if res, err := cl.Query(context.Background(), spec); err != nil || len(res.IDs) == 0 {
		t.Fatalf("query after a cancel: %v", err)
	}
}

// TestGracefulDrain starts a real http.Server, holds a query in flight, and
// asserts Shutdown waits for it: the held query completes successfully and
// only then does Shutdown return.
func TestGracefulDrain(t *testing.T) {
	db := testDB(t)
	s, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.SetPreQuery(func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	cl := client.New("http://"+ln.Addr().String(), client.WithRetries(0))
	queryDone := make(chan error, 1)
	var res *gaussrange.Result
	go func() {
		var err error
		res, err = cl.Query(context.Background(), testSpec(db, "ALL"))
		queryDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached execution")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()

	// The query is still held, so Shutdown must still be draining.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a query was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-queryDone; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if res == nil || len(res.IDs) == 0 {
		t.Error("drained query returned no answers")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestStatszAndHealthz(t *testing.T) {
	db := testDB(t)
	_, _, cl := newTestServer(t, server.Config{DB: db, MaxInflight: 4})
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Points != db.Len() || h.Dim != 2 {
		t.Errorf("Health = %+v", h)
	}

	spec := testSpec(db, "ALL")
	for i := 0; i < 5; i++ {
		if _, err := cl.Query(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if snap.Points != db.Len() || snap.Dim != 2 {
		t.Errorf("snapshot dataset = %d points %d-D", snap.Points, snap.Dim)
	}
	if snap.Queries.Queries != 5 {
		t.Errorf("query total = %d, want 5", snap.Queries.Queries)
	}
	if snap.Queries.Retrieved == 0 || snap.Queries.Answers == 0 {
		t.Errorf("per-phase totals not accumulated: %+v", snap.Queries)
	}
	// Five same-shape queries: one compile, four plan-cache hits.
	if snap.PlanCache.Hits < 4 {
		t.Errorf("plan cache hits = %d, want >= 4", snap.PlanCache.Hits)
	}
	ep, ok := snap.Endpoints["/v1/query"]
	if !ok {
		t.Fatalf("no /v1/query endpoint stats in %v", snap.EndpointNames())
	}
	if ep.Requests != 5 || ep.Latency.Count != 5 {
		t.Errorf("endpoint stats = %+v, want 5 requests observed", ep)
	}
	if ep.Latency.MeanMS() <= 0 {
		t.Errorf("mean latency = %v, want > 0", ep.Latency.MeanMS())
	}
}

func TestRejectsMalformedRequests(t *testing.T) {
	db := testDB(t)
	_, ts, _ := newTestServer(t, server.Config{DB: db, MaxBatchSize: 2})

	for _, tc := range []struct {
		name, path, body string
		method           string
		want             int
	}{
		{"bad json", "/v1/query", "{", http.MethodPost, http.StatusBadRequest},
		{"bad spec", "/v1/query", `{"center":[1],"cov":[[1]],"delta":1,"theta":0.5}`, http.MethodPost, http.StatusBadRequest},
		{"get query", "/v1/query", "", http.MethodGet, http.StatusMethodNotAllowed},
		{"oversized batch", "/v1/query/batch", `{"queries":[{},{},{}]}`, http.MethodPost, http.StatusBadRequest},
		{"points without ids", "/v1/points", "", http.MethodGet, http.StatusBadRequest},
		{"points bad id", "/v1/points?id=abc", "", http.MethodGet, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func ExampleServer() {
	db, _ := gaussrange.Load([][]float64{{0, 0}, {3, 4}, {100, 100}})
	s, _ := server.New(server.Config{DB: db, MaxInflight: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	res, _ := cl.Query(context.Background(), gaussrange.QuerySpec{
		Center: []float64{0, 0},
		Cov:    [][]float64{{4, 0}, {0, 4}},
		Delta:  6,
		Theta:  0.05,
	})
	fmt.Println(res.IDs)
	// Output: [0 1]
}

// TestCoalescedQueriesMatchSerial holds six same-shape queries with
// different centers in execution at once — one plan fingerprint, so they
// share one cached plan, each rebound to its own center — then releases
// them together: every answer must equal a direct query's, and each request
// must have taken its own admission slot. The name is kept from the
// request-coalescing path this test first covered; same-shape requests now
// share only the plan cache.
func TestCoalescedQueriesMatchSerial(t *testing.T) {
	db := testDB(t)
	const n = 6
	s, _, cl := newTestServer(t, server.Config{DB: db, MaxInflight: n})

	gate := make(chan struct{})
	entered := make(chan struct{}, n)
	s.SetPreQuery(func(ctx context.Context) { entered <- struct{}{}; <-gate })

	specs := make([]gaussrange.QuerySpec, n)
	for i := range specs {
		center, err := db.Point(int64(i * 50))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = testSpec(db, "ALL")
		specs[i].Center = center
	}

	ctx := context.Background()
	results := make([]*gaussrange.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cl.Query(ctx, specs[i])
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d queries reached execution", i, n)
		}
	}
	close(gate)
	wg.Wait()

	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := db.Query(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].IDs, want.IDs) {
			t.Errorf("query %d: served %d ids differ from the direct query's %d", i, len(results[i].IDs), len(want.IDs))
		}
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Admission.Admitted != n {
		t.Errorf("admitted = %d, want %d (one slot per request)", snap.Admission.Admitted, n)
	}
}

// TestCoalesceErrorIsolation: a malformed spec fails with 400 and leaves the
// server answering — a healthy query returns the direct query's ids before
// and after it. The name is kept from the request-coalescing path this test
// first covered.
func TestCoalesceErrorIsolation(t *testing.T) {
	db := testDB(t)
	_, _, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()

	good := testSpec(db, "ALL")
	want, err := db.Query(good)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		res, err := cl.Query(ctx, good)
		if err != nil {
			t.Fatalf("healthy query %s: %v", when, err)
		}
		if !reflect.DeepEqual(res.IDs, want.IDs) {
			t.Errorf("healthy query %s: %d ids, direct query %d", when, len(res.IDs), len(want.IDs))
		}
	}
	check("before the failed one")
	bad := good
	bad.Cov = [][]float64{{1, 0}, {0, -1}}
	_, err = cl.Query(ctx, bad)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("indefinite covariance: error %v, want a 400", err)
	}
	check("after the failed one")
}

// TestCoalesceOverload: a batch request and a single query draw on the same
// admission slots — while a batch holds the only slot, a query is rejected
// with 429. The name is kept from the request-coalescing path this test
// first covered.
func TestCoalesceOverload(t *testing.T) {
	db := testDB(t)
	s, ts, cl := newTestServer(t, server.Config{DB: db, MaxInflight: 1})

	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s.SetPreQuery(func(ctx context.Context) { entered <- struct{}{}; <-gate })

	// Occupy the only slot with a batch request parked in preQuery.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := cl.QueryBatch(context.Background(), []gaussrange.QuerySpec{testSpec(db, "ALL")}, 1); err != nil {
			t.Errorf("batch holding the slot: %v", err)
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("batch never reached execution")
	}

	body, err := json.Marshal(server.RequestFromSpec(testSpec(db, "ALL")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("query while a batch holds the slot: status %d, want 429", resp.StatusCode)
	}
	close(gate)
	wg.Wait()
}

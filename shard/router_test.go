package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

// cluster is an in-process sharded deployment: K prqserved shards over
// loopback plus a router, and the equivalent unsharded reference DB.
type cluster struct {
	router *Router
	ref    *gaussrange.DB
	shards []*httptest.Server
	dbs    []*gaussrange.DB
}

func (c *cluster) close() {
	for _, ts := range c.shards {
		ts.Close()
	}
}

// newCluster splits pts into k in-process shards and builds the router and
// the unsharded reference.
func newCluster(t *testing.T, pts [][]float64, k int) *cluster {
	t.Helper()
	m, parts, err := Split(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{}
	endpoints := make([]string, k)
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
		c.shards = append(c.shards, ts)
		c.dbs = append(c.dbs, db)
		endpoints[i] = ts.URL
	}
	t.Cleanup(c.close)
	c.router, err = NewRouter(Config{Map: m, Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	c.ref, err = gaussrange.Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func clusterPoints(r *rand.Rand, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{r.Float64() * 400, r.Float64() * 400}
	}
	return pts
}

func testSpec(center []float64) gaussrange.QuerySpec {
	return gaussrange.QuerySpec{
		Center: center,
		Cov:    [][]float64{{30, 5}, {5, 20}},
		Delta:  15,
		Theta:  0.05,
	}
}

func TestRoutedAnswersMatchUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	pts := clusterPoints(r, 600)
	c := newCluster(t, pts, 4)
	ctx := context.Background()

	nonEmpty := 0
	for i := 0; i < 12; i++ {
		center := pts[(i*7919)%len(pts)]
		spec := testSpec(center)
		want, err := c.ref.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.router.Query(ctx, server.RequestFromSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := want.IDs
		if wantIDs == nil {
			wantIDs = []int64{}
		}
		if !reflect.DeepEqual(got.IDs, wantIDs) {
			t.Fatalf("query %d: routed %v vs unsharded %v", i, got.IDs, wantIDs)
		}
		if len(want.IDs) > 0 {
			nonEmpty++
		}
		if got.Routing == nil {
			t.Fatal("routed response missing routing info")
		}
		if got.Routing.Shards != 4 || got.Routing.Fanout < 1 || got.Routing.Fanout > 4 {
			t.Fatalf("query %d: routing %+v", i, got.Routing)
		}
		if got.Routing.Partial {
			t.Fatalf("query %d: unexpected partial", i)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every test query was empty — the comparison proves nothing")
	}
	cs := c.router.CountersSnapshot()
	if cs.MeanFanout >= 4 {
		t.Fatalf("mean fanout %.2f — rectangle pruning never skipped a shard", cs.MeanFanout)
	}
}

func TestRoutedStatsAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := clusterPoints(r, 400)
	c := newCluster(t, pts, 2)
	spec := testSpec([]float64{200, 200})
	got, err := c.router.Query(context.Background(), server.RequestFromSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Retrieved == 0 {
		t.Fatal("aggregated stats empty")
	}
	if len(got.Routing.ShardEpochs) != got.Routing.Fanout {
		t.Fatalf("%d shard epochs for fanout %d", len(got.Routing.ShardEpochs), got.Routing.Fanout)
	}
}

func TestPartialFailurePolicy(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := clusterPoints(r, 400)
	c := newCluster(t, pts, 4)
	ctx := context.Background()

	// A world-sized query must fan out to all 4 shards; kill one.
	spec := gaussrange.QuerySpec{
		Center: []float64{200, 200},
		Cov:    [][]float64{{5000, 0}, {0, 5000}},
		Delta:  100,
		Theta:  0.01,
	}
	req := server.RequestFromSpec(spec)
	targets, empty, err := c.router.Route(req)
	if err != nil || empty {
		t.Fatalf("route: %v empty=%v", err, empty)
	}
	if len(targets) != 4 {
		t.Fatalf("world query fans out to %v, want all 4", targets)
	}
	c.shards[2].Close()

	// Fail-closed by default.
	if _, err := c.router.Query(ctx, req); err == nil {
		t.Fatal("fail-closed query succeeded with a dead shard")
	}

	// allow_partial opts into the partial answer.
	req.AllowPartial = true
	got, err := c.router.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Routing.Partial {
		t.Fatal("partial flag not set")
	}
	if !reflect.DeepEqual(got.Routing.FailedShards, []int{2}) {
		t.Fatalf("failed shards %v, want [2]", got.Routing.FailedShards)
	}
	// The partial answer is exactly the union of the surviving shards.
	want, err := c.ref.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, id := range want.IDs {
		found := false
		for _, g := range got.IDs {
			if g == id {
				found = true
				break
			}
		}
		if !found {
			lost++
		}
	}
	if lost == 0 {
		t.Log("note: dead shard held no answers for this query")
	}
	for _, id := range got.IDs {
		found := false
		for _, w := range want.IDs {
			if w == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("partial answer invented id %d", id)
		}
	}
}

func TestMutationRouting(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := clusterPoints(r, 500)
	c := newCluster(t, pts, 4)
	ctx := context.Background()

	// Inserts through the router get global ids continuing the id space, and
	// the same batch applied to the reference with those ids keeps the two
	// deployments identical.
	batch := [][]float64{{10, 10}, {390, 390}, {200, 200}, {10, 390}}
	ids, _, err := c.router.Insert(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != int64(len(pts)) {
		t.Fatalf("first routed id %d, want %d", ids[0], len(pts))
	}
	if _, _, err := c.ref.ApplyWithIDs(batch, ids, nil); err != nil {
		t.Fatal(err)
	}

	// Deletes: one initial-load id and one router-allocated id.
	for _, id := range []int64{7, ids[2]} {
		deleted, _, err := c.router.Delete(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !deleted {
			t.Fatalf("delete of live id %d reported false", id)
		}
		if _, _, err := c.ref.ApplyWithIDs(nil, nil, []int64{id}); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotence.
	if deleted, _, err := c.router.Delete(ctx, 7); err != nil || deleted {
		t.Fatalf("re-delete: %v %v", deleted, err)
	}

	// Post-mutation answers still match.
	for i := 0; i < 6; i++ {
		spec := testSpec(pts[(i*101)%len(pts)])
		want, err := c.ref.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.router.Query(ctx, server.RequestFromSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := want.IDs
		if wantIDs == nil {
			wantIDs = []int64{}
		}
		if !reflect.DeepEqual(got.IDs, wantIDs) {
			t.Fatalf("post-mutation query %d: routed %v vs unsharded %v", i, got.IDs, wantIDs)
		}
	}
	// The routed points landed on the shards whose region contains them.
	for bi, p := range batch {
		if c.router.m.Locate(p) < 0 {
			t.Fatalf("batch point %d unroutable", bi)
		}
	}
}

func TestRouterHandlerEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	pts := clusterPoints(r, 300)
	c := newCluster(t, pts, 2)
	h, err := NewHandler(HandlerConfig{Router: c.router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Mux())
	defer ts.Close()

	// The router speaks the plain server protocol: the stock client works
	// against it unchanged.
	cl := client.New(ts.URL)
	ctx := context.Background()
	spec := testSpec(pts[42])
	want, err := c.ref.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := want.IDs
	if wantIDs == nil {
		wantIDs = []int64{}
	}
	if !reflect.DeepEqual(res.IDs, wantIDs) {
		t.Fatalf("handler query %v vs unsharded %v", res.IDs, wantIDs)
	}

	// Mutations through the handler.
	id, _, err := cl.InsertPoint(ctx, []float64{123, 321})
	if err != nil {
		t.Fatal(err)
	}
	if id != int64(len(pts)) {
		t.Fatalf("handler insert id %d, want %d", id, len(pts))
	}
	coords, err := cl.Point(ctx, id)
	if err != nil || coords[0] != 123 {
		t.Fatalf("handler point lookup: %v %v", coords, err)
	}
	deleted, _, err := cl.DeletePoint(ctx, id)
	if err != nil || !deleted {
		t.Fatalf("handler delete: %v %v", deleted, err)
	}
	if _, err := cl.Point(ctx, id); err == nil {
		t.Fatal("deleted id still resolves")
	}

	// Health aggregates across shards.
	hres, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Points != len(pts) || hres.Dim != 2 {
		t.Fatalf("aggregated health %+v", hres)
	}
}

// TestRouterHandlerSharesServerHTTP: the router's HTTP face is the server's —
// the same encoder (a routed reply, routing report included, is byte for byte
// encoding/json's), the same framing, and the same one-value-per-body rule.
func TestRouterHandlerSharesServerHTTP(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts := clusterPoints(r, 300)
	c := newCluster(t, pts, 2)
	h, err := NewHandler(HandlerConfig{Router: c.router})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h.Mux())
	defer ts.Close()

	post := func(path, body string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, data
	}

	reqJSON, err := json.Marshal(server.RequestFromSpec(testSpec(pts[7])))
	if err != nil {
		t.Fatal(err)
	}
	query := string(reqJSON)
	status, hdr, body := post("/v1/query", query)
	if status != http.StatusOK || hdr.Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("routed query: status %d, Content-Length %q for %d bytes", status, hdr.Get("Content-Length"), len(body))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Routing == nil || len(resp.Routing.ShardEpochs) == 0 {
		t.Fatalf("routed reply %s: %v", body, err)
	}
	if want, _ := json.Marshal(resp); !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("routed reply is not encoding/json's bytes:\n got  %s\n want %s", body, want)
	}

	for path, good := range map[string]string{
		"/v1/query":       query,
		"/v1/query/batch": `{"queries":[` + query + `]}`,
		"/v1/points":      `{"points":[[1,2]]}`,
	} {
		if status, _, body := post(path, good+good); status != http.StatusBadRequest {
			t.Errorf("%s: a second JSON value got status %d (%s), want 400", path, status, body)
		}
		if status, _, body := post(path, good+"\n"); status != http.StatusOK {
			t.Errorf("%s: a trailing newline got status %d (%s), want 200", path, status, body)
		}
	}
}

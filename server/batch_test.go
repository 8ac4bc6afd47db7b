package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/server"
	"gaussrange/shard"
)

var update = flag.Bool("update", false, "rewrite testdata/batch_*.golden from the current code")

// batchBackend is one server.Server under test: a DB or a shard router.
type batchBackend struct {
	name string
	srv  *server.Server
	url  string
}

// batchBackends serves one point set twice: from a DB, and from a router
// over four loopback shards of the same points.
func batchBackends(t *testing.T) (pts [][]float64, backends []batchBackend) {
	t.Helper()
	clustered, err := data.Clustered(1, 2000, 2, 20, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range clustered {
		pts = append(pts, p)
	}
	serve := func(cfg server.Config) (*server.Server, string) {
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts.URL
	}

	db, err := gaussrange.Load(pts)
	if err != nil {
		t.Fatal(err)
	}
	srv, url := serve(server.Config{DB: db})
	backends = append(backends, batchBackend{"db", srv, url})

	m, parts, err := shard.Split(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := make([]string, len(parts))
	for i, part := range parts {
		sdb, err := gaussrange.LoadWithIDs(part.Points, part.IDs)
		if err != nil {
			t.Fatal(err)
		}
		_, endpoints[i] = serve(server.Config{DB: sdb})
	}
	router, err := shard.NewRouter(shard.Config{Map: m, Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	srv, url = serve(server.Config{Backend: router})
	return pts, append(backends, batchBackend{"router", srv, url})
}

// batchSpec is a query of the served set's usual shape centred on p.
func batchSpec(p []float64, strategy string) gaussrange.QuerySpec {
	return gaussrange.QuerySpec{
		Center:   p,
		Cov:      [][]float64{{70, 34.6}, {34.6, 30}},
		Delta:    25,
		Theta:    0.01,
		Strategy: strategy,
	}
}

// postBody posts body to url+path and returns the reply's status and body.
func postBody(t *testing.T, url, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestBatchRepliesGolden pins the /v1/query/batch reply bodies, *_ns fields
// masked, from a DB-backed and a router-backed server. The batch mixes
// decimal and dv1 entries, answers found and empty, a compile-time-empty
// query the router answers without a shard, and an entry timeout_ms the
// batch ignores. Each entry is first sent twice to /v1/query, so every
// plan the batch reuses has its answer-region hull and the counters do not
// depend on which worker rebinds a plan first.
func TestBatchRepliesGolden(t *testing.T) {
	pts, backends := batchBackends(t)
	far := []float64{-5000, -5000}
	wide := batchSpec(pts[3], "ALL")
	wide.Cov = [][]float64{{1e6, 0}, {0, 1e6}}
	wide.Delta, wide.Theta = 1, 0.5
	specs := []gaussrange.QuerySpec{
		batchSpec(pts[0], "ALL"),
		batchSpec(pts[17], "ALL"),
		batchSpec(far, "ALL"),
		batchSpec(far, "ALL"),
		wide,
		batchSpec(pts[40], "RR+BF"),
		batchSpec(pts[1500], "ALL"),
		batchSpec(pts[34], "BF+OR"),
	}
	var req server.BatchRequest
	for i, spec := range specs {
		q := server.RequestFromSpec(spec)
		if i%2 == 1 {
			q.IDsFormat = server.IDsFormatDV1
		}
		if i == 6 {
			q.TimeoutMS = 60000
		}
		req.Queries = append(req.Queries, q)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		for _, q := range req.Queries {
			one, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if status, reply := postBody(t, b.url, "/v1/query", one); status != http.StatusOK {
					t.Fatalf("%s: priming query: %d %s", b.name, status, reply)
				}
			}
		}
		status, reply := postBody(t, b.url, "/v1/query/batch", body)
		if status != http.StatusOK {
			t.Fatalf("%s: batch: %d %s", b.name, status, reply)
		}
		got := nsFields.ReplaceAll(reply, []byte(`"${1}_ns":0`))
		path := filepath.Join("testdata", "batch_"+b.name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: batch reply differs from %s:\n got  %s\n want %s", b.name, path, got, want)
		}
	}
}

// TestBatchContract holds /v1/query/batch to one contract on both backends:
// each entry answers as it would alone on /v1/query; the lowest-indexed
// failure fails the batch, every time; the batch deadline governs, whatever
// the entries' own timeout_ms; and an old body naming a worker count is
// still answered.
func TestBatchContract(t *testing.T) {
	pts, backends := batchBackends(t)
	var queries []server.QueryRequest
	for i := range 8 {
		q := server.RequestFromSpec(batchSpec(pts[i*211], "ALL"))
		if i%2 == 0 {
			q.IDsFormat = server.IDsFormatDV1
		}
		queries = append(queries, q)
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	invalid := slices.Clone(queries)
	invalid[2].Theta = 1.5
	invalid[5].Center = []float64{1, 2, 3}
	late := slices.Clone(queries)
	for i := range late {
		late[i].TimeoutMS = 60000
	}
	withWorkers := marshal(server.BatchRequest{Queries: queries})
	withWorkers = append([]byte(`{"workers":3,`), withWorkers[1:]...)

	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			// Each entry's ids are its /v1/query ids.
			var alone []server.QueryResponse
			for _, q := range queries {
				status, reply := postBody(t, b.url, "/v1/query", marshal(q))
				var resp server.QueryResponse
				if err := json.Unmarshal(reply, &resp); status != http.StatusOK || err != nil {
					t.Fatalf("query: %d %s", status, reply)
				}
				alone = append(alone, resp)
			}
			for _, body := range [][]byte{marshal(server.BatchRequest{Queries: queries}), withWorkers} {
				status, reply := postBody(t, b.url, "/v1/query/batch", body)
				var resp server.BatchResponse
				if err := json.Unmarshal(reply, &resp); status != http.StatusOK || err != nil || len(resp.Results) != len(queries) {
					t.Fatalf("batch %.20s…: %d %.200s", body, status, reply)
				}
				for i, got := range resp.Results {
					if !slices.Equal(got.AnswerIDs(), alone[i].AnswerIDs()) || len(alone[i].AnswerIDs()) == 0 {
						t.Errorf("batch %.20s… entry %d: %d ids, alone %d", body, i, len(got.AnswerIDs()), len(alone[i].AnswerIDs()))
					}
				}
			}

			// Entries 2 and 5 are invalid: the batch names entry 2, always.
			for run := range 20 {
				status, reply := postBody(t, b.url, "/v1/query/batch", marshal(server.BatchRequest{Queries: invalid}))
				var e server.ErrorResponse
				if err := json.Unmarshal(reply, &e); status != http.StatusBadRequest || err != nil || !strings.HasPrefix(e.Error, "query 2: ") {
					t.Fatalf("run %d: invalid entries 2 and 5: %d %s, want a 400 naming query 2", run, status, reply)
				}
			}

			// The batch's 20 ms deadline expires before its entries run.
			b.srv.SetPreQuery(func(ctx context.Context) { <-ctx.Done() })
			defer b.srv.SetPreQuery(nil)
			status, reply := postBody(t, b.url, "/v1/query/batch", marshal(server.BatchRequest{Queries: late, TimeoutMS: 20}))
			var e server.ErrorResponse
			if err := json.Unmarshal(reply, &e); status != http.StatusGatewayTimeout || err != nil || !strings.HasPrefix(e.Error, "query 0: ") {
				t.Fatalf("expired batch deadline: %d %s, want a 504 naming query 0", status, reply)
			}
		})
	}
}

package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"gaussrange"
	"gaussrange/client"
	"gaussrange/server"
)

// TestInsertAndDeleteEndpoints drives the mutation path over HTTP: insert a
// batch, read the points back, delete one, and check the epoch advances and
// read-your-writes holds against the served database.
func TestInsertAndDeleteEndpoints(t *testing.T) {
	db := testDB(t)
	_, _, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()

	epoch0 := db.Epoch()
	lenBefore := db.Len()

	ids, epoch, err := cl.InsertPoints(ctx, [][]float64{{10, 20}, {30, 40}})
	if err != nil {
		t.Fatalf("InsertPoints: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("InsertPoints returned %d ids, want 2", len(ids))
	}
	if epoch != epoch0+1 {
		t.Fatalf("insert epoch %d, want %d", epoch, epoch0+1)
	}
	if db.Len() != lenBefore+2 {
		t.Fatalf("served DB Len %d, want %d", db.Len(), lenBefore+2)
	}
	// Read-your-writes: the inserted point is immediately queryable by id.
	p, err := cl.Point(ctx, ids[0])
	if err != nil {
		t.Fatalf("Point after insert: %v", err)
	}
	if p[0] != 10 || p[1] != 20 {
		t.Fatalf("Point(%d) = %v, want [10 20]", ids[0], p)
	}

	deleted, epoch, err := cl.DeletePoint(ctx, ids[0])
	if err != nil {
		t.Fatalf("DeletePoint: %v", err)
	}
	if !deleted {
		t.Fatal("DeletePoint reported the fresh id as not live")
	}
	if epoch != epoch0+2 {
		t.Fatalf("delete epoch %d, want %d", epoch, epoch0+2)
	}
	// Idempotent: deleting again succeeds with deleted=false.
	deleted, epoch2, err := cl.DeletePoint(ctx, ids[0])
	if err != nil {
		t.Fatalf("repeated DeletePoint: %v", err)
	}
	if deleted {
		t.Fatal("second delete of the same id reported deleted=true")
	}
	if epoch2 != epoch {
		t.Fatalf("no-op delete advanced the epoch %d -> %d", epoch, epoch2)
	}

	// A query after the mutations reports the current epoch on the wire.
	res, err := cl.Query(ctx, testSpec(db, "ALL"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != db.Epoch() {
		t.Fatalf("query response epoch %d, want %d", res.Epoch, db.Epoch())
	}

	// And /healthz + /statsz surface it too.
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != db.Epoch() {
		t.Fatalf("healthz epoch %d, want %d", h.Epoch, db.Epoch())
	}
	snap, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != db.Epoch() {
		t.Fatalf("statsz epoch %d, want %d", snap.Epoch, db.Epoch())
	}
}

// TestMutationEndpointValidation exercises the rejection paths: wrong
// method, malformed ids, empty and mis-shaped bodies.
func TestMutationEndpointValidation(t *testing.T) {
	db := testDB(t)
	_, ts, _ := newTestServer(t, server.Config{DB: db})
	epoch0 := db.Epoch()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/v1/points", server.InsertPointsRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty insert batch: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/points", server.InsertPointsRequest{Points: [][]float64{{1, 2, 3}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dimension insert: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/points", server.InsertPointsRequest{Points: [][]float64{{1, 2}}, IDs: []int64{1<<31 - 1}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("insert id at the id limit: status %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/points/notanumber", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed delete id: status %d, want 400", resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/points/3", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on /v1/points/{id}: status %d, want 405", resp.StatusCode)
	}

	if db.Epoch() != epoch0 {
		t.Fatalf("rejected requests advanced the epoch %d -> %d", epoch0, db.Epoch())
	}
}

// TestProbAfterChurn: /v1/prob finds a point by id, not by the live count.
// After 10 of 100 points are deleted and one inserted (id 100, Len 91), the
// new point answers as DB.QueryProb does, and a deleted or unknown id is a
// 404, as on /v1/points.
func TestProbAfterChurn(t *testing.T) {
	raw := make([][]float64, 100)
	for i := range raw {
		raw[i] = []float64{float64(i % 10), float64(i / 10)}
	}
	db, err := gaussrange.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cl := newTestServer(t, server.Config{DB: db})
	ctx := context.Background()
	if _, _, _, err := db.Apply(nil, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	ids, _, err := cl.InsertPoints(ctx, [][]float64{{4.5, 4.5}})
	if err != nil || ids[0] != 100 || db.Len() != 91 {
		t.Fatalf("insert: ids %v, Len %d, err %v; want id 100 and Len 91", ids, db.Len(), err)
	}
	spec := gaussrange.QuerySpec{Center: []float64{4, 4}, Cov: [][]float64{{1, 0.3}, {0.3, 1}}, Delta: 1.5, Theta: 0.01}
	want, err := db.QueryProb(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cl.QueryProb(ctx, spec, 100); err != nil || got != want {
		t.Errorf("prob(100) = %v, %v; want %v", got, err, want)
	}
	for _, id := range []int64{3, 101, -1} {
		var ae *client.APIError
		if _, err := cl.QueryProb(ctx, spec, id); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
			t.Errorf("prob(%d): %v, want a 404", id, err)
		}
	}
}

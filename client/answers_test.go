package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/server"
)

// TestClientReadsParentReplies: a server that predates the id block ignores
// ids_format and answers with the decimal array. The typed client, which
// always asks for the block, reads every reply such a server wrote
// (server/testdata/parent_query_responses.jsonl) to what encoding/json reads
// from it.
func TestClientReadsParentReplies(t *testing.T) {
	raw, err := os.ReadFile("../server/testdata/parent_query_responses.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		var asked string
		ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req server.QueryRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("line %d: decoding request: %v", i, err)
			}
			asked = req.IDsFormat
			w.Write(line)
		})))
		got, err := New(ts.URL).Query(context.Background(), testQuerySpec())
		ts.Close()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		var old server.QueryResponse
		if err := json.Unmarshal(line, &old); err != nil {
			t.Fatal(err)
		}
		if want := old.Result(); asked != server.IDsFormatDV1 || !reflect.DeepEqual(got, want) {
			t.Errorf("line %d (asked for %q): client read %+v, encoding/json %+v", i, asked, got, want)
		}
	}
}

// TestPooledAnswersNeverCross: Phase 2's id slices, the rect search's context,
// the radix sort's buffer and the wire buffers are all pooled. Four
// goroutines share one served DB — batches through the client, streamed
// queries that stop early, queries cancelled before they start or under a
// deadline that may expire mid-query, and single queries over the wire and
// in process — and every answer must be its own query's, never a pooled
// slice another query is still filling. Meant for go test -race -count=5.
func TestPooledAnswersNeverCross(t *testing.T) {
	pts := data.LongBeach(1)
	raw := make([][]float64, len(pts))
	for i, p := range pts {
		raw[i] = p
	}
	db, err := gaussrange.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two shapes (a hull plan and, at γ = 1, a long Phase 3) at centres
	// whose answers differ in size.
	var specs []gaussrange.QuerySpec
	for _, gamma := range []float64{10, 1} {
		for _, i := range []int{0, 4242, 17000, 31337} {
			spec := benchShape(raw[i], gamma, 25).Spec()
			specs = append(specs, spec)
		}
	}
	want := make([][]int64, len(specs))
	wantMatches := make([][]gaussrange.Match, len(specs))
	for i, spec := range specs {
		res, err := db.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.IDs
		if wantMatches[i], err = db.QueryMatches(spec); err != nil {
			t.Fatal(err)
		}
	}

	cl := New(ts.URL)
	ctx := context.Background()
	check := func(who string, i int, got []int64) {
		if !slices.Equal(got, want[i]) && (len(got) != 0 || len(want[i]) != 0) {
			t.Errorf("%s: query %d answered %d ids that are not its own %d", who, i, len(got), len(want[i]))
		}
	}
	const rounds = 12
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // batches over the wire
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			res, err := cl.QueryBatch(ctx, specs)
			if err != nil {
				t.Error(err)
				return
			}
			for i, got := range res {
				check("QueryBatch", i, got.IDs)
			}
		}
	}()
	go func() { // streamed queries that stop after a few ids
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i, spec := range specs {
				limit := 1 + (r+i)%7
				var got []int64
				err := db.QueryFunc(spec, func(id int64) bool {
					got = append(got, id)
					return len(got) < limit
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != min(limit, len(want[i])) {
					t.Errorf("QueryFunc: query %d stopped after %d ids, want %d", i, len(got), min(limit, len(want[i])))
				}
				for _, id := range got {
					if _, ok := slices.BinarySearch(want[i], id); !ok {
						t.Errorf("QueryFunc: query %d streamed id %d, not in its answer", i, id)
					}
				}
			}
		}
	}()
	go func() { // queries cancelled before they start and while they run
		defer wg.Done()
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		for r := 0; r < rounds; r++ {
			for i, spec := range specs {
				if _, err := db.QueryCtx(cancelled, spec); err == nil {
					t.Errorf("query %d ran under a cancelled context", i)
				}
				if _, err := cl.Query(cancelled, spec); err == nil {
					t.Errorf("client query %d ran under a cancelled context", i)
				}
				// A deadline of tens of microseconds expires in Phase 3 of
				// some runs and not at all in others.
				short, stop := context.WithTimeout(ctx, time.Duration(r%4)*25*time.Microsecond)
				res, err := db.QueryCtx(short, spec)
				stop()
				switch {
				case err == nil:
					check("QueryCtx under a deadline", i, res.IDs)
				case !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("query %d under a deadline: %v", i, err)
				}
			}
		}
	}()
	go func() { // single queries over the wire and in process
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i, spec := range specs {
				res, err := cl.Query(ctx, spec)
				if err != nil {
					t.Error(err)
					return
				}
				check("Query", i, res.IDs)
				m, err := db.QueryMatches(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(m, wantMatches[i]) {
					t.Errorf("QueryMatches: query %d answered %d matches, want its own %d", i, len(m), len(wantMatches[i]))
				}
			}
		}
	}()
	wg.Wait()
}

package client

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/server"
)

// countConns starts ts counting the connections the server accepts.
func countConns(ts *httptest.Server) *atomic.Int32 {
	var opened atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	return &opened
}

// viaNetHTTP is a client whose every request goes through net/http.
func viaNetHTTP(url string) *Client {
	return New(url, WithHTTPClient(&http.Client{Transport: newTransport()}))
}

// benchShape is one bench/ workload's query shape: Σ = γ·Σ_paper.
func benchShape(center []float64, gamma, delta float64) server.QueryRequest {
	s := 2 * math.Sqrt(3)
	return server.RequestFromSpec(gaussrange.QuerySpec{
		Center: center,
		Cov:    [][]float64{{7 * gamma, s * gamma}, {s * gamma, 3 * gamma}},
		Delta:  delta,
		Theta:  0.01,
	})
}

// TestDirectMatchesNetHTTP: on a real server over the Long Beach set, QueryRaw
// on the direct path and on net/http return equal responses for the four
// bench/ workloads' shapes — churn_mixed's after an insert and a delete,
// which go through net/http on both clients.
func TestDirectMatchesNetHTTP(t *testing.T) {
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
	dc, hc := New(ts.URL), viaNetHTTP(ts.URL)
	if dc.direct == nil || hc.direct != nil {
		t.Fatal("path selection: want direct reads on New(url) only")
	}
	ctx := context.Background()
	for _, w := range []struct {
		name         string
		gamma, delta float64
		churn        bool
	}{{"paper_read", 10, 25, false}, {"coarse_read", 100, 5, false}, {"tight_read", 1, 25, false}, {"churn_mixed", 100, 5, true}} {
		if w.churn {
			ids, _, err := dc.InsertPoints(ctx, [][]float64{raw[7], raw[11]})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := hc.DeletePoint(ctx, ids[0]); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range []int{0, 4242, 31337} {
			req := benchShape(raw[i], w.gamma, w.delta)
			// The shape's first query builds its hull; compare later ones.
			if _, err := dc.QueryRaw(ctx, req); err != nil {
				t.Fatal(err)
			}
			got, err := dc.QueryRaw(ctx, req)
			if err != nil {
				t.Fatalf("%s: direct: %v", w.name, err)
			}
			want, err := hc.QueryRaw(ctx, req)
			if err != nil {
				t.Fatalf("%s: net/http: %v", w.name, err)
			}
			for _, r := range []*server.QueryResponse{&got, &want} {
				r.Stats.IndexNS, r.Stats.FilterNS, r.Stats.ProbNS = 0, 0, 0
			}
			if len(got.IDs) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s center %d: direct %+v\nnet/http %+v", w.name, i, got, want)
			}
		}
	}
}

// TestDirectAPIErrorsMatchNetHTTP: a non-2xx reply is the same *APIError on
// both paths — status, message (JSON or plain text) and Retry-After.
func TestDirectAPIErrorsMatchNetHTTP(t *testing.T) {
	for _, status := range []int{400, 404, 405, 429, 504} {
		ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch status {
			case 405:
				http.Error(w, "method not allowed", status)
			case 429:
				w.Header().Set("Retry-After", "3")
				fallthrough
			default:
				server.WriteError(w, status, "refused with %d", status)
			}
		})))
		var errs [2]*APIError
		for i, cl := range []*Client{New(ts.URL), viaNetHTTP(ts.URL)} {
			_, err := cl.Query(context.Background(), testQuerySpec())
			if !errors.As(err, &errs[i]) {
				t.Fatalf("status %d, path %d: want *APIError, got %v", status, i, err)
			}
		}
		ts.Close()
		if *errs[0] != *errs[1] || errs[0].Status != status {
			t.Errorf("status %d: direct %+v, net/http %+v", status, *errs[0], *errs[1])
		}
		if status == 429 && errs[0].RetryAfter != 3*time.Second {
			t.Errorf("Retry-After = %v, want 3s", errs[0].RetryAfter)
		}
	}
}

// TestDirectPoolsAfterErrorReplies: a 429 or 504 reply read to its end leaves
// its connection pooled, so WithRetryOn429's retries and the reads after a
// 504 go on the one connection instead of dialling again.
func TestDirectPoolsAfterErrorReplies(t *testing.T) {
	var hits atomic.Int32
	ok := okHandler(t, nil)
	ts := httptest.NewUnstartedServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) % 3 {
		case 1:
			w.Header().Set("Retry-After", "0")
			server.WriteError(w, http.StatusTooManyRequests, "overloaded")
		case 2:
			ok(w, r)
		default:
			server.WriteError(w, http.StatusGatewayTimeout, "deadline")
		}
	})))
	opened := countConns(ts)
	defer ts.Close()
	cl := perRequest(New(ts.URL, WithRetryOn429(1), WithRetryBackoff(time.Millisecond)))
	for round := 0; round < 5; round++ {
		if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatalf("round %d: the 429 retry failed: %v", round, err)
		}
		if _, err := cl.Query(context.Background(), testQuerySpec()); !IsDeadline(err) {
			t.Fatalf("round %d: want the 504, got %v", round, err)
		}
	}
	if n := hits.Load(); n != 15 {
		t.Fatalf("server answered %d requests, want 15", n)
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("10 429 and 504 replies among 15 opened %d connections, want 1", n)
	}
}

// TestDirectReusesOneConnection: sequential reads share one keep-alive
// connection, and replies the server frames as chunked or ends with
// Connection: close decode — the latter's connection is not pooled.
func TestDirectReusesOneConnection(t *testing.T) {
	var closeNext, chunk atomic.Bool
	ts := httptest.NewUnstartedServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if closeNext.Load() {
			w.Header().Set("Connection", "close")
		}
		if chunk.Load() {
			w.Write([]byte(`{"ids":[1,`))
			w.(http.Flusher).Flush() // no Content-Length: the reply is chunked
			w.Write([]byte(`2],"epoch":3,"stats":{}}`))
			return
		}
		server.WriteJSON(w, http.StatusOK, &server.QueryResponse{IDs: []int64{1, 2}, Epoch: 3})
	})))
	opened := countConns(ts)
	defer ts.Close()
	cl := perRequest(New(ts.URL))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	query := func() {
		t.Helper()
		res, err := cl.Query(ctx, testQuerySpec())
		if err != nil || !reflect.DeepEqual(res.IDs, []int64{1, 2}) || res.Epoch != 3 {
			t.Fatalf("query: %+v, %v", res, err)
		}
	}
	for i := 0; i < 200; i++ {
		query()
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("200 sequential queries opened %d connections, want 1", n)
	}

	chunk.Store(true)
	query()
	query()
	if n := opened.Load(); n != 1 {
		t.Fatalf("chunked replies opened %d connections, want the same 1", n)
	}

	closeNext.Store(true)
	query()
	if n := len(cl.direct.conns); n != 0 {
		t.Fatalf("%d idle connections after a Connection: close reply, want 0", n)
	}
	closeNext.Store(false)
	query()
	if n := opened.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: one more after the server closed the first", n)
	}
}

// TestDirectStaleConnectionRetry: a pooled connection the server closed is
// replaced by one immediate fresh dial — not a counted, backed-off retry, so
// it works with WithRetries(0) and does not sleep.
func TestDirectStaleConnectionRetry(t *testing.T) {
	var hits atomic.Int32
	ok := okHandler(t, nil)
	ts := httptest.NewUnstartedServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		ok(w, r)
	})))
	opened := countConns(ts)
	defer ts.Close()
	cl := perRequest(New(ts.URL, WithRetries(0), WithRetryBackoff(time.Minute)))
	for round := 1; round <= 3; round++ {
		start := time.Now()
		if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("round %d took %v: the retry slept its backoff", round, d)
		}
		if n := opened.Load(); n != int32(round) {
			t.Fatalf("round %d: %d connections opened, want %d", round, n, round)
		}
		ts.CloseClientConnections()
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("server answered %d requests, want 3", n)
	}
}

// TestDirectDeadlines: a ctx deadline and WithTimeout each end a read the
// server holds, promptly, and the Client's next read works.
func TestDirectDeadlines(t *testing.T) {
	var hold atomic.Bool
	ok := okHandler(t, nil)
	ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			io.Copy(io.Discard, r.Body) // the server watches for a hang-up once the body is read
			<-r.Context().Done()        // until the client hangs up
			return
		}
		ok(w, r)
	})))
	defer ts.Close()

	for _, tc := range []struct {
		name    string
		cl      *Client
		ctx     func() (context.Context, context.CancelFunc)
		wantCtx bool
	}{
		{"ctx deadline", New(ts.URL), func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, true},
		{"WithTimeout", New(ts.URL, WithTimeout(50*time.Millisecond)), func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}, false},
	} {
		if _, err := tc.cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatal(err) // leaves a pooled connection to expire on
		}
		hold.Store(true)
		ctx, cancel := tc.ctx()
		start := time.Now()
		_, err := tc.cl.Query(ctx, testQuerySpec())
		cancel()
		hold.Store(false)
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("%s: held read returned after %v", tc.name, d)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("%s: want a timeout, got %v", tc.name, err)
		}
		if tc.wantCtx && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: %v is not context.DeadlineExceeded", tc.name, err)
		}
		if _, err := tc.cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatalf("%s: next query: %v", tc.name, err)
		}
	}
}

// TestOversizedReplyNotAllocated: a reply declaring more than
// maxResponseBytes fails before its body is read or allocated, on both paths.
func TestOversizedReplyNotAllocated(t *testing.T) {
	ts := httptest.NewServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1099511627776") // 1 TiB
		w.Write([]byte(`{"ids":[`))
	})))
	defer ts.Close()
	for _, cl := range []*Client{New(ts.URL), viaNetHTTP(ts.URL)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cl.Query(context.Background(), testQuerySpec())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errResponseTooLarge) {
			t.Fatalf("direct=%v: want errResponseTooLarge, got %v", cl.direct != nil, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("direct=%v: rejecting the reply allocated %d bytes", cl.direct != nil, grew)
		}
	}
}

// countingTransport counts the requests that reach net/http.
type countingTransport struct {
	inner http.RoundTripper
	n     atomic.Int32
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.inner.RoundTrip(r)
}

// TestMutationsStayOnNetHTTP: with the default transport, reads never reach
// the http.Client and mutations always do, each on its own connections; with
// WithHTTPClient every request goes through the caller's client.
func TestMutationsStayOnNetHTTP(t *testing.T) {
	mutate := overloadedMutationHandler(0, new(atomic.Int32))
	ts := httptest.NewUnstartedServer(withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			server.WriteJSON(w, http.StatusOK, server.Health{Status: "ok"})
			return
		}
		mutate(w, r)
	})))
	opened := countConns(ts)
	defer ts.Close()
	ctx := context.Background()
	run := func(cl *Client) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := cl.Health(ctx); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.InsertPoints(ctx, [][]float64{{1, 2}}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cl.DeletePoint(ctx, 42); err != nil {
				t.Fatal(err)
			}
		}
	}

	own := New(ts.URL)
	counted := &countingTransport{inner: own.hc.Transport}
	own.hc.Transport = counted
	run(own)
	if n := counted.n.Load(); n != 6 {
		t.Errorf("default client: %d requests reached net/http, want the 6 mutations", n)
	}
	if n := opened.Load(); n != 2 {
		t.Errorf("default client: %d connections, want 2 (one per path)", n)
	}

	caller := &countingTransport{inner: newTransport()}
	run(New(ts.URL, WithHTTPClient(&http.Client{Transport: caller})))
	if n := caller.n.Load(); n != 9 {
		t.Errorf("WithHTTPClient: %d requests reached the caller's client, want all 9", n)
	}
}

// TestWithTimeoutOptionOrder: WithTimeout sets the Client's own transport in
// either order and never writes into a caller's http.Client.
func TestWithTimeoutOptionOrder(t *testing.T) {
	const d = 7 * time.Second
	if c := New("http://127.0.0.1:1", WithTimeout(d)); c.timeout != d || c.hc.Timeout != d {
		t.Errorf("own transport: timeout %v / http.Client %v, want %v", c.timeout, c.hc.Timeout, d)
	}
	if c := New("http://127.0.0.1:1"); c.timeout != 30*time.Second || c.hc.Timeout != 30*time.Second {
		t.Errorf("default timeout %v / %v, want 30s", c.timeout, c.hc.Timeout)
	}
	for _, first := range []bool{true, false} {
		hc := &http.Client{Timeout: time.Second}
		opts := []Option{WithTimeout(d), WithHTTPClient(hc)}
		if !first {
			opts[0], opts[1] = opts[1], opts[0]
		}
		c := New("http://127.0.0.1:1", opts...)
		if c.hc != hc || hc.Timeout != time.Second {
			t.Errorf("WithTimeout first=%v: caller's client replaced or its Timeout changed to %v", first, hc.Timeout)
		}
	}
}

// TestDirectPathSelection: reads bypass net/http only for plain http without
// credentials or a query, and never under WithHTTPClient.
func TestDirectPathSelection(t *testing.T) {
	for base, want := range map[string]bool{
		"http://127.0.0.1:8080":         true,
		"http://localhost:8080/prefix/": true,
		"https://127.0.0.1:8443":        false,
		"http://user:pw@127.0.0.1:8080": false,
		"http://127.0.0.1:8080/?a=b":    false,
	} {
		if got := New(base).direct != nil; got != want {
			t.Errorf("%s: direct = %v, want %v", base, got, want)
		}
	}
	if New("http://127.0.0.1:8080", WithHTTPClient(&http.Client{})).direct != nil {
		t.Error("WithHTTPClient kept the direct read path")
	}
	d := New("http://localhost/prefix/").direct
	if d.addr != "localhost:80" || d.host != "localhost" || d.prefix != "/prefix" {
		t.Errorf("addr %q host %q prefix %q", d.addr, d.host, d.prefix)
	}
}

// TestDirectUsesTransportSettings: the read path takes its proxy decision and
// its dialer from the transport it is built from, as net/http would.
func TestDirectUsesTransportSettings(t *testing.T) {
	ts := httptest.NewServer(withoutStream(okHandler(t, nil)))
	defer ts.Close()
	tr := newTransport().(*http.Transport)
	tr.Proxy = http.ProxyURL(&url.URL{Scheme: "http", Host: "proxy.invalid:3128"})
	if newDirect(ts.URL, tr) != nil {
		t.Error("a transport with a proxy for the host kept the direct read path")
	}
	var dials atomic.Int32
	tr.Proxy = nil
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return new(net.Dialer).DialContext(ctx, network, addr)
	}
	cl := New(ts.URL)
	if cl.direct = newDirect(ts.URL, tr); cl.direct == nil {
		t.Fatal("a transport without a proxy lost the direct read path")
	}
	perRequest(cl)
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(context.Background(), testQuerySpec()); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("the transport's DialContext ran %d times for 3 reads, want 1", n)
	}
}

// reply200 is a fixed 200-id query reply.
func reply200() server.QueryResponse {
	ids := make([]int64, 200)
	for i := range ids {
		ids[i] = int64(i * 251)
	}
	return server.QueryResponse{IDs: ids, Epoch: 4, Stats: server.QueryStats{Retrieved: 353, Integrations: 221, ProbNS: 61000}}
}

// fixedBackend answers every query with resp; nothing else is called.
type fixedBackend struct {
	server.Backend
	resp server.QueryResponse
}

func (b fixedBackend) Query(context.Context, server.QueryRequest) (server.QueryResponse, error) {
	return b.resp, nil
}

// serve200 is a server.Server answering every query with reply200, so a
// Client's queries to it stream.
func serve200(t testing.TB) http.Handler {
	srv, err := server.New(server.Config{Backend: fixedBackend{resp: reply200()}})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

func stream200(t testing.TB) *httptest.Server { return httptest.NewServer(serve200(t)) }

func loopback200(t testing.TB) *httptest.Server { return httptest.NewServer(handler200()) }

// handler200 serves reply200, in the ids_format the request asks for,
// through the server's helpers, as a server without the query stream.
func handler200() http.Handler {
	want := reply200()
	wantDV1 := want.InFormat(server.IDsFormatDV1)
	return withoutStream(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.QueryRequest
		if err := server.DecodeBody(w, r, &req); err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.IDsFormat == server.IDsFormatDV1 {
			server.WriteJSON(w, http.StatusOK, &wantDV1)
		} else {
			server.WriteJSON(w, http.StatusOK, &want)
		}
	}))
}

// TestDirectRoundTripAllocs puts a ceiling on a 200-id Query over loopback,
// client and server together: everything the process allocates per request,
// with the ids sent as one block. Its server lacks the query stream, so this
// is the per-request exchange. Measured 55, the ceiling; the same request
// through net/http's Transport measures ≈ 105, so the test fails when its
// goroutine plumbing comes back, and also when a per-reply header value, a
// decoded ids_format string or a second id slice does.
func TestDirectRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under -race")
	}
	ts := loopback200(t)
	defer ts.Close()
	spec, ctx := testQuerySpec(), context.Background()
	measure := func(cl *Client) float64 {
		if res, err := cl.Query(ctx, spec); err != nil || len(res.IDs) != 200 {
			t.Fatalf("query: %v", err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := cl.Query(ctx, spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	direct, viaHTTP := measure(New(ts.URL)), measure(viaNetHTTP(ts.URL))
	const ceiling = 55
	t.Logf("allocs per 200-id loopback round trip: direct %.0f, net/http %.0f (ceiling %d)", direct, viaHTTP, ceiling)
	if direct > ceiling {
		t.Errorf("%.0f allocs per 200-id direct round trip, ceiling %d", direct, ceiling)
	}
}

// TestStreamRoundTripAllocs puts a ceiling on a 200-id Query streamed to a
// server.Server over loopback, client and server together. Measured 15, the
// ceiling: a new reply frame, request frame or per-frame goroutine shows
// here.
func TestStreamRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under -race")
	}
	ts := stream200(t)
	defer ts.Close()
	cl, spec, ctx := New(ts.URL), testQuerySpec(), context.Background()
	if res, err := cl.Query(ctx, spec); err != nil || len(res.IDs) != 200 {
		t.Fatalf("query: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Query(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	if cl.direct.noStream.Load() || len(cl.direct.streams) != 1 {
		t.Fatalf("the queries did not stream: refused %v, %d pooled streams", cl.direct.noStream.Load(), len(cl.direct.streams))
	}
	const ceiling = 15
	t.Logf("allocs per streamed 200-id loopback round trip: %.0f (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per streamed 200-id round trip, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkClientRoundTrip times a 200-id Query over loopback on each read
// path; allocs/op counts client and server. The stream arm's server is a
// server.Server, the others' a handler without the stream.
func BenchmarkClientRoundTrip(b *testing.B) {
	ts, st := loopback200(b), stream200(b)
	defer ts.Close()
	defer st.Close()
	spec, ctx := testQuerySpec(), context.Background()
	for _, arm := range []struct {
		name string
		cl   *Client
	}{{"stream", New(st.URL)}, {"direct", New(ts.URL)}, {"net-http", viaNetHTTP(ts.URL)}} {
		b.Run(arm.name, func(b *testing.B) {
			if _, err := arm.cl.Query(ctx, spec); err != nil {
				b.Fatal(err) // dials: the timed loop runs on a pooled connection
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arm.cl.Query(ctx, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

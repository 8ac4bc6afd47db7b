package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaussrange/client"
	"gaussrange/server"
)

// rawStream drives a query stream by hand, so a test sees its frames' bytes.
type rawStream struct {
	c    net.Conn
	body *bufio.Reader // the reply, de-chunked
}

// streamHead is the stream's request head; the body follows, chunked.
const streamHead = "POST /v1/query/stream HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"

func openRawStream(t testing.TB, c net.Conn) *rawStream {
	t.Helper()
	if _, err := io.WriteString(c, streamHead); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream refused: %s", resp.Status)
	}
	return &rawStream{c: c, body: bufio.NewReader(resp.Body)}
}

// frame encodes body as one request frame in one chunk.
func frame(body []byte) []byte {
	f := append(strconv.AppendInt(nil, int64(len(body)), 10), '\n')
	f = append(f, body...)
	return append(fmt.Appendf(nil, "%x\r\n", len(f)), append(f, "\r\n"...)...)
}

// readFrame reads one reply frame.
func (s *rawStream) readFrame() (status int, retryAfter string, body []byte, err error) {
	head, err := s.body.ReadString('\n')
	if err != nil {
		return 0, "", nil, err
	}
	fields := strings.Fields(head)
	if len(fields) < 2 || len(fields) > 3 {
		return 0, "", nil, fmt.Errorf("reply frame head %q", head)
	}
	status, err1 := strconv.Atoi(fields[0])
	n, err2 := strconv.Atoi(fields[1])
	if err := errors.Join(err1, err2); err != nil {
		return 0, "", nil, err
	}
	if len(fields) == 3 {
		retryAfter = fields[2]
	}
	body = make([]byte, n)
	_, err = io.ReadFull(s.body, body)
	return status, retryAfter, body, err
}

// nsFields are the reply's timings, which differ between any two runs.
var nsFields = regexp.MustCompile(`"(index|filter|prob)_ns":\d+`)

// TestStreamFramesMatchQuery sends 20 requests down /v1/query and, as frames,
// down one query stream: ids in dv1 and decimal form, spec errors, malformed
// bodies, an ErrNotConverged 400, a saturated-admission 429 and a timeout_ms
// 504. Each frame's body is the /v1/query body byte for byte (timings
// zeroed), under the same status and Retry-After, and the typed client reads
// the same *client.APIError from either path.
func TestStreamFramesMatchQuery(t *testing.T) {
	db := testDB(t)
	s, ts, _ := newTestServer(t, server.Config{DB: db, MaxInflight: 2})
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	s.SetPreQuery(func(ctx context.Context) {
		if hold.Load() {
			entered <- struct{}{}
			<-release
		}
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done() // every timed request here expires
		}
	})
	streamed, perRequest := client.New(ts.URL), client.New(ts.URL, client.WithHTTPClient(&http.Client{}))
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw := openRawStream(t, c)

	type tc struct {
		name string
		req  *server.QueryRequest // nil: body is not a request
		body string
	}
	var cases []tc
	for _, strategy := range []string{"ALL", "BF", "RR+OR", "RR", "BF+OR", "RR+BF"} {
		for _, format := range []string{"", server.IDsFormatDV1} {
			req := server.RequestFromSpec(testSpec(db, strategy))
			req.IDsFormat = format
			cases = append(cases, tc{name: strategy + "/" + format, req: &req})
		}
	}
	bad := func(name string, edit func(*server.QueryRequest)) {
		req := server.RequestFromSpec(testSpec(db, "ALL"))
		edit(&req)
		cases = append(cases, tc{name: name, req: &req})
	}
	bad("wrong dimension", func(r *server.QueryRequest) { r.Cov = [][]float64{{1}} })
	bad("theta out of range", func(r *server.QueryRequest) { r.Theta = 2 })
	bad("unknown strategy", func(r *server.QueryRequest) { r.Strategy = "XYZ" })
	bad("not converged", func(r *server.QueryRequest) { r.Cov, r.Delta = [][]float64{{1e-9, 0}, {0, 1}}, 1 })
	bad("timeout", func(r *server.QueryRequest) { r.TimeoutMS = 20 })
	cases = append(cases, tc{name: "bad json", body: "{"}, tc{name: "empty", body: ""},
		tc{name: "overloaded", req: cases[0].req})
	if len(cases) != 20 {
		t.Fatalf("%d cases, want 20", len(cases))
	}
	requests := uint64(2 * len(cases)) // each case down both paths
	// A shape's first query builds its plan's hull, and later ones report
	// other counters: prime every shape before comparing.
	for _, k := range cases {
		if k.req != nil {
			perRequest.QueryRaw(context.Background(), *k.req)
			requests++
		}
	}

	for i, k := range cases {
		body := []byte(k.body)
		if k.req != nil {
			body, _ = json.Marshal(k.req)
		}
		if k.name == "overloaded" { // both slots held by per-request queries
			hold.Store(true)
			for j := 0; j < 2; j++ {
				go func() { _, _ = perRequest.QueryRaw(context.Background(), *k.req) }()
				<-entered
			}
			hold.Store(false)
		}
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame(body)); err != nil {
			t.Fatal(err)
		}
		status, retryAfter, got, err := raw.readFrame()
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if status != resp.StatusCode || retryAfter != resp.Header.Get("Retry-After") ||
			!bytes.Equal(nsFields.ReplaceAll(got, []byte(`"${1}_ns":0`)), nsFields.ReplaceAll(want, []byte(`"${1}_ns":0`))) {
			t.Errorf("case %d (%s): frame %d %q %s\n/v1/query %d %q %s", i, k.name, status, retryAfter, got, resp.StatusCode, resp.Header.Get("Retry-After"), want)
		}
		if k.req != nil && status != http.StatusOK {
			var errs [2]*client.APIError
			for j, cl := range []*client.Client{streamed, perRequest} {
				if _, err := cl.QueryRaw(context.Background(), *k.req); !errors.As(err, &errs[j]) {
					t.Fatalf("%s: client %d: %v, want an *APIError", k.name, j, err)
				}
			}
			if *errs[0] != *errs[1] {
				t.Errorf("%s: streamed %+v, per request %+v", k.name, *errs[0], *errs[1])
			}
			requests += 2
		}
		if k.name == "overloaded" {
			release <- struct{}{}
			release <- struct{}{}
			requests += 2
		}
		if !slices.Contains([]int{200, 400, 429, 504}, status) {
			t.Errorf("%s: status %d", k.name, status)
		}
	}
	// Every frame is one /v1/query request in /statsz. A frame is recorded
	// once its reply is written, so the count may trail the reply briefly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ep := s.Stats().Endpoints["/v1/query"]
		if ep.Requests == requests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/query recorded %d requests, want %d", ep.Requests, requests)
		}
	}
}

// stubBackend answers every query with one fixed reply, so the stream fuzzer
// spends its time on the framing, not on queries.
type stubBackend struct{ server.Backend }

func (stubBackend) Query(context.Context, server.QueryRequest) (server.QueryResponse, error) {
	return server.QueryResponse{IDs: []int64{3, 1, 4}, Epoch: 2}, nil
}

// oneConn is a listener that accepts one connection, then none until closed.
type oneConn struct {
	c    chan net.Conn
	done chan struct{}
	once sync.Once
}

func newOneConn(c net.Conn) *oneConn {
	l := &oneConn{c: make(chan net.Conn, 1), done: make(chan struct{})}
	l.c <- c
	return l
}

func (l *oneConn) Accept() (net.Conn, error) {
	select {
	case c := <-l.c:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *oneConn) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *oneConn) Addr() net.Addr { return &net.TCPAddr{} }

// splitFrames is the stream's framing, written independently: the complete,
// well-formed request frames at the start of body, and whether what follows
// them is a malformed or oversized length line — one the reader rejects
// without waiting for more. A length line is 1 to 9 digits, at most 16 MiB,
// and must end within bufio's default 4096-byte buffer.
func splitFrames(body []byte) (frames [][]byte, malformed bool) {
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 || i >= 4096 {
			return frames, i >= 4096 || len(body) >= 4096
		}
		n, err := strconv.Atoi(string(body[:i]))
		if i > 9 || err != nil || n > 16<<20 || strings.IndexFunc(string(body[:i]), func(r rune) bool { return r < '0' || r > '9' }) >= 0 {
			return frames, true
		}
		if len(body)-i-1 < n {
			return frames, false
		}
		frames = append(frames, body[i+1:i+1+n])
		body = body[i+1+n:]
	}
	return frames, false
}

// FuzzQueryStream feeds arbitrary bytes to the stream handler as a stream's
// body, over an in-memory connection. It must not panic, must answer each
// complete, well-formed frame with exactly the reply /v1/query gives its
// body, and must end the stream on its own at a malformed or oversized
// length (the body is then left open); otherwise the body is ended, and the
// stream must end with it.
func FuzzQueryStream(f *testing.F) {
	req := []byte(`{"center":[1,2],"cov":[[1,0],[0,1]],"delta":1,"theta":0.5,"ids_format":"dv1"}`)
	one := append([]byte(strconv.Itoa(len(req))+"\n"), req...)
	for _, seed := range [][]byte{
		nil, one, append(append([]byte{}, one...), one...), []byte("0\n"), []byte("2\n{}3\nnul"),
		[]byte("16777217\n"), []byte("1234567890\n"), []byte("x\n"), []byte("\n"), []byte("-1\n"),
		[]byte("5\nabc"), append(append([]byte{}, one...), "9\n[1,2"...), bytes.Repeat([]byte("7"), 5000),
	} {
		f.Add(seed)
	}
	srv, err := server.New(server.Config{Backend: stubBackend{}})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		frames, malformed := splitFrames(body)
		cl, sc := net.Pipe()
		defer cl.Close()
		hs := &http.Server{Handler: h}
		go hs.Serve(newOneConn(sc))
		defer hs.Close()
		cl.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			w := bufio.NewWriter(cl)
			w.WriteString(streamHead)
			if len(body) > 0 {
				fmt.Fprintf(w, "%x\r\n", len(body))
				w.Write(body)
				w.WriteString("\r\n")
			}
			if !malformed {
				w.WriteString("0\r\n\r\n")
			}
			w.Flush()
		}()
		resp, err := http.ReadResponse(bufio.NewReader(cl), nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("stream refused: %v", err)
		}
		s := &rawStream{c: cl, body: bufio.NewReader(resp.Body)}
		for i, fr := range frames {
			status, retryAfter, got, err := s.readFrame()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(fr)))
			if status != rec.Code || retryAfter != rec.Header().Get("Retry-After") || !bytes.Equal(got, rec.Body.Bytes()) {
				t.Fatalf("frame %d: %d %q %q, /v1/query %d %q", i, status, retryAfter, got, rec.Code, rec.Body.Bytes())
			}
		}
		if rest, err := io.ReadAll(s.body); err != nil || len(rest) > 0 {
			t.Fatalf("after %d frames: %q, %v; want the stream's end", len(frames), rest, err)
		}
	})
}

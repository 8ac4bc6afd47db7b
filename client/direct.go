package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// direct is the read path of a Client that owns its transport: a read request
// is written, and its reply read, on the caller's goroutine over a keep-alive
// HTTP/1.1 connection from a LIFO idle pool. net/http's Transport runs a
// reader and a writer goroutine per connection and hands every request and
// reply across them, which on loopback costs more CPU than the request's
// syscalls. The reply is still parsed by http.ReadResponse, so the framing
// (Content-Length, chunked, Connection: close) is the standard library's.
// Queries go as frames on a pooled query stream instead (stream.go), unless
// the server refused one. Mutations never come here; DESIGN.md "Client read
// path" says why.
type direct struct {
	addr   string // host:port to dial
	host   string // Host header
	prefix string // the base URL's path, put before every request path
	idle   time.Duration
	dial   func(ctx context.Context, network, addr string) (net.Conn, error)

	noStream atomic.Bool // the server refused a query stream: queries go per request

	mu      sync.Mutex
	conns   []*conn // idle, most recently used last
	streams []*conn // idle query streams, most recently used last
}

// newDirect returns the read path for baseURL, dialling and idling as t —
// the Client's own copy of http.DefaultTransport — does, or nil when reads
// stay on net/http: a scheme other than http, credentials or a query in the
// URL, or a proxy t would send the host's requests through.
func newDirect(baseURL string, t *http.Transport) *direct {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return nil
	}
	if t.Proxy != nil {
		if proxy, err := t.Proxy(&http.Request{URL: u}); err != nil || proxy != nil {
			return nil
		}
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	d := &direct{
		addr:   net.JoinHostPort(u.Hostname(), port),
		host:   u.Host,
		prefix: u.EscapedPath(),
		idle:   t.IdleConnTimeout,
		dial:   t.DialContext,
	}
	if d.dial == nil {
		d.dial = new(net.Dialer).DialContext // what net/http dials with then
	}
	return d
}

// conn is one connection of the pool. Only the goroutine that took it from
// the pool touches it until it is put back.
type conn struct {
	net.Conn
	abort  func()      // closes the connection; run by a cancelled ctx
	timer  *time.Timer // ends the connection's stream, or closes it, once it has idled out
	idleAt time.Time

	// A query stream open on the connection holds its readers: frames reads
	// the reply's body, through br.
	br, frames *bufio.Reader
}

// exchangeBufs are what one request and its reply are read and written
// through. They are lent to a connection for one exchange only, so an idle
// connection — or a dropped Client's — holds no buffer; an idle stream holds
// its readers until it ends, streamIdle later.
type exchangeBufs struct {
	br    *bufio.Reader
	wbuf  []byte
	body  replyBody
	frame []byte // a reply frame's body
}

var exchangeBufPool = sync.Pool{New: func() any { return &exchangeBufs{br: bufio.NewReader(nil)} }}

// maxPooledWrite keeps a one-off large request (a batch) or reply from
// pinning its buffer in the pool.
const maxPooledWrite = 64 << 10

// replyBody records whether the reply's body was read to its end: only then
// is the connection at the start of the next reply and fit for reuse. Close
// does nothing, because the connection is closed or pooled instead.
type replyBody struct {
	r   io.Reader
	eof bool
}

func (b *replyBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *replyBody) Close() error { return nil }

// roundTrip sends one read request and decodes its reply into out. A failure
// before the reply's body is a *url.Error, as on the net/http path, so doRetry
// classifies both paths' errors alike; after it, the error is
// decodeResponse's. A reused connection that fails before any reply byte
// arrives was most likely closed by the server while it idled, so the request
// goes once more, at once and uncounted, on a fresh connection — safe only
// because every request on this path is a read. A query goes as a frame on a
// stream, under the same rule.
func (d *direct) roundTrip(ctx context.Context, method, path string, payload []byte, out any, timeout time.Duration) error {
	if err := ctx.Err(); err != nil {
		return d.fail(ctx, method, path, time.Time{}, err, true)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
		deadline = dl
	}
	stream := path == queryPath && !d.noStream.Load()
	pc := d.get(stream)
	for {
		reused := pc != nil
		if !reused {
			var err error
			if pc, err = d.connect(ctx, deadline); err != nil {
				return d.fail(ctx, method, path, deadline, err, true)
			}
		}
		var (
			replied bool
			err     error
		)
		if stream {
			replied, err = d.query(ctx, pc, payload, out, deadline)
		} else {
			replied, err = d.exchange(ctx, pc, method, path, payload, out, deadline)
		}
		switch {
		case err == errNoStream: // the query goes per request
			stream, pc = false, d.get(false)
		case err == nil || replied || !reused || ctx.Err() != nil || isTimeout(err):
			return err
		default:
			pc = nil
		}
	}
}

// exchange runs one request on pc, then pools or closes pc. replied reports
// whether any of the reply arrived.
func (d *direct) exchange(ctx context.Context, pc *conn, method, path string, payload []byte, out any, deadline time.Time) (replied bool, err error) {
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.abort)
	}
	b := exchangeBufPool.Get().(*exchangeBufs)
	b.br.Reset(pc)
	err = pc.SetDeadline(deadline)
	if err == nil {
		err = d.send(pc, b, method, path, payload)
	}
	if err == nil {
		_, err = b.br.Peek(1)
	}
	replied = err == nil
	transport := !replied
	reusable := false
	if replied {
		var resp *http.Response
		if resp, err = http.ReadResponse(b.br, nil); err != nil {
			transport = true
		} else {
			b.body = replyBody{r: resp.Body}
			resp.Body = &b.body
			err = decodeResponse(resp, out)
			// A reply read to its end — a 429 or 504 as much as a 200 —
			// leaves the connection at the start of the next one.
			reusable = b.body.eof && !resp.Close && b.br.Buffered() == 0
		}
	}
	b.br.Reset(nil)
	b.body = replyBody{}
	exchangeBufPool.Put(b)
	switch {
	case !stop():
		// ctx is done, and its AfterFunc has closed pc or is closing it.
	case reusable:
		d.put(pc)
	default:
		pc.Close()
	}
	if err != nil {
		err = d.fail(ctx, method, path, deadline, err, transport)
	}
	return replied, err
}

// send writes the request line, the fixed headers and payload in one Write.
func (d *direct) send(pc *conn, b *exchangeBufs, method, path string, payload []byte) error {
	w := append(b.wbuf[:0], method...)
	w = append(w, ' ')
	w = append(w, d.prefix...)
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, d.host...)
	if payload != nil {
		w = append(w, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		w = strconv.AppendInt(w, int64(len(payload)), 10)
	}
	w = append(w, "\r\n\r\n"...)
	w = append(w, payload...)
	_, err := pc.Write(w)
	if cap(w) <= maxPooledWrite {
		b.wbuf = w
	}
	return err
}

// get takes the most recently used idle stream when stream is set, else —
// or when there is none — the most recently used idle connection, or
// returns nil.
func (d *direct) get(stream bool) *conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if stream {
		if pc := pop(&d.streams); pc != nil {
			return pc
		}
	}
	return pop(&d.conns)
}

func pop(pool *[]*conn) *conn {
	n := len(*pool)
	if n == 0 {
		return nil
	}
	pc := (*pool)[n-1]
	(*pool)[n-1] = nil
	*pool = (*pool)[:n-1]
	return pc
}

// put pools pc, or closes it when maxIdleConnsPerHost are idle already. A
// stream idles for streamIdle, a connection for the transport's timeout.
func (d *direct) put(pc *conn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pool, idle := &d.conns, d.idle
	if pc.frames != nil {
		pool, idle = &d.streams, streamIdle
	}
	if len(*pool) >= maxIdleConnsPerHost {
		pc.Close()
		return
	}
	*pool = append(*pool, pc)
	if idle <= 0 {
		return
	}
	pc.idleAt = time.Now()
	if pc.timer == nil {
		pc.timer = time.AfterFunc(idle, func() { d.expire(pc) })
	} else {
		pc.timer.Reset(idle)
	}
}

// expire ends pc's stream, pooling the connection, or closes pc, if it has
// idled for the whole timeout. A timer that fired while pc was out of the
// pool finds it in use, or back with a later idleAt and its timer re-armed,
// and leaves it alone.
func (d *direct) expire(pc *conn) {
	d.mu.Lock()
	pool, idle := &d.conns, d.idle
	i := slices.Index(d.conns, pc)
	if i < 0 {
		pool, idle = &d.streams, streamIdle
		i = slices.Index(d.streams, pc)
	}
	if i < 0 || time.Since(pc.idleAt) < idle {
		d.mu.Unlock()
		return
	}
	*pool = slices.Delete(*pool, i, i+1)
	d.mu.Unlock()
	if pc.frames != nil && finish(pc) {
		d.put(pc)
		return
	}
	pc.Close()
}

func (d *direct) connect(ctx context.Context, deadline time.Time) (*conn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	nc, err := d.dial(ctx, "tcp", d.addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc, abort: func() { nc.Close() }}, nil
}

// fail returns the error the caller sees for err: ctx's error when ctx is
// done or the connection deadline that expired was ctx's, else err. Either is
// wrapped in a *url.Error when it is a transport failure, as net/http's
// Client wraps it, so the two paths' error text and retry classification
// agree.
func (d *direct) fail(ctx context.Context, method, path string, deadline time.Time, err error, transport bool) error {
	if cerr := ctx.Err(); cerr != nil {
		err, transport = cerr, true
	} else if dl, ok := ctx.Deadline(); ok && dl.Equal(deadline) && isTimeout(err) {
		err, transport = context.DeadlineExceeded, true
	}
	if !transport {
		return err
	}
	return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: "http://" + d.host + d.prefix + path, Err: err}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

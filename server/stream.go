package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The query stream: POST /v1/query/stream is one HTTP/1.1 request held open
// in full duplex. Its chunked body carries request frames, "<length>\n" and
// that many bytes of a /v1/query request body; its chunked reply carries one
// frame per request, in order, "<status> <length>[ <retry-after>]\n" and
// exactly the body /v1/query answers. A caller sending query after query
// pays one frame write and read each, not net/http's request parse, header
// map and per-request goroutine. DESIGN.md §7 "Query stream".

const streamPath = "/v1/query/stream"

// maxStreamIdle bounds the wait for a next frame when the http.Server sets
// neither IdleTimeout nor ReadTimeout.
const maxStreamIdle = time.Minute

// aLongTimeAgo is a read deadline that ends a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

var streamContentType = []string{"application/x-prq-frames"}

var errBadFrame = errors.New("server: malformed query-stream frame")

// stream is one open query stream. Its reader goroutine reads frames, each
// in a buffer from bodyBufs, and hands them to the handler, which answers
// each in turn.
type stream struct {
	rc     *http.ResponseController
	br     *bufio.Reader
	frames chan *[]byte
	ctx    context.Context // the parent of every frame's query context
	cancel context.CancelFunc
	stop   atomic.Bool // read no further frame
	begun  atomic.Bool // the first frame was read
	head   []byte
	body   io.LimitedReader // the frame being read, without an allocation

	idle, readTimeout, writeTimeout time.Duration
}

// handleStream serves POST /v1/query/stream until the client ends the body,
// goes away or idles out, or the http.Server shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		fail(w, http.StatusNotImplemented, "query stream: %v", err)
		return
	}
	st := &stream{rc: rc, br: bufio.NewReader(r.Body), frames: make(chan *[]byte), idle: maxStreamIdle}
	hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if hs != nil {
		st.readTimeout, st.writeTimeout = hs.ReadTimeout, hs.WriteTimeout
		if hs.IdleTimeout > 0 {
			st.idle = hs.IdleTimeout
		} else if hs.ReadTimeout > 0 {
			st.idle = hs.ReadTimeout
		}
	}
	// net/http cancels the request's context on any failed read, a deadline
	// included; only the reader decides that the client has gone.
	st.ctx, st.cancel = context.WithCancel(context.WithoutCancel(r.Context()))
	defer st.cancel()
	defer s.track(hs, st)()

	w.Header()["Content-Type"] = streamContentType
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}
	go st.read()
	for fp := range st.frames {
		t0 := time.Now()
		bp := bodyBufs.Get().(*[]byte)
		status, reply := s.query(st.ctx, *fp, (*bp)[:0])
		putBodyBuf(fp, *fp)
		err := st.reply(w, status, reply)
		putBodyBuf(bp, reply)
		// Recorded before the flush, as net/http flushes a /v1/query reply
		// only after it is recorded: a client holding its reply sees it
		// counted.
		s.met.observe("/v1/query", status, time.Since(t0))
		if err == nil {
			err = rc.Flush()
		}
		if err != nil { // the client is gone: stop the reader before returning
			st.end()
			for fp := range st.frames {
				putBodyBuf(fp, *fp)
			}
		}
	}
}

// reply writes one reply frame, unflushed.
func (st *stream) reply(w http.ResponseWriter, status int, body []byte) error {
	h := strconv.AppendInt(st.head[:0], int64(status), 10)
	h = strconv.AppendInt(append(h, ' '), int64(len(body)), 10)
	if status == statusTooManyRequests {
		h = append(append(h, ' '), retryAfter[0]...)
	}
	st.head = append(h, '\n')
	if st.writeTimeout > 0 {
		st.rc.SetWriteDeadline(time.Now().Add(st.writeTimeout))
	}
	_, err := w.Write(st.head)
	if err == nil {
		_, err = w.Write(body)
	}
	return err
}

// read hands the body's frames to the handler until the body ends, a read
// fails or a frame is malformed, then closes st.frames. Only a failure that
// is neither a deadline nor a malformed frame — the client went away —
// cancels the query in flight. A failed SetReadDeadline needs no check: the
// connection is gone, and the read after it fails.
func (st *stream) read() {
	defer close(st.frames)
	for {
		st.rc.SetReadDeadline(time.Now().Add(st.idle))
		if st.stop.Load() && st.begun.Load() {
			st.rc.SetReadDeadline(aLongTimeAgo) // as below
			return
		}
		var fp *[]byte
		n, err := st.frameLen()
		if err == nil {
			if st.readTimeout > 0 {
				st.rc.SetReadDeadline(time.Now().Add(st.readTimeout))
			}
			fp = bodyBufs.Get().(*[]byte)
			err = st.frameBody(fp, n)
		}
		if err != nil {
			if fp != nil {
				putBodyBuf(fp, *fp)
			}
			var ne net.Error
			if err != io.EOF && err != errBadFrame && !(errors.As(err, &ne) && ne.Timeout()) {
				st.cancel()
			}
			if err != io.EOF {
				// The body is not at its end, so the connection serves no
				// further request: net/http gives up on the rest at once.
				st.rc.SetReadDeadline(aLongTimeAgo)
			}
			return
		}
		st.begun.Store(true)
		st.frames <- fp
	}
}

// frameLen reads a request frame's length line: 1 to 9 digits, at most
// maxRequestBytes. io.EOF means the body ended cleanly, between frames.
func (st *stream) frameLen() (int, error) {
	line, err := st.br.ReadSlice('\n')
	switch {
	case err == io.EOF && len(line) > 0:
		return 0, io.ErrUnexpectedEOF
	case err == bufio.ErrBufferFull:
		return 0, errBadFrame
	case err != nil:
		return 0, err
	}
	digits, n := line[:len(line)-1], 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, errBadFrame
		}
		n = n*10 + int(c-'0')
	}
	if len(digits) == 0 || len(digits) > 9 || n > maxRequestBytes {
		return 0, errBadFrame
	}
	return n, nil
}

// frameBody reads a request frame's n bytes into *fp. Like a /v1/query body
// it is sized up front to at most maxPresize and grows as it arrives, so a
// length line cannot reserve more than the peer goes on to send.
func (st *stream) frameBody(fp *[]byte, n int) error {
	st.body = io.LimitedReader{R: st.br, N: int64(n)}
	var err error
	*fp, err = readBody(*fp, &st.body, int64(n))
	if err == nil && len(*fp) < n {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// end stops the reader: it reads no further frame, and a read it is blocked
// on fails at once as a deadline, which cancels nothing. The first frame is
// exempt: a client opens a stream only to send one at once, as it would send
// a request, so a stream opened as its server shuts down still answers it.
func (st *stream) end() {
	st.stop.Store(true)
	if st.begun.Load() {
		st.rc.SetReadDeadline(aLongTimeAgo)
	}
}

// track registers st until untrack, and has hs's Shutdown end it: Shutdown
// waits for active requests, and an open stream is one. One hook per
// http.Server ends every stream open on it.
func (s *Server) track(hs *http.Server, st *stream) (untrack func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams == nil {
		s.streams, s.down = make(map[*stream]*http.Server), make(map[*http.Server]bool)
	}
	if _, hooked := s.down[hs]; !hooked && hs != nil {
		s.down[hs] = false
		hs.RegisterOnShutdown(func() { s.shutdown(hs) })
	}
	if s.down[hs] {
		st.end()
	}
	s.streams[st] = hs
	return func() {
		s.mu.Lock()
		delete(s.streams, st)
		s.mu.Unlock()
	}
}

func (s *Server) shutdown(hs *http.Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[hs] = true
	for st, on := range s.streams {
		if on == hs {
			st.end()
		}
	}
}

package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"
)

// A query goes as one frame on a query stream (server/stream.go): one
// POST /v1/query/stream held open per connection. A request frame is
// "<length>\n<body>", one chunk of the request body; a reply frame is
// "<status> <length>[ <retry-after>]\n<body>", its body exactly what
// /v1/query answers.

const (
	queryPath  = "/v1/query"
	streamPath = "/v1/query/stream"

	// streamIdle is how long a pooled stream idles before the client ends
	// it, keeping the connection: a graceful close of the server waits for
	// active requests, and an open stream is one. It also bounds the wait
	// for a new stream's head (open).
	streamIdle = 100 * time.Millisecond
)

// lastChunk ends a stream's body.
var lastChunk = []byte("0\r\n\r\n")

var (
	// errNoStream is open's refusal: the query goes per request.
	errNoStream = errors.New("client: the server does not serve query streams")
	errBadFrame = errors.New("client: malformed query-stream reply")
)

// query sends payload as a frame on pc's stream, opening one first when pc
// has none, and decodes the reply frame into out; then it pools or closes
// pc. replied reports whether any of the reply frame arrived.
func (d *direct) query(ctx context.Context, pc *conn, payload []byte, out any, deadline time.Time) (replied bool, err error) {
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, pc.abort)
	}
	reusable, transport := false, true
	err = pc.SetDeadline(deadline)
	if err == nil && pc.frames == nil {
		err = d.open(pc, deadline)
	}
	if err == nil {
		b := exchangeBufPool.Get().(*exchangeBufs)
		var (
			status, n  int
			retryAfter string
		)
		if err = sendFrame(pc, b, payload); err == nil {
			status, n, retryAfter, replied, err = readHead(pc.frames)
		}
		switch {
		case err != nil:
		case n > maxResponseBytes:
			transport, err = false, errResponseTooLarge
		default:
			transport = false
			b.frame = slices.Grow(b.frame[:0], n)[:n]
			if _, err = io.ReadFull(pc.frames, b.frame); err != nil {
				err = fmt.Errorf("client: reading response: %w", err)
				break
			}
			err = decodeReply(status, b.frame, retryAfter, out)
			// A reply frame read to its end — a 429 or 504 as much as a
			// 200 — leaves the stream at the start of the next one.
			reusable = true
		}
		if cap(b.frame) > maxPooledWrite {
			b.frame = nil
		}
		exchangeBufPool.Put(b)
	}
	switch {
	case !stop():
		// ctx is done, and its AfterFunc has closed pc or is closing it.
	case reusable:
		d.put(pc)
	default:
		pc.Close()
	}
	if err != nil && err != errNoStream {
		err = d.fail(ctx, http.MethodPost, queryPath, deadline, err, transport)
	}
	return replied, err
}

// open starts a query stream on pc: it sends the request's head and reads
// the reply's. A server without the stream may answer only once the body has
// ended — net/http reads a refused request's body to its end first — so when
// no head has come after streamIdle (or half the time left, if less) the
// client ends the body and waits for the answer until the deadline. An answer
// that is not a chunked 200 puts d on per-request queries for good. A chunked
// 200 that came only once the body had ended is a server that does stream
// but stalled: this one query goes per request, and the next tries a stream
// again. Either way open returns errNoStream, and pc is not reused.
func (d *direct) open(pc *conn, deadline time.Time) error {
	br := bufio.NewReader(pc)
	head := "POST " + d.prefix + streamPath + " HTTP/1.1\r\nHost: " + d.host +
		"\r\nContent-Type: application/x-prq-frames\r\nTransfer-Encoding: chunked\r\n\r\n"
	wait := streamIdle
	if !deadline.IsZero() {
		wait = min(wait, time.Until(deadline)/2)
	}
	err := pc.SetReadDeadline(time.Now().Add(wait))
	if err == nil {
		_, err = io.WriteString(pc, head)
	}
	if err == nil {
		_, err = br.Peek(1)
	}
	ended := isTimeout(err)
	if ended {
		if err = pc.SetReadDeadline(deadline); err == nil {
			_, err = pc.Write(lastChunk)
		}
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(br, nil)
	}
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK || !slices.Equal(resp.TransferEncoding, []string{"chunked"}):
		d.noStream.Store(true)
		return errNoStream
	case ended:
		return errNoStream
	}
	pc.br, pc.frames = br, bufio.NewReader(resp.Body)
	return pc.SetReadDeadline(deadline)
}

// sendFrame writes payload as one request frame, in one chunk and one Write.
func sendFrame(pc *conn, b *exchangeBufs, payload []byte) error {
	digits := 1
	for n := len(payload); n >= 10; n /= 10 {
		digits++
	}
	w := strconv.AppendInt(b.wbuf[:0], int64(digits+1+len(payload)), 16)
	w = append(w, "\r\n"...)
	w = strconv.AppendInt(w, int64(len(payload)), 10)
	w = append(w, '\n')
	w = append(w, payload...)
	w = append(w, "\r\n"...)
	_, err := pc.Write(w)
	if cap(w) <= maxPooledWrite {
		b.wbuf = w
	}
	return err
}

// readHead reads a reply frame's head. replied reports whether any of it
// arrived: the stream's end, or the connection's, before it is no reply.
func readHead(frames *bufio.Reader) (status, n int, retryAfter string, replied bool, err error) {
	line, err := frames.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = errBadFrame
		}
		return 0, 0, "", len(line) > 0, err
	}
	st, rest, _ := bytes.Cut(line[:len(line)-1], []byte{' '})
	length, ra, hasRA := bytes.Cut(rest, []byte{' '})
	status, ok := atoi(st)
	n, ok2 := atoi(length)
	if !ok || !ok2 || len(st) != 3 {
		return 0, 0, "", true, errBadFrame
	}
	if hasRA {
		retryAfter = string(ra)
	}
	return status, n, retryAfter, true, nil
}

// atoi parses 1 to 9 decimal digits.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// finish ends pc's idle stream and reads the reply's end, which leaves pc a
// plain keep-alive connection; false means pc is not fit for reuse. It runs
// on pc's timer, so it can wait a second for a loaded server.
func finish(pc *conn) bool {
	err := pc.SetDeadline(time.Now().Add(time.Second))
	if err == nil {
		_, err = pc.Write(lastChunk)
	}
	if err == nil {
		_, err = pc.frames.ReadByte()
	}
	ok := err == io.EOF && pc.br.Buffered() == 0
	pc.br, pc.frames = nil, nil
	return ok
}

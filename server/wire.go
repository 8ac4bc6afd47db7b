package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// The wire path. A /v1/query reply is ~200 integers in a fixed frame; moving
// it through encoding/json's reflection cost more CPU than computing it.
// QueryResponse (and BatchResponse, an array of them) and QueryRequest are
// therefore encoded by straight-line append code, and QueryResponse and
// QueryRequest are decoded by a single-pass parser. A client that asks for
// ids_format "dv1" gets its ids as one IDBlock string instead of the decimal
// array (idblock.go), which both halves write and read without a buffer of
// their own. Two contracts keep this invisible:
//
//   - AppendJSON's output is byte-identical to json.Marshal's (field order,
//     omitempty, IDBlock.MarshalJSON), so the JSON API stays the one wire
//     format.
//   - Unmarshal accepts exactly json.Unmarshal's language with exactly its
//     results and errors: the parser handles only the canonical grammar —
//     known, unescaped, non-repeated keys; integers where integers belong;
//     null only for the two id fields; a well-formed block — and anything
//     else is handed to json.Unmarshal on the same bytes.

// AppendJSON appends the JSON encoding of v to dst, byte for byte what
// json.Marshal(v) returns. QueryResponse, BatchResponse and QueryRequest (by
// value or pointer) are encoded without reflection; every other type goes
// through json.Marshal, and so does a QueryRequest holding a NaN, an infinity
// or a string json.Marshal would escape, so that it fails or escapes alike.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case QueryRequest:
		if b, ok := appendQueryRequest(dst, &v); ok {
			return b, nil
		}
	case *QueryRequest:
		if v != nil {
			if b, ok := appendQueryRequest(dst, v); ok {
				return b, nil
			}
		}
	case QueryResponse:
		return appendQueryResponse(dst, &v), nil
	case *QueryResponse:
		if v != nil {
			return appendQueryResponse(dst, v), nil
		}
	case BatchResponse:
		return appendBatchResponse(dst, &v), nil
	case *BatchResponse:
		if v != nil {
			return appendBatchResponse(dst, v), nil
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// Unmarshal decodes data into v with json.Unmarshal's semantics. A
// *QueryRequest or *QueryResponse that is still its zero value is decoded by
// the single-pass parser when data is in the canonical grammar.
func Unmarshal(data []byte, v any) error {
	switch v := v.(type) {
	case *QueryResponse:
		if v != nil && v.IDs == nil && v.IDsDV1 == nil && v.Routing == nil && v.Epoch == 0 && v.ReplicaEpoch == 0 && v.Stats == (QueryStats{}) {
			d := decoder{b: data}
			var r QueryResponse
			if d.queryResponse(&r) && d.end() {
				*v = r
				return nil
			}
		}
	case *QueryRequest:
		if v != nil && v.Center == nil && v.Cov == nil && v.TargetCov == nil &&
			v.Delta == 0 && v.Theta == 0 && v.Strategy == "" && v.TimeoutMS == 0 && !v.AllowPartial && v.IDsFormat == "" {
			d := decoder{b: data}
			var r QueryRequest
			if d.queryRequest(&r) && d.end() {
				*v = r
				return nil
			}
		}
	}
	return json.Unmarshal(data, v)
}

// bodyBufs recycles the buffers bodies are read into and replies are encoded
// into, on the server and in the client. Nothing is allocated until the first
// request needs it.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps a one-off large body (a batch) from pinning its buffer.
const maxPooledBuf = 64 << 10

func putBodyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
}

// ReadBody reads r to EOF into a recycled buffer. When the peer declared
// contentLength (≥ 0; pass -1 for unknown) the buffer is sized once up front,
// where io.ReadAll would grow by doubling. The caller must call release, once,
// when it no longer reads body — also after an error; bounding r is the
// caller's job.
func ReadBody(r io.Reader, contentLength int64) (body []byte, release func(), err error) {
	bp := bodyBufs.Get().(*[]byte)
	body, err = readBody(*bp, r, contentLength)
	return body, func() { putBodyBuf(bp, body) }, err
}

// maxPresize caps the allocation readBody makes on the strength of a declared
// length alone, so a header cannot reserve more than a peer goes on to send;
// a longer body grows from there as it arrives.
const maxPresize = 1 << 20

// readBody is ReadBody into dst[:0], which it replaces when too small.
func readBody(dst []byte, r io.Reader, contentLength int64) ([]byte, error) {
	dst = dst[:0]
	// One spare byte lets the final Read report EOF without a grow.
	if need := min(contentLength, maxPresize) + 1; int64(cap(dst)) < need {
		dst = make([]byte, 0, need)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ---- encoder ---------------------------------------------------------------

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendIntOpt is appendInt for an omitempty field.
func appendIntOpt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, int64(v))
}

func appendQueryResponse(b []byte, r *QueryResponse) []byte {
	b = append(b, `{"ids":`...)
	if r.IDs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range r.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, id, 10)
		}
		b = append(b, ']')
	}
	if len(r.IDsDV1) > 0 {
		b = appendIDBlock(append(b, `,"ids_dv1":`...), r.IDsDV1)
	}
	b = appendUint(b, `,"epoch":`, r.Epoch)
	b = appendQueryStats(append(b, `,"stats":`...), &r.Stats)
	if r.Routing != nil {
		b = appendRoutingInfo(append(b, `,"routing":`...), r.Routing)
	}
	if r.ReplicaEpoch != 0 {
		b = appendUint(b, `,"replica_epoch":`, r.ReplicaEpoch)
	}
	return append(b, '}')
}

func appendBatchResponse(b []byte, r *BatchResponse) []byte {
	b = append(b, `{"results":`...)
	if r.Results == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendQueryResponse(b, &r.Results[i])
	}
	return append(b, "]}"...)
}

func appendQueryStats(b []byte, s *QueryStats) []byte {
	b = appendInt(b, `{"retrieved":`, int64(s.Retrieved))
	b = appendInt(b, `,"pruned_fringe":`, int64(s.PrunedFringe))
	b = appendInt(b, `,"pruned_or":`, int64(s.PrunedOR))
	b = appendInt(b, `,"pruned_bf":`, int64(s.PrunedBF))
	b = appendInt(b, `,"accepted_bf":`, int64(s.AcceptedBF))
	b = appendInt(b, `,"integrations":`, int64(s.Integrations))
	b = appendInt(b, `,"nodes_read":`, int64(s.NodesRead))
	b = appendInt(b, `,"index_ns":`, s.IndexNS)
	b = appendInt(b, `,"filter_ns":`, s.FilterNS)
	b = appendInt(b, `,"prob_ns":`, s.ProbNS)
	b = appendIntOpt(b, `,"nodes_read_packed":`, s.NodesReadPacked)
	b = appendIntOpt(b, `,"overlay_scanned":`, s.OverlayScanned)
	b = appendIntOpt(b, `,"f32_rechecks":`, s.F32Rechecks)
	return append(b, '}')
}

func appendRoutingInfo(b []byte, r *RoutingInfo) []byte {
	b = appendUint(b, `{"routing_epoch":`, r.RoutingEpoch)
	b = appendInt(b, `,"shards":`, int64(r.Shards))
	b = appendInt(b, `,"fanout":`, int64(r.Fanout))
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	for i, s := range r.FailedShards {
		key := `,`
		if i == 0 {
			key = `,"failed_shards":[`
		}
		b = appendInt(b, key, int64(s))
	}
	if len(r.FailedShards) > 0 {
		b = append(b, ']')
	}
	for i, e := range r.ShardEpochs {
		key := `,{"shard":`
		if i == 0 {
			key = `,"shard_epochs":[{"shard":`
		}
		b = appendInt(b, key, int64(e.Shard))
		b = appendUint(b, `,"epoch":`, e.Epoch)
		b = append(b, '}')
	}
	if len(r.ShardEpochs) > 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendQueryRequest encodes r as json.Marshal does. It reports false, having
// appended an unfinished text, when r holds what json.Marshal fails on or
// escapes.
func appendQueryRequest(b []byte, r *QueryRequest) ([]byte, bool) {
	ok := true
	b = appendFloats(append(b, `{"center":`...), r.Center, &ok)
	b = appendMatrix(append(b, `,"cov":`...), r.Cov, &ok)
	b = appendFloat(append(b, `,"delta":`...), r.Delta, &ok)
	b = appendFloat(append(b, `,"theta":`...), r.Theta, &ok)
	if r.Strategy != "" {
		b = appendString(append(b, `,"strategy":`...), r.Strategy, &ok)
	}
	if len(r.TargetCov) > 0 {
		b = appendMatrix(append(b, `,"target_cov":`...), r.TargetCov, &ok)
	}
	if r.TimeoutMS != 0 {
		b = appendInt(b, `,"timeout_ms":`, r.TimeoutMS)
	}
	if r.AllowPartial {
		b = append(b, `,"allow_partial":true`...)
	}
	if r.IDsFormat != "" {
		b = appendString(append(b, `,"ids_format":`...), r.IDsFormat, &ok)
	}
	return append(b, '}'), ok
}

// appendFloat is encoding/json's float64 format: the shortest round-trip
// digits, with an exponent (its leading zero dropped) below 1e-6 or from
// 1e21 on. A NaN or an infinity clears *ok.
func appendFloat(b []byte, f float64, ok *bool) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		*ok = false
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendFloats(b []byte, v []float64, ok *bool) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, f, ok)
	}
	return append(b, ']')
}

func appendMatrix(b []byte, m [][]float64, ok *bool) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, row := range m {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, row, ok)
	}
	return append(b, ']')
}

// appendString quotes s, which must be printable ASCII that json.Marshal
// does not escape (it escapes '"', '\', '<', '>' and '&'); anything else
// clears *ok.
func appendString(b []byte, s string, ok *bool) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			*ok = false
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// ---- decoder ---------------------------------------------------------------

// decoder is a cursor over one JSON text. Every method reports false on
// anything outside the canonical grammar; the caller then discards what was
// parsed and hands the whole text to encoding/json, so a method never has to
// produce an error or be right about *why* it stopped.
type decoder struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-space byte.
func (d *decoder) eat(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.i++
	return true
}

// end reports whether only whitespace remains.
func (d *decoder) end() bool { return d.peek() == 0 && d.i == len(d.b) }

// next advances to the next element of the array or member of the object
// closed by close; first is true right after the opening bracket. done means
// the closer was consumed.
func (d *decoder) next(first bool, close byte) (done, ok bool) {
	if d.eat(close) {
		return true, true
	}
	return false, first || d.eat(',')
}

// key is next for an object, also reading the member's name (the raw bytes
// between its quotes — an escaped name matches no field and so falls back)
// and the colon.
func (d *decoder) key(first bool) (name []byte, done, ok bool) {
	if done, ok = d.next(first, '}'); done || !ok {
		return nil, done, ok
	}
	if !d.eat('"') {
		return nil, false, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false, false
	}
	name = d.b[d.i : d.i+n]
	d.i += n + 1
	return name, false, d.eat(':')
}

// uint reads -?(0|[1-9][0-9]*) of at most 19 digits, returning the magnitude
// and sign. A fraction or exponent after it needs no check here: the caller
// wants a comma or a closer next, and falls back on anything else.
func (d *decoder) uint() (u uint64, neg, ok bool) {
	d.peek()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	n := i - start
	if n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		return 0, false, false
	}
	d.i = i
	return u, neg, true
}

func (d *decoder) int64(v *int64) bool {
	u, neg, ok := d.uint()
	switch {
	case !ok:
		return false
	case neg:
		*v = -int64(u)
		return u <= 1<<63
	default:
		*v = int64(u)
		return u <= math.MaxInt64
	}
}

func (d *decoder) int(v *int) bool {
	var w int64
	ok := d.int64(&w)
	*v = int(w)
	return ok && int64(*v) == w
}

func (d *decoder) uint64(v *uint64) bool {
	u, neg, ok := d.uint()
	*v = u
	return ok && !neg
}

func (d *decoder) bool(v *bool) bool {
	d.peek()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*v, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*v, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

// null consumes a null. Decoding it leaves a zero-valued destination as it
// is, so the caller has nothing to set.
func (d *decoder) null() bool {
	d.peek()
	if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		return false
	}
	d.i += 4
	return true
}

// idBlock reads a block string without escapes (an escaped one falls back to
// IDBlock.UnmarshalJSON) into *v.
func (d *decoder) idBlock(v *IDBlock) bool {
	if !d.eat('"') {
		return false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return false
	}
	ids, err := decodeIDBlock(d.b[d.i : d.i+n])
	*v, d.i = ids, d.i+n+1
	return err == nil
}

// digits returns the index just past the run of decimal digits starting at i.
func (d *decoder) digits(i int) int {
	for i < len(d.b) && d.b[i]-'0' <= 9 {
		i++
	}
	return i
}

// float64 scans one number of the JSON grammar and converts it with
// strconv.ParseFloat, as encoding/json does.
func (d *decoder) float64(v *float64) bool {
	d.peek()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := d.digits(i)
	if j == i || (b[i] == '0' && j > i+1) {
		return false
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = d.digits(i + 1); j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = d.digits(i); j == i {
			return false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	*v, d.i = f, i
	return err == nil
}

// string reads a string of printable ASCII; an escape, control character or
// non-ASCII byte falls back. The ids_format every typed client sends is
// returned as the constant, which costs no allocation.
func (d *decoder) string(v *string) bool {
	if !d.eat('"') {
		return false
	}
	for i := d.i; i < len(d.b); i++ {
		if c := d.b[i]; c == '"' {
			if s := d.b[d.i:i]; string(s) == IDsFormatDV1 {
				*v = IDsFormatDV1
			} else {
				*v = string(s)
			}
			d.i = i + 1
			return true
		} else if c < 0x20 || c >= 0x7f || c == '\\' {
			return false
		}
	}
	return false
}

// maxArrayPresize caps the capacity array reserves before it has parsed a
// single element: the comma count it goes by comes from bytes nothing has
// validated yet, and a body of bare commas must not reserve memory no
// well-formed body would use. A longer array grows from there by append.
const maxArrayPresize = 4096

// array reads a JSON array into *v, one element at a time with elem. The
// slice is sized up front (to at most maxArrayPresize) from the commas before
// the next ']': the element count of a flat array, a hint for a nested one.
func array[T any](d *decoder, v *[]T, elem func(*decoder, *T) bool) bool {
	if !d.eat('[') {
		return false
	}
	hint := 0
	if n := bytes.IndexByte(d.b[d.i:], ']'); n >= 0 {
		hint = min(bytes.Count(d.b[d.i:d.i+n], []byte(","))+1, maxArrayPresize)
	}
	out := make([]T, 0, hint)
	for first := true; ; first = false {
		done, ok := d.next(first, ']')
		if done || !ok {
			*v = out
			return ok
		}
		// Parsed in place: a local would escape through elem, an allocation
		// per element.
		var zero T
		out = append(out, zero)
		if !elem(d, &out[len(out)-1]) {
			return false
		}
	}
}

func (d *decoder) float64s(v *[]float64) bool { return array(d, v, (*decoder).float64) }

// object reads a JSON object, calling field with each member's name once the
// colon is consumed. field reads the value and returns the member's index
// among the struct's fields; a second member with the same index ends the
// parse — a repeated key is legal JSON with merge semantics only
// encoding/json knows.
func (d *decoder) object(field func(name []byte) (index uint, ok bool)) bool {
	if !d.eat('{') {
		return false
	}
	var seen uint32
	for first := true; ; first = false {
		name, done, ok := d.key(first)
		if done || !ok {
			return ok
		}
		index, ok := field(name)
		if !ok || seen&(1<<index) != 0 {
			return false
		}
		seen |= 1 << index
	}
}

func (d *decoder) queryResponse(r *QueryResponse) bool {
	return d.object(func(name []byte) (uint, bool) {
		switch string(name) {
		case "ids":
			return 0, d.null() || array(d, &r.IDs, (*decoder).int64)
		case "ids_dv1":
			return 5, d.null() || d.idBlock(&r.IDsDV1)
		case "epoch":
			return 1, d.uint64(&r.Epoch)
		case "stats":
			return 2, d.queryStats(&r.Stats)
		case "routing":
			r.Routing = new(RoutingInfo)
			return 3, d.routingInfo(r.Routing)
		case "replica_epoch":
			return 4, d.uint64(&r.ReplicaEpoch)
		}
		return 0, false
	})
}

func (d *decoder) queryStats(s *QueryStats) bool {
	return d.object(func(name []byte) (uint, bool) {
		var (
			bit uint
			n   *int
		)
		switch string(name) {
		case "retrieved":
			bit, n = 0, &s.Retrieved
		case "pruned_fringe":
			bit, n = 1, &s.PrunedFringe
		case "pruned_or":
			bit, n = 2, &s.PrunedOR
		case "pruned_bf":
			bit, n = 3, &s.PrunedBF
		case "accepted_bf":
			bit, n = 4, &s.AcceptedBF
		case "integrations":
			bit, n = 5, &s.Integrations
		case "nodes_read":
			bit, n = 6, &s.NodesRead
		case "nodes_read_packed":
			bit, n = 7, &s.NodesReadPacked
		case "overlay_scanned":
			bit, n = 8, &s.OverlayScanned
		case "f32_rechecks":
			bit, n = 9, &s.F32Rechecks
		case "index_ns":
			return 10, d.int64(&s.IndexNS)
		case "filter_ns":
			return 11, d.int64(&s.FilterNS)
		case "prob_ns":
			return 12, d.int64(&s.ProbNS)
		default:
			return 0, false
		}
		return bit, d.int(n)
	})
}

func (d *decoder) routingInfo(r *RoutingInfo) bool {
	return d.object(func(name []byte) (uint, bool) {
		switch string(name) {
		case "routing_epoch":
			return 0, d.uint64(&r.RoutingEpoch)
		case "shards":
			return 1, d.int(&r.Shards)
		case "fanout":
			return 2, d.int(&r.Fanout)
		case "partial":
			return 3, d.bool(&r.Partial)
		case "failed_shards":
			return 4, array(d, &r.FailedShards, (*decoder).int)
		case "shard_epochs":
			return 5, array(d, &r.ShardEpochs, (*decoder).shardEpoch)
		}
		return 0, false
	})
}

func (d *decoder) shardEpoch(e *ShardEpoch) bool {
	return d.object(func(name []byte) (uint, bool) {
		switch string(name) {
		case "shard":
			return 0, d.int(&e.Shard)
		case "epoch":
			return 1, d.uint64(&e.Epoch)
		}
		return 0, false
	})
}

func (d *decoder) queryRequest(r *QueryRequest) bool {
	return d.object(func(name []byte) (uint, bool) {
		switch string(name) {
		case "center":
			return 0, d.float64s(&r.Center)
		case "cov":
			return 1, array(d, &r.Cov, (*decoder).float64s)
		case "delta":
			return 2, d.float64(&r.Delta)
		case "theta":
			return 3, d.float64(&r.Theta)
		case "strategy":
			return 4, d.string(&r.Strategy)
		case "target_cov":
			return 5, array(d, &r.TargetCov, (*decoder).float64s)
		case "timeout_ms":
			return 6, d.int64(&r.TimeoutMS)
		case "allow_partial":
			return 7, d.bool(&r.AllowPartial)
		case "ids_format":
			return 8, d.string(&r.IDsFormat)
		}
		return 0, false
	})
}

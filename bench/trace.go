package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one call into a layer. The rungs replay the same requests through
// successively deeper entry points, so a span's parent is the same request's
// span one rung up — the call that would have caused it in a live request —
// not a span that encloses it in time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no layer above
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanParents is the ladder: which layer calls which.
var spanParents = map[string]string{
	"client.query":    "shard.query",
	"server.handler":  "client.query",
	"db.query":        "server.handler",
	"core.execute":    "db.query",
	"db.apply_wal":    "client.insert",
	"db.apply_mem":    "db.apply_wal",
	"wal.append_sync": "db.apply_wal",
}

type spanKey struct {
	name string
	req  int
}

// tracer keeps spans in memory; nothing is written until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
	byKey map[spanKey]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byKey: make(map[spanKey]int)} }

func (t *tracer) record(name string, req int, start, end time.Time) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.byKey[spanKey{name, req}] = id
}

// link resolves parents once every rung has run: the write ladder rotates its
// starting rung, so a child is often recorded before its parent.
func (t *tracer) link() {
	for i := range t.spans {
		s := &t.spans[i]
		if parent, ok := spanParents[s.Name]; ok {
			s.Parent = t.byKey[spanKey{parent, s.Req}]
		}
	}
}

// selfTimes returns, per span id, the span's duration minus its children's.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsUS returns the durations of the spans called name, in µs.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, micros(s.dur()))
		}
	}
	return out
}

// selfUS returns the self times of the spans called name that have every
// child the ladder gives them, in µs.
func selfUS(spans []span, name string) []float64 {
	self := selfTimes(spans)
	wantKids := 0
	for _, parent := range spanParents {
		if parent == name {
			wantKids++
		}
	}
	kids := make(map[int]int)
	for _, s := range spans {
		kids[s.Parent]++
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && kids[s.ID] == wantKids {
			out = append(out, micros(self[s.ID]))
		}
	}
	return out
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

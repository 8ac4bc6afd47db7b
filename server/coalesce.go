package server

import (
	"context"
	"errors"
	"sync"

	"gaussrange"
)

// errOverloaded rejects a coalesced request whose group leader could not
// claim an admission slot.
var errOverloaded = errors.New("server overloaded")

// coalescer merges concurrent /v1/query requests that share a compiled-plan
// fingerprint and storage epoch into one batched execution. The first
// request to arrive for a (fingerprint, epoch) key becomes the group leader:
// it claims ONE admission slot, runs the group through db.QueryBatch — which
// under the shared-batch kernel sweeps the common sample cloud once for all
// centers — and fans each member's Result back to its own handler. Requests
// arriving while the leader executes enqueue on the group and are drained as
// the next generation under the same slot, so a burst of same-shape queries
// costs one admission slot and one cloud sweep per generation instead of one
// of each per request.
//
// Followers never touch the admission semaphore and wait on their own
// request context, so a follower's disconnect or deadline abandons only its
// reply, never the group. The group executes under a fresh context bounded
// by the server's default timeout — detached from the leader's request so a
// leader disconnect cannot cancel its groupmates' work.
type coalescer struct {
	s  *Server
	mu sync.Mutex
	// groups holds the open group per key; a group stays registered while
	// its leader drains generations and leaves the map when the leader
	// finds no pending calls (or aborts on admission rejection).
	groups map[coalesceKey]*coalesceGroup
}

// coalesceKey scopes a group: queries batch only when they rebind the same
// compiled plan (fingerprint) against the same storage epoch, so a mutation
// between arrivals starts a new group rather than mixing epochs.
type coalesceKey struct {
	fp    string
	epoch uint64
}

type coalesceGroup struct {
	pending []*coalesceCall
}

// coalesceCall is one request's seat in a group. done is buffered so the
// leader's fan-out never blocks on an abandoned follower.
type coalesceCall struct {
	spec gaussrange.QuerySpec
	done chan coalesceReply
}

type coalesceReply struct {
	res *gaussrange.Result
	err error
}

func newCoalescer(s *Server) *coalescer {
	return &coalescer{s: s, groups: make(map[coalesceKey]*coalesceGroup)}
}

// do answers one /v1/query request through the coalescer. ctx is the
// caller's wait context (request context plus its timeout); the group's
// execution context is derived separately.
func (c *coalescer) do(ctx context.Context, spec gaussrange.QuerySpec) (*gaussrange.Result, error) {
	fp, err := c.s.db.PlanFingerprint(spec)
	if err != nil {
		return nil, err
	}
	key := coalesceKey{fp: fp, epoch: c.s.db.Epoch()}
	call := &coalesceCall{spec: spec, done: make(chan coalesceReply, 1)}

	c.mu.Lock()
	if g, ok := c.groups[key]; ok {
		// Follower: join the open group and wait for the leader's fan-out.
		g.pending = append(g.pending, call)
		c.mu.Unlock()
		select {
		case rep := <-call.done:
			return rep.res, rep.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	g := &coalesceGroup{}
	c.groups[key] = g
	c.mu.Unlock()

	// Leader: one admission slot covers the whole group, generation after
	// generation.
	if !c.s.adm.tryAcquire() {
		c.abort(key, g)
		return nil, errOverloaded
	}
	defer c.s.adm.release()

	gctx, cancel := QueryContext(context.Background(), 0, c.s.cfg.DefaultTimeout)
	defer cancel()
	if c.s.preQuery != nil {
		c.s.preQuery(gctx)
	}

	first := true
	for {
		c.mu.Lock()
		calls := g.pending
		g.pending = nil
		if !first && len(calls) == 0 {
			delete(c.groups, key)
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		if first {
			calls = append([]*coalesceCall{call}, calls...)
			first = false
		}
		c.run(gctx, calls)
	}
	rep := <-call.done
	return rep.res, rep.err
}

// run executes one generation and fans results back. A batch-wide error
// falls back to per-call execution so one malformed spec cannot fail its
// groupmates.
func (c *coalescer) run(ctx context.Context, calls []*coalesceCall) {
	specs := make([]gaussrange.QuerySpec, len(calls))
	for i, cl := range calls {
		specs[i] = cl.spec
	}
	results, err := c.s.db.QueryBatch(ctx, specs, c.s.cfg.BatchWorkers)
	if err == nil {
		for i, cl := range calls {
			cl.done <- coalesceReply{res: results[i]}
		}
		return
	}
	for _, cl := range calls {
		res, cerr := c.s.db.QueryCtx(ctx, cl.spec)
		cl.done <- coalesceReply{res: res, err: cerr}
	}
}

// abort deregisters a group whose leader was rejected by admission, failing
// every already-enqueued follower the same way.
func (c *coalescer) abort(key coalesceKey, g *coalesceGroup) {
	c.mu.Lock()
	pending := g.pending
	g.pending = nil
	delete(c.groups, key)
	c.mu.Unlock()
	for _, cl := range pending {
		cl.done <- coalesceReply{err: errOverloaded}
	}
}

// waiting reports the number of enqueued followers across open groups — a
// test observation point.
func (c *coalescer) waiting() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups {
		n += len(g.pending)
	}
	return n
}

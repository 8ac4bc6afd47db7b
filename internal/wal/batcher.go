package wal

import (
	"fmt"
	"sync"
	"time"
)

// BatcherConfig bounds a commit group.
type BatcherConfig struct {
	// Dim is the database dimensionality, used to estimate each
	// submission's encoded size. Required.
	Dim int
	// MaxBytes closes a group once its estimated encoded size crosses this
	// (default 4 MiB). Memory bound.
	MaxBytes int64
}

// DefaultMaxBytes is the default group-size flush threshold.
const DefaultMaxBytes = 4 << 20

// ErrBatcherClosed is returned by Submit after Close has begun.
var ErrBatcherClosed = fmt.Errorf("wal: batcher closed")

// Submission is one caller's mutation batch riding a commit group. The
// caller fills the mutation fields; the flush function fills Epoch and Err;
// Submit returns once the group's durability point has passed.
type Submission struct {
	Inserts   [][]float64
	InsertIDs []int64 // explicit ids (router path), or nil for sequential
	Deletes   []int64

	// Results, owned by the flush function. The flusher overwrites InsertIDs
	// with the identifiers it actually assigned (sequential submissions get
	// them filled in).
	Epoch   uint64 // epoch whose snapshot contains this submission (0 if Err)
	Deleted []bool // per-delete liveness report, aligned with Deletes
	Err     error  // per-submission failure (validation); others still commit

	bytes int64
	enq   time.Time
	done  chan struct{}
}

// BatcherStats summarises pipeline activity since the batcher started.
type BatcherStats struct {
	Groups      uint64      // flushed commit groups (≤ one fsync each)
	Submissions uint64      // submissions flushed
	MaxGroup    int         // largest group flushed
	QueueNanos  int64       // total per-item wait from Submit to flush start
	FlushNanos  int64       // total per-item wait from flush start to ack
	Pending     int         // submissions not yet acknowledged: in the running flush or queued behind it
	ClosedBy    GroupCloses // why groups closed
	MaxBytes    int64       // configured group byte bound
}

// GroupCloses counts why commit groups closed.
type GroupCloses struct {
	Empty uint64 // the flusher had taken every queued submission
	Bytes uint64 // the group hit MaxBytes
	Drain uint64 // Close had begun, and the group took the last queued submissions
}

// Batcher hands concurrent mutation submissions to a flush function in
// groups — the DB layer's flush stages one combined snapshot, appends ONE log
// record, fsyncs ONCE, then publishes. Callers block in Submit until their
// group's flush returns, i.e. until their mutation is durable. A group is
// every submission that queued while the previous flush ran (up to MaxBytes),
// so a lone writer waits for its own fsync only and, under load, groups grow
// with the fsync time; no timer sizes them.
type Batcher struct {
	cfg   BatcherConfig
	codec Codec
	flush func([]*Submission)
	ch    chan *Submission

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	statMu   sync.Mutex
	stats    BatcherStats
	flushing int // submissions in the running flush
}

// NewBatcher starts a batcher whose groups are flushed by fn. fn is called
// from a single goroutine, receives at least one submission per call, and
// must fill every submission's Epoch/Err before returning.
func NewBatcher(cfg BatcherConfig, fn func([]*Submission)) (*Batcher, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("wal: invalid batcher dimension %d", cfg.Dim)
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	b := &Batcher{
		cfg:   cfg,
		codec: Codec{Dim: cfg.Dim},
		flush: fn,
		ch:    make(chan *Submission, 256),
	}
	b.stats.MaxBytes = cfg.MaxBytes
	b.wg.Add(1)
	go b.run()
	return b, nil
}

// Submit enqueues one mutation batch and blocks until its commit group is
// durable (or its validation failed). It returns s.Err.
func (b *Batcher) Submit(s *Submission) error {
	s.bytes = b.codec.EncodedSize(len(s.Inserts), len(s.Deletes), true)
	s.enq = time.Now()
	s.done = make(chan struct{})
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return ErrBatcherClosed
	}
	b.ch <- s
	b.closeMu.RUnlock()
	<-s.done
	return s.Err
}

// Close drains every queued submission through a final flush and stops the
// batcher. Safe to call once; Submit calls racing Close either complete
// normally or return ErrBatcherClosed.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	if b.closed {
		b.closeMu.Unlock()
		return
	}
	b.closed = true
	close(b.ch)
	b.closeMu.Unlock()
	b.wg.Wait()
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatcherStats {
	b.statMu.Lock()
	defer b.statMu.Unlock()
	s := b.stats
	s.Pending = b.flushing + len(b.ch)
	return s
}

// run is the single flusher goroutine: block for one submission, take every
// submission already queued behind it up to MaxBytes, flush, repeat.
func (b *Batcher) run() {
	defer b.wg.Done()
	for {
		s, ok := <-b.ch
		if !ok {
			return
		}
		group, bytes := []*Submission{s}, s.bytes
		why := &b.stats.ClosedBy.Empty
	gather:
		for {
			if bytes >= b.cfg.MaxBytes {
				why = &b.stats.ClosedBy.Bytes
				break
			}
			select {
			case s, ok := <-b.ch:
				if !ok {
					why = &b.stats.ClosedBy.Drain
					break gather
				}
				group = append(group, s)
				bytes += s.bytes
			default:
				break gather
			}
		}
		b.flushGroup(group, why)
	}
}

// flushGroup hands one group to the flush function, counts it under why and
// acknowledges its submitters.
func (b *Batcher) flushGroup(group []*Submission, why *uint64) {
	start := time.Now()
	var queued int64
	for _, s := range group {
		queued += int64(start.Sub(s.enq))
	}
	b.statMu.Lock()
	b.flushing = len(group)
	b.statMu.Unlock()
	b.flush(group)
	elapsed := int64(time.Since(start))
	b.statMu.Lock()
	b.stats.Groups++
	b.stats.Submissions += uint64(len(group))
	b.stats.MaxGroup = max(b.stats.MaxGroup, len(group))
	b.stats.QueueNanos += queued
	b.stats.FlushNanos += elapsed * int64(len(group))
	*why++
	b.flushing = 0
	b.statMu.Unlock()
	// Woken only now, a writer that reads Stats after its Submit returned
	// sees its group counted.
	for _, s := range group {
		close(s.done)
	}
}

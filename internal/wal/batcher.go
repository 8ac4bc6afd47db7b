package wal

import (
	"fmt"
	"sync"
	"time"
)

// BatcherConfig bounds the group-commit window.
type BatcherConfig struct {
	// Dim is the database dimensionality, used to estimate each
	// submission's encoded size. Required.
	Dim int
	// MaxDelay is the commit window: the longest a submission waits in the
	// accumulating group before a flush starts (default 2ms). Latency bound.
	MaxDelay time.Duration
	// MaxBytes flushes the group early once its estimated encoded size
	// crosses this (default 4 MiB). Memory/throughput bound.
	MaxBytes int64
}

// DefaultMaxDelay is the default commit window.
const DefaultMaxDelay = 2 * time.Millisecond

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
	Groups         uint64        // flushed commit groups (≤ one fsync each)
	Submissions    uint64        // submissions flushed
	MaxGroup       int           // largest group flushed
	QueueNanos     int64         // total per-item wait from Submit to flush start
	FlushNanos     int64         // total per-item wait from flush start to ack
	Pending        int           // submissions accumulating right now
	WindowClosedBy WindowCloses  // why windows closed
	MaxDelay       time.Duration // configured commit window
	MaxBytes       int64         // configured group byte bound
}

// WindowCloses counts why commit windows closed.
type WindowCloses struct {
	Timer uint64 // the MaxDelay window elapsed
	Bytes uint64 // the group hit MaxBytes
	Drain uint64 // Close drained a final partial group
}

// Batcher accumulates concurrent mutation submissions and hands them to a
// flush function as one group per commit window — the DB layer's flush stages
// one combined snapshot, appends ONE log record, fsyncs ONCE, then publishes.
// Callers block in Submit until their group's flush returns, i.e. until their
// mutation is durable.
type Batcher struct {
	cfg   BatcherConfig
	codec Codec
	flush func([]*Submission)
	ch    chan *Submission

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	statMu  sync.Mutex
	stats   BatcherStats
	pending int
}

// NewBatcher starts a batcher whose groups are flushed by fn. fn is called
// from a single goroutine, receives at least one submission per call, and
// must fill every submission's Epoch/Err before returning.
func NewBatcher(cfg BatcherConfig, fn func([]*Submission)) (*Batcher, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("wal: invalid batcher dimension %d", cfg.Dim)
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = DefaultMaxDelay
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
	b.stats.MaxDelay = cfg.MaxDelay
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
	s.Pending = b.pending
	return s
}

// run is the single flusher goroutine: accumulate a group until the commit
// window elapses or the byte bound is hit, then flush.
func (b *Batcher) run() {
	defer b.wg.Done()
	var (
		group []*Submission
		bytes int64
		timer *time.Timer
		tch   <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			tch = nil
		}
	}
	doFlush := func(why *uint64) {
		stopTimer()
		if len(group) == 0 {
			return
		}
		start := time.Now()
		var queued int64
		for _, s := range group {
			queued += int64(start.Sub(s.enq))
		}
		b.flush(group)
		elapsed := int64(time.Since(start))
		b.statMu.Lock()
		b.stats.Groups++
		b.stats.Submissions += uint64(len(group))
		if len(group) > b.stats.MaxGroup {
			b.stats.MaxGroup = len(group)
		}
		b.stats.QueueNanos += queued
		b.stats.FlushNanos += elapsed * int64(len(group))
		*why++
		b.pending -= len(group)
		b.statMu.Unlock()
		// Woken only now, a writer that reads Stats after its Submit
		// returned sees its group counted.
		for _, s := range group {
			close(s.done)
		}
		group = nil
		bytes = 0
	}
	for {
		select {
		case s, ok := <-b.ch:
			if !ok {
				doFlush(&b.stats.WindowClosedBy.Drain)
				return
			}
			b.statMu.Lock()
			b.pending++
			b.statMu.Unlock()
			group = append(group, s)
			bytes += s.bytes
			if timer == nil {
				timer = time.NewTimer(b.cfg.MaxDelay)
				tch = timer.C
			}
			if bytes >= b.cfg.MaxBytes {
				doFlush(&b.stats.WindowClosedBy.Bytes)
			}
		case <-tch:
			timer = nil
			tch = nil
			doFlush(&b.stats.WindowClosedBy.Timer)
		}
	}
}

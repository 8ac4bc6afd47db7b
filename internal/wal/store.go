package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// StoreConfig configures a segment store.
type StoreConfig struct {
	// Dim is the database dimensionality every record must match. Required.
	Dim int
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 64 MiB). Rolling seals the segment's lineage root into the
	// next segment's header.
	SegmentBytes int64
	// SegmentAge rolls the active segment once it has been open this long
	// (0 = size-only rolling). Age rolling bounds how stale a sealed,
	// shippable segment can be even under a trickle of writes.
	SegmentAge time.Duration
	// NoSync makes Sync a no-op — for tests and benchmarks that measure the
	// pipeline without disk flush latency.
	NoSync bool
}

// DefaultSegmentBytes is the default segment roll threshold.
const DefaultSegmentBytes = 64 << 20

// StoreStats is a point-in-time summary of a store's on-disk state and write
// activity.
type StoreStats struct {
	Segments       int    // segment files, including the active one
	SealedSegments uint64 // segments sealed (rolled) by this store since open
	Records        uint64 // records appended since open
	AppendedBytes  uint64 // record bytes appended since open
	Fsyncs         uint64 // Sync calls that reached the disk
	LastEpoch      uint64 // epoch of the newest record on disk (0 = empty)
}

// Store is the leader-side segment store: an append-only directory of
// CRC-chained, lineage-rooted segment files. One goroutine at a time may
// Append (the DB's flusher); Sync flushes the active segment to stable
// storage — the pipeline's durability point.
//
// Opening a store verifies every segment header, the record chains, and the
// cross-segment lineage roots; a torn tail on the final segment (crash
// mid-append) is truncated. Corruption anywhere else fails loudly: the store
// refuses to append onto a broken history.
type Store struct {
	dir   string
	cfg   StoreConfig
	codec Codec

	mu       sync.Mutex
	f        *os.File       // active segment (nil until the first append)
	size     int64          // bytes written to the active segment
	chain    uint32         // CRC chain value of the active segment
	root     [rootSize]byte // rolling lineage root of the active segment
	prevRoot [rootSize]byte // sealed root of the previous segment
	base     uint64         // active segment's base epoch
	opened   time.Time      // active segment creation time (age rolling)
	last     uint64         // newest record epoch on disk
	segments int
	sealed   uint64
	records  uint64
	bytes    uint64
	fsyncs   uint64
	buf      []byte // append scratch
}

// OpenStore opens (creating if needed) the segment store in dir, verifying
// every segment and truncating a torn tail on the final one. It returns the
// store ready for appends at Stats().LastEpoch+1.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("wal: invalid store dimension %d", cfg.Dim)
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, cfg: cfg, codec: Codec{Dim: cfg.Dim}}
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		lastSeg := i == len(names)-1
		if err := st.scanSegment(name, i == 0, lastSeg); err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", name, err)
		}
	}
	st.segments = len(names)
	return st, nil
}

// scanSegment verifies one existing segment, accumulating chain state. For
// the last segment it truncates a torn tail and leaves the file open for
// appends; earlier segments must decode completely.
func (st *Store) scanSegment(name string, first, last bool) error {
	f, err := os.OpenFile(segPath(st.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return fmt.Errorf("reading header: %w", err)
	}
	dim, base, prevRoot, chain, root, err := decodeSegHeader(hdr)
	if err != nil {
		f.Close()
		return err
	}
	if dim != st.cfg.Dim {
		f.Close()
		return fmt.Errorf("segment dim %d vs store dim %d", dim, st.cfg.Dim)
	}
	wantBase, ok := parseSegName(name)
	if ok && wantBase != base {
		f.Close()
		return fmt.Errorf("file named for epoch %d but header says %d", wantBase, base)
	}
	if first {
		if prevRoot != ([rootSize]byte{}) {
			f.Close()
			return fmt.Errorf("first segment has a non-zero predecessor root (history is incomplete)")
		}
	} else {
		if prevRoot != st.prevRoot {
			f.Close()
			return fmt.Errorf("lineage break: header prevRoot does not match the previous segment's root")
		}
		if base != st.last+1 {
			f.Close()
			return fmt.Errorf("epoch gap: segment starts at %d, previous ended at %d", base, st.last)
		}
	}

	goodEnd := int64(segHeaderSize)
	next := base
	br := bufio.NewReader(f)
	for {
		rec, n, newChain, err := st.codec.Read(br, chain)
		if err == io.EOF {
			break
		}
		if err != nil {
			if last && (errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt)) {
				// Crash mid-append: drop the torn tail and append over it.
				break
			}
			f.Close()
			return fmt.Errorf("record at offset %d: %w", goodEnd, err)
		}
		if rec.Epoch != next {
			f.Close()
			return fmt.Errorf("record at offset %d has epoch %d, want %d", goodEnd, rec.Epoch, next)
		}
		root = rollRoot(root, readBack(br, f, goodEnd, n))
		chain = newChain
		goodEnd += n
		next = rec.Epoch + 1
		st.records++
	}
	if next == base {
		// A segment with no intact records: legal only as the last segment
		// (a crash after roll, before the first append).
		if !last {
			f.Close()
			return fmt.Errorf("empty segment in the middle of the store")
		}
	}

	if !last {
		f.Close()
		st.prevRoot = root
		st.last = next - 1
		return nil
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if fi.Size() > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return fmt.Errorf("truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	st.f = f
	st.size = goodEnd
	st.chain = chain
	st.root = root
	st.base = base
	st.opened = time.Now()
	if next > base {
		st.last = next - 1
	}
	return nil
}

// readBack re-reads n bytes at offset off directly from the file — the
// bufio.Reader has already consumed them. Used to feed the rolling root
// without buffering every record twice.
func readBack(_ *bufio.Reader, f *os.File, off, n int64) []byte {
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil
	}
	return buf
}

// Append writes one record to the active segment, rolling first if the
// segment crossed its size or age threshold. The record's epoch must be
// exactly Stats().LastEpoch+1 (any start epoch is accepted for an empty store).
// Appends reach the OS page cache only; call Sync to make them durable.
func (st *Store) Append(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.last != 0 && rec.Epoch != st.last+1 {
		return fmt.Errorf("wal: append epoch %d, want %d", rec.Epoch, st.last+1)
	}
	if st.f != nil && (st.size >= st.cfg.SegmentBytes ||
		(st.cfg.SegmentAge > 0 && time.Since(st.opened) >= st.cfg.SegmentAge)) {
		if err := st.sealLocked(); err != nil {
			return err
		}
	}
	if st.f == nil {
		if err := st.createLocked(rec.Epoch); err != nil {
			return err
		}
	}
	st.buf = st.buf[:0]
	buf, newChain, err := st.codec.Append(st.buf, rec, st.chain)
	if err != nil {
		return err
	}
	st.buf = buf
	if _, err := st.f.Write(buf); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	st.chain = newChain
	st.root = rollRoot(st.root, buf)
	st.size += int64(len(buf))
	st.last = rec.Epoch
	st.records++
	st.bytes += uint64(len(buf))
	return nil
}

// sealLocked makes the active segment immutable: fsync, close, and carry its
// lineage root forward as the next segment's predecessor root.
func (st *Store) sealLocked() error {
	if !st.cfg.NoSync {
		if err := st.f.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
		st.fsyncs++
	}
	if err := st.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	st.f = nil
	st.prevRoot = st.root
	st.sealed++
	return nil
}

// createLocked opens a fresh active segment whose first record will publish
// epoch base.
func (st *Store) createLocked(base uint64) error {
	name := segName(base)
	f, err := os.OpenFile(segPath(st.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	hdr := encodeSegHeader(st.cfg.Dim, base, st.prevRoot)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	_, _, _, chain, root, err := decodeSegHeader(hdr)
	if err != nil {
		f.Close()
		return err
	}
	st.f = f
	st.size = segHeaderSize
	st.chain = chain
	st.root = root
	st.base = base
	st.opened = time.Now()
	st.segments++
	return nil
}

// Sync flushes the active segment to stable storage — the pipeline's
// durability point. A store with no appends yet (or NoSync set) returns nil
// without touching the disk.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil || st.cfg.NoSync {
		return nil
	}
	if err := st.f.Sync(); err != nil {
		return err
	}
	st.fsyncs++
	return nil
}

// Close syncs and closes the active segment. The store must not be used
// afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	if !st.cfg.NoSync {
		if err := st.f.Sync(); err != nil {
			st.f.Close()
			return err
		}
		st.fsyncs++
	}
	err := st.f.Close()
	st.f = nil
	return err
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		Segments:       st.segments,
		SealedSegments: st.sealed,
		Records:        st.records,
		AppendedBytes:  st.bytes,
		Fsyncs:         st.fsyncs,
		LastEpoch:      st.last,
	}
}

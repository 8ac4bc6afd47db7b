package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// ReaderStats summarises a reader's progress through the store.
type ReaderStats struct {
	SegmentsVerified int    // segment headers whose lineage linkage was checked
	Records          uint64 // records returned by Next
	LastEpoch        uint64 // epoch of the last record returned (0 = none yet)
}

// Reader tails a segment store, verifying the CRC chain and the cross-segment
// lineage roots as it goes. It never writes: a torn tail is "no more data yet"
// (the leader may still be appending, or will truncate it on restart), not
// something to repair. Next blocks never; poll it.
//
// A reader is safe to run against a directory the leader is actively
// appending to — it only consumes intact records, and the leader only ever
// truncates bytes no reader has consumed (the torn tail).
type Reader struct {
	dir   string
	codec Codec

	f      *os.File       // current segment (nil before the first record)
	name   string         // current segment file name
	off    int64          // next unread byte in the current segment
	chain  uint32         // CRC chain value at off
	root   [rootSize]byte // rolling lineage root at off
	base   uint64         // current segment's base epoch
	next   uint64         // epoch the next record must carry (0 = any, fresh store)
	nseg   int
	nrec   uint64
	last   uint64
	sealed bool // current segment had a verified successor (it is immutable)
}

// OpenReader creates a reader over the segment store in dir. The directory
// may be empty or not yet exist; the reader picks up segments as they appear.
func OpenReader(dir string, dim int) (*Reader, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("wal: invalid reader dimension %d", dim)
	}
	return &Reader{dir: dir, codec: Codec{Dim: dim}}, nil
}

// Next returns the next intact record, or ok=false when the store has no
// further intact records right now (poll again later). It returns an error on
// any lineage, checksum, or epoch-continuity violation — the shipped history
// is not the one the leader wrote, and replaying further would diverge.
func (r *Reader) Next() (Record, bool, error) {
	for {
		if r.f == nil {
			ok, err := r.openSegment()
			if err != nil || !ok {
				return Record{}, false, err
			}
		}
		rec, ok, err := r.readRecord()
		if err != nil {
			return Record{}, false, err
		}
		if ok {
			return rec, true, nil
		}
		// Clean end of the current segment: advance if a verified successor
		// exists, otherwise report "no more data yet".
		advanced, err := r.advanceSegment()
		if err != nil || !advanced {
			return Record{}, false, err
		}
	}
}

// openSegment opens the first segment of the store (fresh reader only).
func (r *Reader) openSegment() (bool, error) {
	names, err := listSegments(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(names) == 0 {
		return false, nil
	}
	return r.enterSegment(names[0], [rootSize]byte{}, true)
}

// enterSegment opens one segment file and verifies its header against the
// expected predecessor root (and, unless genesis, the expected base epoch).
func (r *Reader) enterSegment(name string, wantPrev [rootSize]byte, genesis bool) (bool, error) {
	f, err := os.Open(segPath(r.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	hdr := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		// Header not fully written yet — treat as "not there yet".
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return false, nil
		}
		return false, err
	}
	dim, base, prevRoot, chain, root, err := decodeSegHeader(hdr)
	if err != nil {
		f.Close()
		return false, fmt.Errorf("wal: segment %s: %w", name, err)
	}
	if dim != r.codec.Dim {
		f.Close()
		return false, fmt.Errorf("wal: segment %s has dim %d, want %d", name, dim, r.codec.Dim)
	}
	if prevRoot != wantPrev {
		f.Close()
		if genesis {
			return false, fmt.Errorf("wal: segment %s: first segment has a non-zero predecessor root (history was pruned)", name)
		}
		return false, fmt.Errorf("wal: segment %s: lineage break: predecessor root does not match the root this reader computed", name)
	}
	if !genesis && base != r.next {
		f.Close()
		return false, fmt.Errorf("wal: segment %s starts at epoch %d, want %d", name, base, r.next)
	}
	r.f = f
	r.name = name
	r.off = segHeaderSize
	r.chain = chain
	r.root = root
	r.base = base
	r.sealed = false
	r.nseg++
	return true, nil
}

// readRecord decodes the record at the current offset. ok=false means a clean
// boundary or a torn/short tail (both: nothing more to consume here yet).
func (r *Reader) readRecord() (Record, bool, error) {
	br := bufio.NewReader(io.NewSectionReader(r.f, r.off, 1<<62))
	rec, n, newChain, err := r.codec.Read(br, r.chain)
	if err == io.EOF {
		return Record{}, false, nil
	}
	if errors.Is(err, ErrTorn) {
		if r.segmentSealed() {
			return Record{}, false, fmt.Errorf("wal: segment %s: torn record inside a sealed segment", r.name)
		}
		return Record{}, false, nil
	}
	if errors.Is(err, ErrCorrupt) {
		// At the active tail this may be a partially-visible in-flight append
		// (bytes written, CRC not yet); a sealed segment has no excuse.
		if r.segmentSealed() {
			return Record{}, false, fmt.Errorf("wal: segment %s: %w", r.name, err)
		}
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, fmt.Errorf("wal: segment %s: record at offset %d: %w", r.name, r.off, err)
	}
	if r.next != 0 && rec.Epoch != r.next {
		return Record{}, false, fmt.Errorf("wal: segment %s: record has epoch %d, want %d", r.name, rec.Epoch, r.next)
	}
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, r.off); err != nil {
		return Record{}, false, err
	}
	r.root = rollRoot(r.root, buf)
	r.chain = newChain
	r.off += n
	r.next = rec.Epoch + 1
	r.last = rec.Epoch
	r.nrec++
	return rec, true, nil
}

// segmentSealed reports whether the current segment is provably immutable: a
// segment file with a later base epoch exists, so the leader has moved on and
// nothing in this segment may change anymore. A torn or corrupt record in a
// sealed segment is real damage, not an in-flight append.
func (r *Reader) segmentSealed() bool {
	if r.sealed {
		return true
	}
	names, err := listSegments(r.dir)
	if err != nil {
		return false
	}
	for _, n := range names {
		if n > r.name {
			r.sealed = true
			return true
		}
	}
	return false
}

// advanceSegment checks whether the successor segment exists and, if so,
// verifies its header against the lineage root computed for the current one
// and switches to it. Seeing a successor also proves the current segment was
// sealed, so any later torn read in it would be corruption, not tailing.
func (r *Reader) advanceSegment() (bool, error) {
	if r.next == 0 || r.next == r.base {
		// No record consumed in this segment yet, so segName(r.next) is the
		// segment itself — there is no successor to look for.
		return false, nil
	}
	name := segName(r.next)
	if _, err := os.Stat(segPath(r.dir, name)); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	// Successor exists → the current segment is sealed. If bytes landed
	// after our last read, re-enter the read loop: with sealed set, a torn
	// or corrupt tail is now an error rather than "wait for more".
	r.sealed = true
	if fi, err := r.f.Stat(); err == nil && fi.Size() > r.off {
		return true, nil
	}
	prev := r.root
	r.f.Close()
	r.f = nil
	return r.enterSegment(name, prev, false)
}

// Stats returns the reader's progress counters.
func (r *Reader) Stats() ReaderStats {
	return ReaderStats{SegmentsVerified: r.nseg, Records: r.nrec, LastEpoch: r.last}
}

// Close releases the reader's file handle.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Replay hands apply every intact record r yields that is newer than the
// caller's current epoch, in order, and enforces the lineage rule every
// replay shares (a restart over a restored snapshot and a follower alike):
// a record at or below epoch() is already in the base state and is skipped;
// the first applicable record must be epoch()+1; and apply must publish
// exactly the record's epoch. A gap or a divergence is an error — the base
// state is not the one the log extends. apply returns the epoch it
// published. Replay stops at the first error or when r has no further intact
// record, and reports how many records it applied and skipped.
func Replay(r *Reader, epoch func() uint64, apply func(Record) (uint64, error)) (applied, skipped int, err error) {
	for {
		rec, ok, err := r.Next()
		if err != nil || !ok {
			return applied, skipped, err
		}
		cur := epoch()
		if rec.Epoch <= cur {
			skipped++
			continue
		}
		if rec.Epoch != cur+1 {
			return applied, skipped, fmt.Errorf("wal: gap: at epoch %d, next record is epoch %d", cur, rec.Epoch)
		}
		got, err := apply(rec)
		if err != nil {
			return applied, skipped, fmt.Errorf("wal: replaying epoch %d: %w", rec.Epoch, err)
		}
		if got != rec.Epoch {
			return applied, skipped, fmt.Errorf("wal: replay diverged: record epoch %d produced epoch %d (snapshot/log lineage mismatch)", rec.Epoch, got)
		}
		applied++
	}
}

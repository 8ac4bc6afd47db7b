// Package wal is gaussrange's only journal, the durable write pipeline under
// its mutation path: a record codec, a size/age-rolled segment store whose
// segments carry CRC-chained records and a rolling-hash lineage root
// (tamper-evident, shippable to followers), a tailing Reader that verifies
// that lineage while replaying, the one replay rule (Replay) that restart and
// followers share, and a Batcher that group-commits concurrent mutation
// batches into one fsync per group of what queued during the previous fsync.
//
// Layering: this package knows nothing about snapshots, epoch publication or
// query execution — it moves validated records to disk and back, and Replay
// hands them to a caller-supplied apply. The DB layer (gaussrange.AttachWAL)
// owns epoch assignment and visibility ordering; the replica layer replays
// Reader output into a follower database.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ExplicitIDFlag marks a record whose inserts carry explicit identifiers
// (set on the insert-count field; counts are capped at MaxBatch so the bit
// cannot collide with a real count).
const ExplicitIDFlag = uint32(1) << 31

// MaxBatch bounds the insert/delete counts a record may claim, keeping
// corrupt headers from provoking huge allocations.
const MaxBatch = 1 << 24

// Record is one durable mutation group: the epoch it published (or will
// publish), the inserted points, the identifiers assigned to them (nil for
// sequential assignment), and the deleted ids.
type Record struct {
	Epoch     uint64
	Inserts   [][]float64
	InsertIDs []int64 // one per insert, or nil for sequential assignment
	Deletes   []int64
}

// ErrTorn reports an incomplete record at the end of a log or segment — a
// crash mid-append. The reader stops there; a writer truncates there.
var ErrTorn = fmt.Errorf("wal: torn record")

// ErrCorrupt reports a record whose checksum does not match its bytes (or
// whose chained checksum does not match the preceding record's).
var ErrCorrupt = fmt.Errorf("wal: record checksum mismatch")

// Codec encodes and decodes records for one database dimensionality.
//
// Record layout (all integers and floats little-endian):
//
//	epoch uint64 | nIns uint32 | nDel uint32 |
//	nIns·dim float64 | nDel int64 | [nIns int64 ids] | crc uint32
//
// The CRC covers the previous record's CRC (the segment header's CRC for the
// first record) and then the record's own bytes, so records form a
// tamper-evident chain: rewriting any record breaks every CRC after it.
type Codec struct {
	Dim int
}

// EncodedSize returns the exact on-disk size of a record with the given
// insert/delete/explicit-id counts.
func (c Codec) EncodedSize(nIns, nDel int, explicit bool) int64 {
	n := int64(16 + 8*nIns*c.Dim + 8*nDel + 4)
	if explicit {
		n += int64(8 * nIns)
	}
	return n
}

// Append encodes rec onto dst and returns the extended buffer plus the
// record's CRC (the next link of the chain).
func (c Codec) Append(dst []byte, rec Record, chain uint32) ([]byte, uint32, error) {
	if len(rec.Inserts) > MaxBatch || len(rec.Deletes) > MaxBatch {
		return dst, 0, fmt.Errorf("wal: batch too large: %d inserts / %d deletes", len(rec.Inserts), len(rec.Deletes))
	}
	if rec.InsertIDs != nil && len(rec.InsertIDs) != len(rec.Inserts) {
		return dst, 0, fmt.Errorf("wal: %d ids for %d inserts", len(rec.InsertIDs), len(rec.Inserts))
	}
	start := len(dst)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], rec.Epoch)
	dst = append(dst, b8[:]...)
	var b4 [4]byte
	nIns := uint32(len(rec.Inserts))
	if rec.InsertIDs != nil {
		nIns |= ExplicitIDFlag
	}
	binary.LittleEndian.PutUint32(b4[:], nIns)
	dst = append(dst, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(rec.Deletes)))
	dst = append(dst, b4[:]...)
	for i, p := range rec.Inserts {
		if len(p) != c.Dim {
			return dst[:start], 0, fmt.Errorf("wal: insert %d has dim %d, want %d", i, len(p), c.Dim)
		}
		for _, x := range p {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(x))
			dst = append(dst, b8[:]...)
		}
	}
	for _, id := range rec.Deletes {
		binary.LittleEndian.PutUint64(b8[:], uint64(id))
		dst = append(dst, b8[:]...)
	}
	for _, id := range rec.InsertIDs {
		binary.LittleEndian.PutUint64(b8[:], uint64(id))
		dst = append(dst, b8[:]...)
	}
	crc := crc32.NewIEEE()
	binary.LittleEndian.PutUint32(b4[:], chain)
	crc.Write(b4[:])
	crc.Write(dst[start:])
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(b4[:], sum)
	dst = append(dst, b4[:]...)
	return dst, sum, nil
}

// Read decodes one record from br, verifying its chained CRC.
// It returns the record, the bytes consumed, and the record's CRC (the next
// chain value). Errors: io.EOF at a clean record boundary, ErrTorn for an
// incomplete record, ErrCorrupt for a checksum mismatch, and a plain error
// for an impossible header (counts beyond MaxBatch).
func (c Codec) Read(br *bufio.Reader, chain uint32) (Record, int64, uint32, error) {
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrTorn
		}
		return Record{}, 0, 0, err
	}
	nIns := binary.LittleEndian.Uint32(head[8:12])
	explicit := nIns&ExplicitIDFlag != 0
	nIns &^= ExplicitIDFlag
	nDel := binary.LittleEndian.Uint32(head[12:16])
	if nIns > MaxBatch || nDel > MaxBatch {
		return Record{}, 0, 0, fmt.Errorf("wal: record claims %d inserts / %d deletes", nIns, nDel)
	}
	nIDs := 0
	if explicit {
		nIDs = int(nIns)
	}
	payload, err := readPayload(br, 8*int(nIns)*c.Dim+8*int(nDel)+8*nIDs)
	if err != nil {
		return Record{}, 0, 0, ErrTorn
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return Record{}, 0, 0, ErrTorn
	}
	crc := crc32.NewIEEE()
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], chain)
	crc.Write(b4[:])
	crc.Write(head)
	crc.Write(payload)
	sum := crc.Sum32()
	if binary.LittleEndian.Uint32(crcBuf[:]) != sum {
		return Record{}, 0, 0, ErrCorrupt
	}

	rec := Record{Epoch: binary.LittleEndian.Uint64(head[:8])}
	off := 0
	if nIns > 0 {
		rec.Inserts = make([][]float64, nIns)
		for i := range rec.Inserts {
			p := make([]float64, c.Dim)
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
				off += 8
			}
			rec.Inserts[i] = p
		}
	}
	if nDel > 0 {
		rec.Deletes = make([]int64, nDel)
		for i := range rec.Deletes {
			rec.Deletes[i] = int64(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	if explicit {
		rec.InsertIDs = make([]int64, nIns)
		for i := range rec.InsertIDs {
			rec.InsertIDs[i] = int64(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	return rec, int64(len(head) + len(payload) + len(crcBuf)), sum, nil
}

// payloadChunk is the most readPayload allocates before a byte has arrived.
const payloadChunk = 64 << 10

// readPayload reads an n-byte record payload. The header's counts are not
// trusted until the CRC is, so the buffer starts at one chunk and doubles
// only once full: a header that claims more than the input holds allocates
// less than four times the bytes actually there plus a chunk, not the
// claimed size.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, payloadChunk))
	for got := 0; ; {
		m, err := io.ReadFull(br, buf[got:])
		got += m
		if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		next := make([]byte, got+min(got, n-got))
		copy(next, buf)
		buf = next
	}
}

package gaussrange

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"gaussrange/internal/core"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
)

// persistMagicV2 identifies the snapshot format, version 2 (the only one
// Restore reads): epoch-stamped, with explicit (id, point) pairs so deleted
// ids survive a save/restore cycle as holes and identifiers stay stable
// across restarts.
var persistMagicV2 = [6]byte{'G', 'R', 'D', 'B', 'v', '2'}

// Save writes a snapshot of one pinned epoch to w: the epoch number, the id
// space bound, every live (id, point) pair in ascending id order, and a CRC.
// Restore rebuilds the R-tree deterministically with STR bulk loading,
// which is faster than serializing tree pages and immune to structural
// format drift. Save never blocks mutations (it reads an immutable
// snapshot); batches published after the pin are not included — the wal
// covers them: a restart is RestoreFile, then AttachWAL on the directory
// that was attached when Save ran.
func (db *DB) Save(w io.Writer) error {
	snap := db.idx.Current()
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write(persistMagicV2[:]); err != nil {
		return fmt.Errorf("gaussrange: writing snapshot header: %w", err)
	}
	if err := binary.Write(out, binary.LittleEndian, uint32(db.dim)); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, snap.Epoch()); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, uint64(snap.MaxID())); err != nil {
		return err
	}
	if err := binary.Write(out, binary.LittleEndian, uint64(snap.Len())); err != nil {
		return err
	}
	buf := make([]byte, 8)
	var werr error
	snap.Range(func(id int64, p vecmat.Vector) bool {
		binary.LittleEndian.PutUint64(buf, uint64(id))
		if _, err := out.Write(buf); err != nil {
			werr = err
			return false
		}
		for _, x := range p {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
			if _, err := out.Write(buf); err != nil {
				werr = err
				return false
			}
		}
		return true
	})
	if werr != nil {
		return werr
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes a snapshot to the given path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Restore reads a snapshot produced by Save and rebuilds the database at the
// stored epoch. Options apply as in Load.
func Restore(r io.Reader, opts ...Option) (*DB, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var magic [6]byte
	if _, err := io.ReadFull(in, magic[:]); err != nil {
		return nil, fmt.Errorf("gaussrange: reading snapshot header: %w", err)
	}
	if magic != persistMagicV2 {
		return nil, errors.New("gaussrange: not a gaussrange snapshot (bad magic)")
	}
	var dim uint32
	if err := binary.Read(in, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	var epoch, slots, live uint64
	if err := binary.Read(in, binary.LittleEndian, &epoch); err != nil {
		return nil, err
	}
	if err := binary.Read(in, binary.LittleEndian, &slots); err != nil {
		return nil, err
	}
	if err := binary.Read(in, binary.LittleEndian, &live); err != nil {
		return nil, err
	}
	if dim == 0 || dim > 1<<16 {
		return nil, fmt.Errorf("gaussrange: snapshot dimension %d out of range", dim)
	}
	if epoch == 0 {
		return nil, errors.New("gaussrange: snapshot epoch 0 (epochs start at 1)")
	}
	if slots > core.IDLimit {
		return nil, fmt.Errorf("gaussrange: snapshot claims %d ids: %w", slots, ErrIDLimit)
	}
	if live > slots {
		return nil, fmt.Errorf("gaussrange: snapshot claims %d live of %d ids", live, slots)
	}

	// The header's counts are trusted only once the checksum is: the live
	// (id, point) pairs grow as their bytes arrive, and the id count sizes
	// nothing (it becomes MaxID).
	var (
		ids    []int64
		coords []float64
	)
	buf := make([]byte, 8*(1+int(dim)))
	prev := int64(-1)
	for i := uint64(0); i < live; i++ {
		if _, err := io.ReadFull(in, buf); err != nil {
			return nil, fmt.Errorf("gaussrange: truncated snapshot at record %d: %w", i, err)
		}
		id := int64(binary.LittleEndian.Uint64(buf))
		if id <= prev || id >= int64(slots) {
			return nil, fmt.Errorf("gaussrange: snapshot id %d out of order or range", id)
		}
		prev = id
		ids = append(ids, id)
		for j := 8; j < len(buf); j += 8 {
			coords = append(coords, math.Float64frombits(binary.LittleEndian.Uint64(buf[j:])))
		}
	}
	sum := crc.Sum32()
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("gaussrange: reading snapshot checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("gaussrange: snapshot checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}

	d := int(dim)
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	idx, err := core.RestoreIndex(ids, coords, int(slots), epoch, d, rtree.WithPageSize(o.pageSize))
	if err != nil {
		return nil, err
	}
	return &DB{idx: idx, dim: d, options: o, plans: newPlanCache(o.planCacheSize)}, nil
}

// RestoreFile reads a snapshot from the given path.
func RestoreFile(path string, opts ...Option) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f, opts...)
}

// Match is one probability-annotated query answer.
type Match struct {
	ID          int64
	Probability float64
}

// QueryMatches runs the query and returns probability-annotated answers,
// best first. Unlike Query, every answer's probability is computed (even
// those a certified bound could accept outright). The plan comes from the
// plan cache, as Query's does.
func (db *DB) QueryMatches(spec QuerySpec) ([]Match, error) {
	plan, err := db.planFor(spec)
	if err != nil {
		return nil, err
	}
	res, _, err := plan.SearchProbs(context.Background(), core.NewExactEvaluator())
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(res))
	for i, m := range res {
		out[i] = Match{ID: m.ID, Probability: m.Probability}
	}
	return out, nil
}

// QueryTopK returns at most k answers with the highest qualification
// probabilities among those clearing Theta, best first.
func (db *DB) QueryTopK(spec QuerySpec, k int) ([]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("gaussrange: k must be positive, got %d", k)
	}
	matches, err := db.QueryMatches(spec)
	if err != nil {
		return nil, err
	}
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches, nil
}

// QueryFunc streams qualifying point ids to fn as they are found, without
// materializing the result slice — useful for very large answer sets.
// Returning false from fn stops the query early. IDs arrive unsorted. The
// plan comes from the plan cache and runs like Query's.
func (db *DB) QueryFunc(spec QuerySpec, fn func(id int64) bool) error {
	plan, err := db.planFor(spec)
	if err != nil {
		return err
	}
	_, err = plan.ExecuteFunc(context.Background(), core.NewExactEvaluator(), fn)
	return err
}

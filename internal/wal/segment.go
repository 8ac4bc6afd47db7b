package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segMagic identifies one segment file of the shippable write-ahead log,
// version 1.
//
// A segment is a fixed header followed by CRC-chained records (Codec, chain
// seeded by the header CRC):
//
//	header: magic[6] | dim uint32 | baseEpoch uint64 | prevRoot [32]byte | crc uint32
//
// baseEpoch is the epoch of the segment's first record. prevRoot is the
// lineage root of the preceding segment (all zero for the first segment of a
// store), making segments a hash chain like commits: a segment's root is
//
//	root = SHA-256(header bytes), then per record root = SHA-256(root ‖ record bytes)
//
// so the final root commits to every byte of the segment and, through
// prevRoot, to every byte of every earlier segment. A follower that verifies
// each new segment's prevRoot against the root it computed for the previous
// one has verified the entire shipped history.
var segMagic = [6]byte{'G', 'R', 'S', 'G', 'v', '1'}

// segHeaderSize is the fixed byte size of a segment header.
const segHeaderSize = 6 + 4 + 8 + 32 + 4

// rootSize is the byte size of a segment lineage root.
const rootSize = sha256.Size

// segName formats the file name of the segment whose first record publishes
// epoch base. Hex with fixed width keeps lexical order equal to epoch order.
func segName(base uint64) string {
	return fmt.Sprintf("%016x.seg", base)
}

// parseSegName returns the base epoch encoded in a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".seg") || len(name) != 16+4 {
		return 0, false
	}
	base, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// encodeSegHeader builds a segment header for the given dimensionality, base
// epoch and predecessor root.
func encodeSegHeader(dim int, base uint64, prevRoot [rootSize]byte) []byte {
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(dim))
	hdr = append(hdr, b4[:]...)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], base)
	hdr = append(hdr, b8[:]...)
	hdr = append(hdr, prevRoot[:]...)
	binary.LittleEndian.PutUint32(b4[:], crc32.ChecksumIEEE(hdr))
	hdr = append(hdr, b4[:]...)
	return hdr
}

// decodeSegHeader validates a segment header and returns its fields plus the
// chain seed (the header CRC) and the initial rolling root.
func decodeSegHeader(hdr []byte) (dim int, base uint64, prevRoot [rootSize]byte, chain uint32, root [rootSize]byte, err error) {
	if len(hdr) != segHeaderSize {
		return 0, 0, prevRoot, 0, root, fmt.Errorf("wal: segment header is %d bytes, want %d", len(hdr), segHeaderSize)
	}
	if [6]byte(hdr[:6]) != segMagic {
		return 0, 0, prevRoot, 0, root, fmt.Errorf("wal: not a wal segment (bad magic)")
	}
	want := binary.LittleEndian.Uint32(hdr[segHeaderSize-4:])
	if crc32.ChecksumIEEE(hdr[:segHeaderSize-4]) != want {
		return 0, 0, prevRoot, 0, root, fmt.Errorf("wal: segment header checksum mismatch")
	}
	dim = int(binary.LittleEndian.Uint32(hdr[6:10]))
	base = binary.LittleEndian.Uint64(hdr[10:18])
	copy(prevRoot[:], hdr[18:18+rootSize])
	return dim, base, prevRoot, want, sha256.Sum256(hdr), nil
}

// rollRoot advances a segment's rolling lineage root over one record's bytes.
func rollRoot(root [rootSize]byte, record []byte) [rootSize]byte {
	h := sha256.New()
	h.Write(root[:])
	h.Write(record)
	var out [rootSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// DirDim reports the dimensionality recorded in dir's first segment header —
// how a follower process sizes its database before any data arrives. Returns
// an error when the directory has no (complete) segment yet.
func DirDim(dir string) (int, error) {
	names, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("wal: %s has no segments yet", dir)
	}
	f, err := os.Open(segPath(dir, names[0]))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	hdr := make([]byte, segHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, fmt.Errorf("wal: %s has no complete segment header yet", dir)
	}
	dim, _, _, _, _, err := decodeSegHeader(hdr)
	if err != nil {
		return 0, err
	}
	return dim, nil
}

// listSegments returns the store's segment file names in base-epoch order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// segPath joins the store directory and a segment file name.
func segPath(dir, name string) string { return filepath.Join(dir, name) }

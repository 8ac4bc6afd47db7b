package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/bits"
	"slices"
)

// IDsFormatDV1 is the QueryRequest.IDsFormat value that asks for the answer
// as one IDBlock (QueryResponse.IDsDV1) instead of the decimal "ids" array.
const IDsFormatDV1 = "dv1"

// IDBlock is an id list carried as one JSON string: the standard, padded
// base64 of uvarint(len) followed by one zigzag varint per id holding its
// difference from the id before it (the first from 0). Differences are taken
// in wrapping int64 arithmetic, so every []int64 — unsorted, repeated,
// MinInt64 — round-trips bit for bit; a sorted answer of dense ids costs one
// or two bytes an id where its decimal form costs four to six.
//
// A nil IDBlock marshals as null and an empty one as "AA==", the block of
// the count 0; as an omitempty field (QueryResponse.IDsDV1) both are left out.
// The block is decoded into one slice of exactly its count.
type IDBlock []int64

// MarshalJSON encodes b as its block string.
func (b IDBlock) MarshalJSON() ([]byte, error) {
	if b == nil {
		return []byte("null"), nil
	}
	return appendIDBlock(nil, b), nil
}

// UnmarshalJSON decodes a block string into *b; null leaves *b unchanged.
func (b *IDBlock) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	if len(data) < 2 || data[0] != '"' {
		return errIDBlockNotString
	}
	s := data[1 : len(data)-1]
	if bytes.IndexByte(s, '\\') >= 0 {
		// The quoted text is valid JSON here (encoding/json checked it), so
		// only its escapes need undoing.
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return err
		}
		s = []byte(str)
	}
	ids, err := decodeIDBlock(s)
	if err != nil {
		return err
	}
	*b = ids
	return nil
}

var (
	errIDBlockNotString = errors.New("server: ids_dv1 block is not a JSON string")
	errIDBlock          = errors.New("server: malformed ids_dv1 block")
)

const base64Std = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// base64Val maps a base64 character to its 6-bit value, every other byte to
// 0xff.
var base64Val = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < len(base64Std); i++ {
		t[base64Std[i]] = byte(i)
	}
	return t
}()

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the length of binary.PutUvarint's encoding of u.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// appendIDBlock appends ids as a quoted block string. It sizes the block
// first, writes the varints at the tail of that space and base64-encodes
// them forward in place. The varints start at least a third of their length
// into the block, so the four characters of group g end before the group
// after it begins, and the block costs no buffer of its own and no growth
// past the one reservation.
func appendIDBlock(b []byte, ids []int64) []byte {
	raw := uvarintLen(uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		raw += uvarintLen(zigzag(id - prev))
		prev = id
	}
	enc := (raw + 2) / 3 * 4
	b = slices.Grow(b, enc+2)
	b = append(b, '"')
	blk := b[len(b) : len(b)+enc]
	src := blk[enc-raw:]
	n := binary.PutUvarint(src, uint64(len(ids)))
	prev = 0
	for _, id := range ids {
		// An answer's deltas take one or two bytes; PutUvarint's loop is for
		// the rest.
		switch u := zigzag(id - prev); {
		case u < 1<<7:
			src[n] = byte(u)
			n++
		case u < 1<<14:
			_ = src[n+1]
			src[n], src[n+1] = byte(u)|0x80, byte(u>>7)
			n += 2
		default:
			n += binary.PutUvarint(src[n:], u)
		}
		prev = id
	}
	di := 0
	for si := 0; si+3 <= raw; si += 3 {
		v := uint(src[si])<<16 | uint(src[si+1])<<8 | uint(src[si+2])
		_ = blk[di+3]
		blk[di+0] = base64Std[v>>18&0x3f]
		blk[di+1] = base64Std[v>>12&0x3f]
		blk[di+2] = base64Std[v>>6&0x3f]
		blk[di+3] = base64Std[v&0x3f]
		di += 4
	}
	if rem := raw % 3; rem > 0 {
		v := uint(src[raw-rem]) << 16
		if rem == 2 {
			v |= uint(src[raw-1]) << 8
		}
		blk[di+0] = base64Std[v>>18&0x3f]
		blk[di+1] = base64Std[v>>12&0x3f]
		blk[di+2] = '='
		if rem == 2 {
			blk[di+2] = base64Std[v>>6&0x3f]
		}
		blk[di+3] = '='
	}
	b = b[:len(b)+enc]
	return append(b, '"')
}

// decodeIDBlock decodes the text of a block (without its quotes) in one
// pass: each base64 group's three bytes go straight into the varint reader —
// at once when they are three one-byte varints, the common case of an
// answer's deltas — and the count in front sizes the one slice the ids land
// in. It is an error when a character is outside the alphabet, padding is
// missing or misplaced, the bits under the padding are not zero, a varint
// runs past 64 bits, the count is more than the block can hold, or ids or
// bytes are missing or left over.
func decodeIDBlock(s []byte) ([]int64, error) {
	if len(s) == 0 || len(s)%4 != 0 {
		return nil, errIDBlock
	}
	// The last group goes through the padding checks first and is decoded
	// with the others after them.
	pad := 0
	last := [4]byte(s[len(s)-4:])
	if last[3] == '=' {
		pad = 1
		if last[2] == '=' {
			pad = 2
		}
		c1, c2 := base64Val[last[1]], base64Val[last[2]]
		if pad == 2 && c1&0x0f != 0 || pad == 1 && c2&0x03 != 0 {
			return nil, errIDBlock // the bits under the padding are set
		}
		last[3] = 'A'
		if pad == 2 {
			last[2] = 'A'
		}
	}
	raw := len(s)/4*3 - pad // bytes the block carries
	var (
		ids   []int64
		have  = -1 // ids decoded; -1 while the count is still being read
		u     uint64
		shift uint
		prev  int64
	)
	for gi := 0; gi < len(s); gi += 4 {
		g, n := s[gi:gi+4:gi+4], 3
		if gi+4 == len(s) {
			g, n = last[:], 3-pad
		}
		c0, c1, c2, c3 := base64Val[g[0]], base64Val[g[1]], base64Val[g[2]], base64Val[g[3]]
		if (c0|c1|c2|c3)&0xc0 != 0 {
			return nil, errIDBlock // a character outside the alphabet
		}
		v := uint32(c0)<<18 | uint32(c1)<<12 | uint32(c2)<<6 | uint32(c3)
		if v&0x808080 == 0 && shift == 0 && n == 3 && have >= 0 && have+3 <= len(ids) {
			p0 := prev + unzigzag(uint64(v>>16))
			p1 := p0 + unzigzag(uint64(v>>8&0x7f))
			prev = p1 + unzigzag(uint64(v&0x7f))
			ids[have], ids[have+1], ids[have+2] = p0, p1, prev
			have += 3
			continue
		}
		for k := 0; k < n; k++ {
			c := byte(v >> (16 - 8*k))
			if c >= 0x80 {
				if shift == 63 {
					return nil, errIDBlock
				}
				u |= uint64(c&0x7f) << shift
				shift += 7
				continue
			}
			if shift == 63 && c > 1 {
				return nil, errIDBlock
			}
			u |= uint64(c) << shift
			switch {
			case uint(have) < uint(len(ids)):
				prev += unzigzag(u)
				ids[have] = prev
				have++
			case have >= 0:
				return nil, errIDBlock // more ids than the count
			case u > uint64(raw-gi/4*3-k-1):
				// Every id takes at least one byte, so a count larger than
				// the bytes left cannot be honest.
				return nil, errIDBlock
			default:
				ids, have = make([]int64, u), 0
			}
			u, shift = 0, 0
		}
	}
	if have != len(ids) || shift != 0 {
		return nil, errIDBlock
	}
	return ids, nil
}

package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The codec is deliberately dumb: hand-rolled little-endian primitives
// over byte slices, no reflection, no interface dispatch in the hot
// loops. Bulk data (bitset words) round-trips through binary.LittleEndian
// eight bytes at a time; counts and ids use varints; floats travel as
// their IEEE-754 bit patterns.

// enc accumulates one section payload.
type enc struct {
	b []byte
}

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}
func (e *enc) svarint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// words appends a bulk little-endian word array, length-prefixed.
func (e *enc) words(ws []uint64) {
	e.uvarint(uint64(len(ws)))
	for _, w := range ws {
		e.u64(w)
	}
}

// dec walks one section payload with a sticky error: after the first
// malformed read every subsequent read returns zero, so decode loops
// need a single err check at the end, not one per field.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated or malformed %s at offset %d", what, d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("svarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil || d.off+int(n) > len(d.b) || int(n) < 0 {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a length that must fit the remaining payload when each
// element occupies at least min bytes — the guard that stops a corrupt
// length from provoking a huge allocation before the CRC would have
// caught it.
func (d *dec) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail("count")
		return 0
	}
	return int(n)
}

func (d *dec) words() []uint64 {
	n := d.count(8)
	if d.err != nil {
		return nil
	}
	ws := make([]uint64, n)
	for i := range ws {
		ws[i] = d.u64()
	}
	return ws
}

// ---------------------------------------------------------------------------
// Section framing: tag, little-endian payload length, payload, CRC-32
// (IEEE) of the payload. Sections appear in a fixed order; the END tag
// closes the file.

type sectionTag uint32

const (
	tagSchema sectionTag = 0x4d484353 // "SCHM"
	tagUsers  sectionTag = 0x52455355 // "USER"
	tagItems  sectionTag = 0x4d455449 // "ITEM"
	tagAction sectionTag = 0x53544341 // "ACTS"
	tagVocab  sectionTag = 0x42434f56 // "VOCB"
	tagTxns   sectionTag = 0x534e5854 // "TXNS"
	tagGroups sectionTag = 0x53505247 // "GRPS"
	tagMeta   sectionTag = 0x4154454d // "META"
	tagDlog   sectionTag = 0x474f4c44 // "DLOG"
	tagDelta  sectionTag = 0x41544c44 // "DLTA"
	tagEnd    sectionTag = 0x00444e45 // "END\x00"
)

// writeSection frames one payload onto w.
func writeSection(w io.Writer, tag sectionTag, payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tag))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// sectionReader iterates framed sections over an in-memory snapshot.
type sectionReader struct {
	b   []byte
	off int
}

// next returns the next section's payload after verifying its CRC and
// that it carries the expected tag.
func (sr *sectionReader) next(want sectionTag) ([]byte, error) {
	if sr.off+12 > len(sr.b) {
		return nil, fmt.Errorf("store: truncated section header at offset %d", sr.off)
	}
	tag := sectionTag(binary.LittleEndian.Uint32(sr.b[sr.off:]))
	n := binary.LittleEndian.Uint64(sr.b[sr.off+4:])
	sr.off += 12
	if tag != want {
		return nil, fmt.Errorf("store: section %q where %q expected", tagString(tag), tagString(want))
	}
	if n > uint64(len(sr.b)-sr.off) {
		return nil, fmt.Errorf("store: section %q length %d overruns file", tagString(tag), n)
	}
	payload := sr.b[sr.off : sr.off+int(n)]
	sr.off += int(n)
	if sr.off+4 > len(sr.b) {
		return nil, fmt.Errorf("store: truncated CRC for section %q", tagString(tag))
	}
	want32 := binary.LittleEndian.Uint32(sr.b[sr.off:])
	sr.off += 4
	if got := crc32.ChecksumIEEE(payload); got != want32 {
		return nil, fmt.Errorf("store: section %q CRC mismatch (%08x != %08x): snapshot corrupt", tagString(tag), got, want32)
	}
	return payload, nil
}

// peek returns the tag of the next section without consuming it — how
// the loader decides whether an optional DLTA section follows or the
// file is closed by END.
func (sr *sectionReader) peek() (sectionTag, error) {
	if sr.off+12 > len(sr.b) {
		return 0, fmt.Errorf("store: truncated section header at offset %d", sr.off)
	}
	return sectionTag(binary.LittleEndian.Uint32(sr.b[sr.off:])), nil
}

func tagString(t sectionTag) string {
	return string([]byte{byte(t), byte(t >> 8), byte(t >> 16), byte(t >> 24)})
}

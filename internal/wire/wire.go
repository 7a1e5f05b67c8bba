// Package wire defines InterWeave's machine- and language-independent
// wire format.
//
// The wire format carries not only data but also diffs: concise,
// run-length-encoded descriptions of only those data that have
// changed (paper Section 3.1). Offsets and lengths inside diffs are
// measured in primitive data units, never bytes, so any client can
// map them onto its own local format through its type descriptors. A
// block diff consists of the block's serial number, the diff's length
// in bytes, and a series of runs, each carrying the starting unit,
// the unit count, and the updated data in canonical form.
//
// Canonical value encoding is big-endian. Fixed-size units (chars,
// integers, floats) occupy their natural width; strings and pointers
// (MIPs) are variable length, encoded as a 32-bit byte count followed
// by the contents.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// AppendU8 appends one byte.
func AppendU8(b []byte, v byte) []byte { return append(b, v) }

// AppendU16 appends a big-endian 16-bit value.
func AppendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

// AppendU32 appends a big-endian 32-bit value.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian 64-bit value.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendF64 appends a float64 as its IEEE-754 bits, big-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends a 32-bit length prefix followed by the bytes.
func AppendBytes(b, v []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendString appends a 32-bit length prefix followed by the string.
func AppendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// ErrTruncated reports wire input that ended before a complete value.
var ErrTruncated = errors.New("wire: truncated input")

// MaxItem bounds single length-prefixed items to keep corrupt or
// hostile input from provoking huge allocations.
const MaxItem = 1 << 28

// Reader decodes canonical values from a byte slice. It carries a
// sticky error: after any failure, subsequent reads return zero
// values and Err reports the first failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Offset returns the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a big-endian 16-bit value.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian 32-bit value.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian 64-bit value.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a big-endian IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Take returns the next n bytes without copying.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// Rest returns the unread bytes without consuming them (no copy).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// Bytes reads a 32-bit length prefix and that many bytes (no copy).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil || n > MaxItem {
		r.fail()
		return nil
	}
	return r.Take(int(n))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Run is one run-length-encoded change inside a block diff: Count
// consecutive primitive units starting at unit Start, with the
// updated data in canonical wire form. The encoded form carries an
// explicit data byte length so that diffs remain self-delimiting even
// before type descriptors are consulted (the paper's format implies
// data lengths from the descriptors; the explicit length costs one
// word per run and removes a parsing order dependency).
type Run struct {
	Start uint32 // first modified unit, in primitive data units
	Count uint32 // number of modified units
	Data  []byte // canonical encoding of exactly Count units
}

// BlockDiff describes the changes to one block.
type BlockDiff struct {
	Serial uint32
	Runs   []Run
}

// DataLen returns the paper's "diff length measured in bytes": the
// total size of the run section.
func (d *BlockDiff) DataLen() int {
	n := 0
	for _, r := range d.Runs {
		n += 12 + len(r.Data)
	}
	return n
}

// DescDef registers a type descriptor under a segment-specific serial
// number. Bytes is the canonical descriptor encoding (types.Marshal).
type DescDef struct {
	Serial uint32
	Bytes  []byte
}

// NewBlock announces a block created in this version: its serial,
// its type descriptor serial, the number of elements of that type it
// holds, and its optional symbolic name.
type NewBlock struct {
	Serial     uint32
	DescSerial uint32
	Count      uint32
	Name       string
}

// SegmentDiff carries everything needed to move a cached copy of a
// segment from one version to another: new type descriptors, new and
// freed blocks, and per-block data runs. A full segment transmission
// is simply a diff from version 0 in which every block is new and one
// run covers all of its units.
type SegmentDiff struct {
	// Version is the segment version this diff produces.
	Version uint32
	Descs   []DescDef
	News    []NewBlock
	Freed   []uint32
	Blocks  []BlockDiff
}

// Empty reports whether the diff carries no changes at all.
func (d *SegmentDiff) Empty() bool {
	return len(d.Descs) == 0 && len(d.News) == 0 && len(d.Freed) == 0 && len(d.Blocks) == 0
}

// WireSize returns the encoded size in bytes, the quantity Figure 7
// reports as bandwidth.
func (d *SegmentDiff) WireSize() int { return d.EncodedLen() }

// EncodedLen returns len(d.Marshal(nil)), computed from the headers
// and run lengths without marshaling.
func (d *SegmentDiff) EncodedLen() int {
	n := 4 + 4 + 4 + 4 + 4 // version and the four section counts
	for _, dd := range d.Descs {
		n += 4 + 4 + len(dd.Bytes)
	}
	for _, nb := range d.News {
		n += 4 + 4 + 4 + 4 + len(nb.Name)
	}
	n += 4 * len(d.Freed)
	for i := range d.Blocks {
		n += 4 + 4 + 4 + d.Blocks[i].DataLen()
	}
	return n
}

// DataBytes returns the total run payload across every block diff,
// without marshaling — the cheap per-release byte count the
// observability layer feeds its diff-vs-full-transfer ratios.
func (d *SegmentDiff) DataBytes() int {
	n := 0
	for i := range d.Blocks {
		n += d.Blocks[i].DataLen()
	}
	return n
}

// Units returns the total primitive units carried by the diff's runs,
// the numerator of the units-sent/units-full diffing-savings ratio.
func (d *SegmentDiff) Units() int {
	n := 0
	for i := range d.Blocks {
		for _, r := range d.Blocks[i].Runs {
			n += int(r.Count)
		}
	}
	return n
}

// Marshal appends the canonical encoding of the diff to buf. It grows
// buf once, by exactly EncodedLen bytes, so a diff is encoded with at
// most one allocation whatever its size.
func (d *SegmentDiff) Marshal(buf []byte) []byte {
	buf = slices.Grow(buf, d.EncodedLen())
	buf = AppendU32(buf, d.Version)
	buf = AppendU32(buf, uint32(len(d.Descs)))
	for _, dd := range d.Descs {
		buf = AppendU32(buf, dd.Serial)
		buf = AppendBytes(buf, dd.Bytes)
	}
	buf = AppendU32(buf, uint32(len(d.News)))
	for _, nb := range d.News {
		buf = AppendU32(buf, nb.Serial)
		buf = AppendU32(buf, nb.DescSerial)
		buf = AppendU32(buf, nb.Count)
		buf = AppendString(buf, nb.Name)
	}
	buf = AppendU32(buf, uint32(len(d.Freed)))
	for _, s := range d.Freed {
		buf = AppendU32(buf, s)
	}
	buf = AppendU32(buf, uint32(len(d.Blocks)))
	for _, bd := range d.Blocks {
		buf = AppendU32(buf, bd.Serial)
		buf = AppendU32(buf, uint32(bd.DataLen()))
		buf = AppendU32(buf, uint32(len(bd.Runs)))
		for _, r := range bd.Runs {
			buf = AppendU32(buf, r.Start)
			buf = AppendU32(buf, r.Count)
			buf = AppendBytes(buf, r.Data)
		}
	}
	return buf
}

// UnmarshalSegmentDiff decodes a diff produced by Marshal. The
// returned diff aliases b; callers must not modify b afterwards.
func UnmarshalSegmentDiff(b []byte) (*SegmentDiff, error) {
	r := NewReader(b)
	d, err := ReadSegmentDiff(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after segment diff", r.Remaining())
	}
	return d, nil
}

// fits reports whether n items of at least size encoded bytes each
// could fit in what remains of r, so a corrupt count is refused
// before it sizes an allocation.
func (r *Reader) fits(n uint32, size int) bool {
	return int(n) <= r.Remaining()/size
}

// ReadSegmentDiff decodes one segment diff from r.
func ReadSegmentDiff(r *Reader) (*SegmentDiff, error) {
	d := &SegmentDiff{Version: r.U32()}
	nd := r.U32()
	if r.Err() != nil || nd > 1<<20 || !r.fits(nd, 8) {
		return nil, fmt.Errorf("wire: bad descriptor count: %w", ErrTruncated)
	}
	d.Descs = make([]DescDef, nd)
	for i := range d.Descs {
		d.Descs[i] = DescDef{Serial: r.U32(), Bytes: r.Bytes()}
	}
	nn := r.U32()
	if r.Err() != nil || nn > 1<<24 || !r.fits(nn, 16) {
		return nil, fmt.Errorf("wire: bad new-block count: %w", ErrTruncated)
	}
	d.News = make([]NewBlock, nn)
	for i := range d.News {
		d.News[i] = NewBlock{Serial: r.U32(), DescSerial: r.U32(), Count: r.U32(), Name: r.Str()}
	}
	nf := r.U32()
	if r.Err() != nil || nf > 1<<24 || !r.fits(nf, 4) {
		return nil, fmt.Errorf("wire: bad freed-block count: %w", ErrTruncated)
	}
	d.Freed = make([]uint32, nf)
	for i := range d.Freed {
		d.Freed[i] = r.U32()
	}
	nb := r.U32()
	if r.Err() != nil || nb > 1<<24 || !r.fits(nb, 12) {
		return nil, fmt.Errorf("wire: bad block-diff count: %w", ErrTruncated)
	}
	d.Blocks = make([]BlockDiff, nb)
	for i := range d.Blocks {
		bd := BlockDiff{Serial: r.U32()}
		declared := r.U32()
		nr := r.U32()
		if r.Err() != nil || nr > 1<<24 || !r.fits(nr, 12) {
			return nil, fmt.Errorf("wire: bad run count: %w", ErrTruncated)
		}
		bd.Runs = make([]Run, nr)
		for j := range bd.Runs {
			bd.Runs[j] = Run{Start: r.U32(), Count: r.U32(), Data: r.Bytes()}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if got := bd.DataLen(); got != int(declared) {
			return nil, fmt.Errorf("wire: block %d diff length %d, declared %d", bd.Serial, got, declared)
		}
		d.Blocks[i] = bd
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

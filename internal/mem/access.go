package mem

import (
	"bytes"
	"fmt"
	"math"

	"interweave/internal/arch"
)

// This file implements the data access paths of the simulated heap.
//
// Stores go through Write*, which emulate the MMU: the first store to
// a write-protected page takes a simulated fault — a pristine twin of
// the page is copied into the subsegment's pagemap and the page is
// un-protected — after which the store proceeds. Library-internal
// writes (zeroing fresh blocks, applying incoming diffs) use RawWrite*
// or MutView and bypass fault tracking, just as the real library
// writes below the protection machinery.
//
// Unlike a hardware MMU, the simulated one sees every store, not just
// the first per page. Each store to a twinned page sets a dirty hint
// for the ChunkBytes-sized chunks it touches, so diff collection
// compares only those chunks against the twin instead of whole pages.
// Alloc hints the zeroing of a new block the same way.

// ChunkShift and ChunkBytes set the dirty-hint granularity: one bit
// per 64-byte chunk, one uint64 per page.
const (
	ChunkShift = 6
	ChunkBytes = 1 << ChunkShift
)

// A page must hold exactly 64 chunks for its hints to fit one uint64.
var _ = [1]struct{}{}[arch.PageSize/ChunkBytes-64]

// View returns a read-only view of [a, a+n). The caller must not
// modify the returned slice.
func (h *Heap) View(a Addr, n int) ([]byte, error) {
	ss, off, err := h.resolve(a, n)
	if err != nil {
		return nil, err
	}
	return ss.Data[off : off+n : off+n], nil
}

// MutView returns a writable view of [a, a+n) that bypasses fault
// tracking. It is for library-internal writes (diff application);
// application stores must use Write* so that modification tracking
// sees them.
func (h *Heap) MutView(a Addr, n int) ([]byte, error) {
	ss, off, err := h.resolve(a, n)
	if err != nil {
		return nil, err
	}
	return ss.Data[off : off+n : off+n], nil
}

// Write stores src at a through the fault path.
func (h *Heap) Write(a Addr, src []byte) error {
	dst, err := h.store(a, len(src))
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// store takes the fault path for [a, a+n) and returns the bytes the
// caller then writes: the typed stores encode into them directly, so
// no value passes through a temporary buffer.
func (h *Heap) store(a Addr, n int) ([]byte, error) {
	ss, off, err := h.resolve(a, n)
	if err != nil {
		return nil, err
	}
	ss.faultRange(off, n)
	return ss.Data[off : off+n : off+n], nil
}

// RawWrite stores src at a without fault tracking.
func (h *Heap) RawWrite(a Addr, src []byte) error {
	ss, off, err := h.resolve(a, len(src))
	if err != nil {
		return err
	}
	copy(ss.Data[off:], src)
	return nil
}

// RawWriteZero zeroes [a, a+n) without fault tracking.
func (h *Heap) RawWriteZero(a Addr, n int) error {
	ss, off, err := h.resolve(a, n)
	if err != nil {
		return err
	}
	clear(ss.Data[off : off+n])
	return nil
}

// faultRange takes simulated write faults for every protected page
// overlapping [off, off+n), then hints the range dirty.
func (ss *SubSeg) faultRange(off, n int) {
	first := off >> arch.PageShift
	last := (off + n - 1) >> arch.PageShift
	for p := first; p <= last; p++ {
		if !ss.protected[p] {
			continue
		}
		h := ss.Seg.heap
		h.stats.Faults++
		if ss.twins[p] == nil {
			twin := h.twinPage()
			copy(twin, ss.Data[p<<arch.PageShift:(p+1)<<arch.PageShift])
			ss.twins[p] = twin
			h.stats.Twins++
		}
		ss.protected[p] = false
	}
	ss.hint(off, n)
}

// hint sets the dirty bits of every chunk of a twinned page that
// [off, off+n) overlaps.
func (ss *SubSeg) hint(off, n int) {
	for end := off + n; off < end; {
		p := off >> arch.PageShift
		pageEnd := (p + 1) << arch.PageShift
		hi := min(end, pageEnd)
		if ss.twins[p] != nil {
			c0 := off & (arch.PageSize - 1) >> ChunkShift
			c1 := (hi - 1) & (arch.PageSize - 1) >> ChunkShift
			ss.dirty[p] |= ^uint64(0) >> (63 - c1) &^ (1<<c0 - 1)
		}
		off = hi
	}
}

// twinPage takes a page buffer from the twin pool, or allocates one.
// Its contents are stale; the caller overwrites all of it.
func (h *Heap) twinPage() []byte {
	n := len(h.twinPool)
	if n == 0 {
		return make([]byte, arch.PageSize)
	}
	pg := h.twinPool[n-1]
	h.twinPool[n-1] = nil
	h.twinPool = h.twinPool[:n-1]
	return pg
}

// WriteProtect write-protects every page of the segment's local copy.
// The client library calls this at write-lock acquisition so that the
// first store to each page faults and creates a twin.
func (s *SegMem) WriteProtect() {
	for ss := s.first; ss != nil; ss = ss.Next {
		for i := range ss.protected {
			ss.protected[i] = true
		}
		s.heap.stats.Protects += uint64(len(ss.protected))
	}
}

// Unprotect removes write protection from every page without touching
// twins.
func (s *SegMem) Unprotect() {
	for ss := s.first; ss != nil; ss = ss.Next {
		for i := range ss.protected {
			ss.protected[i] = false
		}
	}
}

// DropTwins discards all twins and their dirty hints after diff
// collection, returning the twin pages to the heap's pool.
func (s *SegMem) DropTwins() {
	h := s.heap
	for ss := s.first; ss != nil; ss = ss.Next {
		for i, twin := range ss.twins {
			if twin != nil {
				h.twinPool = append(h.twinPool, twin)
				ss.twins[i] = nil
				ss.dirty[i] = 0
			}
		}
	}
}

// ModifiedRange is a maximal run of consecutive twinned pages within
// one subsegment, the unit of word-by-word diffing.
type ModifiedRange struct {
	Sub       *SubSeg
	FirstPage int
	NumPages  int
}

// ModifiedRanges returns the twinned page runs of the segment in
// address order.
func (s *SegMem) ModifiedRanges() []ModifiedRange {
	var out []ModifiedRange
	for ss := s.first; ss != nil; ss = ss.Next {
		i := 0
		for i < len(ss.twins) {
			if ss.twins[i] == nil {
				i++
				continue
			}
			j := i
			for j < len(ss.twins) && ss.twins[j] != nil {
				j++
			}
			out = append(out, ModifiedRange{Sub: ss, FirstPage: i, NumPages: j - i})
			i = j
		}
	}
	return out
}

// Typed accessors. Multi-byte values honor the heap's profile byte
// order; pointer cells are WordSize bytes.

// ReadU8 loads one byte.
func (h *Heap) ReadU8(a Addr) (byte, error) {
	v, err := h.View(a, 1)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// WriteU8 stores one byte through the fault path.
func (h *Heap) WriteU8(a Addr, v byte) error {
	dst, err := h.store(a, 1)
	if err != nil {
		return err
	}
	dst[0] = v
	return nil
}

// ReadI16 loads a 16-bit integer in local byte order.
func (h *Heap) ReadI16(a Addr) (int16, error) {
	v, err := h.View(a, 2)
	if err != nil {
		return 0, err
	}
	return int16(h.prof.Order.Uint16(v)), nil
}

// WriteI16 stores a 16-bit integer in local byte order.
func (h *Heap) WriteI16(a Addr, v int16) error {
	dst, err := h.store(a, 2)
	if err != nil {
		return err
	}
	h.prof.Order.PutUint16(dst, uint16(v))
	return nil
}

// ReadI32 loads a 32-bit integer in local byte order.
func (h *Heap) ReadI32(a Addr) (int32, error) {
	v, err := h.View(a, 4)
	if err != nil {
		return 0, err
	}
	return int32(h.prof.Order.Uint32(v)), nil
}

// WriteI32 stores a 32-bit integer in local byte order.
func (h *Heap) WriteI32(a Addr, v int32) error {
	dst, err := h.store(a, 4)
	if err != nil {
		return err
	}
	h.prof.Order.PutUint32(dst, uint32(v))
	return nil
}

// ReadI64 loads a 64-bit integer in local byte order.
func (h *Heap) ReadI64(a Addr) (int64, error) {
	v, err := h.View(a, 8)
	if err != nil {
		return 0, err
	}
	return int64(h.prof.Order.Uint64(v)), nil
}

// WriteI64 stores a 64-bit integer in local byte order.
func (h *Heap) WriteI64(a Addr, v int64) error {
	dst, err := h.store(a, 8)
	if err != nil {
		return err
	}
	h.prof.Order.PutUint64(dst, uint64(v))
	return nil
}

// ReadF32 loads a 32-bit float in local byte order.
func (h *Heap) ReadF32(a Addr) (float32, error) {
	v, err := h.ReadI32(a)
	if err != nil {
		return 0, err
	}
	return f32frombits(uint32(v)), nil
}

// WriteF32 stores a 32-bit float in local byte order.
func (h *Heap) WriteF32(a Addr, v float32) error {
	return h.WriteI32(a, int32(f32bits(v)))
}

// ReadF64 loads a 64-bit float in local byte order.
func (h *Heap) ReadF64(a Addr) (float64, error) {
	v, err := h.ReadI64(a)
	if err != nil {
		return 0, err
	}
	return f64frombits(uint64(v)), nil
}

// WriteF64 stores a 64-bit float in local byte order.
func (h *Heap) WriteF64(a Addr, v float64) error {
	return h.WriteI64(a, int64(f64bits(v)))
}

// ReadPtr loads a pointer cell: WordSize bytes in local byte order.
// A zero value is the nil pointer.
func (h *Heap) ReadPtr(a Addr) (Addr, error) {
	if h.prof.WordSize == 4 {
		v, err := h.View(a, 4)
		if err != nil {
			return 0, err
		}
		return Addr(h.prof.Order.Uint32(v)), nil
	}
	v, err := h.View(a, 8)
	if err != nil {
		return 0, err
	}
	return Addr(h.prof.Order.Uint64(v)), nil
}

// WritePtr stores a pointer cell through the fault path.
func (h *Heap) WritePtr(a Addr, p Addr) error {
	if h.prof.WordSize == 4 {
		if p > 0xFFFFFFFF {
			return fmt.Errorf("mem: pointer %#x exceeds 32-bit word", uint64(p))
		}
		return h.WriteI32(a, int32(uint32(p)))
	}
	return h.WriteI64(a, int64(p))
}

// RawWritePtr stores a pointer cell without fault tracking.
func (h *Heap) RawWritePtr(a Addr, p Addr) error {
	n := h.prof.WordSize
	if n == 4 && p > 0xFFFFFFFF {
		return fmt.Errorf("mem: pointer %#x exceeds 32-bit word", uint64(p))
	}
	dst, err := h.MutView(a, n)
	if err != nil {
		return err
	}
	if n == 4 {
		h.prof.Order.PutUint32(dst, uint32(p))
	} else {
		h.prof.Order.PutUint64(dst, uint64(p))
	}
	return nil
}

// ReadCString loads a NUL-terminated string from a fixed-capacity
// string cell.
func (h *Heap) ReadCString(a Addr, capacity int) (string, error) {
	v, err := h.View(a, capacity)
	if err != nil {
		return "", err
	}
	if i := bytes.IndexByte(v, 0); i >= 0 {
		v = v[:i]
	}
	return string(v), nil
}

// WriteCString stores s into a fixed-capacity string cell, padding
// with NULs. s must leave room for the terminator.
func (h *Heap) WriteCString(a Addr, capacity int, s string) error {
	if len(s) >= capacity {
		return fmt.Errorf("mem: string of %d bytes overflows capacity %d", len(s), capacity)
	}
	dst, err := h.store(a, capacity)
	if err != nil {
		return err
	}
	clear(dst[copy(dst, s):])
	return nil
}

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }
func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

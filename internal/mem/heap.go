// Package mem implements InterWeave's client-side memory management:
// a simulated byte-addressable heap holding cached segments.
//
// In the original system a segment's local copy lives in raw process
// memory: a collection of page-aligned, contiguous subsegments, with
// blocks allocated inside them by InterWeave's own heap routines, and
// modification tracking done by write-protecting pages and copying
// twins at fault time (paper Section 3.1). Go cannot expose raw
// process memory this way, so this package supplies the closest
// equivalent: a 64-bit simulated address space carved into 4 KiB
// pages, with subsegments backed by byte slices. Typed accessors
// stand in for the MMU — the first store to a protected page "faults",
// copies a pristine twin, records it in the subsegment's pagemap, and
// un-protects the page, exactly the paper's fault path.
//
// The metadata mirrors Figure 2 of the paper: a segment table keyed
// by name; per-segment balanced trees of blocks by serial number and
// by symbolic name; a global balanced tree of subsegments by address;
// and a per-subsegment balanced tree of blocks by address.
package mem

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"interweave/internal/arch"
	"interweave/internal/rbtree"
	"interweave/internal/types"
)

// Addr is a simulated virtual address.
type Addr uint64

// heapBase is the first address handed out; low addresses are kept
// invalid so that a zero Addr is always "nil".
const heapBase Addr = 0x10000

// Common errors returned by heap operations.
var (
	ErrBadAddress   = errors.New("mem: address not mapped")
	ErrCrossesEnd   = errors.New("mem: access crosses subsegment end")
	ErrDupName      = errors.New("mem: duplicate block name")
	ErrNoSuchBlock  = errors.New("mem: no such block")
	ErrAddressSpace = errors.New("mem: out of address space for this word size")
)

// Stats counts fault-path events, mirroring the costs the paper's
// no-diff mode exists to avoid.
type Stats struct {
	// Faults is the number of simulated write faults taken.
	Faults uint64
	// Twins is the number of page twins created.
	Twins uint64
	// Protects is the number of pages write-protected.
	Protects uint64
}

// Heap is one client's simulated address space. All cached segments
// of the client live in a single heap, so cross-segment pointers are
// plain addresses. Heap is not safe for concurrent use; the client
// library serializes access.
type Heap struct {
	prof    *arch.Profile
	subsegs *rbtree.Tree[Addr, *SubSeg] // subseg_addr_tree (global)
	segs    map[string]*SegMem          // segment table
	next    Addr
	stats   Stats
	// twinPool holds page buffers of dropped twins for the next
	// faults to reuse, so steady-state modification tracking
	// allocates nothing. It never holds more pages than were twinned
	// at once.
	twinPool [][]byte
}

// NewHeap returns an empty heap whose local data formats follow prof.
func NewHeap(prof *arch.Profile) (*Heap, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Heap{
		prof: prof,
		subsegs: rbtree.New[Addr, *SubSeg](func(a, b Addr) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
		segs: make(map[string]*SegMem),
		next: heapBase,
	}, nil
}

// Profile returns the heap's machine profile.
func (h *Heap) Profile() *arch.Profile { return h.prof }

// Stats returns a copy of the fault-path counters.
func (h *Heap) Stats() Stats { return h.stats }

// ResetStats zeroes the fault-path counters.
func (h *Heap) ResetStats() { h.stats = Stats{} }

// SegMem is the cached local copy of one segment: a linked list of
// subsegments plus the per-segment metadata trees and free list of
// Figure 2.
type SegMem struct {
	heap       *Heap
	name       string
	first      *SubSeg
	last       *SubSeg
	byNumber   *rbtree.Tree[uint32, *Block] // blk_number_tree
	byName     *rbtree.Tree[string, *Block] // blk_name_tree
	free       *span                        // free list, sorted by address
	nextSerial uint32
	blockCount int
}

// span is a node in a segment's free list.
type span struct {
	addr Addr
	size int
	next *span
}

// SubSeg is one contiguous, page-multiple chunk of a segment's local
// copy. Fields are read-only outside this package.
type SubSeg struct {
	Seg  *SegMem
	Base Addr
	Data []byte
	// Next links subsegments of the same segment in allocation
	// order.
	Next *SubSeg
	// protected marks pages that will fault on the next store.
	protected []bool
	// twins is the pagemap: twins[i] is the pristine copy of page i
	// taken at fault time, or nil.
	twins [][]byte
	// dirty holds the sub-page dirty hints of twinned pages: bit k of
	// dirty[i] is set once a tracked store touched chunk k (bytes
	// [k*ChunkBytes, (k+1)*ChunkBytes)) of page i since it was twinned.
	dirty []uint64
	// blocks is the blk_addr_tree of blocks starting in this
	// subsegment.
	blocks *rbtree.Tree[Addr, *Block]
}

// Pages returns the number of pages in the subsegment.
func (ss *SubSeg) Pages() int { return len(ss.Data) / arch.PageSize }

// End returns the address one past the subsegment.
func (ss *SubSeg) End() Addr { return ss.Base + Addr(len(ss.Data)) }

// Twin returns the pristine copy of page i, or nil if the page has
// not faulted since protection was last enabled.
func (ss *SubSeg) Twin(i int) []byte { return ss.twins[i] }

// Dirty returns the dirty hints of page i: bit k is set if a tracked
// store touched chunk k of the page since it was twinned. Every byte
// of a twinned page that differs from its twin lies in a dirty chunk,
// unless it was changed by a library write (RawWrite*, MutView), which
// is not tracked. Pages without a twin have no hints.
func (ss *SubSeg) Dirty(i int) uint64 { return ss.dirty[i] }

// Protected reports whether page i is write-protected.
func (ss *SubSeg) Protected(i int) bool { return ss.protected[i] }

// AscendBlocks calls fn for each block starting at or after from, in
// address order, until fn returns false.
func (ss *SubSeg) AscendBlocks(from Addr, fn func(*Block) bool) {
	ss.blocks.AscendFrom(from, func(_ Addr, b *Block) bool { return fn(b) })
}

// Block is one typed allocation inside a segment. Fields are
// read-only outside this package.
type Block struct {
	Serial uint32
	Name   string
	Addr   Addr
	Layout *types.Layout
	// Count is the number of elements of Layout.Type the block
	// holds (IW_malloc of an n-element block).
	Count int
	// DescSerial is the segment-specific serial of the block's type
	// descriptor, assigned when the descriptor is registered with
	// the server; zero until then.
	DescSerial uint32
	// Pending marks a block created locally since the last diff
	// collection; such blocks travel whole, not as twins' diffs.
	Pending bool
	Sub     *SubSeg
	// prevAddr/nextAddr thread the subsegment's blocks in address
	// order, giving O(1) "next block in memory" for the last-block
	// prediction of diff application.
	prevAddr, nextAddr *Block
}

// NextByAddr returns the next block in address order within the same
// subsegment, or nil.
func (b *Block) NextByAddr() *Block { return b.nextAddr }

// Size returns the block's local size in bytes.
func (b *Block) Size() int { return b.Layout.Size * b.Count }

// PrimCount returns the block's total number of primitive units.
func (b *Block) PrimCount() int { return b.Layout.PrimCount * b.Count }

// End returns the address one past the block's last byte.
func (b *Block) End() Addr { return b.Addr + Addr(b.Size()) }

// NewSegment creates an empty cached segment under the given name.
func (h *Heap) NewSegment(name string) (*SegMem, error) {
	if name == "" {
		return nil, errors.New("mem: empty segment name")
	}
	if _, ok := h.segs[name]; ok {
		return nil, fmt.Errorf("mem: segment %q already cached", name)
	}
	s := &SegMem{
		heap: h,
		name: name,
		byNumber: rbtree.New[uint32, *Block](func(a, b uint32) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
		byName: rbtree.New[string, *Block](func(a, b string) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
		nextSerial: 1,
	}
	h.segs[name] = s
	return s, nil
}

// Segment returns the cached segment with the given name.
func (h *Heap) Segment(name string) (*SegMem, bool) {
	s, ok := h.segs[name]
	return s, ok
}

// Segments returns the names of all cached segments.
func (h *Heap) Segments() []string {
	out := make([]string, 0, len(h.segs))
	for n := range h.segs {
		out = append(out, n)
	}
	return out
}

// DropSegment removes a cached segment, unmaps its subsegments and
// returns their twin pages to the heap.
func (h *Heap) DropSegment(name string) error {
	s, ok := h.segs[name]
	if !ok {
		return fmt.Errorf("mem: segment %q not cached", name)
	}
	s.DropTwins()
	for ss := s.first; ss != nil; ss = ss.Next {
		h.subsegs.Delete(ss.Base)
	}
	delete(h.segs, name)
	return nil
}

// Name returns the segment's name.
func (s *SegMem) Name() string { return s.name }

// Heap returns the owning heap.
func (s *SegMem) Heap() *Heap { return s.heap }

// FirstSubSeg returns the head of the subsegment list.
func (s *SegMem) FirstSubSeg() *SubSeg { return s.first }

// NumBlocks returns the number of live blocks.
func (s *SegMem) NumBlocks() int { return s.blockCount }

// NextSerial returns the serial number the next allocation will use.
func (s *SegMem) NextSerial() uint32 { return s.nextSerial }

// growSubSeg maps a new subsegment big enough for size bytes.
func (s *SegMem) growSubSeg(size int) (*SubSeg, error) {
	pages := (size + arch.PageSize - 1) / arch.PageSize
	if pages < 1 {
		pages = 1
	}
	bytes := pages * arch.PageSize
	base := s.heap.next
	// Leave a guard page between subsegments so off-by-one address
	// arithmetic can never silently land in a neighbour.
	s.heap.next += Addr(bytes) + arch.PageSize
	if s.heap.prof.WordSize == 4 && s.heap.next > math.MaxUint32 {
		return nil, ErrAddressSpace
	}
	ss := &SubSeg{
		Seg:       s,
		Base:      base,
		Data:      make([]byte, bytes),
		protected: make([]bool, pages),
		twins:     make([][]byte, pages),
		dirty:     make([]uint64, pages),
		blocks: rbtree.New[Addr, *Block](func(a, b Addr) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
	}
	if s.last == nil {
		s.first, s.last = ss, ss
	} else {
		s.last.Next = ss
		s.last = ss
	}
	s.heap.subsegs.Put(base, ss)
	s.addFree(base, bytes)
	return ss, nil
}

// addFree returns [addr, addr+size) to the free list, coalescing with
// neighbours.
func (s *SegMem) addFree(addr Addr, size int) {
	if size <= 0 {
		return
	}
	var prev *span
	cur := s.free
	for cur != nil && cur.addr < addr {
		prev, cur = cur, cur.next
	}
	n := &span{addr: addr, size: size, next: cur}
	if prev == nil {
		s.free = n
	} else {
		prev.next = n
	}
	// Coalesce with the successor, then the predecessor, but never
	// across subsegment boundaries (the guard page prevents spans
	// from being adjacent across subsegments anyway).
	if cur != nil && n.addr+Addr(n.size) == cur.addr {
		n.size += cur.size
		n.next = cur.next
	}
	if prev != nil && prev.addr+Addr(prev.size) == n.addr {
		prev.size += n.size
		prev.next = n.next
	}
}

// carve removes [addr, addr+size) from the free span sp.
func (s *SegMem) carve(prev, sp *span, addr Addr, size int) {
	headGap := int(addr - sp.addr)
	tailGap := sp.size - headGap - size
	switch {
	case headGap == 0 && tailGap == 0:
		if prev == nil {
			s.free = sp.next
		} else {
			prev.next = sp.next
		}
	case headGap == 0:
		sp.addr += Addr(size)
		sp.size = tailGap
	case tailGap == 0:
		sp.size = headGap
	default:
		tail := &span{addr: addr + Addr(size), size: tailGap, next: sp.next}
		sp.size = headGap
		sp.next = tail
	}
}

// blockAlign returns the starting alignment for a block of the given
// layout: at least one diff word so that run boundaries stay aligned.
func blockAlign(l *types.Layout) int {
	a := l.Align
	if a < arch.WordBytes {
		a = arch.WordBytes
	}
	return a
}

// Alloc allocates a block of count elements of layout, optionally
// named, and zeroes its contents. It corresponds to IW_malloc and
// must be called while holding the segment's write lock.
func (s *SegMem) Alloc(layout *types.Layout, count int, name string) (*Block, error) {
	b, err := s.AllocWithSerial(s.nextSerial, layout, count, name)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AllocWithSerial allocates a block under an explicit serial number.
// The client library uses it when materializing blocks received from
// the server, whose serials were assigned remotely.
func (s *SegMem) AllocWithSerial(serial uint32, layout *types.Layout, count int, name string) (*Block, error) {
	if layout == nil {
		return nil, errors.New("mem: nil layout")
	}
	if layout.Prof != s.heap.prof {
		return nil, fmt.Errorf("mem: layout computed for %v, heap is %v", layout.Prof, s.heap.prof)
	}
	if count < 1 {
		return nil, fmt.Errorf("mem: block count %d, want >= 1", count)
	}
	if serial == 0 {
		return nil, errors.New("mem: block serial 0 is reserved")
	}
	if _, ok := s.byNumber.Get(serial); ok {
		return nil, fmt.Errorf("mem: block serial %d already in use", serial)
	}
	if name != "" {
		if _, ok := s.byName.Get(name); ok {
			return nil, fmt.Errorf("mem: %w: %q", ErrDupName, name)
		}
		// '#' delimits MIP components; a name containing it would
		// make machine-independent pointers ambiguous.
		if strings.ContainsRune(name, '#') {
			return nil, fmt.Errorf("mem: block name %q contains '#'", name)
		}
	}
	size := layout.Size * count
	align := blockAlign(layout)
	addr, ss, err := s.allocSpace(size, align)
	if err != nil {
		return nil, err
	}
	b := &Block{
		Serial:  serial,
		Name:    name,
		Addr:    addr,
		Layout:  layout,
		Count:   count,
		Pending: true,
		Sub:     ss,
	}
	s.byNumber.Put(serial, b)
	if name != "" {
		s.byName.Put(name, b)
	}
	ss.blocks.Put(addr, b)
	// Thread the address-order list using the tree neighbours.
	if _, pred, ok := ss.blocks.Floor(addr - 1); ok {
		b.prevAddr = pred
		b.nextAddr = pred.nextAddr
	} else if _, succ, ok := ss.blocks.Ceiling(addr + 1); ok {
		b.nextAddr = succ
	}
	if b.prevAddr != nil {
		b.prevAddr.nextAddr = b
	}
	if b.nextAddr != nil {
		b.nextAddr.prevAddr = b
	}
	s.blockCount++
	if serial >= s.nextSerial {
		s.nextSerial = serial + 1
	}
	// Zero the block without tripping the fault path: freshly
	// created blocks travel whole, not as twin diffs. On an already
	// twinned page the zeroing still differs from the twin, so it is
	// hinted like a store and the word diff sees what a full page
	// scan would.
	if err := s.heap.RawWriteZero(addr, size); err != nil {
		return nil, fmt.Errorf("mem: zeroing new block: %w", err)
	}
	ss.hint(int(addr-ss.Base), size)
	return b, nil
}

func (s *SegMem) allocSpace(size, align int) (Addr, *SubSeg, error) {
	var prev *span
	for sp := s.free; sp != nil; prev, sp = sp, sp.next {
		start := Addr(alignUp64(uint64(sp.addr), uint64(align)))
		pad := int(start - sp.addr)
		if sp.size >= pad+size {
			s.carve(prev, sp, start, size)
			ss, _, err := s.heap.resolve(start, size)
			if err != nil {
				return 0, nil, err
			}
			return start, ss, nil
		}
	}
	ss, err := s.growSubSeg(size + align)
	if err != nil {
		return 0, nil, err
	}
	start := Addr(alignUp64(uint64(ss.Base), uint64(align)))
	// Find the span covering the new subsegment and carve from it.
	var p *span
	for sp := s.free; sp != nil; p, sp = sp, sp.next {
		if sp.addr <= start && start+Addr(size) <= sp.addr+Addr(sp.size) {
			s.carve(p, sp, start, size)
			return start, ss, nil
		}
	}
	return 0, nil, errors.New("mem: internal error: fresh subsegment not in free list")
}

// Free releases a block's space and removes it from the metadata
// trees. Must be called while holding the segment's write lock.
func (s *SegMem) Free(b *Block) error {
	if b == nil {
		return errors.New("mem: free of nil block")
	}
	got, ok := s.byNumber.Get(b.Serial)
	if !ok || got != b {
		return fmt.Errorf("mem: %w: serial %d", ErrNoSuchBlock, b.Serial)
	}
	s.byNumber.Delete(b.Serial)
	if b.Name != "" {
		s.byName.Delete(b.Name)
	}
	b.Sub.blocks.Delete(b.Addr)
	if b.prevAddr != nil {
		b.prevAddr.nextAddr = b.nextAddr
	}
	if b.nextAddr != nil {
		b.nextAddr.prevAddr = b.prevAddr
	}
	b.prevAddr, b.nextAddr = nil, nil
	s.addFree(b.Addr, b.Size())
	s.blockCount--
	return nil
}

// BlockBySerial returns the block with the given serial number.
func (s *SegMem) BlockBySerial(serial uint32) (*Block, bool) {
	return s.byNumber.Get(serial)
}

// BlockByName returns the block with the given symbolic name.
func (s *SegMem) BlockByName(name string) (*Block, bool) {
	return s.byName.Get(name)
}

// Blocks calls fn for every block in serial-number order until fn
// returns false.
func (s *SegMem) Blocks(fn func(*Block) bool) {
	s.byNumber.Ascend(func(_ uint32, b *Block) bool { return fn(b) })
}

// resolve maps an address range onto its subsegment.
func (h *Heap) resolve(a Addr, n int) (*SubSeg, int, error) {
	if a == 0 {
		return nil, 0, fmt.Errorf("%w: nil address", ErrBadAddress)
	}
	_, ss, ok := h.subsegs.Floor(a)
	if !ok || a >= ss.End() {
		return nil, 0, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(a))
	}
	off := int(a - ss.Base)
	if off+n > len(ss.Data) {
		return nil, 0, fmt.Errorf("%w: %#x+%d", ErrCrossesEnd, uint64(a), n)
	}
	return ss, off, nil
}

// SubSegAt returns the subsegment containing a.
func (h *Heap) SubSegAt(a Addr) (*SubSeg, bool) {
	ss, _, err := h.resolve(a, 1)
	if err != nil {
		return nil, false
	}
	return ss, true
}

// BlockAt returns the block whose extent contains a. This is the
// subseg_addr_tree + blk_addr_tree lookup that pointer swizzling and
// diff collection rely on.
func (h *Heap) BlockAt(a Addr) (*Block, bool) {
	ss, ok := h.SubSegAt(a)
	if !ok {
		return nil, false
	}
	_, b, ok := ss.blocks.Floor(a)
	if !ok || a >= b.End() {
		return nil, false
	}
	return b, true
}

func alignUp64(v, a uint64) uint64 {
	return (v + a - 1) / a * a
}

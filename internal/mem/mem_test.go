package mem

import (
	"math/rand"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/types"
)

func newHeap(t *testing.T, p *arch.Profile) *Heap {
	t.Helper()
	h, err := NewHeap(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newSeg(t *testing.T, h *Heap, name string) *SegMem {
	t.Helper()
	s, err := h.NewSegment(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func layoutOf(t *testing.T, typ *types.Type, p *arch.Profile) *types.Layout {
	t.Helper()
	l, err := types.Of(typ, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func intArrayLayout(t *testing.T, p *arch.Profile, n int) *types.Layout {
	t.Helper()
	a, err := types.ArrayOf(types.Int32(), n)
	if err != nil {
		t.Fatal(err)
	}
	return layoutOf(t, a, p)
}

func TestNewHeapRejectsBadProfile(t *testing.T) {
	if _, err := NewHeap(nil); err == nil {
		t.Error("NewHeap(nil) succeeded")
	}
}

func TestSegmentLifecycle(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	if _, err := h.NewSegment(""); err == nil {
		t.Error("empty segment name accepted")
	}
	s := newSeg(t, h, "host/seg")
	if _, err := h.NewSegment("host/seg"); err == nil {
		t.Error("duplicate segment accepted")
	}
	got, ok := h.Segment("host/seg")
	if !ok || got != s {
		t.Error("Segment lookup failed")
	}
	if len(h.Segments()) != 1 {
		t.Errorf("Segments() = %v", h.Segments())
	}
	// Allocate so the segment owns subsegments, then drop it.
	if _, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 10), 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.DropSegment("host/seg"); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Segment("host/seg"); ok {
		t.Error("segment still present after drop")
	}
	if err := h.DropSegment("host/seg"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestAllocBasics(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 4)
	b1, err := s.Alloc(l, 1, "head")
	if err != nil {
		t.Fatal(err)
	}
	if b1.Serial != 1 {
		t.Errorf("first serial = %d, want 1", b1.Serial)
	}
	if b1.Size() != 16 || b1.PrimCount() != 4 {
		t.Errorf("Size=%d PrimCount=%d", b1.Size(), b1.PrimCount())
	}
	if !b1.Pending {
		t.Error("new block not Pending")
	}
	b2, err := s.Alloc(l, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Serial != 2 {
		t.Errorf("second serial = %d", b2.Serial)
	}
	if b2.Size() != 48 {
		t.Errorf("3-element block size = %d, want 48", b2.Size())
	}
	if got, ok := s.BlockByName("head"); !ok || got != b1 {
		t.Error("BlockByName failed")
	}
	if got, ok := s.BlockBySerial(2); !ok || got != b2 {
		t.Error("BlockBySerial failed")
	}
	if s.NumBlocks() != 2 {
		t.Errorf("NumBlocks = %d", s.NumBlocks())
	}
	// New blocks are zeroed.
	v, err := h.View(b1.Addr, b1.Size())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("byte %d of fresh block = %d", i, x)
		}
	}
	// Blocks iterate in serial order.
	var serials []uint32
	s.Blocks(func(b *Block) bool {
		serials = append(serials, b.Serial)
		return true
	})
	if len(serials) != 2 || serials[0] != 1 || serials[1] != 2 {
		t.Errorf("Blocks order = %v", serials)
	}
}

func TestAllocErrors(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 1)
	if _, err := s.Alloc(nil, 1, ""); err == nil {
		t.Error("nil layout accepted")
	}
	if _, err := s.Alloc(l, 0, ""); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := s.Alloc(intArrayLayout(t, arch.X86(), 1), 1, ""); err == nil {
		t.Error("cross-profile layout accepted")
	}
	if _, err := s.Alloc(l, 1, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(l, 1, "dup"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.AllocWithSerial(0, l, 1, ""); err == nil {
		t.Error("serial 0 accepted")
	}
	if _, err := s.AllocWithSerial(1, l, 1, ""); err == nil {
		t.Error("duplicate serial accepted")
	}
}

func TestAllocWithSerialBumpsNext(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 1)
	if _, err := s.AllocWithSerial(10, l, 1, ""); err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(l, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if b.Serial != 11 {
		t.Errorf("serial after explicit 10 = %d, want 11", b.Serial)
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 64) // 256 bytes
	b1, err := s.Alloc(l, 1, "a")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Alloc(l, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := b1.Addr
	if err := s.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(b1); err == nil {
		t.Error("double free succeeded")
	}
	if _, ok := s.BlockByName("a"); ok {
		t.Error("freed block still named")
	}
	if _, ok := h.BlockAt(addr1); ok {
		t.Error("freed block still found by address")
	}
	// The freed space is reused (first fit).
	b3, err := s.Alloc(l, 1, "c")
	if err != nil {
		t.Fatal(err)
	}
	if b3.Addr != addr1 {
		t.Errorf("reused addr = %#x, want %#x", uint64(b3.Addr), uint64(addr1))
	}
	_ = b2
	if err := s.Free(nil); err == nil {
		t.Error("Free(nil) succeeded")
	}
}

func TestFreeCoalescing(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 64) // 256 bytes each
	var blocks []*Block
	for i := 0; i < 8; i++ {
		b, err := s.Alloc(l, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	base := blocks[0].Addr
	for _, b := range blocks {
		if err := s.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, a large block fits in the coalesced
	// space without growing a new subsegment.
	big := intArrayLayout(t, arch.AMD64(), 512) // 2048 bytes
	nb, err := s.Alloc(big, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if nb.Addr != base {
		t.Errorf("coalesced alloc at %#x, want %#x", uint64(nb.Addr), uint64(base))
	}
}

func TestMultiPageAndSubsegGrowth(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	big := intArrayLayout(t, arch.AMD64(), 4096) // 16 KiB, 4 pages
	b1, err := s.Alloc(big, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ss := b1.Sub
	if ss.Pages() < 4 {
		t.Errorf("subseg pages = %d, want >= 4", ss.Pages())
	}
	b2, err := s.Alloc(big, 4, "") // 64 KiB forces growth
	if err != nil {
		t.Fatal(err)
	}
	if b2.Sub == ss {
		t.Error("second big block should live in a new subsegment")
	}
	// Subsegment list order.
	if s.FirstSubSeg() != ss || ss.Next != b2.Sub {
		t.Error("subsegment list order wrong")
	}
	// Guard gap between subsegments.
	if ss.End() >= b2.Sub.Base {
		t.Error("no guard gap between subsegments")
	}
}

func TestBlockAtBoundaries(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	l := intArrayLayout(t, arch.AMD64(), 8)
	b, err := s.Alloc(l, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.BlockAt(b.Addr); !ok || got != b {
		t.Error("BlockAt(start) failed")
	}
	if got, ok := h.BlockAt(b.Addr + Addr(b.Size()-1)); !ok || got != b {
		t.Error("BlockAt(last byte) failed")
	}
	if _, ok := h.BlockAt(b.End()); ok {
		t.Error("BlockAt(end) found block")
	}
	if _, ok := h.BlockAt(0); ok {
		t.Error("BlockAt(0) found block")
	}
	if _, ok := h.BlockAt(0xDEAD0000000); ok {
		t.Error("BlockAt(unmapped) found block")
	}
}

func TestViewErrors(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.View(0, 1); err == nil {
		t.Error("View(0) succeeded")
	}
	if _, err := h.View(b.Sub.End()-1, 2); err == nil {
		t.Error("View crossing subsegment end succeeded")
	}
	if _, err := h.View(b.Sub.End()+arch.PageSize*2, 1); err == nil {
		t.Error("View into guard gap succeeded")
	}
}

func TestAccessorsAllProfiles(t *testing.T) {
	for _, p := range arch.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			h := newHeap(t, p)
			s := newSeg(t, h, "s")
			b, err := s.Alloc(intArrayLayout(t, p, 256), 1, "")
			if err != nil {
				t.Fatal(err)
			}
			a := b.Addr
			if err := h.WriteU8(a, 0x7F); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadU8(a); v != 0x7F {
				t.Errorf("U8 = %#x", v)
			}
			if err := h.WriteI16(a+2, -12345); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadI16(a + 2); v != -12345 {
				t.Errorf("I16 = %d", v)
			}
			if err := h.WriteI32(a+4, -123456789); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadI32(a + 4); v != -123456789 {
				t.Errorf("I32 = %d", v)
			}
			if err := h.WriteI64(a+8, -1234567890123); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadI64(a + 8); v != -1234567890123 {
				t.Errorf("I64 = %d", v)
			}
			if err := h.WriteF32(a+16, 3.25); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadF32(a + 16); v != 3.25 {
				t.Errorf("F32 = %v", v)
			}
			if err := h.WriteF64(a+24, -2.5e101); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadF64(a + 24); v != -2.5e101 {
				t.Errorf("F64 = %v", v)
			}
			if err := h.WritePtr(a+32, b.Addr); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadPtr(a + 32); v != b.Addr {
				t.Errorf("Ptr = %#x", uint64(v))
			}
			if err := h.WriteCString(a+64, 16, "interweave"); err != nil {
				t.Fatal(err)
			}
			if v, _ := h.ReadCString(a+64, 16); v != "interweave" {
				t.Errorf("CString = %q", v)
			}
			if err := h.WriteCString(a+64, 4, "toolong"); err == nil {
				t.Error("overlong string accepted")
			}
		})
	}
}

func TestEndianessOfLocalFormat(t *testing.T) {
	hBE := newHeap(t, arch.Sparc())
	hLE := newHeap(t, arch.X86())
	for _, h := range []*Heap{hBE, hLE} {
		s := newSeg(t, h, "s")
		b, err := s.Alloc(intArrayLayout(t, h.Profile(), 4), 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteI32(b.Addr, 0x01020304); err != nil {
			t.Fatal(err)
		}
		v, err := h.View(b.Addr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if h.Profile().BigEndian() {
			if v[0] != 1 || v[3] != 4 {
				t.Errorf("BE local bytes = %v", v)
			}
		} else {
			if v[0] != 4 || v[3] != 1 {
				t.Errorf("LE local bytes = %v", v)
			}
		}
	}
}

func TestPtr32Overflow(t *testing.T) {
	h := newHeap(t, arch.X86())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.X86(), 4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePtr(b.Addr, 0x1_0000_0000); err == nil {
		t.Error("64-bit pointer accepted on 32-bit profile")
	}
	if err := h.RawWritePtr(b.Addr, 0x1_0000_0000); err == nil {
		t.Error("64-bit raw pointer accepted on 32-bit profile")
	}
}

func TestFaultPathCreatesTwins(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	// Two pages worth of ints.
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 2*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WriteI32(b.Addr, 7); err != nil { // pre-protection write
		t.Fatal(err)
	}
	if h.Stats().Faults != 0 {
		t.Error("unprotected write faulted")
	}
	s.WriteProtect()
	if err := h.WriteI32(b.Addr+8, 42); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Faults != 1 || st.Twins != 1 {
		t.Errorf("after first write: faults=%d twins=%d", st.Faults, st.Twins)
	}
	// Second write to same page: no new fault.
	if err := h.WriteI32(b.Addr+16, 43); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Faults != 1 {
		t.Error("second write to unprotected page faulted")
	}
	// Twin holds the pristine content (7 at offset 0).
	ss := b.Sub
	page0 := int(b.Addr-ss.Base) >> arch.PageShift
	twin := ss.Twin(page0)
	if twin == nil {
		t.Fatal("no twin for written page")
	}
	off := int(b.Addr-ss.Base) & (arch.PageSize - 1)
	if got := h.Profile().Order.Uint32(twin[off:]); got != 7 {
		t.Errorf("twin[0] = %d, want pristine 7", got)
	}
	// The live page holds the new value.
	if v, _ := h.ReadI32(b.Addr + 8); v != 42 {
		t.Errorf("live value = %d", v)
	}
	// A write spanning into the second page twins it too.
	if err := h.WriteI64(b.Addr+Addr(arch.PageSize)-4, 1); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Twins != 2 {
		t.Errorf("twins = %d after page-spanning write, want 2", h.Stats().Twins)
	}
	ranges := s.ModifiedRanges()
	if len(ranges) != 1 || ranges[0].NumPages != 2 {
		t.Errorf("ModifiedRanges = %+v, want one 2-page range", ranges)
	}
	s.DropTwins()
	if len(s.ModifiedRanges()) != 0 {
		t.Error("ranges remain after DropTwins")
	}
}

func TestRawWriteBypassesFaults(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 16), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	s.WriteProtect()
	if err := h.RawWrite(b.Addr, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Faults != 0 || st.Twins != 0 {
		t.Errorf("raw write faulted: %+v", st)
	}
	// Page remains protected, so a later tracked write still faults.
	if err := h.WriteI32(b.Addr+8, 9); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Faults != 1 {
		t.Error("tracked write after raw write did not fault")
	}
}

func TestUnprotect(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 16), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	s.WriteProtect()
	s.Unprotect()
	if err := h.WriteI32(b.Addr, 5); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Faults != 0 {
		t.Error("write after Unprotect faulted")
	}
}

func TestModifiedRangesDisjoint(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	// 8 pages of ints.
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 8*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	s.WriteProtect()
	// Touch pages 1, 2, and 5 (relative to block start page).
	base := b.Addr
	for _, pg := range []int{1, 2, 5} {
		if err := h.WriteI32(base+Addr(pg*arch.PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	ranges := s.ModifiedRanges()
	if len(ranges) != 2 {
		t.Fatalf("ranges = %+v, want 2 (pages 1-2 and 5)", ranges)
	}
	if ranges[0].NumPages != 2 || ranges[1].NumPages != 1 {
		t.Errorf("range sizes = %d,%d; want 2,1", ranges[0].NumPages, ranges[1].NumPages)
	}
	// Each one-word store hinted exactly the chunk it landed in.
	ss := b.Sub
	first := int(base-ss.Base) >> arch.PageShift
	for pg := 0; pg < ss.Pages(); pg++ {
		var want uint64
		switch pg - first {
		case 1, 2, 5:
			want = 1 << (int(base-ss.Base) & (arch.PageSize - 1) >> ChunkShift)
		}
		if got := ss.Dirty(pg); got != want {
			t.Errorf("page %d dirty mask = %#x, want %#x", pg, got, want)
		}
	}
	s.DropTwins()
	if len(s.ModifiedRanges()) != 0 {
		t.Error("ranges remain after DropTwins")
	}
	for pg := 0; pg < ss.Pages(); pg++ {
		if ss.Dirty(pg) != 0 {
			t.Errorf("page %d dirty mask %#x survives DropTwins", pg, ss.Dirty(pg))
		}
	}
}

func TestDirtyHints(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 2*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ss := b.Sub
	off := int(b.Addr - ss.Base)
	// Unprotected, untwinned pages carry no hints.
	if err := h.WriteI32(b.Addr, 1); err != nil {
		t.Fatal(err)
	}
	if ss.Dirty(off>>arch.PageShift) != 0 {
		t.Error("store to an untwinned page was hinted")
	}
	s.WriteProtect()
	// A store straddling a chunk boundary hints both chunks; a
	// library write to the twinned page hints nothing.
	a := b.Addr + Addr(2*ChunkBytes-4)
	if err := h.WriteI64(a, -1); err != nil {
		t.Fatal(err)
	}
	if err := h.RawWrite(b.Addr+Addr(10*ChunkBytes), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	pg := off >> arch.PageShift
	c := (off + 2*ChunkBytes - 4) & (arch.PageSize - 1) >> ChunkShift
	if got, want := ss.Dirty(pg), uint64(3)<<c; got != want {
		t.Errorf("dirty mask after straddling store = %#x, want %#x", got, want)
	}
	// A store straddling the page boundary hints the last chunk of one
	// page and the first chunk of the next.
	pageEnd := ss.Base + Addr((pg+1)<<arch.PageShift)
	if err := h.WriteI64(pageEnd-2, -1); err != nil {
		t.Fatal(err)
	}
	if ss.Dirty(pg)>>63 != 1 || ss.Dirty(pg+1) != 1 {
		t.Errorf("page-straddling store: masks %#x, %#x", ss.Dirty(pg), ss.Dirty(pg+1))
	}
	// Zeroing a new block on a twinned page is hinted like a store:
	// twin the free page after b through its last word, then allocate
	// at its start.
	free := b.End()
	if err := h.WriteI32(free+Addr(arch.PageSize-4), 1); err != nil {
		t.Fatal(err)
	}
	nb, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 4), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	npg := int(free-ss.Base) >> arch.PageShift
	if nb.Addr != free || ss.Twin(npg) == nil {
		t.Fatalf("new block at %#x (want %#x), page twinned %v", uint64(nb.Addr), uint64(free), ss.Twin(npg) != nil)
	}
	if got, want := ss.Dirty(npg), uint64(1)|1<<63; got != want {
		t.Errorf("dirty mask after alloc on a twinned page = %#x, want %#x", got, want)
	}
}

// TestTwinPoolLifetime checks that dropped twin pages are reused,
// never leak a previous page's bytes, and leave fault accounting as
// it was without the pool.
func TestTwinPoolLifetime(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), 2*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	ss := b.Sub
	pg := int(b.Addr-ss.Base) >> arch.PageShift
	page := func() []byte { return ss.Data[pg<<arch.PageShift : (pg+1)<<arch.PageShift] }

	s.WriteProtect()
	if err := h.WriteI32(b.Addr, 11); err != nil {
		t.Fatal(err)
	}
	first := ss.Twin(pg)
	s.DropTwins()
	if len(h.twinPool) != 1 {
		t.Fatalf("pool holds %d pages after DropTwins, want 1", len(h.twinPool))
	}
	// New pristine contents, written unprotected, then a re-fault:
	// the reused twin holds exactly those bytes.
	for i := 0; i < arch.PageWords; i += 7 {
		if err := h.WriteI32(b.Addr+Addr(4*i), int32(i)+100); err != nil {
			t.Fatal(err)
		}
	}
	pristine := append([]byte(nil), page()...)
	s.WriteProtect()
	if err := h.WriteI32(b.Addr+4, 99); err != nil {
		t.Fatal(err)
	}
	twin := ss.Twin(pg)
	if &twin[0] != &first[0] {
		t.Error("re-fault did not reuse the pooled twin page")
	}
	if string(twin) != string(pristine) {
		t.Error("reused twin does not hold the page's pristine bytes")
	}

	// Fault accounting: one fault per store to a protected page, one
	// twin per page without one, pooled or not.
	h.ResetStats()
	s.DropTwins()
	s.WriteProtect()
	mustWrite := func(a Addr) {
		t.Helper()
		if err := h.WriteI32(a, 5); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(b.Addr)                       // fault + twin
	mustWrite(b.Addr + 8)                   // no fault
	s.WriteProtect()                        // re-protect, twin kept
	mustWrite(b.Addr + 12)                  // fault, no twin
	mustWrite(b.Addr + Addr(arch.PageSize)) // fault + twin on the next page
	if st := h.Stats(); st.Faults != 3 || st.Twins != 2 {
		t.Errorf("faults=%d twins=%d, want 3 and 2", st.Faults, st.Twins)
	}

	// DropSegment returns its twin pages to the heap; a second
	// segment's faults take them back.
	if err := h.DropSegment("s"); err != nil {
		t.Fatal(err)
	}
	if len(h.twinPool) != 2 {
		t.Fatalf("pool holds %d pages after DropSegment, want 2", len(h.twinPool))
	}
	s2 := newSeg(t, h, "s2")
	b2, err := s2.Alloc(intArrayLayout(t, arch.AMD64(), 2*arch.PageWords), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	s2.WriteProtect()
	mustWrite(b2.Addr)
	mustWrite(b2.Addr + Addr(arch.PageSize))
	if len(h.twinPool) != 0 {
		t.Errorf("pool holds %d pages after two faults, want 0", len(h.twinPool))
	}

	// Steady state: a protect/store/drop round allocates nothing. (The
	// typed accessors box their value through the profile's byte
	// order; Write with a caller's buffer does not.)
	val := []byte{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(20, func() {
		s2.WriteProtect()
		_ = h.Write(b2.Addr, val)
		_ = h.Write(b2.Addr+Addr(arch.PageSize), val)
		s2.DropTwins()
	})
	if allocs != 0 {
		t.Errorf("protect/store/drop round allocates %.1f objects, want 0", allocs)
	}
}

func TestAddressSpaceExhaustion32(t *testing.T) {
	h := newHeap(t, arch.X86())
	s := newSeg(t, h, "s")
	// Place the brk just below the 32-bit ceiling; the next
	// subsegment (data + guard page) must be refused.
	h.next = 0xFFFFFFFF - 2*arch.PageSize + 1
	_, err := s.Alloc(intArrayLayout(t, arch.X86(), 4*arch.PageWords), 1, "")
	if err == nil {
		t.Fatal("allocation past 32-bit address space succeeded")
	}
	// A 64-bit heap at the same brk is fine.
	h64 := newHeap(t, arch.AMD64())
	s64 := newSeg(t, h64, "s")
	h64.next = 0xFFFFFFFF - 2*arch.PageSize + 1
	if _, err := s64.Alloc(intArrayLayout(t, arch.AMD64(), 4*arch.PageWords), 1, ""); err != nil {
		t.Fatalf("64-bit heap refused allocation: %v", err)
	}
}

// TestRandomAllocFree drives random allocation and free traffic and
// checks the structural invariants: live blocks never overlap, every
// interior address resolves to its block, and freed space is reused.
func TestRandomAllocFree(t *testing.T) {
	h := newHeap(t, arch.AMD64())
	s := newSeg(t, h, "s")
	rng := rand.New(rand.NewSource(7))
	live := make(map[uint32]*Block)
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			n := 1 + rng.Intn(200)
			b, err := s.Alloc(intArrayLayout(t, arch.AMD64(), n), 1, "")
			if err != nil {
				t.Fatalf("step %d: alloc: %v", step, err)
			}
			live[b.Serial] = b
		} else {
			for _, b := range live {
				if err := s.Free(b); err != nil {
					t.Fatalf("step %d: free: %v", step, err)
				}
				delete(live, b.Serial)
				break
			}
		}
	}
	// No two live blocks overlap, and lookups resolve.
	type ext struct{ lo, hi Addr }
	var exts []ext
	for _, b := range live {
		exts = append(exts, ext{b.Addr, b.End()})
		for _, probe := range []Addr{b.Addr, b.Addr + Addr(b.Size()/2), b.End() - 1} {
			got, ok := h.BlockAt(probe)
			if !ok || got != b {
				t.Fatalf("BlockAt(%#x) = %v,%v; want block %d", uint64(probe), got, ok, b.Serial)
			}
		}
	}
	for i := range exts {
		for j := i + 1; j < len(exts); j++ {
			a, b := exts[i], exts[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatal("live blocks overlap")
			}
		}
	}
	if s.NumBlocks() != len(live) {
		t.Errorf("NumBlocks = %d, want %d", s.NumBlocks(), len(live))
	}
}

// TestTypedStoresAllocateNothing pins the typed store path: once a
// page is twinned, every Write* — and RawWritePtr — allocates nothing,
// in either byte order and word size.
func TestTypedStoresAllocateNothing(t *testing.T) {
	for _, prof := range []*arch.Profile{arch.AMD64(), arch.Sparc()} {
		t.Run(prof.Name, func(t *testing.T) {
			h := newHeap(t, prof)
			s := newSeg(t, h, "host/allocs")
			b, err := s.Alloc(intArrayLayout(t, prof, 64), 1, "")
			if err != nil {
				t.Fatal(err)
			}
			a := b.Addr
			s.WriteProtect()
			if err := h.WriteI32(a, 1); err != nil { // twins the page
				t.Fatal(err)
			}
			stores := map[string]func() error{
				"Write":        func() error { return h.Write(a, []byte{1, 2, 3}) },
				"WriteU8":      func() error { return h.WriteU8(a, 7) },
				"WriteI16":     func() error { return h.WriteI16(a, -3) },
				"WriteI32":     func() error { return h.WriteI32(a, 1<<20) },
				"WriteI64":     func() error { return h.WriteI64(a+8, -1<<40) },
				"WriteF32":     func() error { return h.WriteF32(a, 1.5) },
				"WriteF64":     func() error { return h.WriteF64(a+8, 2.25) },
				"WritePtr":     func() error { return h.WritePtr(a+16, a) },
				"RawWritePtr":  func() error { return h.RawWritePtr(a+16, a) },
				"WriteCString": func() error { return h.WriteCString(a+32, 16, "hello") },
			}
			for name, store := range stores {
				if got := testing.AllocsPerRun(50, func() {
					if err := store(); err != nil {
						t.Fatal(err)
					}
				}); got != 0 {
					t.Errorf("%s: %v allocations per store, want 0", name, got)
				}
			}
			if v, _ := h.ReadPtr(a + 16); v != a {
				t.Errorf("pointer cell reads %#x, want %#x", uint64(v), uint64(a))
			}
			if v, _ := h.ReadCString(a+32, 16); v != "hello" {
				t.Errorf("string cell reads %q", v)
			}
		})
	}
}

package diff

import (
	"math/rand"
	"strconv"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/swizzle"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// client bundles a heap, a segment, and the glue callbacks a real
// InterWeave client provides, so tests can move diffs between
// heterogeneous "machines".
type client struct {
	heap *mem.Heap
	seg  *mem.SegMem
	// descs maps descriptor serials to machine-independent types.
	descs map[uint32]*types.Type
}

func newClient(t testing.TB, prof *arch.Profile, segName string) *client {
	t.Helper()
	h, err := mem.NewHeap(prof)
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.NewSegment(segName)
	if err != nil {
		t.Fatal(err)
	}
	return &client{heap: h, seg: s, descs: make(map[uint32]*types.Type)}
}

func (c *client) layoutFor(t testing.TB) func(uint32) (*types.Layout, error) {
	return func(serial uint32) (*types.Layout, error) {
		typ, ok := c.descs[serial]
		if !ok {
			t.Fatalf("unknown descriptor serial %d", serial)
		}
		return types.Of(typ, c.heap.Profile())
	}
}

func (c *client) swizzler() SwizzleFunc {
	return func(a mem.Addr) (string, error) {
		m, err := swizzle.PtrToMIP(c.heap, a)
		if err != nil {
			return "", err
		}
		return m.String(), nil
	}
}

func (c *client) resolver(t testing.TB) ResolveFunc {
	return func(s string) (mem.Addr, error) {
		m, err := swizzle.Parse(s)
		if err != nil {
			return 0, err
		}
		if m.IsNil() {
			return 0, nil
		}
		seg, ok := c.heap.Segment(m.Segment)
		if !ok {
			t.Fatalf("resolver: segment %q not cached", m.Segment)
		}
		return swizzle.AddrOfMIP(seg, m)
	}
}

// alloc allocates a block and registers its type under descSerial.
func (c *client) alloc(t testing.TB, typ *types.Type, descSerial uint32, count int, name string) *mem.Block {
	t.Helper()
	l, err := types.Of(typ, c.heap.Profile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.seg.Alloc(l, count, name)
	if err != nil {
		t.Fatal(err)
	}
	b.DescSerial = descSerial
	c.descs[descSerial] = typ
	return b
}

func mixType(t *testing.T) *types.Type {
	t.Helper()
	s256, err := types.StringOf(256)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := types.StringOf(8)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := types.PointerTo(types.Int32())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := types.StructOf("mix",
		types.Field{Name: "i", Type: types.Int32()},
		types.Field{Name: "d", Type: types.Float64()},
		types.Field{Name: "s", Type: s256},
		types.Field{Name: "t", Type: s4},
		types.Field{Name: "p", Type: pi},
		types.Field{Name: "c", Type: types.Char()},
		types.Field{Name: "j", Type: types.Int64()},
		types.Field{Name: "f", Type: types.Float32()},
		types.Field{Name: "h", Type: types.Int16()},
	)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// transfer collects from src and applies to dst, registering dst's
// descriptor table from the src client's.
func transfer(t testing.TB, src, dst *client, copts CollectOptions) (*wire.SegmentDiff, *ApplyResult) {
	t.Helper()
	if copts.Swizzle == nil {
		copts.Swizzle = src.swizzler()
	}
	d, err := CollectSegment(src.seg, copts)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	// Serialize/deserialize to exercise the wire encoding.
	enc := d.Marshal(nil)
	dec, err := wire.UnmarshalSegmentDiff(enc)
	if err != nil {
		t.Fatalf("wire roundtrip: %v", err)
	}
	for serial, typ := range src.descs {
		if _, ok := dst.descs[serial]; !ok {
			// Simulate descriptor registration through the wire.
			b, err := types.Marshal(typ)
			if err != nil {
				t.Fatal(err)
			}
			back, err := types.Unmarshal(b)
			if err != nil {
				t.Fatal(err)
			}
			dst.descs[serial] = back
		}
	}
	res, err := ApplySegment(dst.seg, dec, ApplyOptions{
		Resolve:   dst.resolver(t),
		LayoutFor: dst.layoutFor(t),
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return d, res
}

func TestFullTransferHeterogeneous(t *testing.T) {
	// Big-endian 32-bit writer, little-endian 64-bit reader: the
	// paper's core scenario.
	src := newClient(t, arch.Sparc(), "h/s")
	dst := newClient(t, arch.Alpha(), "h/s")

	mix := mixType(t)
	b := src.alloc(t, mix, 1, 3, "data")
	ints := src.alloc(t, types.Int32(), 2, 4, "ints")

	h := src.heap
	l := b.Layout
	for e := 0; e < 3; e++ {
		base := b.Addr + mem.Addr(e*l.Size)
		fb := func(name string) mem.Addr {
			f, ok := l.Field(name)
			if !ok {
				t.Fatalf("field %s", name)
			}
			return base + mem.Addr(f.ByteOff)
		}
		mustOK(t, h.WriteI32(fb("i"), int32(100+e)))
		mustOK(t, h.WriteF64(fb("d"), 1.5*float64(e)-2.25))
		mustOK(t, h.WriteCString(fb("s"), 256, "long string value "+strconv.Itoa(e)))
		mustOK(t, h.WriteCString(fb("t"), 8, "ab"+strconv.Itoa(e)))
		mustOK(t, h.WritePtr(fb("p"), ints.Addr+mem.Addr(4*e)))
		mustOK(t, h.WriteU8(fb("c"), byte('x'+e)))
		mustOK(t, h.WriteI64(fb("j"), int64(-7e12)+int64(e)))
		mustOK(t, h.WriteF32(fb("f"), float32(e)*0.5))
		mustOK(t, h.WriteI16(fb("h"), int16(-3*e)))
	}
	for i := 0; i < 4; i++ {
		mustOK(t, h.WriteI32(ints.Addr+mem.Addr(4*i), int32(i*i)))
	}

	_, res := transfer(t, src, dst, CollectOptions{Version: 1})
	if res.NewBlocks != 2 {
		t.Fatalf("NewBlocks = %d, want 2", res.NewBlocks)
	}

	// Verify on the destination machine.
	db, ok := dst.seg.BlockByName("data")
	if !ok {
		t.Fatal("data block missing on dst")
	}
	dints, ok := dst.seg.BlockByName("ints")
	if !ok {
		t.Fatal("ints block missing on dst")
	}
	dl := db.Layout
	dh := dst.heap
	for e := 0; e < 3; e++ {
		base := db.Addr + mem.Addr(e*dl.Size)
		fb := func(name string) mem.Addr {
			f, _ := dl.Field(name)
			return base + mem.Addr(f.ByteOff)
		}
		if v, _ := dh.ReadI32(fb("i")); v != int32(100+e) {
			t.Errorf("elem %d i = %d", e, v)
		}
		if v, _ := dh.ReadF64(fb("d")); v != 1.5*float64(e)-2.25 {
			t.Errorf("elem %d d = %v", e, v)
		}
		if v, _ := dh.ReadCString(fb("s"), 256); v != "long string value "+strconv.Itoa(e) {
			t.Errorf("elem %d s = %q", e, v)
		}
		if v, _ := dh.ReadCString(fb("t"), 8); v != "ab"+strconv.Itoa(e) {
			t.Errorf("elem %d t = %q", e, v)
		}
		if v, _ := dh.ReadPtr(fb("p")); v != dints.Addr+mem.Addr(4*e) {
			t.Errorf("elem %d p = %#x, want %#x", e, uint64(v), uint64(dints.Addr+mem.Addr(4*e)))
		}
		if v, _ := dh.ReadU8(fb("c")); v != byte('x'+e) {
			t.Errorf("elem %d c = %c", e, v)
		}
		if v, _ := dh.ReadI64(fb("j")); v != int64(-7e12)+int64(e) {
			t.Errorf("elem %d j = %d", e, v)
		}
		if v, _ := dh.ReadF32(fb("f")); v != float32(e)*0.5 {
			t.Errorf("elem %d f = %v", e, v)
		}
		if v, _ := dh.ReadI16(fb("h")); v != int16(-3*e) {
			t.Errorf("elem %d h = %d", e, v)
		}
	}
	for i := 0; i < 4; i++ {
		if v, _ := dh.ReadI32(dints.Addr + mem.Addr(4*i)); v != int32(i*i) {
			t.Errorf("ints[%d] = %d", i, v)
		}
	}
}

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalDiffSmallerThanFull(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	dst := newClient(t, arch.X86(), "h/s")
	const n = 64 * 1024 // 256 KiB of ints
	b := src.alloc(t, types.Int32(), 1, n, "a")
	for i := 0; i < n; i++ {
		mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*i), int32(i)))
	}
	full, _ := transfer(t, src, dst, CollectOptions{Version: 1})
	fullSize := full.WireSize()

	// Modify 100 scattered ints under write protection.
	src.seg.WriteProtect()
	for i := 0; i < 100; i++ {
		mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*i*637), int32(-i)))
	}
	d, res := transfer(t, src, dst, CollectOptions{Version: 2})
	src.seg.DropTwins()
	if d.WireSize() >= fullSize/10 {
		t.Errorf("incremental diff %d bytes vs full %d; want <10%%", d.WireSize(), fullSize)
	}
	if res.UnitsApplied == 0 || res.UnitsApplied > 100*3 {
		t.Errorf("UnitsApplied = %d", res.UnitsApplied)
	}
	// Destination content matches source exactly.
	db, _ := dst.seg.BlockByName("a")
	for i := 0; i < n; i++ {
		want, _ := src.heap.ReadI32(b.Addr + mem.Addr(4*i))
		got, _ := dst.heap.ReadI32(db.Addr + mem.Addr(4*i))
		if got != want {
			t.Fatalf("int %d = %d, want %d", i, got, want)
		}
	}
}

func TestSplicing(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	const n = 1024
	b := src.alloc(t, types.Int32(), 1, n, "a")
	// First sync away the pending state.
	if _, err := CollectSegment(src.seg, CollectOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}

	collectWithStride := func(stride, spliceWords int) *wire.SegmentDiff {
		t.Helper()
		src.seg.WriteProtect()
		for i := 0; i < n; i += stride {
			mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*i), int32(i+stride)))
		}
		d, err := CollectSegment(src.seg, CollectOptions{Version: 2, SpliceWords: spliceWords})
		if err != nil {
			t.Fatal(err)
		}
		src.seg.DropTwins()
		src.seg.Unprotect()
		return d
	}

	// Stride 2: gaps of one word are spliced; the whole block should
	// be one run.
	d2 := collectWithStride(2, 0)
	if runs := countRuns(d2); runs != 1 {
		t.Errorf("stride 2: %d runs, want 1 (splicing)", runs)
	}
	// Stride 4: gaps of three words exceed the threshold; many runs.
	d4 := collectWithStride(4, 0)
	if runs := countRuns(d4); runs < n/8 {
		t.Errorf("stride 4: %d runs, want many", runs)
	}
	// Splicing disabled: stride 2 produces many runs.
	d2ns := collectWithStride(2, -1)
	if runs := countRuns(d2ns); runs < n/4 {
		t.Errorf("stride 2 unspliced: %d runs, want ~%d", runs, n/2)
	}
}

func TestNoDiffMode(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	dst := newClient(t, arch.Sparc(), "h/s")
	const n = 4096
	b := src.alloc(t, types.Int32(), 1, n, "a")
	transfer(t, src, dst, CollectOptions{Version: 1})

	// Modify WITHOUT write protection — no twins exist. No-diff mode
	// must still ship everything.
	for i := 0; i < n; i++ {
		mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*i), int32(7*i)))
	}
	d, _ := transfer(t, src, dst, CollectOptions{Version: 2, NoDiff: true})
	if countRuns(d) != 1 {
		t.Errorf("no-diff runs = %d, want 1 whole-block run", countRuns(d))
	}
	db, _ := dst.seg.BlockByName("a")
	for i := 0; i < n; i += 997 {
		if v, _ := dst.heap.ReadI32(db.Addr + mem.Addr(4*i)); v != int32(7*i) {
			t.Fatalf("dst[%d] = %d, want %d", i, v, 7*i)
		}
	}
	if st := src.heap.Stats(); st.Faults != 0 {
		t.Errorf("no-diff mode took %d faults", st.Faults)
	}
}

func TestFreedBlocksPropagate(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	dst := newClient(t, arch.AMD64(), "h/s")
	b1 := src.alloc(t, types.Int32(), 1, 8, "a")
	src.alloc(t, types.Int32(), 1, 8, "b")
	transfer(t, src, dst, CollectOptions{Version: 1})
	if dst.seg.NumBlocks() != 2 {
		t.Fatalf("dst blocks = %d", dst.seg.NumBlocks())
	}
	serial := b1.Serial
	mustOK(t, src.seg.Free(b1))
	_, res := transfer(t, src, dst, CollectOptions{Version: 2, Freed: []uint32{serial}})
	if res.FreedBlocks != 1 {
		t.Errorf("FreedBlocks = %d", res.FreedBlocks)
	}
	if _, ok := dst.seg.BlockByName("a"); ok {
		t.Error("freed block survives on dst")
	}
	// Freeing an unknown serial is a no-op, not an error.
	_, res = transfer(t, src, dst, CollectOptions{Version: 3, Freed: []uint32{9999}})
	if res.FreedBlocks != 0 {
		t.Errorf("unknown free applied: %d", res.FreedBlocks)
	}
}

func TestPointerNilAndCrossSegment(t *testing.T) {
	src := newClient(t, arch.Alpha(), "h/a")
	dst := newClient(t, arch.Sparc(), "h/a")
	srcOther, err := src.heap.NewSegment("h/b")
	mustOK(t, err)
	dstOther, err := dst.heap.NewSegment("h/b")
	mustOK(t, err)

	pi, err := types.PointerTo(types.Int32())
	mustOK(t, err)
	parr, err := types.ArrayOf(pi, 3)
	mustOK(t, err)
	b := src.alloc(t, parr, 1, 1, "ptrs")

	// Target block in the other segment on both sides, same serial.
	intL, err := types.Of(types.Int32(), src.heap.Profile())
	mustOK(t, err)
	target, err := srcOther.Alloc(intL, 4, "t")
	mustOK(t, err)
	intLd, err := types.Of(types.Int32(), dst.heap.Profile())
	mustOK(t, err)
	dtarget, err := dstOther.Alloc(intLd, 4, "t")
	mustOK(t, err)

	ws := src.heap.Profile().WordSize
	mustOK(t, src.heap.WritePtr(b.Addr, 0))                          // nil
	mustOK(t, src.heap.WritePtr(b.Addr+mem.Addr(ws), target.Addr+8)) // cross-segment interior
	mustOK(t, src.heap.WritePtr(b.Addr+mem.Addr(2*ws), b.Addr))      // self-referential block

	transfer(t, src, dst, CollectOptions{Version: 1})

	db, _ := dst.seg.BlockByName("ptrs")
	dws := dst.heap.Profile().WordSize
	if v, _ := dst.heap.ReadPtr(db.Addr); v != 0 {
		t.Errorf("nil pointer = %#x", uint64(v))
	}
	if v, _ := dst.heap.ReadPtr(db.Addr + mem.Addr(dws)); v != dtarget.Addr+8 {
		t.Errorf("cross-segment pointer = %#x, want %#x", uint64(v), uint64(dtarget.Addr+8))
	}
	if v, _ := dst.heap.ReadPtr(db.Addr + mem.Addr(2*dws)); v != db.Addr {
		t.Errorf("self pointer = %#x, want %#x", uint64(v), uint64(db.Addr))
	}
}

func TestCollectErrors(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	pi, err := types.PointerTo(types.Int32())
	mustOK(t, err)
	b := src.alloc(t, pi, 1, 1, "p")
	mustOK(t, src.heap.WritePtr(b.Addr, b.Addr))
	if _, err := CollectSegment(src.seg, CollectOptions{}); err == nil {
		t.Error("collect with pointers and no swizzler succeeded")
	}
}

func TestApplyErrors(t *testing.T) {
	dst := newClient(t, arch.AMD64(), "h/s")
	// Run for a missing block.
	d := &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: 5, Runs: []wire.Run{{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("apply to missing block succeeded")
	}
	// New block without LayoutFor.
	d = &wire.SegmentDiff{Version: 1, News: []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: 1}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("apply creating block without LayoutFor succeeded")
	}
	// Run exceeding block bounds.
	b := dst.alloc(t, types.Int32(), 1, 2, "a")
	b.Pending = false
	d = &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: b.Serial, Runs: []wire.Run{{Start: 1, Count: 5, Data: make([]byte, 20)}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("run exceeding block succeeded")
	}
	// Truncated run data.
	d = &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: b.Serial, Runs: []wire.Run{{Start: 0, Count: 2, Data: []byte{1, 2}}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("truncated run data succeeded")
	}
	// Trailing run data.
	d = &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: b.Serial, Runs: []wire.Run{{Start: 0, Count: 1, Data: make([]byte, 9)}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("trailing run data succeeded")
	}
	// String overflowing its capacity.
	s4, err := types.StringOf(4)
	mustOK(t, err)
	sb := dst.alloc(t, s4, 2, 1, "s")
	sb.Pending = false
	data := wire.AppendString(nil, "waytoolong")
	d = &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: sb.Serial, Runs: []wire.Run{{Start: 0, Count: 1, Data: data}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("overflowing string succeeded")
	}
	// Pointer without resolver.
	pi, err := types.PointerTo(types.Int32())
	mustOK(t, err)
	pb := dst.alloc(t, pi, 3, 1, "p")
	pb.Pending = false
	data = wire.AppendString(nil, "h/s#a")
	d = &wire.SegmentDiff{Version: 1, Blocks: []wire.BlockDiff{{Serial: pb.Serial, Runs: []wire.Run{{Start: 0, Count: 1, Data: data}}}}}
	if _, err := ApplySegment(dst.seg, d, ApplyOptions{}); err == nil {
		t.Error("pointer without resolver succeeded")
	}
}

func TestLastBlockPrediction(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	dst := newClient(t, arch.AMD64(), "h/s")
	var blocks []*mem.Block
	for i := 0; i < 50; i++ {
		blocks = append(blocks, src.alloc(t, types.Int32(), 1, 64, ""))
	}
	transfer(t, src, dst, CollectOptions{Version: 1})

	// Modify every block; blocks are consecutive in memory and in
	// serial order, so prediction should hit almost always.
	src.seg.WriteProtect()
	for _, b := range blocks {
		mustOK(t, src.heap.WriteI32(b.Addr, 1))
	}
	d, err := CollectSegment(src.seg, CollectOptions{Version: 2, Swizzle: src.swizzler()})
	mustOK(t, err)
	src.seg.DropTwins()

	res, err := ApplySegment(dst.seg, d, ApplyOptions{LayoutFor: dst.layoutFor(t)})
	mustOK(t, err)
	if res.PredictHits < 40 {
		t.Errorf("prediction hits = %d/%d", res.PredictHits, res.PredictHits+res.PredictMisses)
	}
	res2, err := ApplySegment(dst.seg, d, ApplyOptions{LayoutFor: dst.layoutFor(t), NoPredict: true})
	mustOK(t, err)
	if res2.PredictHits != 0 || res2.PredictMisses != 0 {
		t.Errorf("NoPredict counted predictions: %+v", res2)
	}
}

func TestStatsPopulated(t *testing.T) {
	src := newClient(t, arch.AMD64(), "h/s")
	b := src.alloc(t, types.Int32(), 1, 4096, "a")
	var st Stats
	_, err := CollectSegment(src.seg, CollectOptions{Version: 1, Stats: &st})
	mustOK(t, err)
	if st.Units != 4096 || st.Runs != 1 {
		t.Errorf("full collect stats = %+v", st)
	}
	src.seg.WriteProtect()
	mustOK(t, src.heap.WriteI32(b.Addr, 9))
	st = Stats{}
	_, err = CollectSegment(src.seg, CollectOptions{Version: 2, Stats: &st})
	mustOK(t, err)
	if st.Runs != 1 || st.Units == 0 {
		t.Errorf("incremental collect stats = %+v", st)
	}
	// One 4-byte store dirties one chunk; only that chunk is scanned.
	if st.ScannedBytes != mem.ChunkBytes {
		t.Errorf("scanned %d bytes for a one-word store, want %d", st.ScannedBytes, mem.ChunkBytes)
	}
	if st.WordDiff == 0 && st.Translate == 0 {
		t.Log("timings are zero; acceptable on coarse clocks")
	}
}

// TestRandomModificationsRoundtrip is the keystone property test:
// arbitrary modification patterns on a mixed-type segment survive the
// collect/wire/apply cycle bit-exactly across heterogeneous profiles.
func TestRandomModificationsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	profiles := arch.Profiles()
	for trial := 0; trial < 10; trial++ {
		srcProf := profiles[rng.Intn(len(profiles))]
		dstProf := profiles[rng.Intn(len(profiles))]
		src := newClient(t, srcProf, "h/s")
		dst := newClient(t, dstProf, "h/s")
		const n = 2048
		b := src.alloc(t, types.Int32(), 1, n, "a")
		for i := 0; i < n; i++ {
			mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*i), rng.Int31()))
		}
		transfer(t, src, dst, CollectOptions{Version: 1})
		for round := 0; round < 3; round++ {
			src.seg.WriteProtect()
			writes := rng.Intn(300)
			for w := 0; w < writes; w++ {
				mustOK(t, src.heap.WriteI32(b.Addr+mem.Addr(4*rng.Intn(n)), rng.Int31()))
			}
			transfer(t, src, dst, CollectOptions{Version: uint32(round + 2)})
			src.seg.DropTwins()
			src.seg.Unprotect()
			db, _ := dst.seg.BlockByName("a")
			for i := 0; i < n; i++ {
				want, _ := src.heap.ReadI32(b.Addr + mem.Addr(4*i))
				got, _ := dst.heap.ReadI32(db.Addr + mem.Addr(4*i))
				if got != want {
					t.Fatalf("trial %d round %d (%s->%s): int %d = %d, want %d",
						trial, round, srcProf, dstProf, i, got, want)
				}
			}
		}
	}
}

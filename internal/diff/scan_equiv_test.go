package diff

// Equivalence of the hinted scan and the page scan, and of the
// translation that follows blocks by address and the one that looks
// every interval's block up. The production wordDiff compares only the
// dirty-hinted 64-byte chunks of each twinned page; referenceWordDiff
// below is the word-by-word page scan it replaced, kept verbatim. The
// production translateInterval starts from the block the previous
// interval ended in; referenceTranslateInterval is the per-interval
// path it replaced: a BlockAt lookup per interval, a PrimSpan per
// element, a heap view, an exact size walk and a cursor seek per run,
// and a byte-order interface call per unit. On random store histories
// both scans must produce identical intervals, and CollectSegment must
// produce what the two references together produce, byte for byte,
// for every splicing setting, on a fresh and on an already collected
// twin state.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// referenceWordDiff scans the pagemaps and produces spliced modified
// byte intervals in address order, comparing every word of every
// twinned page.
func referenceWordDiff(c *collector) []interval {
	var out []interval
	for _, mr := range c.seg.ModifiedRanges() {
		ss := mr.Sub
		base := mr.FirstPage << arch.PageShift
		words := mr.NumPages * arch.PageWords
		// Runs of changed words with gaps <= splice absorbed.
		runStart := -1
		lastChanged := -1
		flush := func() {
			if runStart >= 0 {
				out = append(out, interval{
					sub: ss,
					lo:  base + runStart*arch.WordBytes,
					hi:  base + (lastChanged+1)*arch.WordBytes,
				})
				runStart = -1
			}
		}
		for w := 0; w < words; w++ {
			pg := mr.FirstPage + (w / arch.PageWords)
			twin := ss.Twin(pg)
			off := (base + w*arch.WordBytes) & (arch.PageSize - 1)
			cur := binary.NativeEndian.Uint32(ss.Data[base+w*arch.WordBytes:])
			old := binary.NativeEndian.Uint32(twin[off:])
			if cur == old {
				if runStart >= 0 && w-lastChanged > c.splice {
					flush()
				}
				continue
			}
			if runStart < 0 {
				runStart = w
			}
			lastChanged = w
		}
		flush()
	}
	return out
}

// referenceTranslateInterval maps one modified byte interval onto the
// blocks it overlaps and emits wire runs for each, looking up the
// block spanning lo, then ascending the address tree.
func referenceTranslateInterval(c *collector, iv interval) error {
	lo := iv.sub.Base + mem.Addr(iv.lo)
	hi := iv.sub.Base + mem.Addr(iv.hi)
	var firstErr error
	visit := func(b *mem.Block) bool {
		if b.Addr >= hi {
			return false
		}
		if b.Pending {
			return true // travels whole already
		}
		if firstErr = referenceBlockRuns(c, b, lo, hi); firstErr != nil {
			return false
		}
		return true
	}
	// Start with the block spanning lo (if any), then ascend.
	if b, ok := c.heap.BlockAt(lo); ok && b.Sub == iv.sub {
		if !visit(b) {
			return firstErr
		}
		iv.sub.AscendBlocks(b.Addr+1, func(nb *mem.Block) bool { return visit(nb) })
		return firstErr
	}
	iv.sub.AscendBlocks(lo, func(nb *mem.Block) bool { return visit(nb) })
	return firstErr
}

// referenceBlockRuns emits wire runs for the part of [lo, hi) that
// overlaps block b, spanning every element with PrimSpan.
func referenceBlockRuns(c *collector, b *mem.Block, lo, hi mem.Addr) error {
	rb0 := 0
	if lo > b.Addr {
		rb0 = int(lo - b.Addr)
	}
	rb1 := b.Size()
	if hi < b.End() {
		rb1 = int(hi - b.Addr)
	}
	if rb0 >= rb1 {
		return nil
	}
	l := b.Layout
	pc := l.PrimCount
	u0, u1 := -1, -1
	emit := func() error {
		if u0 < 0 {
			return nil
		}
		err := referenceEmitRun(c, b, u0, u1)
		u0, u1 = -1, -1
		return err
	}
	for e := rb0 / l.Size; e <= (rb1-1)/l.Size; e++ {
		lb0 := rb0 - e*l.Size
		if lb0 < 0 {
			lb0 = 0
		}
		lb1 := rb1 - e*l.Size
		if lb1 > l.Size {
			lb1 = l.Size
		}
		p0, p1, ok := l.PrimSpan(lb0, lb1)
		if !ok {
			continue
		}
		g0, g1 := e*pc+p0, e*pc+p1
		if u1 == g0 {
			u1 = g1 // contiguous with previous element's span
			continue
		}
		if err := emit(); err != nil {
			return err
		}
		u0, u1 = g0, g1
	}
	return emit()
}

// referenceEmitRun translates units [u0, u1) of block b into one wire
// run, through a heap view of the block, a size walk of the run and a
// cursor of its own.
func referenceEmitRun(c *collector, b *mem.Block, u0, u1 int) error {
	view, err := c.heap.View(b.Addr, b.Size())
	if err != nil {
		return err
	}
	buf := make([]byte, 0, walkSizeBound(b.Layout, u0, u1))
	order := c.prof.Order
	var it types.UnitIter
	for it.Seek(b.Layout, u0, u1); it.Next(); {
		absByte, n, stride, strCap := it.Off, it.N, it.Step.ByteStride, it.Step.Cap
		for i := 0; i < n; i++ {
			at := view[absByte+i*stride:]
			switch it.Step.Kind {
			case types.KindChar:
				buf = append(buf, at[0])
			case types.KindInt16:
				buf = wire.AppendU16(buf, order.Uint16(at))
			case types.KindInt32, types.KindFloat32:
				buf = wire.AppendU32(buf, order.Uint32(at))
			case types.KindInt64, types.KindFloat64:
				buf = wire.AppendU64(buf, order.Uint64(at))
			case types.KindString:
				buf = wire.AppendBytes(buf, cstr(at[:strCap]))
			case types.KindPointer:
				var a mem.Addr
				if c.prof.WordSize == 4 {
					a = mem.Addr(order.Uint32(at))
				} else {
					a = mem.Addr(order.Uint64(at))
				}
				mip, err := c.opts.Swizzle(a)
				if err != nil {
					return err
				}
				buf = wire.AppendString(buf, mip)
			default:
				return fmt.Errorf("unexpected kind %v", it.Step.Kind)
			}
		}
	}
	bd := c.blockDiff(b.Serial)
	c.runs = append(c.runs, wire.Run{Start: uint32(u0), Count: uint32(u1 - u0), Data: buf})
	bd.Runs = c.runs[c.first:len(c.runs):len(c.runs)]
	return nil
}

// equivSplices are the splicing settings every comparison runs under;
// at 32 a spliced gap can span a whole skipped chunk.
var equivSplices = []int{-1, 0, 1, 2, 8, 32}

// history decodes a store history from bytes; exhausted input reads
// as zeros, so every byte string is a valid history.
type history struct {
	b []byte
	i int
}

func (h *history) next() int {
	if h.i >= len(h.b) {
		return 0
	}
	v := h.b[h.i]
	h.i++
	return int(v)
}

func (h *history) intn(n int) int { return (h.next()<<8 | h.next()) % n }

func (h *history) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(h.next())
	}
	return v
}

// equivRig is one writer's segment: a mix array holding every
// primitive kind (pointer cells point only into targets), pointer
// targets, a multi-page int array and a multi-page char array, which
// land in separate subsegments, plus scratch blocks allocated and
// freed by the history.
type equivRig struct {
	t       *testing.T
	h       *history
	c       *client
	mix     *types.Type
	data    *mem.Block
	targets *mem.Block
	raw     []*mem.Block // blocks any byte pattern is valid in
	mixes   []*mem.Block // blocks of mix elements
	scratch []*mem.Block // allocated by the history; may be freed
	freed   []uint32
	gone    []*mem.Block // the blocks freed this round
	seen    equivCases
}

// equivCases counts the intervals the reference translation met that
// start in a block freed after it was modified, and those that span
// more than one block.
type equivCases struct {
	inFreed, spanning int
}

// referenceTranslate is referenceTranslateInterval, counting the
// intervals of each case.
func (r *equivRig) referenceTranslate(c *collector, iv interval) error {
	lo := iv.sub.Base + mem.Addr(iv.lo)
	hi := iv.sub.Base + mem.Addr(iv.hi)
	if _, ok := c.heap.BlockAt(lo); !ok && slices.ContainsFunc(r.gone, func(b *mem.Block) bool {
		return b.Addr <= lo && lo < b.End()
	}) {
		r.seen.inFreed++
	}
	blocks := 0
	r.c.seg.Blocks(func(b *mem.Block) bool {
		if !b.Pending && b.Addr < hi && lo < b.End() {
			blocks++
		}
		return true
	})
	if blocks > 1 {
		r.seen.spanning++
	}
	return referenceTranslateInterval(c, iv)
}

const (
	descMix   = 1
	descInt32 = 2
	descChar  = 3
)

func newEquivRig(t *testing.T, h *history) *equivRig {
	profiles := arch.Profiles()
	r := &equivRig{t: t, h: h, c: newClient(t, profiles[h.intn(len(profiles))], "h/eq"), mix: mixType(t)}
	r.data = r.c.alloc(t, r.mix, descMix, 24, "data")
	r.targets = r.c.alloc(t, types.Int32(), descInt32, 64, "targets")
	r.raw = []*mem.Block{
		r.c.alloc(t, types.Int32(), descInt32, 3*arch.PageWords, "words"),
		r.c.alloc(t, types.Char(), descChar, 2*arch.PageSize+100, "chars"),
	}
	r.mixes = []*mem.Block{r.data}
	return r
}

// field returns the address of a field of element e of mix block b.
func (r *equivRig) field(b *mem.Block, e int, name string) mem.Addr {
	f, ok := b.Layout.Field(name)
	if !ok {
		r.t.Fatalf("field %s", name)
	}
	return b.Addr + mem.Addr(e*b.Layout.Size+f.ByteOff)
}

// step performs one history operation.
func (r *equivRig) step() {
	t, h := r.t, r.h
	switch op := h.intn(16); {
	case op < 5:
		r.fieldStore()
	case op < 10:
		r.rawStore(r.raw[h.intn(len(r.raw))])
	case op < 11:
		r.straddleStore()
	case op < 13:
		r.silentStore()
	case op < 15:
		switch h.intn(3) {
		case 0:
			r.scratch = append(r.scratch, r.c.alloc(t, types.Int32(), descInt32, 1+h.intn(200), ""))
			r.raw = append(r.raw, r.scratch[len(r.scratch)-1])
		case 1:
			r.scratch = append(r.scratch, r.c.alloc(t, types.Char(), descChar, 1+h.intn(500), ""))
			r.raw = append(r.raw, r.scratch[len(r.scratch)-1])
		default:
			r.scratch = append(r.scratch, r.c.alloc(t, r.mix, descMix, 1+h.intn(2), ""))
			r.mixes = append(r.mixes, r.scratch[len(r.scratch)-1])
		}
	default:
		if len(r.scratch) == 0 {
			return
		}
		i := h.intn(len(r.scratch))
		b := r.scratch[i]
		r.scratch = slices.Delete(r.scratch, i, i+1)
		r.raw = slices.DeleteFunc(r.raw, func(x *mem.Block) bool { return x == b })
		r.mixes = slices.DeleteFunc(r.mixes, func(x *mem.Block) bool { return x == b })
		if h.intn(2) == 0 {
			// Modified, then freed in the same round: the scan still
			// reports the changed bytes.
			mustOK(t, r.c.heap.WriteU8(b.Addr+mem.Addr(h.intn(b.Size())), byte(1+h.intn(255))))
		}
		mustOK(t, r.c.seg.Free(b))
		r.freed = append(r.freed, b.Serial)
		r.gone = append(r.gone, b)
	}
}

// fieldStore writes one field of a mix element through its typed
// accessor.
func (r *equivRig) fieldStore() {
	t, h, heap := r.t, r.h, r.c.heap
	b := r.mixes[h.intn(len(r.mixes))]
	e := h.intn(b.Count)
	switch h.intn(9) {
	case 0:
		mustOK(t, heap.WriteI32(r.field(b, e, "i"), int32(h.u64())))
	case 1:
		mustOK(t, heap.WriteF64(r.field(b, e, "d"), float64(int64(h.u64()))/7))
	case 2:
		mustOK(t, heap.WriteCString(r.field(b, e, "s"), 256, fmt.Sprint(h.u64())))
	case 3:
		mustOK(t, heap.WriteCString(r.field(b, e, "t"), 8, fmt.Sprint(h.intn(10000000))))
	case 4:
		p := mem.Addr(0)
		if h.intn(4) != 0 {
			p = r.targets.Addr + mem.Addr(4*h.intn(r.targets.Count))
		}
		mustOK(t, heap.WritePtr(r.field(b, e, "p"), p))
	case 5:
		mustOK(t, heap.WriteU8(r.field(b, e, "c"), byte(h.next())))
	case 6:
		mustOK(t, heap.WriteI64(r.field(b, e, "j"), int64(h.u64())))
	case 7:
		mustOK(t, heap.WriteF32(r.field(b, e, "f"), float32(int32(h.u64()))/3))
	default:
		mustOK(t, heap.WriteI16(r.field(b, e, "h"), int16(h.u64())))
	}
}

// rawStore writes a value of random width into b, a block any byte
// pattern is valid in, half the time straddling a chunk or page
// boundary.
func (r *equivRig) rawStore(b *mem.Block) {
	t, h, heap := r.t, r.h, r.c.heap
	widths := []int{1, 2, 4, 8, 4, 8, 0} // 0: a C string of random capacity
	width := widths[h.intn(len(widths))]
	if width == 0 {
		width = 1 + h.intn(150)
	}
	size := b.Size()
	if width > size {
		width = size
	}
	off := h.intn(size - width + 1)
	if h.intn(2) == 0 {
		// Straddle the next chunk or page boundary at or after off.
		unit := mem.ChunkBytes
		if h.intn(3) == 0 {
			unit = arch.PageSize
		}
		a := int(b.Addr) + off
		boundary := (a/unit+1)*unit - int(b.Addr)
		off = max(0, min(size-width, boundary-1-h.intn(width)))
	}
	a := b.Addr + mem.Addr(off)
	v := h.u64()
	switch width {
	case 1:
		mustOK(t, heap.WriteU8(a, byte(v)))
	case 2:
		mustOK(t, heap.WriteI16(a, int16(v)))
	case 4:
		if v&1 == 0 {
			mustOK(t, heap.WriteI32(a, int32(v)))
		} else {
			mustOK(t, heap.WriteF32(a, float32(int32(v))))
		}
	case 8:
		if v&1 == 0 {
			mustOK(t, heap.WriteI64(a, int64(v)))
		} else {
			mustOK(t, heap.WriteF64(a, float64(int64(v))))
		}
	default:
		s := fmt.Sprint(v)
		mustOK(t, heap.WriteCString(a, width, s[:min(width-1, len(s))]))
	}
}

// straddleStore writes a few bytes across the end of a block any byte
// pattern is valid in and the start of the block after it, when that
// one is such a block too, so that one interval spans both; otherwise
// it is a rawStore.
func (r *equivRig) straddleStore() {
	h := r.h
	b := r.raw[h.intn(len(r.raw))]
	n := b.NextByAddr()
	if n == nil || !slices.Contains(r.raw, n) {
		r.rawStore(b)
		return
	}
	a := b.End() - mem.Addr(1+h.intn(min(4, b.Size())))
	end := n.Addr + mem.Addr(1+h.intn(min(4, n.Size())))
	v := make([]byte, end-a)
	for i := range v {
		v[i] = byte(1 + h.intn(255))
	}
	mustOK(r.t, r.c.heap.Write(a, v))
}

// silentStore writes back the value already stored in a cell, pointer
// cells included: the page faults and the chunk is hinted, but nothing
// changes.
func (r *equivRig) silentStore() {
	t, h, heap := r.t, r.h, r.c.heap
	if h.intn(2) == 0 {
		b := r.mixes[h.intn(len(r.mixes))]
		a := r.field(b, h.intn(b.Count), "p")
		p, err := heap.ReadPtr(a)
		mustOK(t, err)
		mustOK(t, heap.WritePtr(a, p))
		return
	}
	b := r.raw[h.intn(len(r.raw))]
	n := min(8, b.Size())
	a := b.Addr + mem.Addr(h.intn(b.Size()-n+1))
	v, err := heap.View(a, n)
	mustOK(t, err)
	mustOK(t, heap.Write(a, slices.Clone(v)))
}

// compare holds both scans to each other over the current twin state
// under every splicing setting, twice: the second pass collects from a
// state whose pending blocks the first pass already consumed.
func (r *equivRig) compare(round int) {
	t, seg := r.t, r.c.seg
	for pass := 0; pass < 2; pass++ {
		var pending []*mem.Block
		seg.Blocks(func(b *mem.Block) bool {
			if b.Pending {
				pending = append(pending, b)
			}
			return true
		})
		for _, sw := range equivSplices {
			opts := CollectOptions{Version: 9, SpliceWords: sw, Freed: r.freed, Swizzle: r.c.swizzler()}
			got := newCollector(seg, opts).wordDiff()
			want := referenceWordDiff(newCollector(seg, opts))
			if !slices.Equal(got, want) {
				t.Fatalf("round %d pass %d splice %d: intervals differ\n got %v\nwant %v", round, pass, sw, spans(got), spans(want))
			}
			for _, b := range pending {
				b.Pending = true
			}
			ref, err := collectWith(seg, opts, referenceWordDiff, r.referenceTranslate)
			mustOK(t, err)
			for _, b := range pending {
				b.Pending = true
			}
			d, err := CollectSegment(seg, opts)
			mustOK(t, err)
			if !bytes.Equal(d.Marshal(nil), ref.Marshal(nil)) {
				t.Fatalf("round %d pass %d splice %d: collected diffs differ\n got %+v\nwant %+v", round, pass, sw, d.Blocks, ref.Blocks)
			}
		}
	}
}

// spans renders intervals for failure messages.
func spans(ivs []interval) []string {
	out := make([]string, len(ivs))
	for i, iv := range ivs {
		out[i] = fmt.Sprintf("%#x+[%d,%d)", uint64(iv.sub.Base), iv.lo, iv.hi)
	}
	return out
}

// checkCollectEquivalence runs the store history encoded in data:
// initial contents, then rounds of write-protect, stores, comparison
// and twin drop. It returns the cases the history met.
func checkCollectEquivalence(t *testing.T, data []byte) equivCases {
	h := &history{b: data}
	r := newEquivRig(t, h)
	for i := 0; i < 8; i++ {
		r.rawStore(r.raw[h.intn(len(r.raw))])
		r.fieldStore()
	}
	_, err := CollectSegment(r.c.seg, CollectOptions{Version: 1, Swizzle: r.c.swizzler()})
	mustOK(t, err)
	for round := 0; round < 3; round++ {
		r.freed, r.gone = nil, nil
		r.c.seg.WriteProtect()
		for n := 1 + h.intn(48); n > 0; n-- {
			r.step()
		}
		r.compare(round)
		r.c.seg.DropTwins()
		r.c.seg.Unprotect()
	}
	return r.seen
}

func TestHintedScanMatchesPageScan(t *testing.T) {
	var seen equivCases
	rng := rand.New(rand.NewSource(26))
	profiles := arch.Profiles()
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1024)
		rng.Read(data)
		// The leading two bytes pick the profile: cycle through all,
		// so 4- and 8-byte pointer words are both covered.
		data[0], data[1] = 0, byte(trial%len(profiles))
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			c := checkCollectEquivalence(t, data)
			seen.inFreed += c.inFreed
			seen.spanning += c.spanning
		})
	}
	// The histories must reach both paths the reference takes apart
	// from a plain interval inside one block.
	if seen.inFreed == 0 || seen.spanning == 0 {
		t.Errorf("histories met %d intervals in a freed block and %d spanning blocks; want both", seen.inFreed, seen.spanning)
	}
	t.Logf("%d intervals in a freed block, %d spanning blocks", seen.inFreed, seen.spanning)
}

// FuzzCollectEquivalence explores store histories beyond the seeded
// property test with the same harness.
func FuzzCollectEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		data[0], data[1] = 0, byte(i)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkCollectEquivalence(t, data)
	})
}

// Package diff implements InterWeave's modification tracking and
// wire-format diffing (paper Section 3.1).
//
// When a client releases a write lock, the library gathers local
// changes and converts them into machine-independent wire format —
// "diff collection". It scans the pagemaps of the segment's
// subsegments, compares the store-hinted chunks of each modified page
// against its twin word by word, splices nearly-adjacent runs, maps the
// changed byte ranges onto blocks through the address-sorted metadata
// trees, and translates each run into wire format through the blocks'
// type descriptors. "Diff application" is the inverse: wire-format
// runs are located in blocks (with last-block prediction) and decoded
// into local format, swizzling MIPs back into machine addresses.
package diff

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// DefaultSpliceWords is the paper's splicing threshold: one or two
// unchanged words between changed words are treated as changed, to
// avoid starting a new run-length-encoded section (Section 3.3).
const DefaultSpliceWords = 2

// SwizzleFunc converts a local pointer value to its MIP wire form.
type SwizzleFunc func(mem.Addr) (string, error)

// ResolveFunc converts a MIP wire form to a local pointer, fetching
// or reserving the target segment as needed.
type ResolveFunc func(string) (mem.Addr, error)

// Stats reports where collection and application time went,
// reproducing the cost breakdown of Figure 5.
type Stats struct {
	// WordDiff is time spent in word-by-word twin comparison
	// ("client word diffing").
	WordDiff time.Duration
	// ScannedBytes is the number of bytes compared against twins:
	// the dirty-hinted chunks of the modified pages.
	ScannedBytes int
	// Translate is time spent converting runs to or from wire
	// format ("client translation").
	Translate time.Duration
	// Runs is the number of wire runs produced or consumed.
	Runs int
	// Units is the number of primitive units transmitted.
	Units int
	// Bytes is the canonical wire payload of the runs produced or
	// consumed — the bandwidth a diff actually costs, which against
	// the segment's full-transfer size gives the byte savings of
	// diffing (Figure 7's measure).
	Bytes int
}

// CollectOptions controls diff collection.
type CollectOptions struct {
	// Version is the segment version the diff claims to produce;
	// servers may overwrite it when they assign the real version.
	Version uint32
	// Swizzle translates pointer cells; required when the segment
	// contains pointers.
	Swizzle SwizzleFunc
	// NoDiff transmits every block whole, skipping twin comparison
	// (the paper's no-diff mode).
	NoDiff bool
	// SpliceWords is the run-splicing threshold in words; negative
	// disables splicing, zero means DefaultSpliceWords.
	SpliceWords int
	// Freed lists serials of blocks freed since the last collection.
	Freed []uint32
	// Stats, when non-nil, accumulates phase timings.
	Stats *Stats
	// RunBuf, when non-nil, is the buffer the runs' wire data is
	// translated into. Collection writes from its start and leaves in
	// it the buffer it ended in, grown if the runs outgrew it, so the
	// runs of the returned diff alias it: the caller must be done with
	// the previous diff collected through it (DESIGN.md §10). Nil
	// collects into fresh memory.
	RunBuf *[]byte
}

// CollectSegment gathers the segment's local modifications into a
// wire-format diff. Newly created (pending) blocks travel whole with
// NewBlock records; other blocks contribute word-diffed runs (or
// whole-block runs in no-diff mode). On success, pending flags are
// cleared. Twins are left in place; the caller drops them after the
// diff is accepted.
func CollectSegment(seg *mem.SegMem, opts CollectOptions) (*wire.SegmentDiff, error) {
	return collectWith(seg, opts, (*collector).wordDiff)
}

// collectWith is CollectSegment with the twin comparison as a
// parameter, so tests can hold the hinted scan to the page scan.
func collectWith(seg *mem.SegMem, opts CollectOptions, scan func(*collector) []interval) (*wire.SegmentDiff, error) {
	c := newCollector(seg, opts)
	d := c.out

	// Pending (newly created) blocks: announce and send whole.
	var pending []*mem.Block
	seg.Blocks(func(b *mem.Block) bool {
		if b.Pending {
			pending = append(pending, b)
		}
		return true
	})
	for _, b := range pending {
		d.News = append(d.News, wire.NewBlock{
			Serial:     b.Serial,
			DescSerial: b.DescSerial,
			Count:      uint32(b.Count),
			Name:       b.Name,
		})
		if err := c.fullBlockRun(b); err != nil {
			return nil, err
		}
	}

	if opts.NoDiff {
		// Whole-segment transmission: every non-pending block whole.
		var err error
		seg.Blocks(func(b *mem.Block) bool {
			if !b.Pending {
				if e := c.fullBlockRun(b); e != nil {
					err = e
					return false
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	} else {
		// Word-by-word twin comparison over modified pages.
		start := time.Now()
		intervals := scan(c)
		if opts.Stats != nil {
			opts.Stats.WordDiff += time.Since(start)
			opts.Stats.ScannedBytes += c.scanned
		}
		start = time.Now()
		for _, iv := range intervals {
			if err := c.translateInterval(iv); err != nil {
				return nil, err
			}
		}
		if opts.Stats != nil {
			opts.Stats.Translate += time.Since(start)
		}
	}

	for _, b := range pending {
		b.Pending = false
	}
	if opts.Stats != nil {
		opts.Stats.Runs += len(c.runs)
	}
	if opts.RunBuf != nil {
		*opts.RunBuf = c.buf
	}
	return d, nil
}

type interval struct {
	sub    *mem.SubSeg
	lo, hi int // byte offsets within the subsegment
}

type collector struct {
	seg    *mem.SegMem
	heap   *mem.Heap
	prof   *arch.Profile
	opts   CollectOptions
	out    *wire.SegmentDiff
	splice int
	// scanned counts the bytes wordDiff compared against twins.
	scanned int
	// buf is the chunk run data is translated into: runs are
	// appended to it, and a run that does not fit starts a new chunk,
	// so a run never spans two chunks and never moves once emitted.
	buf []byte
	// runs backs every BlockDiff's Runs; the last block's runs start
	// at index first.
	runs  []wire.Run
	first int
}

// minRunChunk is the smallest chunk of run data a collection
// allocates, so a diff of many small runs starts a few chunks, not
// one per run.
const minRunChunk = 4 << 10

func newCollector(seg *mem.SegMem, opts CollectOptions) *collector {
	c := &collector{
		seg:    seg,
		heap:   seg.Heap(),
		prof:   seg.Heap().Profile(),
		opts:   opts,
		out:    &wire.SegmentDiff{Version: opts.Version, Freed: opts.Freed},
		splice: opts.SpliceWords,
	}
	if opts.RunBuf != nil {
		c.buf = (*opts.RunBuf)[:0]
	}
	if c.splice == 0 {
		c.splice = DefaultSpliceWords
	}
	if c.splice < 0 {
		c.splice = 0
	}
	return c
}

// wordDiff scans the pagemaps and produces spliced modified byte
// intervals in address order. It compares only the dirty-hinted
// chunks of each twinned page: an equal chunk is skipped whole, a
// differing one is compared eight bytes at a time, then by 32-bit
// word. Every word it skips is unchanged, so splicing decided by the
// gap between changed words (at most splice unchanged words between
// them) yields exactly the intervals of a word-by-word page scan.
func (c *collector) wordDiff() []interval {
	var out []interval
	for _, mr := range c.seg.ModifiedRanges() {
		ss := mr.Sub
		// Runs of changed words (indices within ss) with gaps <=
		// splice absorbed.
		runStart := -1
		lastChanged := -1
		flush := func() {
			if runStart >= 0 {
				out = append(out, interval{
					sub: ss,
					lo:  runStart * arch.WordBytes,
					hi:  (lastChanged + 1) * arch.WordBytes,
				})
				runStart = -1
			}
		}
		changed := func(w int) {
			if runStart >= 0 && w-lastChanged > c.splice+1 {
				flush()
			}
			if runStart < 0 {
				runStart = w
			}
			lastChanged = w
		}
		for pg := mr.FirstPage; pg < mr.FirstPage+mr.NumPages; pg++ {
			base := pg << arch.PageShift
			page := ss.Data[base : base+arch.PageSize]
			twin := ss.Twin(pg)
			for dirty := ss.Dirty(pg); dirty != 0; dirty &= dirty - 1 {
				k := bits.TrailingZeros64(dirty) << mem.ChunkShift
				cur := page[k : k+mem.ChunkBytes]
				old := twin[k : k+mem.ChunkBytes]
				c.scanned += mem.ChunkBytes
				if bytes.Equal(cur, old) {
					continue
				}
				for j := 0; j < mem.ChunkBytes; j += 8 {
					x := binary.LittleEndian.Uint64(cur[j:]) ^ binary.LittleEndian.Uint64(old[j:])
					if x == 0 {
						continue
					}
					w := (base + k + j) / arch.WordBytes
					if uint32(x) != 0 {
						changed(w)
					}
					if x>>32 != 0 {
						changed(w + 1)
					}
				}
			}
		}
		flush()
	}
	return out
}

// translateInterval maps one modified byte interval onto the blocks
// it overlaps and emits wire runs for each.
func (c *collector) translateInterval(iv interval) error {
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
		if firstErr = c.blockRuns(b, lo, hi); firstErr != nil {
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

// blockRuns emits wire runs for the part of [lo, hi) that overlaps
// block b.
func (c *collector) blockRuns(b *mem.Block, lo, hi mem.Addr) error {
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
	// Collect the unit ranges element by element, merging across
	// element boundaries when contiguous.
	u0, u1 := -1, -1
	emit := func() error {
		if u0 < 0 {
			return nil
		}
		err := c.emitRun(b, u0, u1)
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

// emitRun translates units [u0, u1) of block b into one wire run.
func (c *collector) emitRun(b *mem.Block, u0, u1 int) error {
	data, err := c.translateUnits(b, u0, u1)
	if err != nil {
		return err
	}
	bd := c.blockDiff(b.Serial)
	c.runs = append(c.runs, wire.Run{
		Start: uint32(u0),
		Count: uint32(u1 - u0),
		Data:  data,
	})
	bd.Runs = c.runs[c.first:len(c.runs):len(c.runs)]
	if c.opts.Stats != nil {
		c.opts.Stats.Units += u1 - u0
		c.opts.Stats.Bytes += len(data)
	}
	return nil
}

// blockDiff returns the entry for the block with the given serial:
// the last one, or a new one. A block's runs are emitted one after
// another — pending blocks first, then blocks in address order within
// one subsegment at a time — so an earlier entry is never revisited.
func (c *collector) blockDiff(serial uint32) *wire.BlockDiff {
	if n := len(c.out.Blocks); n > 0 && c.out.Blocks[n-1].Serial == serial {
		return &c.out.Blocks[n-1]
	}
	c.out.Blocks = append(c.out.Blocks, wire.BlockDiff{Serial: serial})
	c.first = len(c.runs)
	return &c.out.Blocks[len(c.out.Blocks)-1]
}

// fullBlockRun emits a single run covering all of b.
func (c *collector) fullBlockRun(b *mem.Block) error {
	start := time.Now()
	err := c.emitRun(b, 0, b.PrimCount())
	if c.opts.Stats != nil {
		c.opts.Stats.Translate += time.Since(start)
	}
	return err
}

// translateUnits converts units [u0, u1) of b from local format to
// canonical wire format, appending them to the collector's chunk.
func (c *collector) translateUnits(b *mem.Block, u0, u1 int) ([]byte, error) {
	view, err := c.heap.View(b.Addr, b.Size())
	if err != nil {
		return nil, err
	}
	l := b.Layout
	order := c.prof.Order
	if bound := wireSizeBound(l, u0, u1); cap(c.buf)-len(c.buf) < bound {
		c.buf = make([]byte, 0, max(bound, 2*cap(c.buf), minRunChunk))
	}
	start, avail := len(c.buf), cap(c.buf)-len(c.buf)
	buf := c.buf[start:]
	var it types.UnitIter
	for it.Seek(l, u0, u1); it.Next(); {
		absByte, n, stride, strCap := it.Off, it.N, it.Step.ByteStride, it.Step.Cap
		switch it.Step.Kind {
		case types.KindChar:
			for i := 0; i < n; i++ {
				buf = append(buf, view[absByte+i*stride])
			}
		case types.KindInt16:
			for i := 0; i < n; i++ {
				buf = wire.AppendU16(buf, order.Uint16(view[absByte+i*stride:]))
			}
		case types.KindInt32, types.KindFloat32:
			for i := 0; i < n; i++ {
				buf = wire.AppendU32(buf, order.Uint32(view[absByte+i*stride:]))
			}
		case types.KindInt64, types.KindFloat64:
			for i := 0; i < n; i++ {
				buf = wire.AppendU64(buf, order.Uint64(view[absByte+i*stride:]))
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				s := cstr(view[absByte+i*stride : absByte+i*stride+strCap])
				buf = wire.AppendBytes(buf, s)
			}
		case types.KindPointer:
			if c.opts.Swizzle == nil {
				return nil, errors.New("diff: segment contains pointers but no swizzler was provided")
			}
			for i := 0; i < n; i++ {
				var a mem.Addr
				if c.prof.WordSize == 4 {
					a = mem.Addr(order.Uint32(view[absByte+i*stride:]))
				} else {
					a = mem.Addr(order.Uint64(view[absByte+i*stride:]))
				}
				mip, err := c.opts.Swizzle(a)
				if err != nil {
					return nil, fmt.Errorf("diff: swizzling %#x in block %d: %w", uint64(a), b.Serial, err)
				}
				buf = wire.AppendString(buf, mip)
			}
		default:
			return nil, fmt.Errorf("diff: unexpected kind %v in walk", it.Step.Kind)
		}
	}
	if cap(buf) == avail {
		c.buf = c.buf[:start+len(buf)]
	} else {
		// MIPs longer than mipSizeEstimate outgrew the chunk, and
		// append moved this run alone to a larger buffer: that buffer
		// is the chunk from here on.
		c.buf = buf
	}
	return buf[:len(buf):len(buf)], nil
}

// mipSizeEstimate is the wire size wireSizeBound assumes for a
// pointer: a length word and a MIP of typical length. Longer MIPs
// may move their run to a chunk of its own.
const mipSizeEstimate = 4 + 44

// wireSizeBound returns a capacity for the wire encoding of units
// [u0, u1) of a block with layout l, the room a run needs in its
// chunk: exact for fixed-width kinds, the length word plus the cell
// capacity for strings, mipSizeEstimate for pointers. The whole
// elements inside a long run are priced from one element's walk, so
// the cost does not grow with the run.
func wireSizeBound(l *types.Layout, u0, u1 int) int {
	pc := l.PrimCount
	if u1-u0 <= 2*pc {
		return walkSizeBound(l, u0, u1)
	}
	head, tail := (u0/pc+1)*pc, u1/pc*pc
	return walkSizeBound(l, u0, head) + (tail-head)/pc*walkSizeBound(l, 0, pc) + walkSizeBound(l, tail, u1)
}

// walkSizeBound is wireSizeBound by walking every step of the run.
func walkSizeBound(l *types.Layout, u0, u1 int) int {
	n := 0
	var it types.UnitIter
	for it.Seek(l, u0, u1); it.Next(); {
		switch s := it.Step; s.Kind {
		case types.KindString:
			n += it.N * (4 + s.Cap)
		case types.KindPointer:
			n += it.N * mipSizeEstimate
		default:
			sz, _ := types.FixedWireSize(s.Kind)
			n += it.N * sz
		}
	}
	return n
}

// cstr trims a fixed-capacity string cell at its NUL terminator.
func cstr(cell []byte) []byte {
	if i := bytes.IndexByte(cell, 0); i >= 0 {
		return cell[:i]
	}
	return cell
}

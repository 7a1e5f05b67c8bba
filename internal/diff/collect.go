// Package diff implements InterWeave's modification tracking and
// wire-format diffing (paper Section 3.1).
//
// When a client releases a write lock, the library gathers local
// changes and converts them into machine-independent wire format —
// "diff collection". It scans the pagemaps of the segment's
// subsegments, compares the store-hinted chunks of each modified page
// against its twin word by word, splices nearly-adjacent runs, maps the
// changed byte ranges onto blocks by following the blocks in address
// order from the one the last range ended in (the address-sorted
// metadata trees are searched only where a range starts outside it),
// and translates each run into wire format through the blocks' type
// descriptors. "Diff application" is the inverse: wire-format
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
	// RunBuf, when non-nil, is the memory collection reuses: the
	// runs' wire data is translated into its buffer, their headers
	// into its run slice. Collection writes both from their start and
	// leaves in it what it ended in, grown if the diff outgrew it, so
	// the runs of the returned diff alias it: the caller must be done
	// with the previous diff collected through it (DESIGN.md §10). Nil
	// collects into fresh memory.
	RunBuf *RunBuf
}

// RunBuf is the memory one collection leaves to the next through
// CollectOptions.RunBuf: the chunk of run data it ended in, the run
// headers and the scan's intervals. The zero value is empty.
type RunBuf struct {
	data []byte
	runs []wire.Run
	ivs  []interval
}

// Cap returns how many bytes of run data the buffer has room for.
func (rb *RunBuf) Cap() int { return cap(rb.data) }

// CollectSegment gathers the segment's local modifications into a
// wire-format diff. Newly created (pending) blocks travel whole with
// NewBlock records; other blocks contribute word-diffed runs (or
// whole-block runs in no-diff mode). On success, pending flags are
// cleared. Twins are left in place; the caller drops them after the
// diff is accepted.
func CollectSegment(seg *mem.SegMem, opts CollectOptions) (*wire.SegmentDiff, error) {
	return collectWith(seg, opts, (*collector).wordDiff, (*collector).translateInterval)
}

// collectWith is CollectSegment with the twin comparison and the
// interval translation as parameters, so tests can hold them to the
// page scan and to a per-interval block lookup.
func collectWith(seg *mem.SegMem, opts CollectOptions, scan func(*collector) []interval, translate func(*collector, interval) error) (*wire.SegmentDiff, error) {
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
		c.ivs = scan(c)
		if opts.Stats != nil {
			opts.Stats.WordDiff += time.Since(start)
			opts.Stats.ScannedBytes += c.scanned
		}
		start = time.Now()
		for _, iv := range c.ivs {
			if err := translate(c, iv); err != nil {
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
	if rb := opts.RunBuf; rb != nil {
		rb.data, rb.runs, rb.ivs = c.buf, c.runs, c.ivs
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
	// ivs holds the scan's intervals.
	ivs []interval
	// last is the block the last interval ended in.
	last *mem.Block
	// swap is set when local multi-byte values are little-endian,
	// the reverse of wire order.
	swap bool
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
		swap:   !seg.Heap().Profile().BigEndian(),
	}
	if rb := opts.RunBuf; rb != nil {
		c.buf, c.runs, c.ivs = rb.data[:0], rb.runs[:0], rb.ivs[:0]
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
	out := c.ivs
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
// it overlaps and emits wire runs for each. Intervals arrive in
// address order, so it starts from the block the previous interval
// ended in, or the one after it, and follows the blocks in address
// order; only an interval starting outside those two looks its first
// block up in the address trees.
func (c *collector) translateInterval(iv interval) error {
	lo := iv.sub.Base + mem.Addr(iv.lo)
	hi := iv.sub.Base + mem.Addr(iv.hi)
	b := c.last
	if b != nil && (b.Sub != iv.sub || lo < b.Addr) {
		b = nil
	}
	if b != nil && lo >= b.End() {
		b = b.NextByAddr() // lo may sit in the gap before it
		if b != nil && lo >= b.End() {
			b = nil
		}
	}
	if b == nil {
		b = firstBlockFrom(c.heap, iv.sub, lo)
	}
	for ; b != nil && b.Addr < hi; b = b.NextByAddr() {
		c.last = b
		if b.Pending {
			continue // travels whole already
		}
		if err := c.blockRuns(b, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// firstBlockFrom returns the first block of ss whose extent ends
// after lo: the block holding lo, else the first one starting after it
// (lo may lie in a gap, or in a block freed since it was modified).
func firstBlockFrom(heap *mem.Heap, ss *mem.SubSeg, lo mem.Addr) *mem.Block {
	if b, ok := heap.BlockAt(lo); ok {
		return b
	}
	var first *mem.Block
	ss.AscendBlocks(lo, func(b *mem.Block) bool {
		first = b
		return false
	})
	return first
}

// blockBytes returns the local bytes of block b.
func blockBytes(b *mem.Block) []byte {
	off := int(b.Addr - b.Sub.Base)
	return b.Sub.Data[off : off+b.Size() : off+b.Size()]
}

// blockRuns emits wire runs for the part of [lo, hi) that overlaps
// block b. The units of consecutive elements merge into one run when
// contiguous; an element covered whole spans all its units.
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
	view := blockBytes(b)
	l := b.Layout
	size, pc := l.Size, l.PrimCount
	u0, u1 := -1, -1
	e := rb0 / size
	for at := e * size; at < rb1; e, at = e+1, at+size {
		lb0, lb1 := max(rb0-at, 0), min(rb1-at, size)
		p0, p1 := 0, pc
		if lb0 > 0 || lb1 < size {
			var ok bool
			if p0, p1, ok = l.PrimSpan(lb0, lb1); !ok {
				continue
			}
		}
		g0, g1 := e*pc+p0, e*pc+p1
		if u1 == g0 {
			u1 = g1 // contiguous with previous element's span
			continue
		}
		if u0 >= 0 {
			if err := c.emitRun(b, view, u0, u1); err != nil {
				return err
			}
		}
		u0, u1 = g0, g1
	}
	if u0 < 0 {
		return nil
	}
	return c.emitRun(b, view, u0, u1)
}

// emitRun translates units [u0, u1) of block b, whose local bytes are
// view, into one wire run.
func (c *collector) emitRun(b *mem.Block, view []byte, u0, u1 int) error {
	data, err := c.translateUnits(b, view, u0, u1)
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
	err := c.emitRun(b, blockBytes(b), 0, b.PrimCount())
	if c.opts.Stats != nil {
		c.opts.Stats.Translate += time.Since(start)
	}
	return err
}

// translateUnits converts units [u0, u1) of b, whose local bytes are
// view, from local format to canonical wire format, appending them to
// the collector's chunk.
func (c *collector) translateUnits(b *mem.Block, view []byte, u0, u1 int) ([]byte, error) {
	l, swap := b.Layout, c.swap
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
				buf = wire.AppendU16(buf, swap16(binary.BigEndian.Uint16(view[absByte+i*stride:]), swap))
			}
		case types.KindInt32, types.KindFloat32:
			for i := 0; i < n; i++ {
				buf = wire.AppendU32(buf, swap32(binary.BigEndian.Uint32(view[absByte+i*stride:]), swap))
			}
		case types.KindInt64, types.KindFloat64:
			for i := 0; i < n; i++ {
				buf = wire.AppendU64(buf, swap64(binary.BigEndian.Uint64(view[absByte+i*stride:]), swap))
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
					a = mem.Addr(swap32(binary.BigEndian.Uint32(view[absByte+i*stride:]), swap))
				} else {
					a = mem.Addr(swap64(binary.BigEndian.Uint64(view[absByte+i*stride:]), swap))
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
		// MIPs longer than types.MIPSizeEstimate outgrew the chunk,
		// and append moved this run alone to a larger buffer: that
		// buffer is the chunk from here on.
		c.buf = buf
	}
	return buf[:len(buf):len(buf)], nil
}

// swap16, swap32 and swap64 convert between a value read big-endian
// and the local value, reversing its bytes when swap is set: the local
// order is little-endian.
func swap16(v uint16, swap bool) uint16 {
	if swap {
		return bits.ReverseBytes16(v)
	}
	return v
}

func swap32(v uint32, swap bool) uint32 {
	if swap {
		return bits.ReverseBytes32(v)
	}
	return v
}

func swap64(v uint64, swap bool) uint64 {
	if swap {
		return bits.ReverseBytes64(v)
	}
	return v
}

// wireSizeBound returns a capacity for the wire encoding of units
// [u0, u1) of a block with layout l, u0 < u1, the room a run needs in
// its chunk: the lesser of the units each priced as the widest and the
// elements touched each priced whole, which is exact for whole
// elements (types.Layout.WireBound).
func wireSizeBound(l *types.Layout, u0, u1 int) int {
	n := (u1 - u0) * l.UnitWireBound
	if n <= l.WireBound {
		return n // no fewer than one element is touched
	}
	pc := l.PrimCount
	return min(n, ((u1-1)/pc-u0/pc+1)*l.WireBound)
}

// cstr trims a fixed-capacity string cell at its NUL terminator.
func cstr(cell []byte) []byte {
	if i := bytes.IndexByte(cell, 0); i >= 0 {
		return cell[:i]
	}
	return cell
}

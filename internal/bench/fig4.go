package bench

import (
	"fmt"
	"strings"
	"time"

	"interweave/internal/arch"
	"interweave/internal/diff"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
	"interweave/internal/xdr"
)

// Fig4Row is one group of bars in Figure 4: the client's cost to
// translate 1 MB of a given data mix, fully modified.
type Fig4Row struct {
	Name  string
	Bytes int
	// RPCXDR is rpcgen-style parameter marshaling of the same data.
	RPCXDR time.Duration
	// CollectBlock / ApplyBlock translate whole blocks (no-diff
	// mode); CollectDiff / ApplyDiff run the full twin-diff
	// machinery with every word modified.
	CollectBlock time.Duration
	CollectDiff  time.Duration
	ApplyBlock   time.Duration
	ApplyDiff    time.Duration
	// WireBytes is the size of the wire-format transmission.
	WireBytes int
}

// fig4Case carries the per-mix benchmark state.
type fig4Case struct {
	spec    mixSpec
	src     *localSeg
	dst     *localSeg
	block   *mem.Block
	targets *mem.Block
	fill    func(seed int) error
}

// Fig4 measures all nine mixes with the given number of timing
// iterations per bar.
func Fig4(iters int) ([]Fig4Row, error) {
	if iters < 1 {
		iters = 1
	}
	prof := arch.AMD64()
	specs, err := fig4Mixes(prof)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, len(specs))
	for _, spec := range specs {
		c, err := setupFig4Case(prof, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		row, err := c.measure(iters)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func setupFig4Case(prof *arch.Profile, spec mixSpec) (*fig4Case, error) {
	src, err := newLocalSeg(prof, "b/f4")
	if err != nil {
		return nil, err
	}
	dst, err := newLocalSeg(prof, "b/f4")
	if err != nil {
		return nil, err
	}
	c := &fig4Case{spec: spec, src: src, dst: dst}
	c.block, err = src.alloc(spec.Type, spec.Count, "data")
	if err != nil {
		return nil, err
	}
	if spec.wantPointers {
		// Pointer targets: an int block with one int per pointer,
		// plus one extra so pointer values can alternate between
		// seeds (every word must change in the diff runs).
		c.targets, err = src.alloc(types.Int32(), spec.Count+1, "targets")
		if err != nil {
			return nil, err
		}
	}
	c.fill = c.filler()
	if err := c.fill(0); err != nil {
		return nil, err
	}
	// Ship the creation diff so the destination has the blocks.
	created, err := diff.CollectSegment(src.seg, diff.CollectOptions{Version: 1, Swizzle: src.swizzler()})
	if err != nil {
		return nil, err
	}
	if err := dst.mirror(src); err != nil {
		return nil, err
	}
	if _, err := diff.ApplySegment(dst.seg, created, diff.ApplyOptions{
		Resolve:   dst.resolver(),
		LayoutFor: dst.layoutFor,
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// filler returns a function writing seed-dependent values into every
// primitive unit of the case's block, so that consecutive seeds
// change every diff word.
func (c *fig4Case) filler() func(seed int) error {
	h := c.src.heap
	l := c.block.Layout
	base := c.block.Addr
	long := strings.Repeat("x", 240)
	return func(seed int) error {
		var it types.UnitIter
		u := 0
		for it.Seek(l, 0, c.block.Count*l.PrimCount); it.Next(); {
			st := it.Step
			for i := 0; i < it.N; i, u = i+1, u+1 {
				a := base + mem.Addr(it.Off+i*st.ByteStride)
				var err error
				switch st.Kind {
				case types.KindChar:
					err = h.WriteU8(a, byte(u+seed))
				case types.KindInt16:
					err = h.WriteI16(a, int16(u+seed))
				case types.KindInt32:
					err = h.WriteI32(a, int32(u*2+seed+1))
				case types.KindInt64:
					err = h.WriteI64(a, int64(u)*3+int64(seed)+1)
				case types.KindFloat32:
					err = h.WriteF32(a, float32(u)+float32(seed)+0.5)
				case types.KindFloat64:
					err = h.WriteF64(a, float64(u)*1.5+float64(seed)+0.25)
				case types.KindString:
					if st.Cap >= 64 {
						err = h.WriteCString(a, st.Cap, fmt.Sprintf("%s-%d-%d", long, u, seed))
					} else {
						err = h.WriteCString(a, st.Cap, fmt.Sprintf("%c%c", 'a'+byte(seed%26), 'a'+byte(u%26)))
					}
				case types.KindPointer:
					// Alternate targets so the cell changes.
					t := (u + seed) % (c.spec.Count + 1)
					err = h.WritePtr(a, c.targets.Addr+mem.Addr(4*t))
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func (c *fig4Case) measure(iters int) (Fig4Row, error) {
	row := Fig4Row{Name: c.spec.Name, Bytes: c.block.Size()}

	// RPC XDR baseline.
	codec, err := xdr.NewCodec(c.src.heap)
	if err != nil {
		return row, err
	}
	start := time.Now()
	var enc []byte
	for i := 0; i < iters; i++ {
		enc, err = codec.MarshalBlock(c.block)
		if err != nil {
			return row, err
		}
	}
	row.RPCXDR = time.Since(start) / time.Duration(iters)
	_ = enc

	// Collect block (no-diff mode).
	var blockDiff *wire.SegmentDiff
	start = time.Now()
	for i := 0; i < iters; i++ {
		blockDiff, err = diff.CollectSegment(c.src.seg, diff.CollectOptions{
			Version: 2, NoDiff: true, Swizzle: c.src.swizzler(),
		})
		if err != nil {
			return row, err
		}
	}
	row.CollectBlock = time.Since(start) / time.Duration(iters)
	row.WireBytes = blockDiff.WireSize()

	// Collect diff: per iteration, re-protect and modify everything.
	var diffDiff *wire.SegmentDiff
	var total time.Duration
	for i := 0; i < iters; i++ {
		c.src.seg.WriteProtect()
		if err := c.fill(i + 1); err != nil {
			return row, err
		}
		start = time.Now()
		diffDiff, err = diff.CollectSegment(c.src.seg, diff.CollectOptions{
			Version: 2, Swizzle: c.src.swizzler(),
		})
		total += time.Since(start)
		if err != nil {
			return row, err
		}
		c.src.seg.DropTwins()
		c.src.seg.Unprotect()
	}
	row.CollectDiff = total / time.Duration(iters)

	// Apply block and apply diff on the destination machine.
	apply := func(d *wire.SegmentDiff) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := diff.ApplySegment(c.dst.seg, d, diff.ApplyOptions{
				Resolve:   c.dst.resolver(),
				LayoutFor: c.dst.layoutFor,
			}); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(iters), nil
	}
	if row.ApplyBlock, err = apply(blockDiff); err != nil {
		return row, err
	}
	if row.ApplyDiff, err = apply(diffDiff); err != nil {
		return row, err
	}
	return row, nil
}

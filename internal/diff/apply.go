package diff

import (
	"encoding/binary"
	"fmt"
	"time"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// ApplyOptions controls diff application.
type ApplyOptions struct {
	// Resolve unswizzles MIPs into local pointers; required when the
	// segment contains pointers.
	Resolve ResolveFunc
	// LayoutFor returns the local layout for a registered type
	// descriptor serial; required when the diff creates blocks.
	LayoutFor func(descSerial uint32) (*types.Layout, error)
	// NoPredict disables last-block prediction (for the ablation
	// benchmarks); the serial-number tree is searched for every
	// block diff instead.
	NoPredict bool
	// Stats, when non-nil, accumulates timings, runs, units and
	// bytes; the prediction counters are in ApplyResult.
	Stats *Stats
}

// ApplyResult reports what an application changed.
type ApplyResult struct {
	// NewBlocks is the number of blocks created.
	NewBlocks int
	// FreedBlocks is the number of blocks freed.
	FreedBlocks int
	// UnitsApplied is the number of primitive units written.
	UnitsApplied int
	// PredictHits and PredictMisses count last-block prediction
	// outcomes (Section 3.3, "last-block searches").
	PredictHits   int
	PredictMisses int
}

// ApplySegment applies a wire-format diff to the local copy of a
// segment. All stores bypass the fault path: incoming updates are not
// local modifications.
func ApplySegment(seg *mem.SegMem, d *wire.SegmentDiff, opts ApplyOptions) (*ApplyResult, error) {
	start := time.Now()
	res := &ApplyResult{}
	heap := seg.Heap()
	prof := heap.Profile()

	// New blocks first, so that runs and MIPs targeting them
	// resolve. Blocks arrive grouped by the version in which they
	// were created (the server's blk_version_list order), so
	// allocating in arrival order realizes the paper's
	// layout-for-locality: blocks modified together end up adjacent.
	for _, nb := range d.News {
		if existing, ok := seg.BlockBySerial(nb.Serial); ok {
			// Already materialized — e.g. by a directory fetch that
			// preceded this full transmission. Sanity-check identity.
			if existing.Count != int(nb.Count) {
				return nil, fmt.Errorf("diff: block %d count mismatch: have %d, diff says %d",
					nb.Serial, existing.Count, nb.Count)
			}
			continue
		}
		if opts.LayoutFor == nil {
			return nil, fmt.Errorf("diff: diff creates block %d but no LayoutFor was provided", nb.Serial)
		}
		l, err := opts.LayoutFor(nb.DescSerial)
		if err != nil {
			return nil, fmt.Errorf("diff: block %d: %w", nb.Serial, err)
		}
		b, err := seg.AllocWithSerial(nb.Serial, l, int(nb.Count), nb.Name)
		if err != nil {
			return nil, fmt.Errorf("diff: materializing block %d: %w", nb.Serial, err)
		}
		b.Pending = false // came from the server; nothing to send back
		b.DescSerial = nb.DescSerial
		res.NewBlocks++
	}
	for _, serial := range d.Freed {
		b, ok := seg.BlockBySerial(serial)
		if !ok {
			// Freed before this client ever saw it; nothing to do.
			continue
		}
		if err := seg.Free(b); err != nil {
			return nil, fmt.Errorf("diff: freeing block %d: %w", serial, err)
		}
		res.FreedBlocks++
	}

	var last *mem.Block
	for i := range d.Blocks {
		bd := &d.Blocks[i]
		b := predictBlock(seg, last, bd.Serial, opts.NoPredict, res)
		if b == nil {
			return nil, fmt.Errorf("diff: %w: serial %d", mem.ErrNoSuchBlock, bd.Serial)
		}
		last = b
		view, err := heap.MutView(b.Addr, b.Size())
		if err != nil {
			return nil, err
		}
		total := b.PrimCount()
		for _, run := range bd.Runs {
			if int(run.Start)+int(run.Count) > total {
				return nil, fmt.Errorf("diff: run [%d,%d) exceeds block %d (%d units)",
					run.Start, run.Start+run.Count, bd.Serial, total)
			}
			if err := applyRun(prof, view, b, run, opts); err != nil {
				return nil, err
			}
			res.UnitsApplied += int(run.Count)
		}
	}
	if opts.Stats != nil {
		opts.Stats.Translate += time.Since(start)
		opts.Stats.Runs += countRuns(d)
		opts.Stats.Units += res.UnitsApplied
		opts.Stats.Bytes += d.DataBytes()
	}
	return res, nil
}

// predictBlock locates the block for a diff entry. Based on the
// observation that blocks modified together in the past tend to be
// modified together in the future, the next changed block is
// predicted to be the next consecutive block in memory; only on a
// miss is the balanced serial-number tree searched.
func predictBlock(seg *mem.SegMem, last *mem.Block, serial uint32, noPredict bool, res *ApplyResult) *mem.Block {
	if !noPredict && last != nil {
		if cand := last.NextByAddr(); cand != nil && cand.Serial == serial {
			res.PredictHits++
			return cand
		}
		res.PredictMisses++
	}
	b, ok := seg.BlockBySerial(serial)
	if !ok {
		return nil
	}
	return b
}

// applyRun decodes one wire run into the block's local bytes.
func applyRun(prof *arch.Profile, view []byte, b *mem.Block, run wire.Run, opts ApplyOptions) error {
	r := wire.NewReader(run.Data)
	swap := !prof.BigEndian()
	u0 := int(run.Start)
	u1 := u0 + int(run.Count)
	var it types.UnitIter
	for it.Seek(b.Layout, u0, u1); it.Next(); {
		absByte, n, stride, strCap := it.Off, it.N, it.Step.ByteStride, it.Step.Cap
		switch it.Step.Kind {
		case types.KindChar:
			for i := 0; i < n; i++ {
				view[absByte+i*stride] = r.U8()
			}
		case types.KindInt16:
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint16(view[absByte+i*stride:], swap16(r.U16(), swap))
			}
		case types.KindInt32, types.KindFloat32:
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint32(view[absByte+i*stride:], swap32(r.U32(), swap))
			}
		case types.KindInt64, types.KindFloat64:
			for i := 0; i < n; i++ {
				binary.BigEndian.PutUint64(view[absByte+i*stride:], swap64(r.U64(), swap))
			}
		case types.KindString:
			for i := 0; i < n; i++ {
				s := r.Bytes()
				if r.Err() != nil {
					return r.Err()
				}
				if len(s) >= strCap {
					return fmt.Errorf("diff: string of %d bytes overflows capacity %d in block %d",
						len(s), strCap, b.Serial)
				}
				cell := view[absByte+i*stride : absByte+i*stride+strCap]
				copy(cell, s)
				clear(cell[len(s):])
			}
		case types.KindPointer:
			for i := 0; i < n; i++ {
				mip := r.Str()
				if r.Err() != nil {
					return r.Err()
				}
				var a mem.Addr
				if mip != "" {
					if opts.Resolve == nil {
						return fmt.Errorf("diff: block %d contains pointers but no resolver was provided", b.Serial)
					}
					var err error
					a, err = opts.Resolve(mip)
					if err != nil {
						return fmt.Errorf("diff: unswizzling %q in block %d: %w", mip, b.Serial, err)
					}
				}
				if prof.WordSize == 4 {
					if a > 0xFFFFFFFF {
						return fmt.Errorf("diff: pointer %#x exceeds 32-bit word", uint64(a))
					}
					binary.BigEndian.PutUint32(view[absByte+i*stride:], swap32(uint32(a), swap))
				} else {
					binary.BigEndian.PutUint64(view[absByte+i*stride:], swap64(uint64(a), swap))
				}
			}
		default:
			return fmt.Errorf("diff: unexpected kind %v in walk", it.Step.Kind)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("diff: run data for block %d: %w", b.Serial, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("diff: %d trailing bytes in run for block %d", r.Remaining(), b.Serial)
	}
	return nil
}

func countRuns(d *wire.SegmentDiff) int {
	n := 0
	for i := range d.Blocks {
		n += len(d.Blocks[i].Runs)
	}
	return n
}

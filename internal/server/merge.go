package server

import (
	"sort"

	"interweave/internal/wire"
)

// Unit-accurate merging of cached diffs. When a client lags several
// versions and every intervening diff is still in the cache, the
// server can answer with the union of those diffs — keeping only the
// latest data for each primitive unit — instead of falling back to
// subblock-granularity collection. Under relaxed coherence this is
// what makes Delta-x cheaper than syncing at every version: a unit
// modified in each of x versions travels once, exactly.

// mergeCachedDiffs builds a merged diff for a client at sinceVer from
// cached per-version diffs, reporting ok=false when any needed
// version is missing from the cache. A client one version behind gets
// the cached diff itself, which the caller must not modify.
func (s *Segment) mergeCachedDiffs(sinceVer uint32) (*wire.SegmentDiff, bool) {
	if sinceVer >= s.Version {
		return nil, false
	}
	span := int(s.Version - sinceVer)
	if span > s.cacheCap {
		return nil, false
	}
	diffs := make([]*wire.SegmentDiff, 0, span)
	for v := sinceVer + 1; v <= s.Version; v++ {
		d, ok := s.diffCache[v]
		if !ok {
			return nil, false
		}
		diffs = append(diffs, d)
	}
	if len(diffs) == 1 {
		return diffs[0], true
	}

	out := &wire.SegmentDiff{Version: s.Version}

	// Blocks freed anywhere in the window are dead at the end of it
	// (serials are never reused); suppress their creation and data.
	freed := make(map[uint32]bool)
	for _, d := range diffs {
		for _, serial := range d.Freed {
			freed[serial] = true
		}
	}
	for serial := range freed {
		out.Freed = append(out.Freed, serial)
	}
	sort.Slice(out.Freed, func(i, j int) bool { return out.Freed[i] < out.Freed[j] })

	descSeen := make(map[uint32]bool)
	for _, d := range diffs {
		for _, dd := range d.Descs {
			if descSeen[dd.Serial] {
				continue
			}
			descSeen[dd.Serial] = true
			out.Descs = append(out.Descs, dd)
		}
		for _, nb := range d.News {
			if freed[nb.Serial] {
				continue
			}
			out.News = append(out.News, nb)
		}
	}

	// Each block's runs are the union of the window's runs on it, read
	// from the live image, which holds the last writer's value of every
	// unit the window wrote.
	type window struct {
		b     *Blk
		spans [][2]int
	}
	var order []*window
	windows := make(map[uint32]*window)
	for _, d := range diffs {
		for i := range d.Blocks {
			bd := &d.Blocks[i]
			if freed[bd.Serial] {
				continue
			}
			w := windows[bd.Serial]
			if w == nil {
				b, ok := s.blocks.Get(bd.Serial)
				if !ok {
					// Unknown live block: a cached diff is inconsistent
					// with the store; fall back to subblock collection.
					return nil, false
				}
				w = &window{b: b}
				windows[bd.Serial] = w
				order = append(order, w)
			}
			for _, run := range bd.Runs {
				if run.Count > 0 {
					w.spans = append(w.spans, [2]int{int(run.Start), int(run.Start + run.Count)})
				}
			}
		}
	}

	for _, w := range order {
		sort.Slice(w.spans, func(i, j int) bool { return w.spans[i][0] < w.spans[j][0] })
		bd := wire.BlockDiff{Serial: w.b.Serial}
		for i := 0; i < len(w.spans); {
			u0, u1 := w.spans[i][0], w.spans[i][1]
			for i++; i < len(w.spans) && w.spans[i][0] <= u1; i++ {
				u1 = max(u1, w.spans[i][1])
			}
			bd.Runs = append(bd.Runs, wire.Run{
				Start: uint32(u0),
				Count: uint32(u1 - u0),
				Data:  w.b.appendUnits(make([]byte, 0, w.b.wireSizeHint(u0, u1)), u0, u1),
			})
		}
		if len(bd.Runs) > 0 {
			out.Blocks = append(out.Blocks, bd)
		}
	}
	return out, true
}

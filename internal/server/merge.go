package server

import (
	"sort"

	"interweave/internal/types"
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

	// Overlay run data per block, last version wins per unit.
	type overlay struct {
		serial uint32
		units  map[int][]byte // unit -> exact wire encoding
	}
	var order []uint32
	overlays := make(map[uint32]*overlay)
	for _, d := range diffs {
		for i := range d.Blocks {
			bd := &d.Blocks[i]
			if freed[bd.Serial] {
				continue
			}
			blk, ok := s.blocks.Get(bd.Serial)
			if !ok {
				// Unknown live block: a cached diff is inconsistent
				// with the store; fall back to subblock collection.
				return nil, false
			}
			ov := overlays[bd.Serial]
			if ov == nil {
				ov = &overlay{serial: bd.Serial, units: make(map[int][]byte)}
				overlays[bd.Serial] = ov
				order = append(order, bd.Serial)
			}
			for _, run := range bd.Runs {
				if !splitRunUnits(blk, run, ov.units) {
					return nil, false
				}
			}
		}
	}

	for _, serial := range order {
		ov := overlays[serial]
		units := make([]int, 0, len(ov.units))
		for u := range ov.units {
			units = append(units, u)
		}
		sort.Ints(units)
		bd := wire.BlockDiff{Serial: serial}
		i := 0
		for i < len(units) {
			j := i
			var data []byte
			for j < len(units) && units[j] == units[i]+(j-i) {
				data = append(data, ov.units[units[j]]...)
				j++
			}
			bd.Runs = append(bd.Runs, wire.Run{
				Start: uint32(units[i]),
				Count: uint32(j - i),
				Data:  data,
			})
			i = j
		}
		out.Blocks = append(out.Blocks, bd)
	}
	return out, true
}

// splitRunUnits decodes one run into per-unit wire encodings,
// overwriting earlier versions' entries.
func splitRunUnits(b *Blk, run wire.Run, units map[int][]byte) bool {
	r := wire.NewReader(run.Data)
	eu := b.elemUnits()
	u0 := int(run.Start)
	u1 := u0 + int(run.Count)
	if u1 > b.Units() {
		return false
	}
	for u := u0; u < u1; u++ {
		var enc []byte
		switch p := u % eu; b.kinds[p] {
		case types.KindString, types.KindPointer:
			start := r.Offset()
			n := r.U32()
			if r.Err() != nil || n > uint32(r.Remaining()) {
				return false
			}
			r.Take(int(n))
			// Re-read the whole length-prefixed region as one blob.
			enc = run.Data[start:r.Offset()]
		default:
			enc = r.Take(b.wirePrefix[p+1] - b.wirePrefix[p])
		}
		if r.Err() != nil {
			return false
		}
		units[u] = enc
	}
	return r.Err() == nil && r.Remaining() == 0
}

package server

import (
	"bytes"
	"testing"

	"interweave/internal/types"
	"interweave/internal/wire"
)

func intDescBytes(t testing.TB) []byte {
	t.Helper()
	b, err := types.Marshal(types.Int32())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mixDescBytes(t testing.TB) []byte {
	t.Helper()
	s8, err := types.StringOf(8)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := types.PointerTo(types.Int32())
	if err != nil {
		t.Fatal(err)
	}
	st, err := types.StructOf("m",
		types.Field{Name: "i", Type: types.Int32()},
		types.Field{Name: "s", Type: s8},
		types.Field{Name: "p", Type: pi},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := types.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// intsDiff builds a creation diff: one block of n int32s with values
// vals (padded with zeros).
func intsDiff(t testing.TB, descLocal, serial uint32, n int, name string, vals ...uint32) *wire.SegmentDiff {
	t.Helper()
	data := make([]byte, 0, n*4)
	for i := 0; i < n; i++ {
		var v uint32
		if i < len(vals) {
			v = vals[i]
		}
		data = wire.AppendU32(data, v)
	}
	return &wire.SegmentDiff{
		Descs: []wire.DescDef{{Serial: descLocal, Bytes: intDescBytes(t)}},
		News:  []wire.NewBlock{{Serial: serial, DescSerial: descLocal, Count: uint32(n), Name: name}},
		Blocks: []wire.BlockDiff{{Serial: serial, Runs: []wire.Run{
			{Start: 0, Count: uint32(n), Data: data},
		}}},
	}
}

// runDiff builds a modification diff for an existing int block.
func runDiff(serial, start uint32, vals ...uint32) *wire.SegmentDiff {
	data := make([]byte, 0, len(vals)*4)
	for _, v := range vals {
		data = wire.AppendU32(data, v)
	}
	return &wire.SegmentDiff{
		Blocks: []wire.BlockDiff{{Serial: serial, Runs: []wire.Run{
			{Start: start, Count: uint32(len(vals)), Data: data},
		}}},
	}
}

func TestApplyAndCollectBasic(t *testing.T) {
	s := NewSegment("h/s")
	v, modified, err := s.ApplyDiff(intsDiff(t, 77, 1, 8, "a", 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || s.Version != 1 {
		t.Errorf("version = %d/%d", v, s.Version)
	}
	if modified != 8 {
		t.Errorf("modified = %d", modified)
	}
	if s.TotalUnits() != 8 || s.NumBlocks() != 1 {
		t.Errorf("units=%d blocks=%d", s.TotalUnits(), s.NumBlocks())
	}
	// A client at version 0 gets everything.
	d, err := s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || len(d.News) != 1 || d.News[0].Name != "a" || len(d.Descs) != 1 {
		t.Fatalf("CollectDiff(0) = %+v", d)
	}
	if d.News[0].DescSerial != 1 {
		t.Errorf("remapped desc serial = %d, want 1 (server-global)", d.News[0].DescSerial)
	}
	if len(d.Blocks) != 1 || d.Blocks[0].Runs[0].Count != 8 {
		t.Fatalf("data runs = %+v", d.Blocks)
	}
	// Current client gets nil.
	d, err = s.CollectDiff(1)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Error("current client got a diff")
	}
}

func TestDescriptorDedupAcrossClients(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 500, 1, 4, "a")); err != nil {
		t.Fatal(err)
	}
	// Second "client" uses a different local serial for the same type.
	if _, _, err := s.ApplyDiff(intsDiff(t, 9, 2, 4, "b")); err != nil {
		t.Fatal(err)
	}
	d, err := s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.News[0].DescSerial != d.News[1].DescSerial {
		t.Errorf("same type got serials %d and %d", d.News[0].DescSerial, d.News[1].DescSerial)
	}
	// And a genuinely different type gets a new serial.
	md := &wire.SegmentDiff{
		Descs: []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}},
		News:  []wire.NewBlock{{Serial: 3, DescSerial: 1, Count: 1}},
	}
	if _, _, err := s.ApplyDiff(md); err != nil {
		t.Fatal(err)
	}
	if got := md.News[0].DescSerial; got != 2 {
		t.Errorf("second type serial = %d, want 2", got)
	}
}

func TestSubblockGranularity(t *testing.T) {
	s := NewSegment("h/s")
	s.SetDiffCacheCap(0) // exercise the subblock path, not cached forwarding
	const n = 1024
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, n, "a")); err != nil {
		t.Fatal(err)
	}
	// Modify one unit at position 100.
	if _, mod, err := s.ApplyDiff(runDiff(1, 100, 0xAB)); err != nil {
		t.Fatal(err)
	} else if mod != 1 {
		t.Errorf("modified = %d", mod)
	}
	d, err := s.CollectDiff(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 1 || len(d.Blocks[0].Runs) != 1 {
		t.Fatalf("diff = %+v", d.Blocks)
	}
	run := d.Blocks[0].Runs[0]
	// Subblock granularity: exactly the 16-unit subblock holding
	// unit 100 (units 96-111).
	if run.Start != 96 || run.Count != SubblockUnits {
		t.Errorf("run = [%d,+%d), want [96,+16)", run.Start, run.Count)
	}
	// And the transmitted value is there, at index 100-96.
	got := uint32(run.Data[16])<<24 | uint32(run.Data[17])<<16 | uint32(run.Data[18])<<8 | uint32(run.Data[19])
	if got != 0xAB {
		t.Errorf("unit value = %#x", got)
	}
}

func TestAdjacentSubblocksMerge(t *testing.T) {
	s := NewSegment("h/s")
	s.SetDiffCacheCap(0) // exercise the subblock path, not cached forwarding
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 256, "a")); err != nil {
		t.Fatal(err)
	}
	// Touch units 0..40 — three consecutive subblocks.
	vals := make([]uint32, 41)
	if _, _, err := s.ApplyDiff(runDiff(1, 0, vals...)); err != nil {
		t.Fatal(err)
	}
	d, err := s.CollectDiff(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks[0].Runs) != 1 {
		t.Fatalf("runs = %d, want 1 merged", len(d.Blocks[0].Runs))
	}
	if d.Blocks[0].Runs[0].Count != 48 { // 3 subblocks of 16
		t.Errorf("merged run covers %d units, want 48", d.Blocks[0].Runs[0].Count)
	}
}

func TestIntermediateVersions(t *testing.T) {
	s := NewSegment("h/s")
	s.SetDiffCacheCap(0)                                                  // exercise the subblock path, not cached forwarding
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 32, "a")); err != nil { // v1
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 0, 7)); err != nil { // v2
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 2, 32, "b")); err != nil { // v3
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(2, 20, 9)); err != nil { // v4
		t.Fatal(err)
	}
	// Client at v2: should get block b as new, plus block 2's run is
	// inside the new block (already whole); block 1 unchanged since
	// v2.
	d, err := s.CollectDiff(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.News) != 1 || d.News[0].Serial != 2 {
		t.Fatalf("News = %+v", d.News)
	}
	for _, bd := range d.Blocks {
		if bd.Serial == 1 {
			t.Error("unchanged block 1 included")
		}
	}
	// Client at v3: gets only block 2's modified subblock.
	d, err = s.CollectDiff(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.News) != 0 || len(d.Blocks) != 1 || d.Blocks[0].Serial != 2 {
		t.Fatalf("v3 diff = %+v", d)
	}
	if d.Blocks[0].Runs[0].Start != 16 {
		t.Errorf("run start = %d, want 16 (subblock of unit 20)", d.Blocks[0].Runs[0].Start)
	}
	if err := s.checkListSorted(); err != nil {
		t.Error(err)
	}
}

func TestVersionListTailMovement(t *testing.T) {
	s := NewSegment("h/s")
	for i := uint32(1); i <= 3; i++ {
		if _, _, err := s.ApplyDiff(intsDiff(t, 1, i, 16, "")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.versionListOrder(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("initial order = %v", got)
	}
	// Modify block 1: it moves to the tail.
	if _, _, err := s.ApplyDiff(runDiff(1, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if got := s.versionListOrder(); got[2] != 1 {
		t.Fatalf("order after modify = %v, want block 1 last", got)
	}
	if err := s.checkListSorted(); err != nil {
		t.Error(err)
	}
}

func TestFreedPropagation(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 16, "a")); err != nil { // v1
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{Freed: []uint32{1}}); err != nil { // v2
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 || s.TotalUnits() != 0 {
		t.Errorf("blocks=%d units=%d after free", s.NumBlocks(), s.TotalUnits())
	}
	// Client at v1 learns the free.
	d, err := s.CollectDiff(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Freed) != 1 || d.Freed[0] != 1 {
		t.Errorf("Freed = %v", d.Freed)
	}
	// Client at v0 also sees it (and no stale NewBlock).
	d, err = s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Freed) != 1 || len(d.News) != 0 {
		t.Errorf("v0 diff = freed %v news %v", d.Freed, d.News)
	}
}

func TestDiffCache(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 64, "a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	before := s.CacheHits()
	d, err := s.CollectDiff(1) // exactly one behind: cached
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheHits() != before+1 {
		t.Errorf("cache hits = %d, want %d", s.CacheHits(), before+1)
	}
	if d.Version != 2 || len(d.Blocks) != 1 {
		t.Errorf("cached diff = %+v", d)
	}
	// Two behind: served by merging cached diffs, unit-accurately.
	d0, err := s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheHits() != before+2 {
		t.Error("multi-version collect did not use the cache")
	}
	if len(d0.News) != 1 || d0.Version != 2 {
		t.Errorf("merged diff = %+v", d0)
	}
	// Disabling the cache stops hits.
	s.SetDiffCacheCap(0)
	if _, _, err := s.ApplyDiff(runDiff(1, 8, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CollectDiff(2); err != nil {
		t.Fatal(err)
	}
	if s.CacheHits() != before+2 {
		t.Error("disabled cache hit")
	}
}

func TestMergedCachedDiffLastWriterWins(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 64, "a")); err != nil { // v1
		t.Fatal(err)
	}
	// v2 writes unit 5 = 100; v3 writes units 5..6 = 200, 201.
	if _, _, err := s.ApplyDiff(runDiff(1, 5, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 5, 200, 201)); err != nil {
		t.Fatal(err)
	}
	d, err := s.CollectDiff(1) // two behind: merged from cache
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 1 || len(d.Blocks[0].Runs) != 1 {
		t.Fatalf("merged = %+v", d.Blocks)
	}
	run := d.Blocks[0].Runs[0]
	// Unit-accurate: exactly units 5..6, with v3's values.
	if run.Start != 5 || run.Count != 2 {
		t.Fatalf("merged run = [%d,+%d), want [5,+2)", run.Start, run.Count)
	}
	r := wire.NewReader(run.Data)
	if v := r.U32(); v != 200 {
		t.Errorf("unit 5 = %d, want 200 (last writer)", v)
	}
	if v := r.U32(); v != 201 {
		t.Errorf("unit 6 = %d, want 201", v)
	}
	// A freed block disappears from merged News and data.
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 2, 16, "b")); err != nil { // v4
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{Freed: []uint32{2}}); err != nil { // v5
		t.Fatal(err)
	}
	d2, err := s.CollectDiff(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range d2.News {
		if nb.Serial == 2 {
			t.Error("freed block announced in merged diff")
		}
	}
	for _, bd := range d2.Blocks {
		if bd.Serial == 2 {
			t.Error("freed block data in merged diff")
		}
	}
	found := false
	for _, f := range d2.Freed {
		if f == 2 {
			found = true
		}
	}
	if !found {
		t.Error("free not propagated in merged diff")
	}
}

// TestEmptyRunStampsNothing requires a run that changes no unit to
// stamp no subblock: a reader at the version before it is sent no data.
func TestEmptyRunStampsNothing(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 64, "a")); err != nil { // v1
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 40, 7)); err != nil { // v2
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{Blocks: []wire.BlockDiff{ // v3
		{Serial: 1, Runs: []wire.Run{{Start: 5, Count: 0}}},
	}}); err != nil {
		t.Fatal(err)
	}
	d, err := s.collectFull(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 0 {
		t.Errorf("collectFull(2) after an empty run carries %+v, want no runs", d.Blocks)
	}
	if err := s.checkListSorted(); err != nil {
		t.Error(err)
	}
}

func TestUnitsModifiedSince(t *testing.T) {
	s := NewSegment("h/s")
	s.SetDiffCacheCap(0)                                                   // exercise the subblock path, not cached forwarding
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 256, "a")); err != nil { // v1
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 0, 1)); err != nil { // v2: subblock 0
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 64, 1)); err != nil { // v3: subblock 4
		t.Fatal(err)
	}
	if got := s.UnitsModifiedSince(1); got != 32 {
		t.Errorf("since v1 = %d, want 32 (two subblocks)", got)
	}
	if got := s.UnitsModifiedSince(2); got != 16 {
		t.Errorf("since v2 = %d, want 16", got)
	}
	if got := s.UnitsModifiedSince(3); got != 0 {
		t.Errorf("since v3 = %d, want 0", got)
	}
}

// seedApplySeg returns a segment at version 2 holding int block 1
// ("a": 7, 8, 9, 10) and mix block 2 ("m": two elements of int32,
// string[8], pointer), the base the apply-error table and
// FuzzApplyDiffAtomic start from.
func seedApplySeg(t testing.TB) *Segment {
	t.Helper()
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 4, "a", 7, 8, 9, 10)); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for i := 0; i < 2; i++ {
		data = wire.AppendU32(data, uint32(i))
		data = wire.AppendString(data, "hey")
		data = wire.AppendString(data, "h/s#a#2")
	}
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{
		Descs:  []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}},
		News:   []wire.NewBlock{{Serial: 2, DescSerial: 1, Count: 2, Name: "m"}},
		Blocks: []wire.BlockDiff{{Serial: 2, Runs: []wire.Run{{Start: 0, Count: 6, Data: data}}}},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// badDiffs are diffs seedApplySeg's segment must refuse. The cases
// after the first eight put a valid run (block 1, unit 0 := 42) or a
// valid new descriptor ahead of the defect, where an apply that
// mutates as it goes would already have written.
func badDiffs(t testing.TB) []struct {
	name string
	d    *wire.SegmentDiff
} {
	good := wire.BlockDiff{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 1, Data: wire.AppendU32(nil, 42)}}}
	f64, err := types.Marshal(types.Float64())
	if err != nil {
		t.Fatal(err)
	}
	a20, err := types.ArrayOf(types.Int32(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	arr20, err := types.Marshal(a20)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		d    *wire.SegmentDiff
	}{
		{"nil diff", nil},
		{"unknown descriptor", &wire.SegmentDiff{News: []wire.NewBlock{{Serial: 9, DescSerial: 99, Count: 1}}}},
		{"unknown block", &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 9, Runs: []wire.Run{{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}}}}}}},
		{"run past block end", runDiff(1, 3, 1, 2, 3)},
		{"duplicate block serial", intsDiff(t, 1, 1, 4, "x")},
		{"duplicate block name", intsDiff(t, 1, 3, 4, "a")},
		{"zero count", &wire.SegmentDiff{
			Descs: []wire.DescDef{{Serial: 1, Bytes: intDescBytes(t)}},
			News:  []wire.NewBlock{{Serial: 3, DescSerial: 1, Count: 0}},
		}},
		{"truncated run", &wire.SegmentDiff{Blocks: []wire.BlockDiff{
			{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 2, Data: []byte{1}}}},
		}}},
		{"valid run, then unknown block", &wire.SegmentDiff{Blocks: []wire.BlockDiff{
			good, {Serial: 9, Runs: []wire.Run{{Start: 0, Count: 1, Data: wire.AppendU32(nil, 1)}}},
		}}},
		{"valid run, then run past block end", &wire.SegmentDiff{Blocks: []wire.BlockDiff{
			{Serial: 1, Runs: []wire.Run{good.Runs[0], {Start: 3, Count: 2, Data: wire.AppendU32(wire.AppendU32(nil, 1), 2)}}},
		}}},
		{"valid run, then truncated string", &wire.SegmentDiff{Blocks: []wire.BlockDiff{
			good, {Serial: 2, Runs: []wire.Run{{Start: 1, Count: 1, Data: append(wire.AppendU32(nil, 20), "abc"...)}}},
		}}},
		{"valid run, then string at its capacity", &wire.SegmentDiff{Blocks: []wire.BlockDiff{
			good, {Serial: 2, Runs: []wire.Run{{Start: 1, Count: 1, Data: wire.AppendString(nil, "12345678")}}},
		}}},
		{"valid descriptor, then undecodable descriptor", &wire.SegmentDiff{
			Descs:  []wire.DescDef{{Serial: 5, Bytes: f64}, {Serial: 6, Bytes: []byte{0xff, 0xff, 0xff}}},
			Blocks: []wire.BlockDiff{good},
		}},
		{"valid run, then run on a block freed by the same diff", &wire.SegmentDiff{
			Freed: []uint32{2},
			Blocks: []wire.BlockDiff{good, {Serial: 2, Runs: []wire.Run{
				{Start: 0, Count: 1, Data: wire.AppendU32(nil, 1)},
			}}},
		}},
		{"the same new block twice", &wire.SegmentDiff{
			Descs: []wire.DescDef{{Serial: 1, Bytes: intDescBytes(t)}},
			News:  []wire.NewBlock{{Serial: 3, DescSerial: 1, Count: 1}, {Serial: 3, DescSerial: 1, Count: 2}},
		}},
		{"valid run, then a new block of 2^40 units", &wire.SegmentDiff{
			Descs:  []wire.DescDef{{Serial: 1, Bytes: arr20}},
			News:   []wire.NewBlock{{Serial: 3, DescSerial: 1, Count: 1 << 20}},
			Blocks: []wire.BlockDiff{good},
		}},
	}
}

// TestApplyDiffErrors requires every refused diff to leave the segment
// exactly as it was: same encoding, same version.
func TestApplyDiffErrors(t *testing.T) {
	for _, tc := range badDiffs(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := seedApplySeg(t)
			before := s.encode()
			if _, _, err := s.ApplyDiff(tc.d); err == nil {
				t.Fatal("accepted")
			}
			if s.Version != 2 {
				t.Errorf("refused diff moved the version to %d", s.Version)
			}
			if !bytes.Equal(s.encode(), before) {
				t.Error("refused diff changed the segment")
			}
		})
	}
}

// FuzzApplyDiffAtomic decodes arbitrary bytes as a diff and applies
// it to seedApplySeg's segment: the apply either succeeds, leaving an
// image that decodes again, or refuses the diff and leaves the segment
// byte-identical. It never panics.
func FuzzApplyDiffAtomic(f *testing.F) {
	for _, tc := range badDiffs(f) {
		if tc.d != nil {
			f.Add(tc.d.Marshal(nil))
		}
	}
	f.Add(runDiff(1, 1, 5, 6).Marshal(nil))
	f.Add(intsDiff(f, 4, 3, 4, "b", 1, 2).Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := wire.UnmarshalSegmentDiff(data)
		if err != nil {
			return
		}
		s := seedApplySeg(t)
		if !fuzzAffordable(s, d) {
			return
		}
		before := s.encode()
		if _, _, err := s.ApplyDiff(d); err != nil {
			if s.Version != 2 || !bytes.Equal(s.encode(), before) {
				t.Fatalf("refused diff (%v) changed the segment", err)
			}
			return
		}
		if _, err := decodeSegment(s.encode()); err != nil {
			t.Fatalf("accepted diff left an image that does not decode: %v", err)
		}
	})
}

// fuzzAffordable bounds the units of the blocks a fuzzed diff creates
// on s — what applying it allocates — so the fuzzer explores decoding,
// not the machine's memory. A descriptor costs in proportion to its
// bytes, so any may be defined.
func fuzzAffordable(s *Segment, d *wire.SegmentDiff) bool {
	perElem := make(map[uint32]int)
	for serial, l := range s.layouts {
		perElem[serial] = l.wire.PrimCount
	}
	for _, dd := range d.Descs {
		if t, err := types.Unmarshal(dd.Bytes); err == nil {
			perElem[dd.Serial] = t.PrimCount()
		}
	}
	units := 0
	for _, nb := range d.News {
		if int(nb.Count) > 1<<20/max(perElem[nb.DescSerial], 1) {
			return false
		}
		units += int(nb.Count) * perElem[nb.DescSerial]
	}
	return units <= 1<<20
}

func TestVarlenStorage(t *testing.T) {
	s := NewSegment("h/s")
	// One mix block: int, string[8], pointer.
	data := wire.AppendU32(nil, 5)
	data = wire.AppendString(data, "hey")
	data = wire.AppendString(data, "h/s#a#2")
	d := &wire.SegmentDiff{
		Descs:  []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}},
		News:   []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: 1, Name: "m"}},
		Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 3, Data: data}}}},
	}
	if _, _, err := s.ApplyDiff(d); err != nil {
		t.Fatal(err)
	}
	out, err := s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Blocks[0].Runs[0].Data
	r := wire.NewReader(got)
	if v := r.U32(); v != 5 {
		t.Errorf("int = %d", v)
	}
	if v := r.Str(); v != "hey" {
		t.Errorf("string = %q", v)
	}
	if v := r.Str(); v != "h/s#a#2" {
		t.Errorf("mip = %q", v)
	}
	// Overwrite the string: var slot is reused, not leaked.
	varsBefore := len(s.Blocks()[0].vars)
	upd := wire.AppendString(nil, "belated")
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{Blocks: []wire.BlockDiff{
		{Serial: 1, Runs: []wire.Run{{Start: 1, Count: 1, Data: upd}}},
	}}); err != nil {
		t.Fatal(err)
	}
	if len(s.Blocks()[0].vars) != varsBefore {
		t.Errorf("vars grew from %d to %d on overwrite", varsBefore, len(s.Blocks()[0].vars))
	}
	// Overlong string rejected.
	bad := wire.AppendString(nil, "12345678longer")
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{Blocks: []wire.BlockDiff{
		{Serial: 1, Runs: []wire.Run{{Start: 1, Count: 1, Data: bad}}},
	}}); err == nil {
		t.Error("overflowing string accepted")
	}
}

func TestDirectory(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 16, "a")); err != nil {
		t.Fatal(err)
	}
	dir := s.Directory()
	if len(dir.News) != 1 || len(dir.Blocks) != 0 || len(dir.Descs) != 1 {
		t.Errorf("Directory = %+v", dir)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	s := NewSegment("host/path seg")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 100, "a", 11, 22, 33)); err != nil {
		t.Fatal(err)
	}
	data := wire.AppendU32(nil, 5)
	data = wire.AppendString(data, "str")
	data = wire.AppendString(data, "")
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{
		Descs:  []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}},
		News:   []wire.NewBlock{{Serial: 2, DescSerial: 1, Count: 1, Name: "m"}},
		Blocks: []wire.BlockDiff{{Serial: 2, Runs: []wire.Run{{Start: 0, Count: 3, Data: data}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyDiff(runDiff(1, 50, 0xEE)); err != nil {
		t.Fatal(err)
	}

	got, err := decodeSegment(s.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Name != s.Name || got.Version != s.Version {
		t.Errorf("identity: %q v%d", got.Name, got.Version)
	}
	if got.TotalUnits() != s.TotalUnits() || got.NumBlocks() != s.NumBlocks() {
		t.Errorf("sizes: units %d blocks %d", got.TotalUnits(), got.NumBlocks())
	}
	// Full diffs from both must be byte-identical (bypass the diff
	// cache, which the restored segment legitimately lacks).
	s.SetDiffCacheCap(0)
	d1, err := s.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := got.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1.Marshal(nil)) != string(d2.Marshal(nil)) {
		t.Error("full diffs differ after checkpoint roundtrip")
	}
	// Incremental diffs keep working: v2 client sees only the v3 run.
	d3, err := got.CollectDiff(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d3.Blocks) != 1 || d3.Blocks[0].Serial != 1 || d3.Blocks[0].Runs[0].Start != 48 {
		t.Errorf("incremental after restore = %+v", d3)
	}
	if err := got.checkListSorted(); err != nil {
		t.Error(err)
	}
	// Restored segment accepts new diffs.
	if _, _, err := got.ApplyDiff(runDiff(1, 0, 1)); err != nil {
		t.Errorf("apply after restore: %v", err)
	}
}

func TestDecodeSegmentErrors(t *testing.T) {
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(t, 1, 1, 8, "a")); err != nil {
		t.Fatal(err)
	}
	good := s.encode()
	if _, err := decodeSegment(good[:10]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := decodeSegment(append(append([]byte{}, good...), 1)); err == nil {
		t.Error("trailing checkpoint bytes accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := decodeSegment(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

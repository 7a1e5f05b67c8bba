package wire

import (
	"bytes"
	"runtime/debug"
	"testing"
)

// fuzzSeedDiffs are valid encodings covering every section of the
// diff format, so the fuzzer starts from structurally interesting
// inputs rather than pure noise.
func fuzzSeedDiffs() []*SegmentDiff {
	return []*SegmentDiff{
		{},
		{Version: 1},
		{
			Version: 7,
			Descs:   []DescDef{{Serial: 1, Bytes: []byte{1, 2, 3}}},
			News:    []NewBlock{{Serial: 1, DescSerial: 1, Count: 4, Name: "blk"}},
			Freed:   []uint32{9, 12},
			Blocks: []BlockDiff{{Serial: 1, Runs: []Run{
				{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}},
				{Start: 3, Count: 1, Data: []byte{0, 0, 0, 2}},
			}}},
		},
		{
			Version: 2,
			News:    []NewBlock{{Serial: 5, DescSerial: 2, Count: 1, Name: ""}},
			Blocks: []BlockDiff{{Serial: 5, Runs: []Run{
				{Start: 0, Count: 2, Data: []byte{0, 3, 'h', 'i', 0, 0}},
			}}},
		},
	}
}

// FuzzWireDecode feeds arbitrary bytes to the segment-diff decoder: a
// malformed diff arriving off a faulty link must produce an error,
// never a panic or a huge allocation. Valid inputs must round-trip.
func FuzzWireDecode(f *testing.F) {
	for _, d := range fuzzSeedDiffs() {
		f.Add(d.Marshal(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalSegmentDiff(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same bytes
		// — the decoder may not invent state it cannot represent — and
		// EncodedLen must predict that encoding's size exactly.
		out := d.Marshal(nil)
		if d.EncodedLen() != len(out) {
			t.Fatalf("EncodedLen %d, Marshal wrote %d bytes", d.EncodedLen(), len(out))
		}
		d2, err := UnmarshalSegmentDiff(out)
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !bytes.Equal(out, d2.Marshal(nil)) {
			t.Fatalf("unstable encoding:\n  first %x\n  second %x", out, d2.Marshal(nil))
		}
	})
}

// TestFuzzSeedsRoundtrip keeps the seed corpus honest in normal test
// runs (the fuzz engine only checks them under -fuzz).
func TestFuzzSeedsRoundtrip(t *testing.T) {
	for i, d := range fuzzSeedDiffs() {
		enc := d.Marshal(nil)
		got, err := UnmarshalSegmentDiff(enc)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !bytes.Equal(enc, got.Marshal(nil)) {
			t.Errorf("seed %d: encoding not stable", i)
		}
		if d.EncodedLen() != len(enc) || got.EncodedLen() != len(enc) {
			t.Errorf("seed %d: EncodedLen %d (decoded %d), encoding is %d bytes",
				i, d.EncodedLen(), got.EncodedLen(), len(enc))
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestMarshalAllocatesOnce pins the exact-size growth: a 1 MB diff of
// many runs marshals with one allocation, and into a buffer that
// already has room with none.
func TestMarshalAllocatesOnce(t *testing.T) {
	d := &SegmentDiff{
		Version: 3,
		Descs:   []DescDef{{Serial: 1, Bytes: []byte{1, 2, 3}}},
		News:    []NewBlock{{Serial: 1, DescSerial: 1, Count: 1 << 18, Name: "bulk"}},
	}
	const runs = 1024
	data := make([]byte, (1<<20)/runs)
	for b := 0; b < 4; b++ {
		bd := BlockDiff{Serial: uint32(b + 1)}
		for r := 0; r < runs/4; r++ {
			bd.Runs = append(bd.Runs, Run{Start: uint32(r * 256), Count: 256, Data: data})
		}
		d.Blocks = append(d.Blocks, bd)
	}
	if n := d.EncodedLen(); n < 1<<20 || n != len(d.Marshal(nil)) {
		t.Fatalf("EncodedLen %d, Marshal %d", n, len(d.Marshal(nil)))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A collection cycle started by these megabytes makes runtime
	// allocations of its own that AllocsPerRun would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(5, func() { _ = d.Marshal(nil) }); got != 1 {
		t.Errorf("Marshal(nil) of a %d-byte diff: %v allocations, want 1", d.EncodedLen(), got)
	}
	buf := make([]byte, 0, d.EncodedLen()+16)
	if got := testing.AllocsPerRun(5, func() { _ = d.Marshal(buf[:16]) }); got != 0 {
		t.Errorf("Marshal into a buffer with room: %v allocations, want 0", got)
	}
}

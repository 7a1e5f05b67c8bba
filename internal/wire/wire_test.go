package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundtrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU16(b, 0xCDEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 0x0123456789ABCDEF)
	b = AppendF64(b, -math.Pi)
	b = AppendString(b, "interweave")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "")

	r := NewReader(b)
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xCDEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); v != -math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str(); v != "interweave" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U32() // fails: only 2 bytes
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	if v := r.U8(); v != 0 {
		t.Errorf("read after error returned %d", v)
	}
	if r.Err() != ErrTruncated {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

func TestReaderBigEndian(t *testing.T) {
	b := AppendU32(nil, 1)
	want := []byte{0, 0, 0, 1}
	if !bytes.Equal(b, want) {
		t.Errorf("AppendU32(1) = %v, want %v (canonical form is big-endian)", b, want)
	}
}

func TestTakeBounds(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Take(2); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("Take(2) = %v", got)
	}
	if got := r.Take(5); got != nil || r.Err() == nil {
		t.Error("Take past end should fail")
	}
	r2 := NewReader([]byte{1})
	if got := r2.Take(-1); got != nil || r2.Err() == nil {
		t.Error("Take(-1) should fail")
	}
}

func sampleDiff() *SegmentDiff {
	return &SegmentDiff{
		Version: 7,
		Descs: []DescDef{
			{Serial: 1, Bytes: []byte{9, 9, 9}},
		},
		News: []NewBlock{
			{Serial: 3, DescSerial: 1, Count: 10, Name: "head"},
			{Serial: 4, DescSerial: 1, Count: 1, Name: ""},
		},
		Freed: []uint32{2},
		Blocks: []BlockDiff{
			{Serial: 3, Runs: []Run{
				{Start: 0, Count: 2, Data: []byte{0, 0, 0, 1, 0, 0, 0, 2}},
				{Start: 8, Count: 1, Data: []byte{0, 0, 0, 9}},
			}},
			{Serial: 4, Runs: []Run{{Start: 0, Count: 1, Data: []byte{5}}}},
		},
	}
}

func TestSegmentDiffRoundtrip(t *testing.T) {
	d := sampleDiff()
	enc := d.Marshal(nil)
	got, err := UnmarshalSegmentDiff(enc)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Version != d.Version {
		t.Errorf("Version = %d", got.Version)
	}
	if len(got.Descs) != 1 || got.Descs[0].Serial != 1 || !bytes.Equal(got.Descs[0].Bytes, []byte{9, 9, 9}) {
		t.Errorf("Descs = %+v", got.Descs)
	}
	if len(got.News) != 2 || got.News[0].Name != "head" || got.News[1].Count != 1 {
		t.Errorf("News = %+v", got.News)
	}
	if len(got.Freed) != 1 || got.Freed[0] != 2 {
		t.Errorf("Freed = %+v", got.Freed)
	}
	if len(got.Blocks) != 2 {
		t.Fatalf("Blocks = %d", len(got.Blocks))
	}
	b0 := got.Blocks[0]
	if b0.Serial != 3 || len(b0.Runs) != 2 || b0.Runs[1].Start != 8 ||
		!bytes.Equal(b0.Runs[0].Data, []byte{0, 0, 0, 1, 0, 0, 0, 2}) {
		t.Errorf("Blocks[0] = %+v", b0)
	}
}

func TestSegmentDiffEmpty(t *testing.T) {
	d := &SegmentDiff{Version: 1}
	if !d.Empty() {
		t.Error("empty diff not Empty")
	}
	if sampleDiff().Empty() {
		t.Error("sample diff reported Empty")
	}
	got, err := UnmarshalSegmentDiff(d.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() || got.Version != 1 {
		t.Errorf("roundtripped empty diff = %+v", got)
	}
}

func TestSegmentDiffWireSizeMatchesEncoding(t *testing.T) {
	d := sampleDiff()
	if d.WireSize() != len(d.Marshal(nil)) {
		t.Error("WireSize disagrees with Marshal length")
	}
}

func TestUnmarshalSegmentDiffErrors(t *testing.T) {
	good := sampleDiff().Marshal(nil)
	for cut := 1; cut < len(good); cut += 7 {
		if _, err := UnmarshalSegmentDiff(good[:cut]); err == nil {
			t.Errorf("truncation at %d succeeded", cut)
		}
	}
	if _, err := UnmarshalSegmentDiff(append(append([]byte{}, good...), 1)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Corrupt the final run's data length prefix (the 4 bytes just
	// before its 1 data byte): the inflated length must be rejected.
	bad := append([]byte{}, good...)
	bad[len(bad)-2] ^= 0xFF
	if _, err := UnmarshalSegmentDiff(bad); err == nil {
		t.Error("corrupted run length accepted")
	}
}

func TestDataLen(t *testing.T) {
	bd := BlockDiff{Runs: []Run{
		{Start: 0, Count: 1, Data: make([]byte, 4)},
		{Start: 5, Count: 2, Data: make([]byte, 16)},
	}}
	if got := bd.DataLen(); got != 12+4+12+16 {
		t.Errorf("DataLen = %d, want %d", got, 12+4+12+16)
	}
}

// TestQuickDiffRoundtrip fuzzes structurally valid diffs through the
// encoder and decoder.
func TestQuickDiffRoundtrip(t *testing.T) {
	fn := func(version uint32, serials []uint32, runBytes [][]byte) bool {
		d := &SegmentDiff{Version: version}
		for i, s := range serials {
			var runs []Run
			if i < len(runBytes) {
				runs = append(runs, Run{Start: uint32(i), Count: uint32(len(runBytes[i])), Data: runBytes[i]})
			} else {
				runs = append(runs, Run{Start: 0, Count: 0, Data: nil})
			}
			d.Blocks = append(d.Blocks, BlockDiff{Serial: s, Runs: runs})
		}
		got, err := UnmarshalSegmentDiff(d.Marshal(nil))
		if err != nil {
			return false
		}
		if got.Version != version || len(got.Blocks) != len(d.Blocks) {
			return false
		}
		for i := range got.Blocks {
			if got.Blocks[i].Serial != d.Blocks[i].Serial {
				return false
			}
			if !bytes.Equal(got.Blocks[i].Runs[0].Data, d.Blocks[i].Runs[0].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package server

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"interweave/internal/types"
	"interweave/internal/wire"
)

// goldenImagePath holds the image goldenHistory encodes to, written
// when the server still stored every unit as an 8-byte cell. Journal
// bases and migration snapshots are this encoding, so a store that
// decodes and re-encodes it byte for byte still loads what older
// servers wrote.
const goldenImagePath = "testdata/golden.iwseg"

// goldenMix is one block type of the golden history, with its units
// per element spelled one letter each: i int32, d float64, c char,
// h int16, f float32, l int64, s string[256], t string[4], p MIP.
type goldenMix struct {
	typ   *types.Type
	units string
	count int
}

// goldenMixes returns the nine Figure 4 data mixes, in the paper's
// order, and a tenth type holding the fixed-width kinds they omit.
func goldenMixes(t testing.TB) []goldenMix {
	t.Helper()
	must := func(typ *types.Type, err error) *types.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	structOf := func(name string, fields ...*types.Type) *types.Type {
		fs := make([]types.Field, len(fields))
		for i, f := range fields {
			fs[i] = types.Field{Name: "f" + strconv.Itoa(i), Type: f}
		}
		return must(types.StructOf(name, fs...))
	}
	repeat := func(typ *types.Type, n int) []*types.Type {
		out := make([]*types.Type, n)
		for i := range out {
			out[i] = typ
		}
		return out
	}
	i32, f64 := types.Int32(), types.Float64()
	str256, str4 := must(types.StringOf(256)), must(types.StringOf(4))
	ptr := must(types.PointerTo(i32))
	return []goldenMix{
		{i32, "i", 40},
		{f64, "d", 20},
		{structOf("int_struct", repeat(i32, 32)...), string(bytes.Repeat([]byte("i"), 32)), 2},
		{structOf("double_struct", repeat(f64, 32)...), string(bytes.Repeat([]byte("d"), 32)), 2},
		{str256, "s", 6},
		{str4, "t", 6},
		{ptr, "p", 6},
		{structOf("int_double", i32, f64), "id", 12},
		{structOf("mix", i32, f64, str256, str4, ptr), "idstp", 5},
		{structOf("misc", types.Char(), types.Int16(), types.Float32(), types.Int64()), "chfl", 9},
	}
}

// goldenUnits encodes units [u0,u1) of a block of mix m as they stand
// after the write numbered w: every value, string length and MIP is a
// function of (w, unit), and w = 0 writes empty strings and null MIPs.
func goldenUnits(m goldenMix, w, u0, u1 int) []byte {
	var buf []byte
	for u := u0; u < u1; u++ {
		x := uint64(w*1000 + u)
		switch m.units[u%len(m.units)] {
		case 'i':
			buf = wire.AppendU32(buf, uint32(x)*2654435761)
		case 'd':
			buf = wire.AppendU64(buf, math.Float64bits(float64(x)/7))
		case 'c':
			buf = wire.AppendU8(buf, byte(x))
		case 'h':
			buf = wire.AppendU16(buf, uint16(x*31))
		case 'f':
			buf = wire.AppendU32(buf, math.Float32bits(float32(x)/3))
		case 'l':
			buf = wire.AppendU64(buf, x*0x9E3779B97F4A7C15)
		case 's':
			buf = wire.AppendString(buf, string(bytes.Repeat([]byte{'a' + byte(x%26)}, int(x%5)*w*9)))
		case 't':
			buf = wire.AppendString(buf, fmt.Sprint(x)[:int(x%4)*min(w, 1)])
		case 'p':
			if w == 0 || x%3 == 0 {
				buf = wire.AppendString(buf, "")
			} else {
				buf = wire.AppendString(buf, fmt.Sprintf("h/g#b%d#%d", x%9, x%17))
			}
		}
	}
	return buf
}

// goldenHistory builds a segment through five releases: v1 creates a
// block of each mix, v2 rewrites a run in each, v3 creates two more,
// v4 frees one of them and rewrites parts of the survivors, and v5
// writes empty strings and null MIPs over earlier ones.
func goldenHistory(t testing.TB) *Segment {
	t.Helper()
	mixes := goldenMixes(t)
	s := NewSegment("h/golden")
	apply := func(d *wire.SegmentDiff) {
		t.Helper()
		if _, _, err := s.ApplyDiff(d); err != nil {
			t.Fatal(err)
		}
	}
	create := func(d *wire.SegmentDiff, serial uint32, mi int, w int) {
		m := mixes[mi]
		b, err := types.Marshal(m.typ)
		if err != nil {
			t.Fatal(err)
		}
		units := len(m.units) * m.count
		d.Descs = append(d.Descs, wire.DescDef{Serial: uint32(mi + 1), Bytes: b})
		d.News = append(d.News, wire.NewBlock{Serial: serial, DescSerial: uint32(mi + 1), Count: uint32(m.count), Name: "b" + strconv.Itoa(int(serial))})
		d.Blocks = append(d.Blocks, wire.BlockDiff{Serial: serial, Runs: []wire.Run{
			{Start: 0, Count: uint32(units), Data: goldenUnits(m, w, 0, units)},
		}})
	}
	write := func(d *wire.SegmentDiff, serial uint32, mi, w int, spans ...[2]int) {
		bd := wire.BlockDiff{Serial: serial}
		for _, sp := range spans {
			bd.Runs = append(bd.Runs, wire.Run{Start: uint32(sp[0]), Count: uint32(sp[1] - sp[0]), Data: goldenUnits(mixes[mi], w, sp[0], sp[1])})
		}
		d.Blocks = append(d.Blocks, bd)
	}

	v1 := &wire.SegmentDiff{}
	for mi := 0; mi < 9; mi++ {
		create(v1, uint32(mi+1), mi, 1)
	}
	apply(v1)

	v2 := &wire.SegmentDiff{}
	for mi := 0; mi < 9; mi++ {
		units := len(mixes[mi].units) * mixes[mi].count
		write(v2, uint32(mi+1), mi, 2, [2]int{units / 3, units/3 + units/4 + 1})
	}
	apply(v2)

	v3 := &wire.SegmentDiff{}
	create(v3, 10, 9, 3)
	create(v3, 11, 8, 3)
	apply(v3)

	v4 := &wire.SegmentDiff{Freed: []uint32{11}}
	write(v4, 10, 9, 4, [2]int{1, 6}, [2]int{20, 33})
	write(v4, 9, 8, 4, [2]int{0, 3}, [2]int{12, 20})
	write(v4, 1, 0, 4, [2]int{17, 18}, [2]int{38, 40})
	apply(v4)

	v5 := &wire.SegmentDiff{}
	write(v5, 5, 4, 0, [2]int{0, 2})
	write(v5, 7, 6, 0, [2]int{3, 6})
	write(v5, 9, 8, 0, [2]int{2, 5})
	apply(v5)
	return s
}

// TestGoldenImage requires the golden image to decode and re-encode
// byte-identically, and the history that produced it to encode to it
// again.
func TestGoldenImage(t *testing.T) {
	golden, err := os.ReadFile(goldenImagePath)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decodeSegment(golden)
	if err != nil {
		t.Fatalf("decoding the golden image: %v", err)
	}
	if got := img.encode(); !bytes.Equal(got, golden) {
		t.Fatalf("golden image re-encodes to %d different bytes (want %d)", len(got), len(golden))
	}
	if got := goldenHistory(t).encode(); !bytes.Equal(got, golden) {
		t.Fatalf("golden history encodes to %d bytes that differ from the golden image's %d", len(got), len(golden))
	}
	if err := img.checkListSorted(); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeSegment decodes arbitrary bytes as a segment image, the
// form journal bases and migration snapshots take on disk and between
// peers: every input is refused, or decodes to a segment that encodes
// back to the same bytes. None panics.
func FuzzDecodeSegment(f *testing.F) {
	golden, err := os.ReadFile(goldenImagePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// TestDecodeSegmentErrors' image and its refused variants.
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(intsDiff(f, 1, 1, 8, "a")); err != nil {
		f.Fatal(err)
	}
	good := s.encode()
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xFF
	f.Add(good)
	f.Add(good[:10])
	f.Add(append(bytes.Clone(good), 1))
	f.Add(badMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeSegment(data)
		if err != nil {
			return
		}
		if got := img.encode(); !bytes.Equal(got, data) {
			t.Fatalf("image of %d bytes re-encodes to %d different bytes", len(data), len(got))
		}
	})
}

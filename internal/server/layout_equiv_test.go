package server

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"interweave/internal/types"
	"interweave/internal/wire"
)

// refLayout is the storage geometry as the server built it before it
// used types.WireOf: per-unit tables for one element. wirePrefix[i] is
// the stored size of units [0,i), slots lists the strings and MIPs in
// unit order, and firstSlot[i] indexes the first at unit i or later.
// The equivalence test holds descLayout to it.
type refLayout struct {
	wirePrefix  []int
	slots       []refSlot
	firstSlot   []int
	units, size int
}

type refSlot struct {
	unit, off int
	maxSize   int
}

func refParseLayout(b []byte) (*refLayout, error) {
	t, err := types.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	l := &refLayout{wirePrefix: []int{0}}
	refWireWalk(t, func(k types.Kind, strCap, n int) {
		sz, fixed := types.FixedWireSize(k)
		for i := 0; i < n; i++ {
			u := len(l.wirePrefix) - 1
			if !fixed {
				sz = 4
				vs := refSlot{unit: u, off: l.wirePrefix[u], maxSize: wire.MaxItem}
				if strCap > 0 {
					vs.maxSize = strCap - 1
				}
				l.slots = append(l.slots, vs)
			}
			l.wirePrefix = append(l.wirePrefix, l.wirePrefix[u]+sz)
		}
	})
	l.units = len(l.wirePrefix) - 1
	l.size = l.wirePrefix[l.units]
	if len(l.slots) == 0 {
		return l, nil
	}
	l.firstSlot = make([]int, l.units+1)
	for i, p := len(l.slots), l.units; p >= 0; p-- {
		if i > 0 && l.slots[i-1].unit >= p {
			i--
		}
		l.firstSlot[p] = i
	}
	return l, nil
}

// refWireWalk flattens one value of t into runs of n units of kind k
// in wire order; an array of primitives is one run.
func refWireWalk(t *types.Type, fn func(k types.Kind, strCap, n int)) {
	switch t.Kind() {
	case types.KindStruct:
		for _, f := range t.Fields() {
			refWireWalk(f.Type, fn)
		}
	case types.KindArray:
		if t.Elem().Kind().IsPrimitive() {
			fn(t.Elem().Kind(), t.Elem().Cap(), t.Len())
			return
		}
		for i := 0; i < t.Len(); i++ {
			refWireWalk(t.Elem(), fn)
		}
	default:
		fn(t.Kind(), t.Cap(), 1)
	}
}

func (l *refLayout) offset(u int) int {
	e := u / l.units
	return e*l.size + l.wirePrefix[u-e*l.units]
}

func (l *refLayout) walk(u0, u1 int, fixed func(o0, o1 int), slot func(o int, vs refSlot) error) error {
	if len(l.slots) == 0 {
		if u0 < u1 {
			fixed(l.offset(u0), l.offset(u1))
		}
		return nil
	}
	eu, size, slots := l.units, l.size, l.slots
	e := u0 / eu
	base, baseOff := e*eu, e*size
	at, atOff := u0, baseOff+l.wirePrefix[u0-base]
	for i := l.firstSlot[u0-base]; base < u1; base, baseOff, i = base+eu, baseOff+size, 0 {
		for ; i < len(slots); i++ {
			vs := slots[i]
			u := base + vs.unit
			if u >= u1 {
				break
			}
			o := baseOff + vs.off
			if o > atOff {
				fixed(atOff, o)
			}
			if err := slot(o, vs); err != nil {
				return err
			}
			at, atOff = u+1, o+4
		}
	}
	if at < u1 {
		fixed(atOff, baseOff-size+l.wirePrefix[u1-base+eu])
	}
	return nil
}

// equivTypes returns the golden mixes, arrays of them, nested arrays of
// structs, and random types built from every kind.
func equivTypes(t *testing.T) []*types.Type {
	t.Helper()
	must := func(typ *types.Type, err error) *types.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	var out []*types.Type
	for _, m := range goldenMixes(t) {
		out = append(out, m.typ, must(types.ArrayOf(m.typ, 3)))
	}
	str4 := must(types.StringOf(4))
	is := must(types.StructOf("is", types.Field{Name: "i", Type: types.Int32()}, types.Field{Name: "s", Type: str4}))
	out = append(out, must(types.ArrayOf(must(types.ArrayOf(is, 3)), 7)))
	prims := []*types.Type{types.Char(), types.Int16(), types.Int32(), types.Int64(), types.Float32(), types.Float64()}
	var random func(rng *rand.Rand, depth int) *types.Type
	random = func(rng *rand.Rand, depth int) *types.Type {
		if depth == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(8) {
			case 6:
				return must(types.StringOf(1 + rng.Intn(64)))
			case 7:
				return must(types.PointerTo(prims[rng.Intn(len(prims))]))
			default:
				return prims[rng.Intn(len(prims))]
			}
		}
		if rng.Intn(2) == 0 {
			return must(types.ArrayOf(random(rng, depth-1), 1+rng.Intn(9)))
		}
		fs := make([]types.Field, 1+rng.Intn(6))
		for i := range fs {
			fs[i] = types.Field{Name: "f" + strconv.Itoa(i), Type: random(rng, depth-1)}
		}
		return must(types.StructOf("r", fs...))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		out = append(out, random(rng, 3))
	}
	return out
}

// walkEvent is one visit of a walk: a fixed-width span [o0,o1), or one
// string or MIP slot at o0 whose item holds at most maxSize bytes.
type walkEvent struct {
	item            bool
	o0, o1, maxSize int
}

// TestDescLayoutEquivalence holds the WireOf geometry to the per-unit
// tables it replaced: the same descriptors accepted, every unit of a
// three-element block at the same offset, and walks over seeded ranges
// yielding the same spans and slots once runs of slots are expanded.
func TestDescLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, typ := range equivTypes(t) {
		b, err := types.Marshal(typ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseLayout(b)
		want, refErr := refParseLayout(b)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%v: err %v, reference %v", typ, err, refErr)
		}
		if err != nil {
			continue
		}
		if got.wire.PrimCount != want.units || got.wire.Size != want.size || got.hasItems != (len(want.slots) > 0) {
			t.Fatalf("%v: %d units, %d bytes, items %v; reference %d, %d, %d slots", typ,
				got.wire.PrimCount, got.wire.Size, got.hasItems, want.units, want.size, len(want.slots))
		}
		units := 3 * want.units
		for u := 0; u <= units; u++ {
			if g, w := got.offset(u), want.offset(u); g != w {
				t.Fatalf("%v: offset(%d) = %d, reference %d", typ, u, g, w)
			}
		}
		for i := 0; i < 50; i++ {
			u0 := rng.Intn(units + 1)
			u1 := u0 + rng.Intn(units+1-u0)
			var g, w []walkEvent
			var it types.UnitIter
			for it.Seek(got.wire, u0, u1); it.Next(); {
				maxSize, ok := item(it.Step)
				switch {
				case ok:
					for j := 0; j < it.N; j++ {
						g = append(g, walkEvent{item: true, o0: it.Off + 4*j, maxSize: maxSize})
					}
				case len(g) > 0 && !g[len(g)-1].item:
					g[len(g)-1].o1 = it.Off + it.N*it.Step.ByteStride
				default:
					g = append(g, walkEvent{o0: it.Off, o1: it.Off + it.N*it.Step.ByteStride})
				}
			}
			_ = want.walk(u0, u1, func(o0, o1 int) {
				w = append(w, walkEvent{o0: o0, o1: o1})
			}, func(o int, vs refSlot) error {
				w = append(w, walkEvent{item: true, o0: o, maxSize: vs.maxSize})
				return nil
			})
			if !slices.Equal(g, w) {
				t.Fatalf("%v: walk(%d,%d) = %v, reference %v", typ, u0, u1, g, w)
			}
		}
	}
}

// TestDescriptorCost requires registering a descriptor through ApplyDiff
// to cost in proportion to its bytes, not its units: the server once
// built a table entry per unit of an element, and then a walk step per
// element of an array of irregular structs. A type nested more than 64
// struct and array levels is refused.
func TestDescriptorCost(t *testing.T) {
	must := func(typ *types.Type, err error) *types.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	ii := must(types.StructOf("ii", types.Field{Name: "a", Type: types.Int32()}, types.Field{Name: "b", Type: types.Int32()}))
	is := must(types.StructOf("is", types.Field{Name: "i", Type: types.Int32()}, types.Field{Name: "s", Type: must(types.StringOf(4))}))
	dag := is // 20 levels, each holding the one below twice
	for k := 1; k <= 20; k++ {
		dag = must(types.StructOf("s"+strconv.Itoa(k), types.Field{Name: "a", Type: dag}, types.Field{Name: "b", Type: dag}))
	}
	for _, tc := range []struct {
		name     string
		typ      *types.Type
		desc     []byte
		maxAlloc uint64
	}{
		{typ: must(types.ArrayOf(types.Int32(), 1<<22)), maxAlloc: 64 << 10},
		{typ: must(types.ArrayOf(ii, 1<<27)), maxAlloc: 64 << 10},
		{typ: must(types.ArrayOf(is, 1<<20)), maxAlloc: 64 << 10},
		{typ: must(types.ArrayOf(is, 1<<21)), maxAlloc: 64 << 10},
		{typ: must(types.ArrayOf(is, 1<<22)), maxAlloc: 64 << 10},
		{name: "dag20", typ: dag, maxAlloc: 64 << 10},
		{name: "chain64", desc: chainDesc(64), maxAlloc: 128 << 10},
		{name: "chain65", desc: chainDesc(65), maxAlloc: 128 << 10},
	} {
		if tc.typ != nil {
			b, err := types.Marshal(tc.typ)
			if err != nil {
				t.Fatal(err)
			}
			tc.desc = b
			if tc.name == "" {
				tc.name = tc.typ.String()
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			s := NewSegment("h/s")
			d := &wire.SegmentDiff{Descs: []wire.DescDef{{Serial: 1, Bytes: tc.desc}}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := s.ApplyDiff(d)
			runtime.ReadMemStats(&after)
			if tc.name == "chain65" {
				if err == nil || !strings.Contains(err.Error(), "64 struct and array levels") {
					t.Fatalf("ApplyDiff = %v, want the nesting error", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > tc.maxAlloc {
				t.Errorf("registering %d descriptor bytes allocated %d bytes, want at most %d", len(tc.desc), n, tc.maxAlloc)
			}
		})
	}
}

// chainDesc encodes a chain of levels nested structs, each a char and
// the level below, the innermost a char and an int32: each level is a
// repeat step in the one above. Marshal refuses to encode one nested
// past the bound.
func chainDesc(levels int) []byte {
	b := binary.BigEndian.AppendUint32(nil, 0x49575459) // "IWTY"
	b = binary.BigEndian.AppendUint32(b, uint32(levels+2))
	char, i32 := uint32(levels), uint32(levels+1)
	for k := 1; k <= levels; k++ {
		below := uint32(k)
		if k == levels {
			below = i32
		}
		b = append(b, byte(types.KindStruct), 0, 0, 0, 2, 0, 1, 'c')
		b = binary.BigEndian.AppendUint32(b, char)
		b = append(b, 0, 1, 'x')
		b = binary.BigEndian.AppendUint32(b, below)
	}
	return append(b, byte(types.KindChar), byte(types.KindInt32))
}

// TestDescriptorsLeaveLittleLive requires a diff defining four
// descriptors of a million irregular elements each to leave well under
// a megabyte live once registered.
func TestDescriptorsLeaveLittleLive(t *testing.T) {
	str4, err := types.StringOf(4)
	if err != nil {
		t.Fatal(err)
	}
	d := &wire.SegmentDiff{}
	for i := 1; i <= 4; i++ {
		is, err := types.StructOf("is"+strconv.Itoa(i), types.Field{Name: "i", Type: types.Int32()}, types.Field{Name: "s", Type: str4})
		if err != nil {
			t.Fatal(err)
		}
		arr, err := types.ArrayOf(is, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := types.Marshal(arr)
		if err != nil {
			t.Fatal(err)
		}
		d.Descs = append(d.Descs, wire.DescDef{Serial: uint32(i), Bytes: b})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSegment("h/s")
	if _, _, err := s.ApplyDiff(d); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := int64(after.HeapAlloc) - int64(before.HeapAlloc); n > 1<<20 {
		t.Errorf("four descriptors left %d bytes live", n)
	}
	runtime.KeepAlive(s)
}

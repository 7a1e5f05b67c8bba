package types

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"interweave/internal/arch"
)

// mustString etc. keep test tables terse.
func mustString(t *testing.T, c int) *Type {
	t.Helper()
	s, err := StringOf(c)
	if err != nil {
		t.Fatalf("StringOf(%d): %v", c, err)
	}
	return s
}

func mustPtr(t *testing.T, e *Type) *Type {
	t.Helper()
	p, err := PointerTo(e)
	if err != nil {
		t.Fatalf("PointerTo: %v", err)
	}
	return p
}

func mustArray(t *testing.T, e *Type, n int) *Type {
	t.Helper()
	a, err := ArrayOf(e, n)
	if err != nil {
		t.Fatalf("ArrayOf(%v,%d): %v", e, n, err)
	}
	return a
}

func mustStruct(t *testing.T, name string, fields ...Field) *Type {
	t.Helper()
	s, err := StructOf(name, fields...)
	if err != nil {
		t.Fatalf("StructOf(%q): %v", name, err)
	}
	return s
}

// listNode builds the paper's Figure 1 node_t: {int key; node_t *next}.
func listNode(t *testing.T) *Type {
	t.Helper()
	n := NewStruct("node_t")
	next, err := PointerTo(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetFields(Field{"key", Int32()}, Field{"next", next}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPrimitiveSingletons(t *testing.T) {
	tests := []struct {
		t    *Type
		kind Kind
	}{
		{Char(), KindChar},
		{Int16(), KindInt16},
		{Int32(), KindInt32},
		{Int64(), KindInt64},
		{Float32(), KindFloat32},
		{Float64(), KindFloat64},
	}
	for _, tt := range tests {
		if tt.t.Kind() != tt.kind {
			t.Errorf("kind = %v, want %v", tt.t.Kind(), tt.kind)
		}
		if tt.t.PrimCount() != 1 {
			t.Errorf("%v PrimCount = %d, want 1", tt.kind, tt.t.PrimCount())
		}
		if !tt.t.Complete() {
			t.Errorf("%v not complete", tt.kind)
		}
		if err := Validate(tt.t); err != nil {
			t.Errorf("Validate(%v): %v", tt.kind, err)
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := StringOf(0); err == nil {
		t.Error("StringOf(0) succeeded")
	}
	if _, err := PointerTo(nil); err == nil {
		t.Error("PointerTo(nil) succeeded")
	}
	if _, err := ArrayOf(nil, 3); err == nil {
		t.Error("ArrayOf(nil) succeeded")
	}
	if _, err := ArrayOf(Int32(), 0); err == nil {
		t.Error("ArrayOf len 0 succeeded")
	}
	if _, err := ArrayOf(NewStruct("shell"), 3); err == nil {
		t.Error("ArrayOf(incomplete) succeeded")
	}
	if _, err := StructOf("s"); err == nil {
		t.Error("empty struct succeeded")
	}
	if _, err := StructOf("s", Field{"", Int32()}); err == nil {
		t.Error("unnamed field succeeded")
	}
	if _, err := StructOf("s", Field{"a", Int32()}, Field{"a", Int32()}); err == nil {
		t.Error("duplicate field succeeded")
	}
	if _, err := StructOf("s", Field{"a", nil}); err == nil {
		t.Error("nil field type succeeded")
	}
	if _, err := StructOf("s", Field{"a", NewStruct("shell")}); err == nil {
		t.Error("incomplete field type succeeded")
	}
	sh := NewStruct("x")
	if err := sh.SetFields(Field{"a", Int32()}); err != nil {
		t.Fatal(err)
	}
	if err := sh.SetFields(Field{"b", Int32()}); err == nil {
		t.Error("second SetFields succeeded")
	}
	if err := Int32().SetFields(Field{"a", Int32()}); err == nil {
		t.Error("SetFields on primitive succeeded")
	}
}

func TestRecursiveType(t *testing.T) {
	n := listNode(t)
	if err := Validate(n); err != nil {
		t.Fatalf("Validate(node_t): %v", err)
	}
	if n.PrimCount() != 2 {
		t.Errorf("node_t PrimCount = %d, want 2", n.PrimCount())
	}
	if got := n.Field(1).Type.Elem(); got != n {
		t.Error("next pointer does not target node_t itself")
	}
}

func TestValidateIncomplete(t *testing.T) {
	shell := NewStruct("shell")
	if err := Validate(shell); err == nil {
		t.Error("Validate(incomplete shell) succeeded")
	}
	p := mustPtr(t, shell)
	if err := Validate(p); err == nil {
		t.Error("Validate(pointer to incomplete shell) succeeded")
	}
}

func TestPrimCounts(t *testing.T) {
	mix := mustStruct(t, "mix",
		Field{"i", Int32()},
		Field{"d", Float64()},
		Field{"s", mustString(t, 256)},
		Field{"t", mustString(t, 4)},
		Field{"p", mustPtr(t, Int32())},
	)
	if mix.PrimCount() != 5 {
		t.Errorf("mix PrimCount = %d, want 5", mix.PrimCount())
	}
	arr := mustArray(t, mix, 7)
	if arr.PrimCount() != 35 {
		t.Errorf("[7]mix PrimCount = %d, want 35", arr.PrimCount())
	}
}

func TestLayoutX86VsAlphaDoubles(t *testing.T) {
	// struct { char c; double d; } — the classic alignment divergence:
	// i386 aligns doubles to 4, Alpha to 8.
	s := mustStruct(t, "cd", Field{"c", Char()}, Field{"d", Float64()})
	x86, err := Of(s, arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := Of(s, arch.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := x86.Field("d"); f.ByteOff != 4 {
		t.Errorf("x86 d offset = %d, want 4", f.ByteOff)
	}
	if x86.Size != 12 {
		t.Errorf("x86 size = %d, want 12", x86.Size)
	}
	if f, _ := alpha.Field("d"); f.ByteOff != 8 {
		t.Errorf("alpha d offset = %d, want 8", f.ByteOff)
	}
	if alpha.Size != 16 {
		t.Errorf("alpha size = %d, want 16", alpha.Size)
	}
}

func TestLayoutPointerSizes(t *testing.T) {
	n := listNode(t)
	l32, err := Of(n, arch.Sparc())
	if err != nil {
		t.Fatal(err)
	}
	l64, err := Of(n, arch.MIPS64())
	if err != nil {
		t.Fatal(err)
	}
	if l32.Size != 8 { // int32 @0, ptr @4
		t.Errorf("sparc node size = %d, want 8", l32.Size)
	}
	if l64.Size != 16 { // int32 @0, pad, ptr @8
		t.Errorf("mips64 node size = %d, want 16", l64.Size)
	}
	if f, _ := l64.Field("next"); f.ByteOff != 8 || f.PrimOff != 1 {
		t.Errorf("mips64 next at byte %d prim %d, want 8,1", f.ByteOff, f.PrimOff)
	}
}

func TestIsomorphicCollapseStructOfInts(t *testing.T) {
	// The paper's example: a struct of consecutive integers becomes a
	// single array-like descriptor.
	fields := make([]Field, 32)
	for i := range fields {
		fields[i] = Field{Name: "f" + strconv.Itoa(i), Type: Int32()}
	}
	s := mustStruct(t, "int_struct", fields...)
	l, err := Of(s, arch.AMD64())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Walk) != 1 {
		t.Fatalf("walk has %d steps, want 1 (isomorphic collapse)", len(l.Walk))
	}
	st := l.Walk[0]
	if st.Kind != KindInt32 || st.Count != 32 || st.ByteStride != 4 {
		t.Errorf("step = %+v, want int32 x32 stride 4", st)
	}
	// An array of such structs keeps collapsing across elements.
	a := mustArray(t, s, 100)
	la, err := Of(a, arch.AMD64())
	if err != nil {
		t.Fatal(err)
	}
	if len(la.Walk) != 1 || la.Walk[0].Count != 3200 {
		t.Fatalf("array walk = %d steps, first count %d; want 1 step of 3200",
			len(la.Walk), la.Walk[0].Count)
	}
}

func TestNoCollapseAcrossKinds(t *testing.T) {
	id := mustStruct(t, "int_double", Field{"i", Int32()}, Field{"d", Float64()})
	l, err := Of(id, arch.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Walk) != 2 {
		t.Fatalf("walk = %d steps, want 2", len(l.Walk))
	}
	if l.Walk[0].Kind != KindInt32 || l.Walk[1].Kind != KindFloat64 {
		t.Errorf("walk kinds = %v,%v", l.Walk[0].Kind, l.Walk[1].Kind)
	}
	if l.Walk[1].ByteOff != 8 {
		t.Errorf("double at byte %d, want 8 (padding)", l.Walk[1].ByteOff)
	}
}

func TestCollapseWithPaddingStride(t *testing.T) {
	// struct { int32 a; int32 pad-inducing; } as array elements where
	// tail padding makes stride exceed unit size:
	// struct { int64 a; int32 b; } on alpha: size 16, b at 8,
	// arrays of it give an int64 run stride 16 and int32 run stride 16.
	s := mustStruct(t, "s", Field{"a", Int64()}, Field{"b", Int32()})
	a := mustArray(t, s, 4)
	l, err := Of(a, arch.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if l.Size != 64 {
		t.Fatalf("size = %d, want 64", l.Size)
	}
	if w := flatWalk(l, true); len(w) != 8 {
		// int64@0, int32@8, int64@16, ... — alternating kinds cannot
		// merge, so 8 runs.
		t.Fatalf("walk = %d runs, want 8", len(w))
	}
}

func TestWalkInvariants(t *testing.T) {
	typesToCheck := []*Type{
		Int32(),
		mustArray(t, Float64(), 77),
		listNode(t),
		mustStruct(t, "mix",
			Field{"i", Int32()},
			Field{"d", Float64()},
			Field{"s", mustString(t, 16)},
			Field{"c", Char()},
			Field{"p", mustPtr(t, Int32())},
			Field{"j", Int64()},
		),
		mustArray(t, mustStruct(t, "cd", Field{"c", Char()}, Field{"d", Float64()}), 9),
	}
	for _, typ := range typesToCheck {
		for _, p := range arch.Profiles() {
			l, err := Of(typ, p)
			if err != nil {
				t.Fatalf("Of(%v,%v): %v", typ, p, err)
			}
			checkWalkInvariants(t, l)
		}
	}
}

func checkWalkInvariants(t *testing.T, l *Layout) {
	t.Helper()
	prim := 0
	prevEnd := 0
	for i, s := range l.Walk {
		units := 1
		if s.Elem != nil {
			checkWalkInvariants(t, s.Elem)
			units = s.Elem.PrimCount
			if e := s.Elem.Walk[len(s.Elem.Walk)-1].end(); s.Size != e || s.ByteStride < s.Elem.Size {
				t.Fatalf("%v/%v step %d: repeat %+v of a value of %d bytes, units to %d", l.Type, l.Prof, i, s, s.Elem.Size, e)
			}
		}
		if s.PrimOff != prim {
			t.Fatalf("%v/%v step %d: PrimOff %d, want %d", l.Type, l.Prof, i, s.PrimOff, prim)
		}
		if s.ByteOff < prevEnd {
			t.Fatalf("%v/%v step %d overlaps previous (byte %d < %d)", l.Type, l.Prof, i, s.ByteOff, prevEnd)
		}
		if s.Count < 1 || s.Size < 1 || s.ByteStride < s.Size {
			t.Fatalf("%v/%v step %d malformed: %+v", l.Type, l.Prof, i, s)
		}
		prim += s.Count * units
		prevEnd = s.end()
	}
	if prim != l.PrimCount {
		t.Fatalf("%v/%v walk covers %d units, want %d", l.Type, l.Prof, prim, l.PrimCount)
	}
	if prevEnd > l.Size {
		t.Fatalf("%v/%v walk extends to %d past size %d", l.Type, l.Prof, prevEnd, l.Size)
	}
	// Roundtrip every unit.
	for u := 0; u < l.PrimCount; u++ {
		b, err := l.PrimToByte(u)
		if err != nil {
			t.Fatalf("PrimToByte(%d): %v", u, err)
		}
		back, err := l.ByteToPrim(b)
		if err != nil {
			t.Fatalf("ByteToPrim(%d): %v", b, err)
		}
		if back != u {
			t.Fatalf("roundtrip unit %d -> byte %d -> %d", u, b, back)
		}
	}
	// Full-range span covers all units.
	p0, p1, ok := l.PrimSpan(0, l.Size)
	if !ok || p0 != 0 || p1 != l.PrimCount {
		t.Fatalf("PrimSpan(full) = %d,%d,%v; want 0,%d,true", p0, p1, ok, l.PrimCount)
	}
}

func TestByteToPrimPadding(t *testing.T) {
	s := mustStruct(t, "cd", Field{"c", Char()}, Field{"d", Float64()})
	l, err := Of(s, arch.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ByteToPrim(3); err == nil {
		t.Error("ByteToPrim in padding succeeded")
	}
	if _, err := l.ByteToPrim(-1); err == nil {
		t.Error("ByteToPrim(-1) succeeded")
	}
	if _, err := l.ByteToPrim(l.Size); err == nil {
		t.Error("ByteToPrim(size) succeeded")
	}
	// Mid-unit byte maps to the containing unit.
	p, err := l.ByteToPrim(12) // inside the double at [8,16)
	if err != nil || p != 1 {
		t.Errorf("ByteToPrim(12) = %d,%v; want 1,nil", p, err)
	}
}

func TestPrimSpan(t *testing.T) {
	s := mustStruct(t, "cd", Field{"c", Char()}, Field{"d", Float64()})
	l, err := Of(s, arch.Alpha()) // char@0, pad 1-7, double@8..15
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		b0, b1, p0, p1 int
		ok             bool
	}{
		{0, 1, 0, 1, true},    // just the char
		{0, 16, 0, 2, true},   // everything
		{2, 6, 0, 0, false},   // padding only
		{2, 9, 1, 2, true},    // padding into double
		{8, 16, 1, 2, true},   // exactly the double
		{15, 16, 1, 2, true},  // tail byte of double
		{0, 0, 0, 0, false},   // empty
		{-5, 100, 0, 2, true}, // clamped
	}
	for _, tt := range tests {
		p0, p1, ok := l.PrimSpan(tt.b0, tt.b1)
		if ok != tt.ok || (ok && (p0 != tt.p0 || p1 != tt.p1)) {
			t.Errorf("PrimSpan(%d,%d) = %d,%d,%v; want %d,%d,%v",
				tt.b0, tt.b1, p0, p1, ok, tt.p0, tt.p1, tt.ok)
		}
	}
}

func TestPrimSpanWithinArrayRun(t *testing.T) {
	a := mustArray(t, Int32(), 100)
	l, err := Of(a, arch.AMD64())
	if err != nil {
		t.Fatal(err)
	}
	p0, p1, ok := l.PrimSpan(10, 50) // bytes 10..49 touch ints 2..12
	if !ok || p0 != 2 || p1 != 13 {
		t.Errorf("PrimSpan(10,50) = %d,%d,%v; want 2,13,true", p0, p1, ok)
	}
}

func TestStepAtPrim(t *testing.T) {
	a := mustArray(t, Int32(), 10)
	l, err := Of(a, arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.StepAtPrim(-1); ok {
		t.Error("StepAtPrim(-1) ok")
	}
	if _, ok := l.StepAtPrim(10); ok {
		t.Error("StepAtPrim(len) ok")
	}
	if s, ok := l.StepAtPrim(5); !ok || s != &l.Walk[0] {
		t.Errorf("StepAtPrim(5) = %+v,%v", s, ok)
	}
	// Through a repeat step: the run of the element's layout.
	is := mustStruct(t, "is", Field{"i", Int32()}, Field{"s", mustString(t, 4)})
	l, err = Of(mustArray(t, is, 10), arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := l.StepAtPrim(13); !ok || s != &l.Walk[0].Elem.Walk[1] {
		t.Errorf("StepAtPrim(13) = %+v,%v", s, ok)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	candidates := []*Type{
		Int32(),
		Float64(),
		mustString(t, 256),
		mustPtr(t, Int32()),
		listNode(t),
		mustArray(t, mustStruct(t, "id", Field{"i", Int32()}, Field{"d", Float64()}), 12),
		mustStruct(t, "mix",
			Field{"i", Int32()},
			Field{"d", Float64()},
			Field{"s", mustString(t, 256)},
			Field{"t", mustString(t, 4)},
			Field{"p", mustPtr(t, Int32())},
		),
	}
	for _, typ := range candidates {
		b, err := Marshal(typ)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", typ, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", typ, err)
		}
		if !Equal(typ, got) {
			t.Errorf("roundtrip of %v not structurally equal", typ)
		}
		// Layout equivalence across the roundtrip, per profile.
		for _, p := range arch.Profiles() {
			l1, err1 := Of(typ, p)
			l2, err2 := Of(got, p)
			if err1 != nil || err2 != nil {
				t.Fatalf("layouts: %v / %v", err1, err2)
			}
			if l1.Size != l2.Size || l1.Align != l2.Align || len(l1.Walk) != len(l2.Walk) {
				t.Errorf("%v/%v layout mismatch after roundtrip", typ, p)
			}
		}
		// Deterministic encoding.
		b2, err := Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(b2) {
			t.Errorf("%v encoding not canonical across roundtrip", typ)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := Marshal(listNode(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  {0, 0, 0, 0, 0, 0, 0, 1, byte(KindChar)},
		"truncated":  good[:len(good)-2],
		"trailing":   append(append([]byte{}, good...), 0xff),
		"zero defs":  {0x49, 0x57, 0x54, 0x59, 0, 0, 0, 0},
		"bad kind":   {0x49, 0x57, 0x54, 0x59, 0, 0, 0, 1, 99},
		"bad ref":    {0x49, 0x57, 0x54, 0x59, 0, 0, 0, 1, byte(KindPointer), 0, 0, 0, 9},
		"zero cap":   {0x49, 0x57, 0x54, 0x59, 0, 0, 0, 1, byte(KindString), 0, 0, 0, 0},
		"self array": {0x49, 0x57, 0x54, 0x59, 0, 0, 0, 1, byte(KindArray), 0, 0, 0, 2, 0, 0, 0, 0},
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("Unmarshal(%s) succeeded", name)
		}
	}
}

func TestFingerprint(t *testing.T) {
	a := listNode(t)
	b := listNode(t)
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Error("identically constructed types have different fingerprints")
	}
	other := mustStruct(t, "other", Field{"x", Int64()})
	fo, err := Fingerprint(other)
	if err != nil {
		t.Fatal(err)
	}
	if fo == fa {
		t.Error("distinct types share a fingerprint")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(listNode(t), listNode(t)) {
		t.Error("equal recursive types reported unequal")
	}
	if Equal(Int32(), Int64()) {
		t.Error("int32 == int64")
	}
	a := mustStruct(t, "s", Field{"a", Int32()})
	b := mustStruct(t, "s", Field{"b", Int32()})
	if Equal(a, b) {
		t.Error("structs with different field names reported equal")
	}
	if Equal(nil, Int32()) || !Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
	s16a := mustString(t, 16)
	s32 := mustString(t, 32)
	if Equal(s16a, s32) {
		t.Error("strings with different caps reported equal")
	}
}

func TestFixedWireSize(t *testing.T) {
	tests := []struct {
		k    Kind
		size int
		ok   bool
	}{
		{KindChar, 1, true},
		{KindInt16, 2, true},
		{KindInt32, 4, true},
		{KindInt64, 8, true},
		{KindFloat32, 4, true},
		{KindFloat64, 8, true},
		{KindString, 0, false},
		{KindPointer, 0, false},
		{KindStruct, 0, false},
	}
	for _, tt := range tests {
		size, ok := FixedWireSize(tt.k)
		if size != tt.size || ok != tt.ok {
			t.Errorf("FixedWireSize(%v) = %d,%v; want %d,%v", tt.k, size, ok, tt.size, tt.ok)
		}
	}
}

// wireRun is a run of n consecutive units of one kind in wire order;
// strCap is a string's capacity, 0 for other kinds.
type wireRun struct {
	kind      Kind
	strCap, n int
}

// wireUnits expands runs into one run per unit.
func wireUnits(runs []wireRun) []wireRun {
	var out []wireRun
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			out = append(out, wireRun{r.kind, r.strCap, 1})
		}
	}
	return out
}

// wireRuns returns WireOf(typ)'s walk as runs, checking that it packs
// every unit right after the one before at its wire width, a string or
// MIP taking a 4-byte slot.
func wireRuns(t *testing.T, typ *Type) []wireRun {
	t.Helper()
	l, err := WireOf(typ)
	if err != nil {
		t.Fatal(err)
	}
	var out []wireRun
	off := 0
	for _, s := range flatWalk(l, true) {
		want, ok := FixedWireSize(s.Kind)
		if !ok {
			want = 4
		}
		if s.ByteOff != off || s.Size != want || s.ByteStride != want {
			t.Fatalf("WireOf(%v) step %+v: want offset %d, size and stride %d", typ, s, off, want)
		}
		off += s.Count * want
		out = append(out, wireRun{s.Kind, s.Cap, s.Count})
	}
	if l.Size != off || l.Align != 1 || l.Prof != nil {
		t.Fatalf("WireOf(%v): size %d align %d, want %d and 1", typ, l.Size, l.Align, off)
	}
	return out
}

func TestWireWalk(t *testing.T) {
	mix := mustStruct(t, "mix",
		Field{"a", Int32()},
		Field{"b", Int32()},
		Field{"d", Float64()},
		Field{"s", mustString(t, 8)},
		Field{"p", mustPtr(t, Int32())},
	)
	w := wireUnits(wireRuns(t, mix))
	want := []wireRun{
		{KindInt32, 0, 1},
		{KindInt32, 0, 1},
		{KindFloat64, 0, 1},
		{KindString, 8, 1},
		{KindPointer, 0, 1},
	}
	if !slices.Equal(w, want) {
		t.Fatalf("WireOf walk = %v, want %v", w, want)
	}
}

func TestWireWalkArrayCollapse(t *testing.T) {
	a := mustArray(t, Int32(), 1000)
	if w := wireRuns(t, a); len(w) != 1 || w[0] != (wireRun{KindInt32, 0, 1000}) {
		t.Errorf("WireOf([1000]int32) walk = %v", w)
	}
	// An array of structs visits each element's fields in turn.
	s := mustStruct(t, "s", Field{"i", Int32()}, Field{"c", Char()})
	w := wireRuns(t, mustArray(t, s, 2))
	want := []wireRun{{KindInt32, 0, 1}, {KindChar, 0, 1}, {KindInt32, 0, 1}, {KindChar, 0, 1}}
	if !slices.Equal(w, want) {
		t.Errorf("WireOf([2]s) walk = %v, want %v", w, want)
	}
}

func TestLayoutCache(t *testing.T) {
	var c Cache
	n := listNode(t)
	l1, err := c.Of(n, arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.Of(n, arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("cache returned distinct layouts for same key")
	}
	l3, err := c.Of(n, arch.Alpha())
	if err != nil {
		t.Fatal(err)
	}
	if l3 == l1 {
		t.Error("cache shared layouts across profiles")
	}
}

func TestTypeString(t *testing.T) {
	n := listNode(t)
	tests := []struct {
		typ  *Type
		want string
	}{
		{Int32(), "int32"},
		{mustString(t, 8), "string[8]"},
		{n, "node_t"},
		{mustArray(t, Float64(), 3), "[3]float64"},
		{n.Field(1).Type, "*node_t"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// TestRandomTypesLayoutInvariants generates random type graphs and
// checks every layout invariant under every profile — the
// property-based safety net for the translation machinery.
func TestRandomTypesLayoutInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		typ := randomType(t, rng, 3)
		if err := Validate(typ); err != nil {
			t.Fatalf("trial %d: invalid random type: %v", trial, err)
		}
		b, err := Marshal(typ)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !Equal(typ, back) {
			t.Fatalf("trial %d: roundtrip inequality", trial)
		}
		for _, p := range arch.Profiles() {
			l, err := Of(typ, p)
			if err != nil {
				t.Fatalf("trial %d: layout: %v", trial, err)
			}
			checkWalkInvariants(t, l)
		}
	}
}

func randomType(t *testing.T, rng *rand.Rand, depth int) *Type {
	t.Helper()
	prims := []*Type{Char(), Int16(), Int32(), Int64(), Float32(), Float64()}
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 6:
			return mustString(t, 1+rng.Intn(64))
		case 7:
			return mustPtr(t, prims[rng.Intn(len(prims))])
		default:
			return prims[rng.Intn(6)]
		}
	}
	if rng.Intn(2) == 0 {
		return mustArray(t, randomType(t, rng, depth-1), 1+rng.Intn(9))
	}
	n := 1 + rng.Intn(6)
	fields := make([]Field, n)
	for i := range fields {
		fields[i] = Field{Name: "f" + strconv.Itoa(i), Type: randomType(t, rng, depth-1)}
	}
	return mustStruct(t, "r", fields...)
}

// TestUnmarshalBoundsUnits requires a descriptor whose nested arrays
// multiply past maxPrimUnits units to be refused, not counted with an
// overflowing product.
func TestUnmarshalBoundsUnits(t *testing.T) {
	inner := mustArray(t, Int32(), 1<<28)
	b, err := Marshal(inner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err != nil {
		t.Fatalf("[1<<28]int32 refused: %v", err)
	}
	nested := mustArray(t, mustArray(t, inner, 1<<28), 1<<28)
	if b, err = Marshal(nested); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(b); err == nil {
		t.Error("descriptor of 2^84 units accepted")
	}
}

// TestNestingBound requires a type nested maxNesting struct or array
// levels deep to be accepted, in memory and decoded, and one a level
// deeper to be refused.
func TestNestingBound(t *testing.T) {
	arrays := Int32()
	for k := 0; k < maxNesting; k++ {
		arrays = mustArray(t, arrays, 1)
	}
	for _, tc := range []struct {
		typ, deeper *Type
	}{
		{nested(t, maxNesting), nested(t, maxNesting+1)},
		{arrays, mustArray(t, arrays, 2)},
	} {
		if err := Validate(tc.typ); err != nil {
			t.Fatalf("%d levels refused: %v", maxNesting, err)
		}
		b, err := Marshal(tc.typ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(b); err != nil {
			t.Fatalf("decoding %d levels: %v", maxNesting, err)
		}
		if err := Validate(tc.deeper); err == nil {
			t.Fatalf("%d levels accepted", maxNesting+1)
		}
		if _, err := WireOf(tc.deeper); err == nil {
			t.Fatalf("WireOf of %d levels accepted", maxNesting+1)
		}
	}
}

// TestValidateOnceEachType requires Validate to measure each type of
// a wide DAG once: its allocations do not grow with a map per type.
func TestValidateOnceEachType(t *testing.T) {
	level := []*Type{Int32(), Float64()}
	for k := 0; k < 60; k++ {
		next := make([]*Type, 16)
		for i := range next {
			next[i] = mustStruct(t, "w", Field{"a", level[i%len(level)]}, Field{"b", level[(i+1)%len(level)]})
		}
		level = next
	}
	fs := make([]Field, len(level))
	for i, typ := range level {
		fs[i] = Field{Name: "f" + strconv.Itoa(i), Type: typ}
	}
	root := mustStruct(t, "root", fs...)
	allocs := testing.AllocsPerRun(5, func() {
		if err := Validate(root); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("Validate of %d types: %v allocations", 16*60+1, allocs)
	}
}

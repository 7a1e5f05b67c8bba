package types

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"interweave/internal/arch"
)

// refOf is the layout computation as it stood before composite values
// became repeat steps: a flat walk, emit recursing into every element
// and every field. The equivalence tests hold Of and OfUncollapsed to
// it.
func refOf(t *Type, p *arch.Profile, collapse bool) (*Layout, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	if p != nil {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	c := refCalc{layoutCalc: layoutCalc{prof: p, noMerge: !collapse}, memo: make(map[*Type][2]int)}
	size, align := c.sizeAlign(t)
	l := &Layout{
		Type:      t,
		Prof:      p,
		Size:      size,
		Align:     align,
		PrimCount: t.primCount,
	}
	c.refEmit(&l.Walk, t, 0, 0)
	if t.kind == KindStruct {
		off, prim := 0, 0
		for _, f := range t.fields {
			fs, fa := c.sizeAlign(f.Type)
			off = alignUp(off, fa)
			l.Fields = append(l.Fields, FieldLoc{Name: f.Name, Type: f.Type, ByteOff: off, PrimOff: prim})
			off += fs
			prim += f.Type.primCount
		}
	}
	return l, nil
}

type refCalc struct {
	layoutCalc
	memo map[*Type][2]int
}

func (c *refCalc) sizeAlign(t *Type) (int, int) {
	if t.kind.IsPrimitive() {
		return c.primSizeAlign(t)
	}
	if sa, ok := c.memo[t]; ok {
		return sa[0], sa[1]
	}
	var size, align int
	switch t.kind {
	case KindStruct:
		align = 1
		for _, f := range t.fields {
			fs, fa := c.sizeAlign(f.Type)
			size = alignUp(size, fa) + fs
			if fa > align {
				align = fa
			}
		}
		size = alignUp(size, align)
	case KindArray:
		es, ea := c.sizeAlign(t.elem)
		size, align = es*t.len, ea
	}
	c.memo[t] = [2]int{size, align}
	return size, align
}

func (c *refCalc) refEmit(walk *[]Step, t *Type, byteOff, primOff int) {
	switch t.kind {
	case KindStruct:
		off, prim := byteOff, primOff
		for _, f := range t.fields {
			fs, fa := c.sizeAlign(f.Type)
			off = alignUp(off, fa)
			c.refEmit(walk, f.Type, off, prim)
			off += fs
			prim += f.Type.primCount
		}
	case KindArray:
		es, _ := c.sizeAlign(t.elem)
		if t.elem.kind.IsPrimitive() {
			elSz, _ := c.primSizeAlign(t.elem)
			c.refPush(walk, Step{
				Kind: t.elem.kind, Cap: t.elem.cap,
				ByteOff: byteOff, PrimOff: primOff,
				Count: t.len, Size: elSz, ByteStride: es,
			})
			return
		}
		for i := 0; i < t.len; i++ {
			c.refEmit(walk, t.elem, byteOff+i*es, primOff+i*t.elem.primCount)
		}
	default:
		sz, _ := c.primSizeAlign(t)
		c.refPush(walk, Step{
			Kind: t.kind, Cap: t.cap,
			ByteOff: byteOff, PrimOff: primOff,
			Count: 1, Size: sz, ByteStride: sz,
		})
	}
}

func (c *refCalc) refPush(walk *[]Step, s Step) {
	if c.noMerge {
		*walk = append(*walk, s)
		return
	}
	pushStep(walk, s)
}

// refForUnits is the step iterator as the diff package had it, over a
// flat walk: the reference for UnitIter.
func refForUnits(l *Layout, u0, u1 int, fn func(k Kind, strCap, absByte, n, stride int)) {
	if u0 >= u1 {
		return
	}
	pc := l.PrimCount
	if pc == 1 && len(l.Walk) == 1 {
		s := &l.Walk[0]
		fn(s.Kind, s.Cap, u0*l.Size+s.ByteOff, u1-u0, l.Size)
		return
	}
	e := u0 / pc
	p := u0 % pc
	si := l.stepAt(p)
	for u0 < u1 {
		s := &l.Walk[si]
		within := p - s.PrimOff
		n := s.Count - within
		if rem := u1 - u0; n > rem {
			n = rem
		}
		fn(s.Kind, s.Cap, e*l.Size+s.ByteOff+within*s.ByteStride, n, s.ByteStride)
		u0 += n
		p += n
		if p >= pc {
			p = 0
			e++
			si = 0
		} else if p >= s.PrimOff+s.Count {
			si++
		}
	}
}

// flatWalk expands l's repeat steps through the cursor into the flat
// walk of one value, merging runs as refOf's walk does when merge is
// set.
func flatWalk(l *Layout, merge bool) []Step {
	var out []Step
	var it UnitIter
	u := 0
	for it.Seek(l, 0, l.PrimCount); it.Next(); u += it.N {
		s := Step{Kind: it.Step.Kind, Cap: it.Step.Cap, ByteOff: it.Off, PrimOff: u, Count: it.N, Size: it.Step.Size, ByteStride: it.Step.ByteStride}
		if it.N == 1 {
			s.ByteStride = s.Size // as refOf pushes a lone unit
		}
		if merge {
			pushStep(&out, s)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// unitAt is where a walk puts one unit of a block.
type unitAt struct {
	kind     Kind
	cap, off int
}

// equivTypes returns the types the equivalence tests compare on: the
// nine Figure 4 mixes, arrays of them, a list node, nested arrays of
// padded structs, types that lay out with repeat steps, and
// TestRandomTypesLayoutInvariants' random types.
func equivTypes(t *testing.T) []*Type {
	t.Helper()
	repeat := func(name string, elem *Type, n int) *Type {
		fs := make([]Field, n)
		for i := range fs {
			fs[i] = Field{Name: "f" + strconv.Itoa(i), Type: elem}
		}
		return mustStruct(t, name, fs...)
	}
	str256, str4 := mustString(t, 256), mustString(t, 4)
	ptr := mustPtr(t, Int32())
	mixes := []*Type{
		Int32(),
		Float64(),
		repeat("int_struct", Int32(), 32),
		repeat("double_struct", Float64(), 32),
		str256,
		str4,
		ptr,
		mustStruct(t, "int_double", Field{"i", Int32()}, Field{"d", Float64()}),
		mustStruct(t, "mix", Field{"i", Int32()}, Field{"d", Float64()}, Field{"s", str256}, Field{"t", str4}, Field{"p", ptr}),
	}
	out := append([]*Type(nil), mixes...)
	for _, m := range mixes {
		out = append(out, mustArray(t, m, 3))
	}
	ic := mustStruct(t, "ic", Field{"i", Int32()}, Field{"c", Char()})
	ii := mustStruct(t, "ii", Field{"a", Int32()}, Field{"b", Int32()})
	out = append(out,
		listNode(t),
		mustArray(t, ic, 500),
		mustArray(t, mustArray(t, ic, 7), 5),
		mustArray(t, ii, 1000),
		mustArray(t, mustStruct(t, "nest", Field{"x", mustArray(t, ii, 3)}, Field{"s", str4}), 40),
	)
	// Repeat steps: a nested multi-step struct, an array of arrays of
	// irregular structs, one type in two fields, and a type at the
	// nesting bound.
	is := mustStruct(t, "is", Field{"i", Int32()}, Field{"s", str4})
	out = append(out,
		mustStruct(t, "outer", Field{"c", Char()}, Field{"in", mustStruct(t, "inner", Field{"d", Float64()}, Field{"x", ic})}, Field{"j", Int16()}),
		mustArray(t, mustArray(t, is, 6), 4),
		mustStruct(t, "twice", Field{"a", is}, Field{"b", is}, Field{"c", Int32()}),
		nested(t, maxNesting),
	)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		out = append(out, randomType(t, rng, 3))
	}
	return out
}

// TestLayoutEquivalence holds Of and OfUncollapsed to the flat
// reference: the same types accepted, the same size, alignment and
// fields, every unit at the same kind, capacity and byte offset, the
// same PrimSpan and ByteToPrim answers, no more steps once repeat steps
// are expanded, and the cursor placing every unit of a short block
// where the reference iterator does. The Figure 4 mixes and arrays of
// them, the first 18 types, keep the reference walk step for step.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, typ := range equivTypes(t) {
		for _, p := range arch.Profiles() {
			for _, collapse := range []bool{true, false} {
				got, err := of(typ, p, collapse)
				want, refErr := refOf(typ, p, collapse)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%v/%v collapse=%v: err %v, reference %v", typ, p, collapse, err, refErr)
				}
				if err != nil {
					continue
				}
				checkLayoutEquiv(t, rng, got, want, !collapse)
				if i >= 18 {
					continue
				}
				// The Figure 4 mixes and arrays of them keep the walk
				// step for step: a mix in its own walk, an array of
				// one once expanded.
				if w := flatWalk(got, collapse); !slices.Equal(w, want.Walk) {
					t.Fatalf("%v/%v collapse=%v: walk %+v, reference %+v", typ, p, collapse, w, want.Walk)
				}
				if typ.kind != KindArray && !slices.Equal(got.Walk, want.Walk) {
					t.Fatalf("%v/%v collapse=%v: walk %+v, reference %+v", typ, p, collapse, got.Walk, want.Walk)
				}
			}
		}
	}
}

func checkLayoutEquiv(t *testing.T, rng *rand.Rand, got, want *Layout, noMerge bool) {
	t.Helper()
	name := got.Type.String() + "/" + got.Prof.Name
	if got.Size != want.Size || got.Align != want.Align || got.PrimCount != want.PrimCount || len(got.Fields) != len(want.Fields) {
		t.Fatalf("%s: size %d align %d units %d, reference %d %d %d", name, got.Size, got.Align, got.PrimCount, want.Size, want.Align, want.PrimCount)
	}
	for i := range got.Fields {
		if got.Fields[i] != want.Fields[i] {
			t.Fatalf("%s: field %+v, reference %+v", name, got.Fields[i], want.Fields[i])
		}
	}
	if n := len(flatWalk(got, !noMerge)); n > len(want.Walk) {
		t.Fatalf("%s: %d steps expanded, reference %d", name, n, len(want.Walk))
	}
	checkWalkInvariants(t, got)
	for u := 0; u < got.PrimCount; u++ {
		if g, w := unitOf(got, u), refUnitOf(want, u); g != w {
			t.Fatalf("%s unit %d: %+v, reference %+v", name, u, g, w)
		}
	}
	for b := 0; b < got.Size; b++ {
		g, gerr := got.ByteToPrim(b)
		w, werr := want.ByteToPrim(b)
		if g != w || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: ByteToPrim(%d) = %d,%v; reference %d,%v", name, b, g, gerr, w, werr)
		}
	}
	spans := func(b0, b1 int) {
		g0, g1, gok := got.PrimSpan(b0, b1)
		w0, w1, wok := want.PrimSpan(b0, b1)
		if g0 != w0 || g1 != w1 || gok != wok {
			t.Fatalf("%s: PrimSpan(%d,%d) = %d,%d,%v; reference %d,%d,%v", name, b0, b1, g0, g1, gok, w0, w1, wok)
		}
	}
	if got.Size <= 128 {
		for b0 := -1; b0 <= got.Size; b0++ {
			for b1 := b0; b1 <= got.Size+1; b1++ {
				spans(b0, b1)
			}
		}
	} else {
		for i := 0; i < 2000; i++ {
			b0 := rng.Intn(got.Size + 1)
			spans(b0, b0+rng.Intn(got.Size+1-b0)+1)
		}
	}
	// Units over a three-element block.
	units := 3 * got.PrimCount
	for i := 0; i < 20; i++ {
		u0 := rng.Intn(units)
		u1 := u0 + 1 + rng.Intn(units-u0)
		var g, w []unitAt
		var it UnitIter
		for it.Seek(got, u0, u1); it.Next(); {
			for j := 0; j < it.N; j++ {
				g = append(g, unitAt{it.Step.Kind, it.Step.Cap, it.Off + j*it.Step.ByteStride})
			}
		}
		refForUnits(want, u0, u1, func(k Kind, strCap, absByte, n, stride int) {
			for j := 0; j < n; j++ {
				w = append(w, unitAt{k, strCap, absByte + j*stride})
			}
		})
		if len(g) != len(w) {
			t.Fatalf("%s: Units(%d,%d) yields %d units, reference %d", name, u0, u1, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s: Units(%d,%d) unit %d = %+v, reference %+v", name, u0, u1, u0+j, g[j], w[j])
			}
		}
	}
}

// unitOf returns the kind, capacity and byte offset the cursor gives
// unit u of l.
func unitOf(l *Layout, u int) unitAt {
	var it UnitIter
	it.Seek(l, u, u+1)
	it.Next()
	return unitAt{it.Step.Kind, it.Step.Cap, it.Off}
}

// refUnitOf is unitOf on refOf's flat walk.
func refUnitOf(l *Layout, u int) unitAt {
	s := &l.Walk[l.stepAt(u)]
	return unitAt{s.Kind, s.Cap, s.ByteOff + (u-s.PrimOff)*s.ByteStride}
}

// TestArrayOfTilingStructIsOneStep checks the arithmetic repeat: an
// array whose element is one step tiling it is one step however long,
// laid out without a walk per element; without merging, the element
// keeps its own steps and the array is one repeat step of it.
func TestArrayOfTilingStructIsOneStep(t *testing.T) {
	ii := mustStruct(t, "ii", Field{"a", Int32()}, Field{"b", Int32()})
	typ := mustArray(t, ii, 1<<27)
	for _, l := range []*Layout{mustOf(t, typ, arch.X86()), mustWireOf(t, typ)} {
		want := Step{Kind: KindInt32, Count: 1 << 28, Size: 4, ByteStride: 4}
		if len(l.Walk) != 1 || l.Walk[0] != want {
			t.Fatalf("walk %+v, want [%+v]", l.Walk, want)
		}
	}
	l, err := OfUncollapsed(typ, arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	if s := l.Walk[0]; len(l.Walk) != 1 || s.Elem == nil || s.Elem.Type != ii || len(s.Elem.Walk) != 2 || s.Count != 1<<27 || s.ByteStride != 8 {
		t.Fatalf("uncollapsed walk %+v, want one repeat step of ii's two", l.Walk)
	}
}

// TestIrregularArrayLaidOutOnce requires an array of a two-step element
// to cost a bounded number of allocations, however long: its element is
// laid out once and the array is one repeat step of it.
func TestIrregularArrayLaidOutOnce(t *testing.T) {
	is := mustStruct(t, "is", Field{"i", Int32()}, Field{"s", mustString(t, 4)})
	for _, n := range []int{1 << 10, 1 << 22, 1 << 28} {
		typ := mustArray(t, is, n)
		allocs := testing.AllocsPerRun(1, func() {
			l, err := WireOf(typ)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.Walk) != 1 || l.Walk[0].Count != n {
				t.Fatalf("walk %+v, want one repeat step of %d", l.Walk, n)
			}
		})
		if allocs > 20 {
			t.Errorf("[%d]is: %v allocations", n, allocs)
		}
	}
}

// nested returns a chain of irregular structs nesting levels struct
// levels deep, each a repeat step inside the one above.
func nested(t *testing.T, levels int) *Type {
	t.Helper()
	typ := mustStruct(t, "s0", Field{"i", Int32()}, Field{"s", mustString(t, 4)})
	for k := 1; k < levels; k++ {
		typ = mustStruct(t, "s"+strconv.Itoa(k), Field{"c", Char()}, Field{"x", typ})
	}
	return typ
}

func mustOf(t *testing.T, typ *Type, p *arch.Profile) *Layout {
	t.Helper()
	l, err := Of(typ, p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustWireOf(t *testing.T, typ *Type) *Layout {
	t.Helper()
	l, err := WireOf(typ)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

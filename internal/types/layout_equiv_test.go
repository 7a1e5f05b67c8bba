package types

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"interweave/internal/arch"
)

// refOf is the layout computation as it stood before arrays of structs
// were laid out one element at a time: emit recurses into every
// element, and the step limit is checked on entry to each call. The
// equivalence tests hold Of and OfUncollapsed to it.
func refOf(t *Type, p *arch.Profile, collapse bool) (*Layout, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := layoutCalc{prof: p, memo: make(map[*Type][2]int), noMerge: !collapse}
	size, align := c.sizeAlign(t)
	l := &Layout{
		Type:      t,
		Prof:      p,
		Size:      size,
		Align:     align,
		PrimCount: t.primCount,
	}
	if err := c.refEmit(&l.Walk, t, 0, 0); err != nil {
		return nil, err
	}
	if t.kind == KindStruct {
		l.Fields = c.fieldLocs(t)
	}
	return l, nil
}

func (c *layoutCalc) refEmit(walk *[]Step, t *Type, byteOff, primOff int) error {
	if len(*walk) > maxWalkSteps {
		return errors.New("types: type too irregular; walk exceeds step limit")
	}
	switch t.kind {
	case KindStruct:
		off, prim := byteOff, primOff
		for _, f := range t.fields {
			fs, fa := c.sizeAlign(f.Type)
			off = alignUp(off, fa)
			if err := c.refEmit(walk, f.Type, off, prim); err != nil {
				return err
			}
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
			return nil
		}
		for i := 0; i < t.len; i++ {
			if err := c.refEmit(walk, t.elem, byteOff+i*es, primOff+i*t.elem.primCount); err != nil {
				return err
			}
		}
	default:
		sz, _ := c.primSizeAlign(t)
		c.refPush(walk, Step{
			Kind: t.kind, Cap: t.cap,
			ByteOff: byteOff, PrimOff: primOff,
			Count: 1, Size: sz, ByteStride: sz,
		})
	}
	return nil
}

func (c *layoutCalc) refPush(walk *[]Step, s Step) {
	if c.noMerge {
		*walk = append(*walk, s)
		return
	}
	pushStep(walk, s)
}

// refForUnits is the step iterator as the diff package had it, the
// reference for Layout.Units.
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
	si, _ := l.StepAtPrim(p)
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

// unitAt is where a walk puts one unit of a block.
type unitAt struct {
	kind     Kind
	cap, off int
}

// equivTypes returns the types the equivalence tests compare on: the
// nine Figure 4 mixes, arrays of them, a list node, nested arrays of
// padded structs, and TestRandomTypesLayoutInvariants' random types.
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
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		out = append(out, randomType(t, rng, 3))
	}
	return out
}

// TestLayoutEquivalence holds Of and OfUncollapsed to the per-element
// reference: the same types accepted, the same size, alignment and
// fields, every unit at the same kind, capacity and byte offset, the
// same PrimSpan and ByteToPrim answers, no more steps, and Units
// placing every unit of a short block where the reference iterator
// does.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, typ := range equivTypes(t) {
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
				checkLayoutEquiv(t, rng, got, want)
			}
		}
	}
}

func checkLayoutEquiv(t *testing.T, rng *rand.Rand, got, want *Layout) {
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
	if len(got.Walk) > len(want.Walk) {
		t.Fatalf("%s: %d steps, reference %d", name, len(got.Walk), len(want.Walk))
	}
	checkWalkInvariants(t, got)
	for u := 0; u < got.PrimCount; u++ {
		if g, w := unitOf(got, u), unitOf(want, u); g != w {
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
		it := got.Units(u0, u1)
		for it.Next() {
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

// unitOf returns the kind, capacity and byte offset l gives unit u.
func unitOf(l *Layout, u int) unitAt {
	i, ok := l.StepAtPrim(u)
	if !ok {
		return unitAt{}
	}
	off, _ := l.PrimToByte(u)
	return unitAt{l.Walk[i].Kind, l.Walk[i].Cap, off}
}

// TestArrayOfTilingStructIsOneStep checks the arithmetic repeat: an
// array whose element is one step tiling it is one step however long,
// laid out without a walk per element.
func TestArrayOfTilingStructIsOneStep(t *testing.T) {
	ii := mustStruct(t, "ii", Field{"a", Int32()}, Field{"b", Int32()})
	typ := mustArray(t, ii, 1<<27)
	for _, l := range []*Layout{mustOf(t, typ, arch.X86()), mustWireOf(t, typ)} {
		want := Step{Kind: KindInt32, Count: 1 << 28, Size: 4, ByteStride: 4}
		if len(l.Walk) != 1 || l.Walk[0] != want {
			t.Fatalf("walk %+v, want [%+v]", l.Walk, want)
		}
	}
	// Without merging each element stays its own steps, as before.
	if _, err := OfUncollapsed(typ, arch.X86()); err == nil {
		t.Fatal("OfUncollapsed accepted 2^28 steps")
	}
}

// TestStepLimitRefusedEarly requires an array of a two-step element
// too long for the step limit to be refused before its walk is built.
func TestStepLimitRefusedEarly(t *testing.T) {
	is := mustStruct(t, "is", Field{"i", Int32()}, Field{"s", mustString(t, 4)})
	typ := mustArray(t, is, 1<<22)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := WireOf(typ); !errors.Is(err, errStepLimit) {
			t.Fatalf("WireOf = %v, want the step limit", err)
		}
	})
	if allocs > 100 {
		t.Errorf("%v allocations before refusing", allocs)
	}
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

package types

import (
	"fmt"
	"math"
	"sync"

	"interweave/internal/arch"
)

// Step is one entry of a Layout's walk: a run of primitive units or a
// repeat of a composite value.
//
// A run covers Count units of the same Kind starting at
// ByteOff/PrimOff, each Size bytes long, spaced ByteStride bytes apart
// (ByteStride > Size when alignment padding separates units). Runs are
// the product of the paper's "isomorphic type descriptors"
// optimization: a struct of ten consecutive integers yields a single
// ten-element step rather than ten descriptors.
//
// A repeat step (Elem != nil) covers Count values of the layout Elem,
// ByteStride bytes apart, the first at ByteOff/PrimOff; Size is how far
// one value's units extend (Elem.Size less tail padding). An array or
// a struct field whose type is not one run tiling it is a repeat step,
// so a walk holds at most a step per field, however many units they
// stand for.
type Step struct {
	Kind       Kind
	Cap        int // string capacity in bytes
	ByteOff    int // local byte offset of the first unit
	PrimOff    int // primitive offset of the first unit
	Count      int
	Size       int // local size in bytes of one unit
	ByteStride int // byte distance between consecutive units
	Elem       *Layout
}

// end returns the byte offset just past the last unit's extent.
func (s *Step) end() int {
	return s.ByteOff + (s.Count-1)*s.ByteStride + s.Size
}

// unitAt returns the index of the unit or value whose stride holds
// byte off >= 0 of the step, the last one for an offset past them; a
// step of one needs no division.
func (s *Step) unitAt(off int) int {
	if s.Count == 1 {
		return 0
	}
	return min(off/s.ByteStride, s.Count-1)
}

// FieldLoc locates a top-level struct field within a layout.
type FieldLoc struct {
	Name    string
	Type    *Type
	ByteOff int
	PrimOff int
}

// Layout is the instantiation of a Type for one machine profile. It
// records the local size and alignment (with machine-specific
// padding) and the primitive walk that drives wire-format translation,
// diffing, and pointer swizzling. A layout from WireOf has no profile:
// it is the wire form the server stores.
type Layout struct {
	Type *Type
	Prof *arch.Profile // nil for a wire layout
	// Size is the local byte size of one value, including tail
	// padding (a multiple of Align, as in C).
	Size int
	// Align is the required starting alignment.
	Align int
	// PrimCount is the number of primitive units per value.
	PrimCount int
	// Walk is the walk of one value, sorted by both ByteOff and
	// PrimOff (the orders coincide). Its repeat steps share the
	// layout of each composite type, laid out once.
	Walk []Step
	// Fields locates the top-level fields when Type is a struct.
	Fields []FieldLoc
	// VarLen reports whether some unit is a string or pointer, whose
	// wire form varies in length.
	VarLen bool
	// WireBound bounds the wire encoding of one value and
	// UnitWireBound that of its widest unit, each unit priced by
	// unitWireBound: the room a run of them needs in a buffer.
	WireBound, UnitWireBound int
}

// MIPSizeEstimate is the wire size a bound assumes for a pointer: a
// length word and a MIP of typical length. A longer MIP outgrows it.
const MIPSizeEstimate = 4 + 44

// unitWireBound bounds the wire encoding of one unit of kind k: exact
// for fixed-width kinds, the length word plus the cell capacity for a
// string of capacity cap, MIPSizeEstimate for a pointer.
func unitWireBound(k Kind, cap int) int {
	switch k {
	case KindString:
		return 4 + cap
	case KindPointer:
		return MIPSizeEstimate
	}
	sz, _ := FixedWireSize(k)
	return sz
}

// Of computes the layout of t under profile p.
func Of(t *Type, p *arch.Profile) (*Layout, error) {
	return of(t, p, true)
}

// OfUncollapsed computes a layout whose walk never merges units of
// neighbouring fields or elements into one step — the isomorphic
// descriptor optimization disabled — for the ablation benchmarks.
// Production code uses Of.
func OfUncollapsed(t *Type, p *arch.Profile) (*Layout, error) {
	return of(t, p, false)
}

// WireOf computes the wire layout of t, the form the server stores:
// every unit packed at its wire width (FixedWireSize), each string or
// MIP a 4-byte slot standing for its length-prefixed item.
func WireOf(t *Type) (*Layout, error) {
	return of(t, nil, true)
}

func of(t *Type, p *arch.Profile, collapse bool) (*Layout, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	if p != nil {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	c := layoutCalc{prof: p, layouts: make(map[*Type]*Layout), noMerge: !collapse}
	return c.layout(t), nil
}

// Field returns the location of the named top-level struct field.
func (l *Layout) Field(name string) (FieldLoc, bool) {
	for _, f := range l.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return FieldLoc{}, false
}

type layoutCalc struct {
	prof    *arch.Profile // nil: the wire layout
	layouts map[*Type]*Layout
	noMerge bool
}

// FixedWireSize returns the canonical encoded size of one unit of
// kind k, and ok=false for variable-length kinds (strings and
// pointers).
func FixedWireSize(k Kind) (int, bool) {
	switch k {
	case KindChar:
		return 1, true
	case KindInt16:
		return 2, true
	case KindInt32, KindFloat32:
		return 4, true
	case KindInt64, KindFloat64:
		return 8, true
	default:
		return 0, false
	}
}

func (c *layoutCalc) primSizeAlign(t *Type) (int, int) {
	if c.prof == nil {
		if sz, ok := FixedWireSize(t.kind); ok {
			return sz, 1
		}
		return 4, 1
	}
	switch t.kind {
	case KindChar:
		return 1, 1
	case KindInt16:
		return 2, 2
	case KindInt32, KindFloat32:
		return 4, 4
	case KindInt64:
		return 8, c.prof.Int64Align
	case KindFloat64:
		return 8, c.prof.Float64Align
	case KindString:
		return t.cap, 1
	case KindPointer:
		return c.prof.WordSize, c.prof.WordSize
	default:
		return 0, 1
	}
}

// layout returns the layout of t, computing it on the first request:
// every type reached is laid out once however many paths reach it.
func (c *layoutCalc) layout(t *Type) *Layout {
	if l, ok := c.layouts[t]; ok {
		return l
	}
	l := &Layout{Type: t, Prof: c.prof, PrimCount: t.primCount, Align: 1}
	switch t.kind {
	case KindStruct:
		prim := 0
		for _, f := range t.fields {
			at, size := c.place(l, f.Type, l.Size, prim, 1)
			l.Fields = append(l.Fields, FieldLoc{Name: f.Name, Type: f.Type, ByteOff: at, PrimOff: prim})
			l.Size = at + size
			prim += f.Type.primCount
		}
		l.Size = alignUp(l.Size, l.Align)
	case KindArray:
		_, size := c.place(l, t.elem, 0, 0, t.len)
		l.Size = size * t.len
	default:
		_, l.Size = c.place(l, t, 0, 0, 1)
	}
	c.layouts[t] = l
	return l
}

// place appends n consecutive values of t to l's walk, from the first
// offset at or after off aligned for t and from unit prim, and returns
// that offset and t's size. A value that is one run tiling it joins
// the walk as that run; any other composite value is a repeat step.
func (c *layoutCalc) place(l *Layout, t *Type, off, prim, n int) (at, size int) {
	var s Step
	align, bound, unitBound := 1, 0, 0
	if t.kind.IsPrimitive() {
		size, align = c.primSizeAlign(t)
		s = Step{Kind: t.kind, Cap: t.cap, Count: 1, Size: size, ByteStride: size}
		l.VarLen = l.VarLen || t.kind == KindString || t.kind == KindPointer
		bound = unitWireBound(t.kind, t.cap)
		unitBound = bound
	} else {
		el := c.layout(t)
		size, align = el.Size, el.Align
		l.VarLen = l.VarLen || el.VarLen
		bound, unitBound = el.WireBound, el.UnitWireBound
		if w := el.Walk; !c.noMerge && len(w) == 1 && w[0].Count*w[0].ByteStride == size {
			s = w[0]
		} else {
			s = Step{Count: 1, Size: w[len(w)-1].end(), ByteStride: size, Elem: el}
		}
	}
	at = alignUp(off, align)
	s.ByteOff, s.PrimOff, s.Count = at, prim, s.Count*n // a value's first unit is at 0
	if c.noMerge {
		l.Walk = append(l.Walk, s)
	} else {
		pushStep(&l.Walk, s)
	}
	l.Align = max(l.Align, align)
	l.WireBound += n * bound
	l.UnitWireBound = max(l.UnitWireBound, unitBound)
	return at, size
}

// pushStep appends s, merging it into the previous step when the two
// form one arithmetic progression of identical units or values (the
// isomorphic descriptor optimization).
func pushStep(walk *[]Step, s Step) {
	n := len(*walk)
	if n == 0 {
		*walk = append(*walk, s)
		return
	}
	p := &(*walk)[n-1]
	if p.Kind != s.Kind || p.Cap != s.Cap || p.Size != s.Size || p.Elem != s.Elem {
		*walk = append(*walk, s)
		return
	}
	// Primitive offsets are always contiguous across sequential
	// emission, so only byte geometry decides mergeability.
	switch {
	case p.Count == 1 && s.Count == 1:
		d := s.ByteOff - p.ByteOff
		if d >= p.Size {
			p.ByteStride = d
			p.Count = 2
			return
		}
	case p.Count > 1 && s.Count == 1:
		if s.ByteOff == p.ByteOff+p.Count*p.ByteStride {
			p.Count++
			return
		}
	case p.Count == 1 && s.Count > 1:
		d := s.ByteOff - p.ByteOff
		if d == s.ByteStride && d >= p.Size {
			p.ByteStride = s.ByteStride
			p.Count = 1 + s.Count
			return
		}
	default:
		if p.ByteStride == s.ByteStride && s.ByteOff == p.ByteOff+p.Count*p.ByteStride {
			p.Count += s.Count
			return
		}
	}
	*walk = append(*walk, s)
}

func alignUp(v, a int) int {
	return (v + a - 1) / a * a
}

// stepAt returns the index of the walk step holding primitive offset
// prim of one value, 0 <= prim < PrimCount: the last step starting at
// or before it.
func (l *Layout) stepAt(prim int) int {
	lo, hi := 0, len(l.Walk) // Walk[lo].PrimOff <= prim < Walk[hi].PrimOff
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if l.Walk[m].PrimOff <= prim {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// stepAtByte returns the index of the last walk step starting at or
// before byte b >= 0 of one value.
func (l *Layout) stepAtByte(b int) int {
	lo, hi := 0, len(l.Walk) // Walk[lo].ByteOff <= b < Walk[hi].ByteOff
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if l.Walk[m].ByteOff <= b {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// StepAtPrim returns the run holding the given primitive offset of one
// value: a step of l's walk, or of a repeat step's element layout.
func (l *Layout) StepAtPrim(prim int) (*Step, bool) {
	if prim < 0 || prim >= l.PrimCount {
		return nil, false
	}
	var it UnitIter
	it.Seek(l, prim, prim+1)
	return it.Step, true
}

// PrimToByte maps a primitive offset (within one element) to the
// local byte offset of that unit.
func (l *Layout) PrimToByte(prim int) (int, error) {
	if prim < 0 || prim >= l.PrimCount {
		return 0, fmt.Errorf("types: primitive offset %d out of range [0,%d)", prim, l.PrimCount)
	}
	var it UnitIter
	it.Seek(l, prim, prim)
	return it.Off, nil
}

// ByteToPrim maps a local byte offset (within one element) to the
// primitive offset of the unit containing it. A byte offset inside a
// unit's extent maps to that unit; an offset inside alignment padding
// is an error.
func (l *Layout) ByteToPrim(byteOff int) (int, error) {
	if byteOff < 0 || byteOff >= l.Size {
		return 0, fmt.Errorf("types: byte offset %d out of range [0,%d)", byteOff, l.Size)
	}
	p, ok := l.byteToPrim(byteOff)
	if !ok {
		return 0, fmt.Errorf("types: byte offset %d falls in alignment padding", byteOff)
	}
	return p, nil
}

// byteToPrim is ByteToPrim for 0 <= b < l.Size, descending into the
// repeat step that holds b.
func (l *Layout) byteToPrim(b int) (int, bool) {
	s := &l.Walk[l.stepAtByte(b)] // the first unit is at byte 0
	j := s.unitAt(b - s.ByteOff)
	if b -= s.ByteOff + j*s.ByteStride; b >= s.Size {
		return 0, false
	}
	if s.Elem == nil {
		return s.PrimOff + j, true
	}
	p, ok := s.Elem.byteToPrim(b)
	return s.PrimOff + j*s.Elem.PrimCount + p, ok
}

// PrimSpan returns the half-open range [p0, p1) of primitive offsets
// (within one element) whose byte extents intersect the byte range
// [b0, b1). ok is false when the byte range covers only padding.
func (l *Layout) PrimSpan(b0, b1 int) (p0, p1 int, ok bool) {
	b0, b1 = max(b0, 0), min(b1, l.Size)
	if b0 >= b1 {
		return 0, 0, false
	}
	p0, start, ok := l.firstEnding(b0)
	if !ok || start >= b1 {
		return 0, 0, false
	}
	return p0, l.lastStarting(b1) + 1, true
}

// firstEnding returns the first unit of one value whose extent ends
// after byte b: its primitive offset and its first byte.
func (l *Layout) firstEnding(b int) (p, start int, ok bool) {
	lo, hi := 0, len(l.Walk) // Walk[lo-1].end() <= b < Walk[hi].end()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.Walk[m].end() > b {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(l.Walk) {
		return 0, 0, false
	}
	s := &l.Walk[lo]
	j := 0
	if b > s.ByteOff {
		j = s.unitAt(b - s.ByteOff)
		if b >= s.ByteOff+j*s.ByteStride+s.Size {
			j++ // b sits in the gap after unit j
		}
	}
	start = s.ByteOff + j*s.ByteStride
	if s.Elem == nil {
		return s.PrimOff + j, start, true
	}
	p, at, _ := s.Elem.firstEnding(b - start)
	return s.PrimOff + j*s.Elem.PrimCount + p, start + at, true
}

// lastStarting returns the primitive offset of the last unit of one
// value that starts before byte b > 0.
func (l *Layout) lastStarting(b int) int {
	s := &l.Walk[l.stepAtByte(b-1)]
	j := s.unitAt(b - 1 - s.ByteOff)
	if s.Elem == nil {
		return s.PrimOff + j
	}
	return s.PrimOff + j*s.Elem.PrimCount + s.Elem.lastStarting(b-s.ByteOff-j*s.ByteStride)
}

// UnitIter walks units [u0, u1) of a block whose elements have a
// layout, one maximal run of units within one step at a time; the
// caller owns it and positions it with Seek. After Next returns true,
// Step is the run's step and the run is N units starting Off bytes
// into the block, Step.ByteStride bytes apart. Before the first Next,
// Off is where unit u0 starts, even when the range is empty; once Next
// has reported false, Step, Off and N keep the last run.
//
// The cursor moves from step to step of one walk in place. Where that
// walk ends or a repeat step begins, it descends again from the block's
// element to the next unit, through at most the type's nesting depth of
// repeat steps.
type UnitIter struct {
	Step   *Step
	Off, N int

	top    *Layout // the block's element layout
	in     *Layout // the layout whose walk holds Step
	si     int     // Step's index in in.Walk
	base   int     // the byte offset of in's current value
	stride int     // the byte distance to in's next value
	reps   int     // values of in after the current one
	end    int     // the unit after the range
	left   int     // units after the current run
	primed bool    // the current run is the first, not yet returned
}

// Seek positions the cursor on units [u0, u1) of a block of elements
// of layout l; u0 >= 0 and u1 is at most the block's unit count.
func (it *UnitIter) Seek(l *Layout, u0, u1 int) {
	it.top, it.primed, it.end, it.left = l, true, u1, max(u1-u0, 0)
	if s := &l.Walk[0]; len(l.Walk) == 1 && s.Elem == nil && s.Count*s.ByteStride == l.Size {
		// One run tiling the element, as n elements of a primitive
		// are: the whole range is one arithmetic run.
		it.Step, it.Off, it.N, it.left = s, u0*s.ByteStride, it.left, 0
		return
	}
	it.descend(u0)
}

// descend makes the run starting at unit u the current one, finding it
// from the block's element down through repeat steps.
func (it *UnitIter) descend(u int) {
	l := it.top
	p := u % l.PrimCount
	base, stride, reps := u/l.PrimCount*l.Size, l.Size, math.MaxInt
	for {
		si := l.stepAt(p)
		s := &l.Walk[si]
		k := p - s.PrimOff
		if s.Elem == nil {
			it.in, it.si, it.base, it.stride, it.reps = l, si, base, stride, reps
			it.Step, it.Off, it.N = s, base+s.ByteOff+k*s.ByteStride, min(s.Count-k, it.left)
			it.left -= it.N
			return
		}
		j := k / s.Elem.PrimCount
		base += s.ByteOff + j*s.ByteStride
		stride, reps = s.ByteStride, s.Count-1-j
		p, l = k-j*s.Elem.PrimCount, s.Elem
	}
}

// Next advances to the next run, reporting false when none is left.
// It inlines, so a range of one run costs no call to step through.
func (it *UnitIter) Next() bool {
	if it.primed {
		it.primed = false
		return it.N > 0
	}
	if it.left == 0 {
		return false
	}
	it.advance()
	return true
}

// advance makes the run after the current one, which ended its step,
// the current one.
func (it *UnitIter) advance() {
	if it.si++; it.si == len(it.in.Walk) {
		it.si, it.base, it.reps = 0, it.base+it.stride, it.reps-1
	}
	s := &it.in.Walk[it.si]
	if s.Elem != nil || it.reps < 0 {
		it.descend(it.end - it.left)
		return
	}
	it.Step, it.Off, it.N = s, it.base+s.ByteOff, min(s.Count, it.left)
	it.left -= it.N
}

// Cache memoizes layouts per (type, profile). The zero value is ready
// to use and safe for concurrent use.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*Layout
}

type cacheKey struct {
	t *Type
	p *arch.Profile
}

// Of returns the cached layout of t under p, computing it on first
// use.
func (c *Cache) Of(t *Type, p *arch.Profile) (*Layout, error) {
	key := cacheKey{t, p}
	c.mu.Lock()
	if l, ok := c.m[key]; ok {
		c.mu.Unlock()
		return l, nil
	}
	c.mu.Unlock()
	l, err := Of(t, p)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[cacheKey]*Layout)
	}
	c.m[key] = l
	c.mu.Unlock()
	return l, nil
}

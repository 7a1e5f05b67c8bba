package types

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"interweave/internal/arch"
)

// maxWalkSteps bounds the flattened walk of a single type to keep
// pathological declarations (huge arrays of non-uniform structs) from
// exhausting memory. Blocks holding n elements of a type share one
// walk, so ordinary workloads stay far below this.
const maxWalkSteps = 1 << 21

var errStepLimit = errors.New("types: type too irregular; walk exceeds step limit")

// Step is one run of identical primitive units in a Layout's
// flattened walk. A run covers Count units of the same Kind starting
// at ByteOff/PrimOff, each Size bytes long, spaced ByteStride bytes
// apart (ByteStride > Size when alignment padding separates units).
//
// Runs are the product of the paper's "isomorphic type descriptors"
// optimization: a struct of ten consecutive integers yields a single
// ten-element step rather than ten descriptors.
type Step struct {
	Kind       Kind
	Cap        int // string capacity in bytes
	ByteOff    int // local byte offset of the first unit
	PrimOff    int // primitive offset of the first unit
	Count      int
	Size       int // local size in bytes of one unit
	ByteStride int // byte distance between consecutive units
}

// end returns the byte offset just past the last unit's extent.
func (s *Step) end() int {
	return s.ByteOff + (s.Count-1)*s.ByteStride + s.Size
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
// padding) and the flattened primitive walk that drives wire-format
// translation, diffing, and pointer swizzling. A layout from WireOf
// has no profile: it is the wire form the server stores.
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
	// Walk is the flattened primitive walk of one value, sorted by
	// both ByteOff and PrimOff (the orders coincide).
	Walk []Step
	// Fields locates the top-level fields when Type is a struct.
	Fields []FieldLoc
}

// Of computes the layout of t under profile p.
func Of(t *Type, p *arch.Profile) (*Layout, error) {
	return of(t, p, true)
}

// OfUncollapsed computes a layout whose walk keeps one step per
// primitive unit — the isomorphic descriptor optimization disabled —
// for the ablation benchmarks. Production code uses Of.
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
	c := layoutCalc{prof: p, memo: make(map[*Type][2]int), noMerge: !collapse}
	size, align := c.sizeAlign(t)
	l := &Layout{
		Type:      t,
		Prof:      p,
		Size:      size,
		Align:     align,
		PrimCount: t.primCount,
	}
	if err := c.emit(&l.Walk, t, 0, 0); err != nil {
		return nil, err
	}
	if t.kind == KindStruct {
		l.Fields = c.fieldLocs(t)
	}
	return l, nil
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
	memo    map[*Type][2]int
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

func (c *layoutCalc) sizeAlign(t *Type) (int, int) {
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

func (c *layoutCalc) fieldLocs(t *Type) []FieldLoc {
	out := make([]FieldLoc, 0, len(t.fields))
	off, prim := 0, 0
	for _, f := range t.fields {
		fs, fa := c.sizeAlign(f.Type)
		off = alignUp(off, fa)
		out = append(out, FieldLoc{Name: f.Name, Type: f.Type, ByteOff: off, PrimOff: prim})
		off += fs
		prim += f.Type.primCount
	}
	return out
}

func (c *layoutCalc) emit(walk *[]Step, t *Type, byteOff, primOff int) error {
	switch t.kind {
	case KindStruct:
		off, prim := byteOff, primOff
		for _, f := range t.fields {
			fs, fa := c.sizeAlign(f.Type)
			off = alignUp(off, fa)
			if err := c.emit(walk, f.Type, off, prim); err != nil {
				return err
			}
			off += fs
			prim += f.Type.primCount
		}
	case KindArray:
		es, _ := c.sizeAlign(t.elem)
		if t.elem.kind.IsPrimitive() {
			// An array of primitives is one descriptor even without
			// the isomorphic optimization, which only concerns
			// collapsing distinct consecutive field descriptors.
			elSz, _ := c.primSizeAlign(t.elem)
			return c.push(walk, Step{
				Kind: t.elem.kind, Cap: t.elem.cap,
				ByteOff: byteOff, PrimOff: primOff,
				Count: t.len, Size: elSz, ByteStride: es,
			})
		}
		// Lay out one element, then repeat it.
		var el []Step
		if err := c.emit(&el, t.elem, 0, 0); err != nil {
			return err
		}
		if s := el[0]; !c.noMerge && len(el) == 1 && s.Count*s.ByteStride == es {
			// The element is one step that tiles it: so is the array.
			s.ByteOff, s.PrimOff, s.Count = byteOff, primOff, s.Count*t.len
			return c.push(walk, s)
		}
		// Of an element's steps only the first can merge into the step
		// before it, so each element adds at least len(el)-1 steps: a
		// walk bound to outgrow the limit is refused before it is built.
		if len(*walk)+t.len*(len(el)-1) > maxWalkSteps+1 {
			return errStepLimit
		}
		// Room for every step: growing by append would allocate ~5x.
		*walk = slices.Grow(*walk, min(t.len*len(el), maxWalkSteps+1-len(*walk)))
		pc := t.elem.primCount
		for i := 0; i < t.len; i++ {
			for _, s := range el {
				s.ByteOff += byteOff + i*es
				s.PrimOff += primOff + i*pc
				if err := c.push(walk, s); err != nil {
					return err
				}
			}
		}
	default:
		sz, _ := c.primSizeAlign(t)
		return c.push(walk, Step{
			Kind: t.kind, Cap: t.cap,
			ByteOff: byteOff, PrimOff: primOff,
			Count: 1, Size: sz, ByteStride: sz,
		})
	}
	return nil
}

// push appends a step, merging with the previous one unless the
// isomorphic optimization is disabled. It refuses to add to a walk
// already past the step limit.
func (c *layoutCalc) push(walk *[]Step, s Step) error {
	if len(*walk) > maxWalkSteps {
		return errStepLimit
	}
	if c.noMerge {
		*walk = append(*walk, s)
	} else {
		pushStep(walk, s)
	}
	return nil
}

// pushStep appends s, merging it into the previous step when the two
// form one arithmetic progression of identical units (the isomorphic
// descriptor optimization).
func pushStep(walk *[]Step, s Step) {
	n := len(*walk)
	if n == 0 {
		*walk = append(*walk, s)
		return
	}
	p := &(*walk)[n-1]
	if p.Kind != s.Kind || p.Cap != s.Cap || p.Size != s.Size {
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

// StepAtPrim returns the index of the walk step containing the given
// primitive offset (within one element).
func (l *Layout) StepAtPrim(prim int) (int, bool) {
	if prim < 0 || prim >= l.PrimCount {
		return 0, false
	}
	i := sort.Search(len(l.Walk), func(i int) bool {
		return l.Walk[i].PrimOff > prim
	}) - 1
	if i < 0 {
		return 0, false
	}
	s := &l.Walk[i]
	if prim >= s.PrimOff+s.Count {
		return 0, false
	}
	return i, true
}

// PrimToByte maps a primitive offset (within one element) to the
// local byte offset of that unit.
func (l *Layout) PrimToByte(prim int) (int, error) {
	i, ok := l.StepAtPrim(prim)
	if !ok {
		return 0, fmt.Errorf("types: primitive offset %d out of range [0,%d)", prim, l.PrimCount)
	}
	s := &l.Walk[i]
	return s.ByteOff + (prim-s.PrimOff)*s.ByteStride, nil
}

// ByteToPrim maps a local byte offset (within one element) to the
// primitive offset of the unit containing it. A byte offset inside a
// unit's extent maps to that unit; an offset inside alignment padding
// is an error.
func (l *Layout) ByteToPrim(byteOff int) (int, error) {
	if byteOff < 0 || byteOff >= l.Size {
		return 0, fmt.Errorf("types: byte offset %d out of range [0,%d)", byteOff, l.Size)
	}
	i := sort.Search(len(l.Walk), func(i int) bool {
		return l.Walk[i].ByteOff > byteOff
	}) - 1
	if i < 0 {
		return 0, fmt.Errorf("types: byte offset %d precedes first unit", byteOff)
	}
	s := &l.Walk[i]
	j := (byteOff - s.ByteOff) / s.ByteStride
	if j >= s.Count {
		j = s.Count - 1
	}
	start := s.ByteOff + j*s.ByteStride
	if byteOff < start || byteOff >= start+s.Size {
		return 0, fmt.Errorf("types: byte offset %d falls in alignment padding", byteOff)
	}
	return s.PrimOff + j, nil
}

// PrimSpan returns the half-open range [p0, p1) of primitive offsets
// (within one element) whose byte extents intersect the byte range
// [b0, b1). ok is false when the byte range covers only padding.
func (l *Layout) PrimSpan(b0, b1 int) (p0, p1 int, ok bool) {
	if b0 < 0 {
		b0 = 0
	}
	if b1 > l.Size {
		b1 = l.Size
	}
	if b0 >= b1 || len(l.Walk) == 0 {
		return 0, 0, false
	}
	// First unit whose extent end exceeds b0.
	i := sort.Search(len(l.Walk), func(i int) bool {
		return l.Walk[i].end() > b0
	})
	if i == len(l.Walk) {
		return 0, 0, false
	}
	s := &l.Walk[i]
	var j int
	if b0 > s.ByteOff {
		j = (b0 - s.ByteOff) / s.ByteStride
		if b0 >= s.ByteOff+j*s.ByteStride+s.Size {
			j++ // b0 sits in the gap after unit j
		}
	}
	if j >= s.Count {
		i++
		if i == len(l.Walk) {
			return 0, 0, false
		}
		s = &l.Walk[i]
		j = 0
	}
	if s.ByteOff+j*s.ByteStride >= b1 {
		return 0, 0, false
	}
	p0 = s.PrimOff + j

	// Last unit whose start precedes b1.
	i = sort.Search(len(l.Walk), func(i int) bool {
		return l.Walk[i].ByteOff >= b1
	}) - 1
	s = &l.Walk[i]
	j = (b1 - 1 - s.ByteOff) / s.ByteStride
	if j >= s.Count {
		j = s.Count - 1
	}
	p1 = s.PrimOff + j + 1
	if p1 <= p0 {
		return 0, 0, false
	}
	return p0, p1, true
}

// UnitIter walks units [u0, u1) of a block whose elements have a
// layout, one maximal run of units within one step at a time. After
// Next returns true, Step is the run's step and the run is N units
// starting Off bytes into the block, Step.ByteStride bytes apart.
// Before the first Next, Off is where unit u0 starts, even when the
// range is empty; once Next has reported false, Step, Off and N keep
// the last run.
type UnitIter struct {
	Step   *Step
	Off, N int

	l      *Layout
	left   int  // units after the current run
	si     int  // the current run's step
	base   int  // the byte offset of its element
	primed bool // the current run is the first, not yet returned
}

// Units returns an iterator over units [u0, u1) of a block of elements
// of layout l; u0 >= 0 and u1 is at most the block's unit count. It
// finds the first unit's step with StepAtPrim, and each later step by
// moving to the next one.
func (l *Layout) Units(u0, u1 int) (it UnitIter) {
	it.l, it.primed = l, true
	n := max(u1-u0, 0)
	s := &l.Walk[0]
	if len(l.Walk) == 1 && s.Count*s.ByteStride == l.Size {
		// One step tiling the element, as n elements of a primitive
		// are: the whole range is one arithmetic run.
		it.Step, it.Off, it.N = s, u0*s.ByteStride, n
		return
	}
	e, p := u0/l.PrimCount, u0%l.PrimCount
	it.si, _ = l.StepAtPrim(p)
	s = &l.Walk[it.si]
	it.base = e * l.Size
	it.Step, it.Off = s, it.base+s.ByteOff+(p-s.PrimOff)*s.ByteStride
	it.N = min(s.PrimOff+s.Count-p, n)
	it.left = n - it.N
	return
}

// Next advances to the next run, reporting false when none is left.
func (it *UnitIter) Next() bool {
	if it.primed {
		it.primed = false
		return it.N > 0
	}
	if it.left == 0 {
		return false
	}
	// The current run ended its step; steps never cross an element
	// boundary.
	if it.si++; it.si == len(it.l.Walk) {
		it.si, it.base = 0, it.base+it.l.Size
	}
	s := &it.l.Walk[it.si]
	it.Step, it.Off, it.N = s, it.base+s.ByteOff, min(s.Count, it.left)
	it.left -= it.N
	return true
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

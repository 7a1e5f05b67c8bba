package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Descriptor encoding. Clients register their types with servers in
// this machine-independent form (the server "obtains its type
// descriptors from clients", Section 3.2), and clients that receive
// blocks of a previously unseen type decode it and derive a local
// layout. The format is a flat table of type definitions referring to
// one another by index, which represents recursive types naturally.

const descMagic = 0x49575459 // "IWTY"

// Marshal encodes the type graph rooted at t in canonical binary
// form. The encoding is deterministic for a given graph; graphs built
// by identical construction sequences (e.g. by the IDL compiler)
// produce identical bytes.
func Marshal(t *Type) ([]byte, error) {
	if err := Validate(t); err != nil {
		return nil, err
	}
	idx := make(map[*Type]uint32)
	var order []*Type
	var visit func(t *Type)
	visit = func(t *Type) {
		if _, ok := idx[t]; ok {
			return
		}
		idx[t] = uint32(len(order))
		order = append(order, t)
		switch t.kind {
		case KindStruct:
			for _, f := range t.fields {
				visit(f.Type)
			}
		case KindArray, KindPointer:
			visit(t.elem)
		}
	}
	visit(t)

	buf := binary.BigEndian.AppendUint32(nil, descMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(order)))
	for _, u := range order {
		buf = append(buf, byte(u.kind))
		switch u.kind {
		case KindString:
			buf = binary.BigEndian.AppendUint32(buf, uint32(u.cap))
		case KindPointer:
			buf = binary.BigEndian.AppendUint32(buf, idx[u.elem])
		case KindArray:
			buf = binary.BigEndian.AppendUint32(buf, uint32(u.len))
			buf = binary.BigEndian.AppendUint32(buf, idx[u.elem])
		case KindStruct:
			buf = appendString(buf, u.name)
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(u.fields)))
			for _, f := range u.fields {
				buf = appendString(buf, f.Name)
				buf = binary.BigEndian.AppendUint32(buf, idx[f.Type])
			}
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

type descReader struct {
	b   []byte
	off int
}

func (r *descReader) u8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, errors.New("types: truncated descriptor")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *descReader) u16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, errors.New("types: truncated descriptor")
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *descReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, errors.New("types: truncated descriptor")
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *descReader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.b) {
		return "", errors.New("types: truncated descriptor string")
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Unmarshal decodes a descriptor produced by Marshal. The first
// definition in the table is the root type.
func Unmarshal(b []byte) (*Type, error) {
	r := &descReader{b: b}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != descMagic {
		return nil, fmt.Errorf("types: bad descriptor magic %#x", magic)
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<20 {
		return nil, fmt.Errorf("types: descriptor table size %d out of range", n)
	}
	// Pass 1: allocate shells so cross-references can be wired in
	// pass 2 regardless of definition order.
	defs := make([]*Type, n)
	for i := range defs {
		defs[i] = &Type{}
	}
	type fieldRef struct {
		name string
		idx  uint32
	}
	elemRef := make([]uint32, n)
	fieldRefs := make([][]fieldRef, n)
	for i := uint32(0); i < n; i++ {
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		t := defs[i]
		t.kind = Kind(k)
		switch t.kind {
		case KindChar, KindInt16, KindInt32, KindInt64, KindFloat32, KindFloat64:
			// No payload.
		case KindString:
			c, err := r.u32()
			if err != nil {
				return nil, err
			}
			if c == 0 || c > 1<<24 {
				return nil, fmt.Errorf("types: string capacity %d out of range", c)
			}
			t.cap = int(c)
		case KindPointer:
			e, err := r.u32()
			if err != nil {
				return nil, err
			}
			elemRef[i] = e
		case KindArray:
			l, err := r.u32()
			if err != nil {
				return nil, err
			}
			e, err := r.u32()
			if err != nil {
				return nil, err
			}
			if l == 0 || l > 1<<28 {
				return nil, fmt.Errorf("types: array length %d out of range", l)
			}
			t.len = int(l)
			elemRef[i] = e
		case KindStruct:
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			t.name = name
			nf, err := r.u16()
			if err != nil {
				return nil, err
			}
			if nf == 0 {
				return nil, errors.New("types: struct descriptor with no fields")
			}
			refs := make([]fieldRef, nf)
			for j := range refs {
				fname, err := r.str()
				if err != nil {
					return nil, err
				}
				fi, err := r.u32()
				if err != nil {
					return nil, err
				}
				refs[j] = fieldRef{fname, fi}
			}
			fieldRefs[i] = refs
		default:
			return nil, fmt.Errorf("types: unknown kind %d in descriptor", k)
		}
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("types: %d trailing bytes in descriptor", len(b)-r.off)
	}
	// Pass 2: wire references.
	for i := uint32(0); i < n; i++ {
		t := defs[i]
		switch t.kind {
		case KindPointer, KindArray:
			if elemRef[i] >= n {
				return nil, fmt.Errorf("types: type reference %d out of range", elemRef[i])
			}
			t.elem = defs[elemRef[i]]
		case KindStruct:
			t.fields = make([]Field, len(fieldRefs[i]))
			for j, fr := range fieldRefs[i] {
				if fr.idx >= n {
					return nil, fmt.Errorf("types: type reference %d out of range", fr.idx)
				}
				t.fields[j] = Field{Name: fr.name, Type: defs[fr.idx]}
			}
		}
	}
	// Pass 3: compute primitive counts and mark complete. Cycles
	// through non-pointer edges are detected here.
	for _, t := range defs {
		if _, err := computePrim(t, make(map[*Type]int)); err != nil {
			return nil, err
		}
	}
	for _, t := range defs {
		t.complete = true
	}
	if err := Validate(defs[0]); err != nil {
		return nil, fmt.Errorf("types: decoded descriptor invalid: %w", err)
	}
	return defs[0], nil
}

// maxPrimUnits bounds the primitive units of one decoded value, as
// Unmarshal bounds an array's length.
const maxPrimUnits = 1 << 28

func computePrim(t *Type, state map[*Type]int) (int, error) {
	if t.primCount != 0 {
		return t.primCount, nil
	}
	if t.kind.IsPrimitive() {
		t.primCount = 1
		return 1, nil
	}
	switch state[t] {
	case stateVisiting:
		return 0, errors.New("types: descriptor contains a non-pointer cycle")
	case stateDone:
		return t.primCount, nil
	}
	state[t] = stateVisiting
	var count int
	switch t.kind {
	case KindArray:
		e, err := computePrim(t.elem, state)
		if err != nil {
			return 0, err
		}
		count = e * t.len
	case KindStruct:
		for _, f := range t.fields {
			e, err := computePrim(f.Type, state)
			if err != nil {
				return 0, err
			}
			count += e
		}
	}
	// Nested arrays multiply: bound each level so the count cannot
	// overflow.
	if count > maxPrimUnits {
		return 0, fmt.Errorf("types: descriptor of more than %d primitive units", maxPrimUnits)
	}
	state[t] = stateDone
	t.primCount = count
	return count, nil
}

// Fingerprint returns a 64-bit hash of the type's canonical encoding,
// used as a fast identity hint for descriptor deduplication.
func Fingerprint(t *Type) (uint64, error) {
	b, err := Marshal(t)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // fnv.Write never fails
	return h.Sum64(), nil
}

// Equal reports structural equality of two type graphs, including
// recursive ones. Struct and field names participate in equality.
func Equal(a, b *Type) bool {
	return equalTypes(a, b, make(map[[2]*Type]bool))
}

func equalTypes(a, b *Type, seen map[[2]*Type]bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind {
		return false
	}
	key := [2]*Type{a, b}
	if seen[key] {
		return true // coinductively equal unless a difference is found
	}
	seen[key] = true
	switch a.kind {
	case KindString:
		return a.cap == b.cap
	case KindPointer:
		return equalTypes(a.elem, b.elem, seen)
	case KindArray:
		return a.len == b.len && equalTypes(a.elem, b.elem, seen)
	case KindStruct:
		if a.name != b.name || len(a.fields) != len(b.fields) {
			return false
		}
		for i := range a.fields {
			if a.fields[i].Name != b.fields[i].Name {
				return false
			}
			if !equalTypes(a.fields[i].Type, b.fields[i].Type, seen) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

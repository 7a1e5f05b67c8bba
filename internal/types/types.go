// Package types implements InterWeave's type descriptor system.
//
// Shared data in InterWeave is strongly typed: every block has a type
// declared in IDL, and the library uses type descriptors to translate
// between machine-specific local formats and the machine-independent
// wire format (paper Sections 2.1 and 3.1). This package provides:
//
//   - Type: the machine-independent type model (primitives, fixed
//     capacity strings, pointers, structs, arrays).
//   - Layout: a per-architecture instantiation of a Type, carrying
//     byte offsets, alignment padding, primitive offsets, and the
//     "primitive walk" used by diff translation, including the
//     paper's isomorphic descriptor optimization. Each composite type
//     is laid out once per call, and an array or field of a type that
//     is not one run is a repeat step of that type's layout, so a
//     layout grows with its descriptor, not its units. A Type also
//     has a wire layout (WireOf), the packed form the server stores,
//     and both kinds are walked by one cursor (UnitIter).
//   - A canonical binary encoding of descriptors, used to register
//     types with servers and to reconstruct layouts on clients that
//     receive previously unseen blocks.
//
// Offsets in MIPs and wire-format diffs are measured in primitive
// data units (a char, int, double, string, or pointer each count as
// one unit), never in bytes.
package types

import (
	"errors"
	"fmt"
)

// Kind identifies a type constructor. Char through Pointer are the
// primitive data units; Struct and Array are aggregates.
type Kind uint8

// Kinds of types. Primitive kinds are ordered before aggregate kinds.
const (
	KindInvalid Kind = iota
	KindChar
	KindInt16
	KindInt32
	KindInt64
	KindFloat32
	KindFloat64
	KindString
	KindPointer
	KindStruct
	KindArray
)

// IsPrimitive reports whether k is a primitive data unit kind.
func (k Kind) IsPrimitive() bool { return k >= KindChar && k <= KindPointer }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindChar:
		return "char"
	case KindInt16:
		return "int16"
	case KindInt32:
		return "int32"
	case KindInt64:
		return "int64"
	case KindFloat32:
		return "float32"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindPointer:
		return "pointer"
	case KindStruct:
		return "struct"
	case KindArray:
		return "array"
	default:
		return "invalid"
	}
}

// ErrIncomplete is returned when a struct shell created by NewStruct
// is used before SetFields completes it.
var ErrIncomplete = errors.New("types: struct type is incomplete")

// Field is a named member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Type is a machine-independent description of a shared datum. Types
// are immutable once complete and may be shared freely, including
// across goroutines. Recursive types are expressed with pointer
// members referring back to an enclosing struct.
type Type struct {
	kind      Kind
	name      string  // struct name (may be empty for anonymous)
	cap       int     // string capacity in bytes, incl. NUL headroom
	len       int     // array length
	elem      *Type   // array element or pointer target
	fields    []Field // struct members
	primCount int     // cached number of primitive units
	complete  bool
}

var (
	_char    = &Type{kind: KindChar, primCount: 1, complete: true}
	_int16   = &Type{kind: KindInt16, primCount: 1, complete: true}
	_int32   = &Type{kind: KindInt32, primCount: 1, complete: true}
	_int64   = &Type{kind: KindInt64, primCount: 1, complete: true}
	_float32 = &Type{kind: KindFloat32, primCount: 1, complete: true}
	_float64 = &Type{kind: KindFloat64, primCount: 1, complete: true}
)

// Char returns the shared 8-bit character type.
func Char() *Type { return _char }

// Int16 returns the shared 16-bit integer type.
func Int16() *Type { return _int16 }

// Int32 returns the shared 32-bit integer type.
func Int32() *Type { return _int32 }

// Int64 returns the shared 64-bit integer type.
func Int64() *Type { return _int64 }

// Float32 returns the shared 32-bit float type.
func Float32() *Type { return _float32 }

// Float64 returns the shared 64-bit float type.
func Float64() *Type { return _float64 }

// StringOf returns a fixed-capacity string type. In local format the
// string occupies capacity bytes (NUL-terminated, like a C char
// array); in wire format only the actual contents travel, so strings
// are variable length on the wire and in server storage. A string is
// one primitive data unit.
func StringOf(capacity int) (*Type, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("types: string capacity %d, want >= 1", capacity)
	}
	return &Type{kind: KindString, cap: capacity, primCount: 1, complete: true}, nil
}

// PointerTo returns a pointer type. The target may be an incomplete
// struct shell, which is how recursive types are built; the shell
// must be completed with SetFields before layouts are computed. A
// pointer is one primitive data unit regardless of its target.
func PointerTo(elem *Type) (*Type, error) {
	if elem == nil {
		return nil, errors.New("types: pointer to nil type")
	}
	return &Type{kind: KindPointer, elem: elem, primCount: 1, complete: true}, nil
}

// ArrayOf returns a fixed-length array type.
func ArrayOf(elem *Type, n int) (*Type, error) {
	if elem == nil {
		return nil, errors.New("types: array of nil type")
	}
	if !elem.complete {
		return nil, fmt.Errorf("types: array element %w", ErrIncomplete)
	}
	if n < 1 {
		return nil, fmt.Errorf("types: array length %d, want >= 1", n)
	}
	return &Type{kind: KindArray, elem: elem, len: n, primCount: elem.primCount * n, complete: true}, nil
}

// NewStruct returns an incomplete struct shell. Pointers to the shell
// may be created immediately (for recursive types); the shell must be
// completed with exactly one SetFields call before any other use.
func NewStruct(name string) *Type {
	return &Type{kind: KindStruct, name: name}
}

// SetFields completes a struct shell. Field types must themselves be
// complete, except that pointer members may target incomplete shells.
func (t *Type) SetFields(fields ...Field) error {
	if t.kind != KindStruct {
		return fmt.Errorf("types: SetFields on %s type", t.kind)
	}
	if t.complete {
		return fmt.Errorf("types: struct %q already complete", t.name)
	}
	if len(fields) == 0 {
		return fmt.Errorf("types: struct %q must have at least one field", t.name)
	}
	seen := make(map[string]bool, len(fields))
	count := 0
	for i, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("types: struct %q field %d has empty name", t.name, i)
		}
		if seen[f.Name] {
			return fmt.Errorf("types: struct %q has duplicate field %q", t.name, f.Name)
		}
		seen[f.Name] = true
		if f.Type == nil {
			return fmt.Errorf("types: struct %q field %q has nil type", t.name, f.Name)
		}
		if !f.Type.complete {
			return fmt.Errorf("types: struct %q field %q: %w", t.name, f.Name, ErrIncomplete)
		}
		count += f.Type.primCount
	}
	t.fields = make([]Field, len(fields))
	copy(t.fields, fields)
	t.primCount = count
	t.complete = true
	return nil
}

// StructOf builds a complete, non-recursive struct in one call.
func StructOf(name string, fields ...Field) (*Type, error) {
	t := NewStruct(name)
	if err := t.SetFields(fields...); err != nil {
		return nil, err
	}
	return t, nil
}

// Kind returns the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Name returns the struct name, or "" for other kinds.
func (t *Type) Name() string { return t.name }

// Cap returns a string type's capacity in bytes.
func (t *Type) Cap() int { return t.cap }

// Len returns an array type's length.
func (t *Type) Len() int { return t.len }

// Elem returns the element type of an array or the target of a
// pointer, and nil for other kinds.
func (t *Type) Elem() *Type { return t.elem }

// Fields returns a copy of a struct type's fields.
func (t *Type) Fields() []Field {
	out := make([]Field, len(t.fields))
	copy(out, t.fields)
	return out
}

// NumFields returns the number of struct fields.
func (t *Type) NumFields() int { return len(t.fields) }

// Field returns the i-th struct field.
func (t *Type) Field(i int) Field { return t.fields[i] }

// PrimCount returns the number of primitive data units one value of
// this type occupies. MIP offsets and diff runs are measured in these
// units.
func (t *Type) PrimCount() int { return t.primCount }

// Complete reports whether the type is fully defined.
func (t *Type) Complete() bool { return t != nil && t.complete }

// Validate checks the whole type graph rooted at t: completeness of
// every reachable type, and nesting of at most maxNesting struct and
// array levels, which also refuses infinite-size cycles (a struct or
// array may only contain itself through a pointer).
func Validate(t *Type) error {
	done := make(map[*Type]bool)
	if err := validateComplete(t, done); err != nil {
		return err
	}
	// Pointer edges break cycles by design. One map serves every root,
	// so each type is measured once.
	levels := make(map[*Type]int)
	for u := range done {
		if _, err := nesting(u, 0, levels); err != nil {
			return err
		}
	}
	return nil
}

// maxNesting bounds how many struct and array levels a type nests: C99
// (5.2.4.1) guarantees 63 levels of nested struct definitions. Walking
// a layout descends through at most this many repeat steps.
const maxNesting = 64

var errNesting = fmt.Errorf("types: type nests more than %d struct and array levels", maxNesting)

// nesting returns how many struct and array levels t nests, 0 for any
// other kind, given depth levels above it, and refuses a type nested
// past maxNesting. levels holds the types already measured.
func nesting(t *Type, depth int, levels map[*Type]int) (int, error) {
	if t.kind != KindStruct && t.kind != KindArray {
		return 0, nil
	}
	n, ok := levels[t]
	if !ok {
		if depth == maxNesting {
			return 0, errNesting
		}
		below := t.fields
		if t.kind == KindArray {
			below = []Field{{Type: t.elem}}
		}
		for _, f := range below {
			m, err := nesting(f.Type, depth+1, levels)
			if err != nil {
				return 0, err
			}
			n = max(n, m)
		}
		n++
		levels[t] = n
	}
	if depth+n > maxNesting {
		return 0, errNesting
	}
	return n, nil
}

// Node states for cycle detection along non-pointer (size-contributing)
// edges of the type graph.
const (
	stateVisiting = 1
	stateDone     = 2
)

// validateComplete walks every edge (including pointers) checking
// completeness; cycles are fine here.
func validateComplete(t *Type, done map[*Type]bool) error {
	if t == nil {
		return errors.New("types: nil type")
	}
	if done[t] {
		return nil
	}
	if !t.complete {
		return fmt.Errorf("types: %s %q: %w", t.kind, t.name, ErrIncomplete)
	}
	done[t] = true
	switch t.kind {
	case KindStruct:
		for _, f := range t.fields {
			if err := validateComplete(f.Type, done); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
	case KindArray:
		if err := validateComplete(t.elem, done); err != nil {
			return fmt.Errorf("array element: %w", err)
		}
	case KindPointer:
		if err := validateComplete(t.elem, done); err != nil {
			return fmt.Errorf("pointer target: %w", err)
		}
	}
	return nil
}

// String renders a compact human-readable description of the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.kind {
	case KindString:
		return fmt.Sprintf("string[%d]", t.cap)
	case KindPointer:
		if t.elem != nil && t.elem.kind == KindStruct {
			return "*" + t.elem.displayName()
		}
		return "*" + t.elem.String()
	case KindStruct:
		return t.displayName()
	case KindArray:
		return fmt.Sprintf("[%d]%s", t.len, t.elem)
	default:
		return t.kind.String()
	}
}

func (t *Type) displayName() string {
	if t.name != "" {
		return t.name
	}
	return "struct{...}"
}

package diff

import (
	"math/rand"
	"strings"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/swizzle"
	"interweave/internal/types"
)

// walkSizeBound is the exact run bound wireSizeBound relaxes: every
// unit of the run priced by the layout's pricing (the length word plus
// the cell capacity for a string, types.MIPSizeEstimate for a
// pointer), found by walking the run's steps.
func walkSizeBound(l *types.Layout, u0, u1 int) int {
	n := 0
	var it types.UnitIter
	for it.Seek(l, u0, u1); it.Next(); {
		switch s := it.Step; s.Kind {
		case types.KindString:
			n += it.N * (4 + s.Cap)
		case types.KindPointer:
			n += it.N * types.MIPSizeEstimate
		default:
			sz, _ := types.FixedWireSize(s.Kind)
			n += it.N * sz
		}
	}
	return n
}

// TestWireSizeBound holds the run-buffer capacity to the walk of the
// run: never below it, equal to it for whole elements, and, with MIPs
// shorter than the estimate, covering the encoding whatever the
// strings hold. Its blocks hold the mix, whose fields are one unit
// each, and a struct of arrays, one of them a repeat step of mixes.
func TestWireSizeBound(t *testing.T) {
	src := newClient(t, arch.Sparc(), "h/b")
	mix := mixType(t)
	arr := func(el *types.Type, n int) *types.Type {
		a, err := types.ArrayOf(el, n)
		mustOK(t, err)
		return a
	}
	nested, err := types.StructOf("nested",
		types.Field{Name: "h", Type: arr(types.Int16(), 3)},
		types.Field{Name: "m", Type: arr(mix, 2)},
		types.Field{Name: "c", Type: types.Char()})
	mustOK(t, err)
	b := src.alloc(t, mix, 1, 7, "mix")
	s, _ := b.Layout.Field("s")
	p, _ := b.Layout.Field("p")
	mustOK(t, src.heap.WriteCString(b.Addr+mem.Addr(s.ByteOff), 256, strings.Repeat("x", 255)))
	mustOK(t, src.heap.WritePtr(b.Addr+mem.Addr(b.Layout.Size+p.ByteOff), b.Addr+mem.Addr(b.Layout.Size+s.ByteOff)))
	blocks := []*mem.Block{b, src.alloc(t, nested, 2, 5, "nested")}
	c := newCollector(src.seg, CollectOptions{Swizzle: swizzle.NewSwizzler(src.heap).MIPString})
	rng := rand.New(rand.NewSource(3))
	for _, b := range blocks {
		pc := b.Layout.PrimCount
		check := func(u0, u1 int) {
			t.Helper()
			got, walk := wireSizeBound(b.Layout, u0, u1), walkSizeBound(b.Layout, u0, u1)
			if got < walk || (u0%pc == 0 && u1%pc == 0 && got != walk) {
				t.Fatalf("%v units [%d,%d): bound %d, walk %d", b.Layout.Type, u0, u1, got, walk)
			}
			data, err := c.translateUnits(b, blockBytes(b), u0, u1)
			mustOK(t, err)
			if len(data) > got {
				t.Fatalf("%v units [%d,%d): %d wire bytes exceed bound %d", b.Layout.Type, u0, u1, len(data), got)
			}
		}
		for i := 0; i < 500; i++ {
			u0 := rng.Intn(b.PrimCount())
			check(u0, u0+1+rng.Intn(b.PrimCount()-u0))
		}
		for e0 := 0; e0 < b.Count; e0++ {
			for e1 := e0 + 1; e1 <= b.Count; e1++ {
				check(e0*pc, e1*pc)
			}
		}
	}
}

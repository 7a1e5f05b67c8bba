package diff

import (
	"math/rand"
	"strings"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/swizzle"
)

// TestWireSizeBound holds the run-buffer capacity to its definition:
// pricing whole elements from one element's walk gives what walking
// the run does, and, with MIPs shorter than the estimate, the bound
// covers the encoding whatever the strings hold.
func TestWireSizeBound(t *testing.T) {
	src := newClient(t, arch.Sparc(), "h/b")
	b := src.alloc(t, mixType(t), 1, 7, "mix")
	s, _ := b.Layout.Field("s")
	p, _ := b.Layout.Field("p")
	mustOK(t, src.heap.WriteCString(b.Addr+mem.Addr(s.ByteOff), 256, strings.Repeat("x", 255)))
	mustOK(t, src.heap.WritePtr(b.Addr+mem.Addr(b.Layout.Size+p.ByteOff), b.Addr+mem.Addr(b.Layout.Size+s.ByteOff)))
	c := newCollector(src.seg, CollectOptions{Swizzle: swizzle.NewSwizzler(src.heap).MIPString})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		u0 := rng.Intn(b.PrimCount())
		u1 := u0 + 1 + rng.Intn(b.PrimCount()-u0)
		got, want := wireSizeBound(b.Layout, u0, u1), walkSizeBound(b.Layout, u0, u1)
		if got != want {
			t.Fatalf("units [%d,%d): bound %d, walk %d", u0, u1, got, want)
		}
		data, err := c.translateUnits(b, u0, u1)
		mustOK(t, err)
		if len(data) > got {
			t.Fatalf("units [%d,%d): %d wire bytes exceed bound %d", u0, u1, len(data), got)
		}
	}
}

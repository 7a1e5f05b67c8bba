package types

import (
	"runtime"
	"strconv"
	"testing"

	"interweave/internal/arch"
)

// bombs are descriptors whose units far outnumber their bytes: arrays
// of an irregular struct, and a struct DAG whose every level holds the
// one below twice.
func bombs(t testing.TB) []*Type {
	t.Helper()
	must := func(typ *Type, err error) *Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return typ
	}
	is := must(StructOf("is", Field{"i", Int32()}, Field{"s", must(StringOf(4))}))
	dag := is
	for k := 1; k <= 20; k++ {
		dag = must(StructOf("s"+strconv.Itoa(k), Field{"a", dag}, Field{"b", dag}))
	}
	return []*Type{must(ArrayOf(is, 1<<20)), must(ArrayOf(is, 1<<21)), dag}
}

// FuzzLayout decodes arbitrary descriptor bytes and lays out what
// decodes, as a wire layout and on every profile: it never panics,
// allocates in proportion to the descriptor's bytes, not its units,
// and for types of at most 4096 units places every unit, and walks
// every range of a short block, where the flat reference does.
func FuzzLayout(f *testing.F) {
	for _, typ := range append(bombs(f), Int32()) {
		b, err := Marshal(typ)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, err := Unmarshal(data)
		if err != nil {
			return
		}
		layouts := make([]*Layout, 0, 6)
		l, err := WireOf(typ)
		if err != nil {
			t.Fatalf("WireOf refused a decoded descriptor: %v", err)
		}
		layouts = append(layouts, l)
		for _, p := range arch.Profiles() {
			l, err := Of(typ, p)
			if err != nil {
				t.Fatalf("Of(%v) refused a decoded descriptor: %v", p, err)
			}
			layouts = append(layouts, l)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 2048*uint64(len(data))+256<<10 {
			t.Fatalf("%d descriptor bytes allocated %d bytes", len(data), n)
		}
		if typ.PrimCount() > 4096 {
			return
		}
		for _, got := range layouts {
			want, err := refOf(typ, got.Prof, true)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < got.PrimCount; u++ {
				if g, w := unitOf(got, u), refUnitOf(want, u); g != w {
					t.Fatalf("%v unit %d: %+v, reference %+v", got.Prof, u, g, w)
				}
			}
			units := 3 * got.PrimCount
			for _, r := range [][2]int{{0, units}, {1, units - 1}, {got.PrimCount / 2, 2*got.PrimCount + 1}} {
				var g, w []unitAt
				var it UnitIter
				for it.Seek(got, r[0], r[1]); it.Next(); {
					for j := 0; j < it.N; j++ {
						g = append(g, unitAt{it.Step.Kind, it.Step.Cap, it.Off + j*it.Step.ByteStride})
					}
				}
				refForUnits(want, r[0], r[1], func(k Kind, strCap, absByte, n, stride int) {
					for j := 0; j < n; j++ {
						w = append(w, unitAt{k, strCap, absByte + j*stride})
					}
				})
				if len(g) != len(w) {
					t.Fatalf("%v: Seek(%d,%d) yields %d units, reference %d", got.Prof, r[0], r[1], len(g), len(w))
				}
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("%v: Seek(%d,%d) unit %d = %+v, reference %+v", got.Prof, r[0], r[1], r[0]+j, g[j], w[j])
					}
				}
			}
		}
	})
}

package diff

// Collection through a reused run buffer. CollectSegment translates
// run data into the buffer CollectOptions.RunBuf names and hands it
// back for the next collection; without one it collects into fresh
// memory. For all five machine profiles and the nine data mixes of
// Figure 4, a collection through a buffer reused across collections
// must encode exactly what a fresh collection encodes, a warm bulk
// collection must not allocate per run, and pointer cells whose MIPs
// outgrow the size estimate must still arrive intact.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// fig4Mix is one of Figure 4's data mixes.
type fig4Mix struct {
	name     string
	typ      *types.Type
	pointers bool
}

// fig4Mixes returns the nine mixes of Figure 4.
func fig4Mixes(t testing.TB) []fig4Mix {
	t.Helper()
	must := func(typ *types.Type, err error) *types.Type {
		t.Helper()
		mustOK(t, err)
		return typ
	}
	structOfN := func(name string, elem *types.Type, n int) *types.Type {
		fields := make([]types.Field, n)
		for i := range fields {
			fields[i] = types.Field{Name: fmt.Sprint("f", i), Type: elem}
		}
		return must(types.StructOf(name, fields...))
	}
	s256 := must(types.StringOf(256))
	s4 := must(types.StringOf(4))
	ptr := must(types.PointerTo(types.Int32()))
	return []fig4Mix{
		{name: "int_array", typ: types.Int32()},
		{name: "double_array", typ: types.Float64()},
		{name: "int_struct", typ: structOfN("int_struct", types.Int32(), 32)},
		{name: "double_struct", typ: structOfN("double_struct", types.Float64(), 32)},
		{name: "string", typ: s256},
		{name: "small_string", typ: s4},
		{name: "pointer", typ: ptr, pointers: true},
		{name: "int_double", typ: must(types.StructOf("int_double",
			types.Field{Name: "i", Type: types.Int32()},
			types.Field{Name: "d", Type: types.Float64()}))},
		{name: "mix", typ: must(types.StructOf("mix",
			types.Field{Name: "i", Type: types.Int32()},
			types.Field{Name: "d", Type: types.Float64()},
			types.Field{Name: "s", Type: s256},
			types.Field{Name: "t", Type: s4},
			types.Field{Name: "p", Type: ptr})), pointers: true},
	}
}

// fillUnits stores a value derived from seed into every unit of the
// elements of b whose index is a multiple of every; pointer cells aim
// into targets.
func fillUnits(t testing.TB, heap *mem.Heap, b, targets *mem.Block, every, seed int) {
	t.Helper()
	l := b.Layout
	var it types.UnitIter
	for e := 0; e < b.Count; e += every {
		p := 0 // the unit within element e
		for it.Seek(l, e*l.PrimCount, (e+1)*l.PrimCount); it.Next(); {
			s := it.Step
			for i := 0; i < it.N; i, p = i+1, p+1 {
				a := b.Addr + mem.Addr(it.Off+i*s.ByteStride)
				v := seed*7919 + e*31 + p
				var err error
				switch s.Kind {
				case types.KindChar:
					err = heap.WriteU8(a, byte(v))
				case types.KindInt16:
					err = heap.WriteI16(a, int16(v))
				case types.KindInt32:
					err = heap.WriteI32(a, int32(v))
				case types.KindFloat32:
					err = heap.WriteF32(a, float32(v)/3)
				case types.KindInt64:
					err = heap.WriteI64(a, int64(v)<<20)
				case types.KindFloat64:
					err = heap.WriteF64(a, float64(v)/7)
				case types.KindString:
					str := strings.Repeat(string(rune('a'+v%26)), 1+v%(s.Cap-1))
					err = heap.WriteCString(a, s.Cap, str)
				case types.KindPointer:
					err = heap.WritePtr(a, targets.Addr+mem.Addr(4*(v%targets.Count)))
				default:
					t.Fatalf("unexpected kind %v", s.Kind)
				}
				mustOK(t, err)
			}
		}
	}
}

// mixRig is one writer's segment of a Figure 4 mix: a multi-page
// block, a few one-element blocks, and pointer targets when the mix
// has pointers.
type mixRig struct {
	c       *client
	blocks  []*mem.Block
	targets *mem.Block
}

func newMixRig(t testing.TB, prof *arch.Profile, mix fig4Mix, name string, count, singles int) *mixRig {
	t.Helper()
	r := &mixRig{c: newClient(t, prof, name)}
	if mix.pointers {
		r.targets = r.c.alloc(t, types.Int32(), 2, 97, "targets")
	}
	r.blocks = append(r.blocks, r.c.alloc(t, mix.typ, 1, count, "data"))
	for i := 0; i < singles; i++ {
		r.blocks = append(r.blocks, r.c.alloc(t, mix.typ, 1, 1, ""))
	}
	r.fill(t, 1, 0)
	return r
}

// fill rewrites every element of every block whose index is a
// multiple of every.
func (r *mixRig) fill(t testing.TB, every, seed int) {
	t.Helper()
	for _, b := range r.blocks {
		fillUnits(t, r.c.heap, b, r.targets, every, seed)
	}
}

// pending returns the blocks not yet collected.
func (r *mixRig) pending() []*mem.Block {
	var out []*mem.Block
	r.c.seg.Blocks(func(b *mem.Block) bool {
		if b.Pending {
			out = append(out, b)
		}
		return true
	})
	return out
}

// checkUniqueBlocks requires each block to appear once in d.
func checkUniqueBlocks(t *testing.T, d *wire.SegmentDiff) {
	t.Helper()
	seen := make(map[uint32]bool)
	for _, bd := range d.Blocks {
		if seen[bd.Serial] {
			t.Fatalf("block %d appears twice in the diff", bd.Serial)
		}
		seen[bd.Serial] = true
	}
}

// TestCollectRunBufMatchesFresh holds a collection through one reused
// run buffer to a fresh collection of the same state, byte for byte,
// over three consecutive write sections — the first creating the
// blocks — each collected in diff and in no-diff mode.
func TestCollectRunBufMatchesFresh(t *testing.T) {
	for _, prof := range arch.Profiles() {
		for _, mix := range fig4Mixes(t) {
			t.Run(prof.Name+"/"+mix.name, func(t *testing.T) {
				l, err := types.Of(mix.typ, prof)
				mustOK(t, err)
				r := newMixRig(t, prof, mix, "h/rb", max(1, 3*arch.PageSize/l.Size), 3)
				var buf RunBuf
				for round := 0; round < 3; round++ {
					if round > 0 {
						r.c.seg.WriteProtect()
						r.fill(t, 1+round, round)
					}
					for _, noDiff := range []bool{false, true} {
						pending := r.pending()
						opts := CollectOptions{Version: uint32(round + 1), NoDiff: noDiff, SpliceWords: -1, Swizzle: r.c.swizzler()}
						fresh, err := CollectSegment(r.c.seg, opts)
						mustOK(t, err)
						for _, b := range pending {
							b.Pending = true
						}
						opts.RunBuf = &buf
						reused, err := CollectSegment(r.c.seg, opts)
						mustOK(t, err)
						checkUniqueBlocks(t, reused)
						if got, want := reused.Marshal(nil), fresh.Marshal(nil); !bytes.Equal(got, want) {
							t.Fatalf("round %d noDiff=%v: reused-buffer diff differs from a fresh one (%d vs %d bytes)", round, noDiff, len(got), len(want))
						}
						for _, b := range pending {
							b.Pending = true
						}
					}
					for _, b := range r.pending() {
						b.Pending = false
					}
					r.c.seg.DropTwins()
					r.c.seg.Unprotect()
				}
			})
		}
	}
}

// TestCollectRunBufWarmAllocs requires a warm no-diff collection of
// many blocks to allocate far less than once per run: the run data
// goes into the reused buffer and the run headers share one slice.
// MIP strings are memoized so only the collector's allocations count.
func TestCollectRunBufWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, prof := range arch.Profiles() {
		for _, mix := range fig4Mixes(t) {
			t.Run(prof.Name+"/"+mix.name, func(t *testing.T) {
				r := newMixRig(t, prof, mix, "h/wa", 1, 255)
				mips := make(map[mem.Addr]string)
				swz := r.c.swizzler()
				opts := CollectOptions{NoDiff: true, Swizzle: func(a mem.Addr) (string, error) {
					if s, ok := mips[a]; ok {
						return s, nil
					}
					s, err := swz(a)
					mips[a] = s
					return s, err
				}}
				var buf RunBuf
				opts.RunBuf = &buf
				d, err := CollectSegment(r.c.seg, opts)
				mustOK(t, err)
				runs := countRuns(d)
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := CollectSegment(r.c.seg, opts); err != nil {
						t.Fatal(err)
					}
				})
				if allocs*8 > float64(runs) {
					t.Errorf("%v allocations per warm collection of %d runs, want at most one per 8 runs", allocs, runs)
				}
			})
		}
	}
}

// TestCollectRunBufLongMIPs moves pointers whose MIPs are several
// times types.MIPSizeEstimate through a reused buffer: the creating
// collection outgrows the chunk sized by the estimate and moves the
// run to a buffer of its own, which later collections reuse. Every
// diff applies to the same pointer targets on another machine.
func TestCollectRunBufLongMIPs(t *testing.T) {
	name := "h/" + strings.Repeat("long-segment-name/", 20)
	for _, mix := range fig4Mixes(t) {
		if !mix.pointers {
			continue
		}
		t.Run(mix.name, func(t *testing.T) {
			r := newMixRig(t, arch.AMD64(), mix, name, 64, 2)
			dst := newClient(t, arch.Sparc(), name)
			buf := RunBuf{data: make([]byte, 0, 16)}
			var warm int
			// Round 0 creates the blocks, round 1 rewrites every
			// element, round 2 sends the same whole blocks again.
			for round := 0; round < 3; round++ {
				if round == 1 {
					r.fill(t, 1, round)
				}
				d, _ := transfer(t, r.c, dst, CollectOptions{Version: uint32(round + 1), NoDiff: true, RunBuf: &buf})
				checkUniqueBlocks(t, d)
				for _, b := range r.blocks {
					run := d.Blocks[blockIndex(t, d, b.Serial)].Runs[0]
					if bound := wireSizeBound(b.Layout, 0, b.PrimCount()); len(run.Data) <= bound {
						t.Fatalf("round %d block %d: run of %d bytes fits its bound %d; the MIPs are too short to spill", round, b.Serial, len(run.Data), bound)
					}
				}
				if round == 2 && buf.Cap() != warm {
					t.Errorf("collecting the same blocks again grew the buffer from %d to %d bytes", warm, buf.Cap())
				}
				warm = buf.Cap()
				checkPointers(t, r, dst)
			}
		})
	}
}

// blockIndex returns the index of the block with the given serial.
func blockIndex(t *testing.T, d *wire.SegmentDiff, serial uint32) int {
	t.Helper()
	for i, bd := range d.Blocks {
		if bd.Serial == serial {
			return i
		}
	}
	t.Fatalf("block %d not in the diff", serial)
	return -1
}

// checkPointers requires every pointer cell of dst to aim at the
// target element the writer's does.
func checkPointers(t *testing.T, r *mixRig, dst *client) {
	t.Helper()
	dt, ok := dst.seg.BlockByName("targets")
	if !ok {
		t.Fatal("targets block missing at the reader")
	}
	for _, b := range r.blocks {
		db, ok := dst.seg.BlockBySerial(b.Serial)
		if !ok {
			t.Fatalf("block %d missing at the reader", b.Serial)
		}
		var it, dit types.UnitIter
		for u := 0; u < b.PrimCount(); u++ {
			it.Seek(b.Layout, u, u+1)
			dit.Seek(db.Layout, u, u+1)
			if it.Next(); it.Step.Kind != types.KindPointer {
				continue
			}
			dit.Next()
			p, err := r.c.heap.ReadPtr(b.Addr + mem.Addr(it.Off))
			mustOK(t, err)
			q, err := dst.heap.ReadPtr(db.Addr + mem.Addr(dit.Off))
			mustOK(t, err)
			if p-r.targets.Addr != q-dt.Addr {
				t.Fatalf("block %d unit %d: reader aims at target offset %d, writer at %d", b.Serial, u, q-dt.Addr, p-r.targets.Addr)
			}
		}
	}
}

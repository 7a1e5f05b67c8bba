package main

import (
	"encoding/binary"
	"fmt"

	"interweave/internal/mem"
	"interweave/internal/types"
)

// Segment shapes. The hetero workloads share one segment of the
// paper's Figure 4 "mix" records — int32, float64, string[256],
// string[4], pointer — plus the int32 block the pointers aim into;
// the session-scale workloads use plain int32 arrays.

const (
	blockData    = "data"
	blockTargets = "targets"
	// strLen is how many characters the workloads store in the 256-byte
	// string field.
	strLen = 200
)

var (
	mixType = mustType(func() (*types.Type, error) {
		s256, err := types.StringOf(256)
		if err != nil {
			return nil, err
		}
		s4, err := types.StringOf(4)
		if err != nil {
			return nil, err
		}
		p, err := types.PointerTo(types.Int32())
		if err != nil {
			return nil, err
		}
		return types.StructOf("mix",
			types.Field{Name: "i", Type: types.Int32()},
			types.Field{Name: "d", Type: types.Float64()},
			types.Field{Name: "s", Type: s256},
			types.Field{Name: "t", Type: s4},
			types.Field{Name: "p", Type: p},
		)
	})
	// alphabet is sliced at a rotating offset to make string values
	// without formatting: patterns[k] is strLen letters starting at
	// letter k, NUL-terminated.
	patterns = func() [26][]byte {
		var out [26][]byte
		for k := range out {
			b := make([]byte, strLen+1)
			for j := 0; j < strLen; j++ {
				b[j] = 'a' + byte((k+j)%26)
			}
			out[k] = b
		}
		return out
	}()
)

func mustType(f func() (*types.Type, error)) *types.Type {
	t, err := f()
	if err != nil {
		panic(err)
	}
	return t
}

// image is one copy of a workload segment in one heap — the live
// writer's, the live reader's, or a replay copy — with the addresses
// and field offsets of that heap's architecture profile.
type image struct {
	heap    *mem.Heap
	data    *mem.Block
	targets *mem.Block // nil for int32-array segments

	offI, offD, offS, offT, offP mem.Addr
}

// imageOf locates the workload blocks in a cached or local segment.
func imageOf(seg *mem.SegMem) (*image, error) {
	im := &image{heap: seg.Heap()}
	var ok bool
	if im.data, ok = seg.BlockByName(blockData); !ok {
		return nil, fmt.Errorf("segment %q has no %q block", seg.Name(), blockData)
	}
	if im.targets, ok = seg.BlockByName(blockTargets); !ok {
		return im, nil
	}
	for _, f := range []struct {
		name string
		off  *mem.Addr
	}{{"i", &im.offI}, {"d", &im.offD}, {"s", &im.offS}, {"t", &im.offT}, {"p", &im.offP}} {
		loc, ok := im.data.Layout.Field(f.name)
		if !ok {
			return nil, fmt.Errorf("mix layout lacks field %q", f.name)
		}
		*f.off = mem.Addr(loc.ByteOff)
	}
	return im, nil
}

func (im *image) rec(e int) mem.Addr {
	return im.data.Addr + mem.Addr(e*im.data.Layout.Size)
}

// mixSum is the checksum of a mix segment, split so that a sparse
// round, which only changes scalars, can maintain it incrementally.
type mixSum struct {
	scalars uint64 // over the i and d fields
	rest    uint64 // over the s, t and p fields
}

func termI(v int32) uint64   { return uint64(int64(v)) * 1000003 }
func termD(v float64) uint64 { return uint64(int64(v*2)) * 998244353 }

// hashBytes hashes the bytes of a C string cell up to its NUL, eight
// at a time.
func hashBytes(cell []byte) uint64 {
	n := 0
	for n < len(cell) && cell[n] != 0 {
		n++
	}
	var h uint64 = uint64(n)
	b := cell[:n]
	for len(b) >= 8 {
		h = h*31 + binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	for _, c := range b {
		h = h*31 + uint64(c)
	}
	return h
}

func termRest(s, t []byte, target int) uint64 {
	return hashBytes(s)*7 + hashBytes(t)*13 + uint64(target)*17
}

// bulkValues are the field values record e holds after bulk round n.
func bulkValues(e int, n int64, records int) (i int32, d float64, s, t []byte, target int) {
	i = int32(int64(e)*2 + n + 1)
	d = float64(e) + float64(n)*0.5
	s = patterns[(int64(e)+n)%26]
	t = patterns[(int64(e)+n*7)%26][strLen-3:] // three letters and the NUL
	target = int((int64(e) + n) % int64(records+1))
	return
}

// writeBulk rewrites every field of every record and returns the
// resulting checksum and the local bytes stored.
func (im *image) writeBulk(n int64) (mixSum, int, error) {
	var sum mixSum
	h := im.heap
	records := im.data.Count
	for e := 0; e < records; e++ {
		a := im.rec(e)
		i, d, s, t, target := bulkValues(e, n, records)
		if err := h.WriteI32(a+im.offI, i); err != nil {
			return sum, 0, err
		}
		if err := h.WriteF64(a+im.offD, d); err != nil {
			return sum, 0, err
		}
		if err := h.Write(a+im.offS, s); err != nil {
			return sum, 0, err
		}
		if err := h.Write(a+im.offT, t); err != nil {
			return sum, 0, err
		}
		if err := h.WritePtr(a+im.offP, im.targets.Addr+mem.Addr(4*target)); err != nil {
			return sum, 0, err
		}
		sum.scalars += termI(i) + termD(d)
		sum.rest += termRest(s, t, target)
	}
	return sum, im.data.Size(), nil
}

// writeSparse changes one scalar field — chosen, with the record
// offset, by pick — in every fourth record, adjusting sum in place. It
// returns the local bytes stored.
func (im *image) writeSparse(n int64, pick uint64, sum *mixSum) (int, error) {
	h := im.heap
	off, useD := int(pick%4), pick&4 != 0
	bytes := 0
	for e := off; e < im.data.Count; e += 4 {
		a := im.rec(e)
		if useD {
			old, err := h.ReadF64(a + im.offD)
			if err != nil {
				return 0, err
			}
			v := float64(e) + float64(n)*0.5
			if err := h.WriteF64(a+im.offD, v); err != nil {
				return 0, err
			}
			sum.scalars += termD(v) - termD(old)
			bytes += 8
		} else {
			old, err := h.ReadI32(a + im.offI)
			if err != nil {
				return 0, err
			}
			v := int32(int64(e)*2 + n + 1)
			if err := h.WriteI32(a+im.offI, v); err != nil {
				return 0, err
			}
			sum.scalars += termI(v) - termI(old)
			bytes += 4
		}
	}
	return bytes, nil
}

// checksum reads the segment back through the image's own heap — on
// the reader, that is after translation into its architecture.
// Without full, only the scalar fields are read.
func (im *image) checksum(full bool) (mixSum, error) {
	var sum mixSum
	h := im.heap
	for e := 0; e < im.data.Count; e++ {
		a := im.rec(e)
		i, err := h.ReadI32(a + im.offI)
		if err != nil {
			return sum, err
		}
		d, err := h.ReadF64(a + im.offD)
		if err != nil {
			return sum, err
		}
		sum.scalars += termI(i) + termD(d)
		if !full {
			continue
		}
		s, err := h.View(a+im.offS, 256)
		if err != nil {
			return sum, err
		}
		t, err := h.View(a+im.offT, 4)
		if err != nil {
			return sum, err
		}
		p, err := h.ReadPtr(a + im.offP)
		if err != nil {
			return sum, err
		}
		if p < im.targets.Addr || p >= im.targets.End() {
			return sum, fmt.Errorf("record %d: pointer %#x outside the targets block", e, uint64(p))
		}
		sum.rest += termRest(s, t, int(p-im.targets.Addr)/4)
	}
	return sum, nil
}

// pointerAddrs returns the pointer values a round touching every
// stride-th record carries — the addresses the swizzle replay converts.
// Int32 segments hold no pointers; their words' own addresses stand in.
func (im *image) pointerAddrs(stride int) ([]mem.Addr, error) {
	var out []mem.Addr
	if im.targets == nil {
		for w := 0; w < im.data.Count; w += stride {
			out = append(out, im.data.Addr+mem.Addr(4*w))
		}
		return out, nil
	}
	for e := 0; e < im.data.Count; e += stride {
		p, err := im.heap.ReadPtr(im.rec(e) + im.offP)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Int32-array segments.

// wordPositions returns the k distinct word indexes commit n changes.
func wordPositions(pick uint64, k, words int) []int {
	out := make([]int, k)
	stride := words / k
	base := int(pick % uint64(stride))
	for j := range out {
		out[j] = j*stride + base
	}
	return out
}

// writeWords stores value into the given words.
func (im *image) writeWords(pos []int, value int32) error {
	for _, w := range pos {
		if err := im.heap.WriteI32(im.data.Addr+mem.Addr(4*w), value); err != nil {
			return err
		}
	}
	return nil
}

// readWords copies the array out through the image's heap.
func (im *image) readWords(dst []int32) error {
	for w := range dst {
		v, err := im.heap.ReadI32(im.data.Addr + mem.Addr(4*w))
		if err != nil {
			return err
		}
		dst[w] = v
	}
	return nil
}

// mix64 is splitmix64: the per-round choices (which records, which
// field, which words) come from the seed and the round number alone,
// so the live writer and the replay make identical stores.
func mix64(seed int64, n int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

package types

import (
	"math/rand"
	"testing"

	"interweave/internal/arch"
)

// primSpanRef is the brute-force reference: the unit range whose byte
// extents intersect [b0, b1).
func primSpanRef(l *Layout, b0, b1 int) (int, int, bool) {
	if b0 < 0 {
		b0 = 0
	}
	if b1 > l.Size {
		b1 = l.Size
	}
	if b0 >= b1 {
		return 0, 0, false
	}
	first, last := -1, -1
	for _, s := range flatWalk(l, true) {
		for i := 0; i < s.Count; i++ {
			start := s.ByteOff + i*s.ByteStride
			end := start + s.Size
			if start < b1 && b0 < end {
				u := s.PrimOff + i
				if first < 0 {
					first = u
				}
				last = u
			}
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	return first, last + 1, true
}

// TestPrimSpanAgainstBruteForce compares PrimSpan with the reference
// over every byte range of several tricky layouts, and random ranges
// of random layouts.
func TestPrimSpanAgainstBruteForce(t *testing.T) {
	tricky := []*Type{
		mustStruct(t, "cd", Field{"c", Char()}, Field{"d", Float64()}),
		mustStruct(t, "padded",
			Field{"a", Char()},
			Field{"b", Int16()},
			Field{"c", Char()},
			Field{"d", Int64()},
			Field{"e", Char()},
		),
		mustArray(t, mustStruct(t, "ix", Field{"i", Int32()}, Field{"x", Char()}), 5),
		mustStruct(t, "strs",
			Field{"s", mustString(t, 7)},
			Field{"i", Int64()},
			Field{"t", mustString(t, 3)},
		),
	}
	for _, typ := range tricky {
		for _, p := range arch.Profiles() {
			l, err := Of(typ, p)
			if err != nil {
				t.Fatal(err)
			}
			for b0 := 0; b0 <= l.Size; b0++ {
				for b1 := b0; b1 <= l.Size; b1++ {
					g0, g1, gok := l.PrimSpan(b0, b1)
					w0, w1, wok := primSpanRef(l, b0, b1)
					if gok != wok || (gok && (g0 != w0 || g1 != w1)) {
						t.Fatalf("%v/%v PrimSpan(%d,%d) = %d,%d,%v; want %d,%d,%v",
							typ, p, b0, b1, g0, g1, gok, w0, w1, wok)
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		typ := randomType(t, rng, 2)
		for _, p := range arch.Profiles() {
			l, err := Of(typ, p)
			if err != nil {
				t.Fatal(err)
			}
			for probe := 0; probe < 200; probe++ {
				b0 := rng.Intn(l.Size + 1)
				b1 := b0 + rng.Intn(l.Size+1-b0)
				g0, g1, gok := l.PrimSpan(b0, b1)
				w0, w1, wok := primSpanRef(l, b0, b1)
				if gok != wok || (gok && (g0 != w0 || g1 != w1)) {
					t.Fatalf("trial %d %v/%v PrimSpan(%d,%d) = %d,%d,%v; want %d,%d,%v",
						trial, typ, p, b0, b1, g0, g1, gok, w0, w1, wok)
				}
			}
		}
	}
}

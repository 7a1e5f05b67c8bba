package server

import (
	"testing"

	"interweave/internal/arch"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// BenchmarkApplySparse applies a sparse release to a segment holding
// 1 MB of Figure 4's mix records on an x86 client: the int32 field of
// every fourth record, about 950 one-unit runs, as a hetero_sparse
// round of the benchmark commits.
func BenchmarkApplySparse(b *testing.B) {
	var mix goldenMix
	for _, m := range goldenMixes(b) {
		if m.units == "idstp" {
			mix = m
		}
	}
	desc, err := types.Marshal(mix.typ)
	if err != nil {
		b.Fatal(err)
	}
	l, err := types.Of(mix.typ, arch.X86())
	if err != nil {
		b.Fatal(err)
	}
	records := (1 << 20) / l.Size
	units := records * len(mix.units)
	s := NewSegment("h/sparse")
	if _, _, err := s.ApplyDiff(&wire.SegmentDiff{
		Descs:  []wire.DescDef{{Serial: 1, Bytes: desc}},
		News:   []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: uint32(records), Name: "data"}},
		Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Count: uint32(units), Data: goldenUnits(mix, 1, 0, units)}}}},
	}); err != nil {
		b.Fatal(err)
	}
	var runs []wire.Run
	for e := 1; e < records; e += 4 {
		u := uint32(e * len(mix.units))
		runs = append(runs, wire.Run{Start: u, Count: 1, Data: wire.AppendU32(nil, u*7)})
	}
	d := &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 1, Runs: runs}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ApplyDiff(d); err != nil {
			b.Fatal(err)
		}
	}
}

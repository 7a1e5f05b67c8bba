package interweave_test

// Benchmarks regenerating the data behind every figure of the paper's
// evaluation (Section 4), plus ablations for the optimizations of
// Section 3.3. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/iwfigures prints the same measurements as formatted tables, and
// EXPERIMENTS.md records the measured shapes against the paper's.

import (
	"fmt"
	"strings"
	"testing"

	"interweave/internal/bench"
	"interweave/internal/seqmine"
)

// BenchmarkFig4 covers the 45 cells of Figure 4: nine 1 MB data mixes
// by five translation operations.
func BenchmarkFig4(b *testing.B) {
	for _, mix := range bench.Fig4MixNames() {
		for _, op := range bench.Fig4Ops {
			b.Run(mix+"/"+op, func(b *testing.B) {
				bench.BenchFig4(b, mix, op)
			})
		}
	}
}

// BenchmarkFig5 sweeps the modification ratio of Figure 5 for the
// client's diff collection (the full six-curve sweep is printed by
// `iwfigures fig5`).
func BenchmarkFig5(b *testing.B) {
	for _, ratio := range bench.Fig5Ratios() {
		b.Run(fmt.Sprintf("ratio%d", ratio), func(b *testing.B) {
			bench.BenchFig5(b, ratio)
		})
	}
}

// BenchmarkFig6 measures pointer swizzling against target segments of
// growing block counts.
func BenchmarkFig6(b *testing.B) {
	for _, n := range bench.Fig6CrossSizes() {
		b.Run(fmt.Sprintf("cross%d", n), func(b *testing.B) {
			bench.BenchFig6(b, n)
		})
	}
}

// BenchmarkFig7 runs the whole datamining bandwidth experiment once
// per iteration on a reduced database, reporting the bandwidth of
// each configuration as metrics.
func BenchmarkFig7(b *testing.B) {
	db := seqmine.SmallConfig()
	db.Customers = 4000
	cfg := bench.Fig7Config{DB: db, Updates: 8, MinSupport: 10}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				unit := strings.ReplaceAll(r.Config, " ", "-") + "-bytes"
				b.ReportMetric(float64(r.Bytes), unit)
			}
		}
	}
}

// Ablations: each optimization of Section 3.3 on and off.

func BenchmarkAblationSplicing(b *testing.B) {
	b.Run("on", func(b *testing.B) { bench.AblationSplicing(b, 0) })
	b.Run("off", func(b *testing.B) { bench.AblationSplicing(b, -1) })
}

func BenchmarkAblationLastBlockPrediction(b *testing.B) {
	b.Run("on", func(b *testing.B) { bench.AblationPrediction(b, false) })
	b.Run("off", func(b *testing.B) { bench.AblationPrediction(b, true) })
}

func BenchmarkAblationIsomorphicDescriptors(b *testing.B) {
	b.Run("on", func(b *testing.B) { bench.AblationIsomorphic(b, true) })
	b.Run("off", func(b *testing.B) { bench.AblationIsomorphic(b, false) })
}

func BenchmarkAblationDiffCache(b *testing.B) {
	b.Run("on", func(b *testing.B) { bench.AblationDiffCache(b, 8) })
	b.Run("off", func(b *testing.B) { bench.AblationDiffCache(b, 0) })
}

// BenchmarkAblationNoDiffMode is Figure 4's collect_block vs
// collect_diff comparison isolated on the int_array mix: the paper's
// justification for no-diff mode.
func BenchmarkAblationNoDiffMode(b *testing.B) {
	b.Run("nodiff", func(b *testing.B) { bench.BenchFig4(b, "int_array", "collect_block") })
	b.Run("diffing", func(b *testing.B) { bench.BenchFig4(b, "int_array", "collect_diff") })
}

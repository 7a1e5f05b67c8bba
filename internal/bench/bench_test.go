package bench

import (
	"testing"

	"interweave/internal/seqmine"
)

func TestFig4ShapeAndCorrectness(t *testing.T) {
	rows, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Bytes < megabyte/2 {
			t.Errorf("%s: only %d bytes of data", r.Name, r.Bytes)
		}
		if r.RPCXDR <= 0 || r.CollectBlock <= 0 || r.CollectDiff <= 0 ||
			r.ApplyBlock <= 0 || r.ApplyDiff <= 0 {
			t.Errorf("%s: non-positive timing: %+v", r.Name, r)
		}
		if r.WireBytes == 0 {
			t.Errorf("%s: empty wire transmission", r.Name)
		}
	}
	for _, want := range []string{"int_array", "double_array", "int_struct", "double_struct",
		"string", "small_string", "pointer", "int_double", "mix"} {
		if !names[want] {
			t.Errorf("missing mix %q", want)
		}
	}
}

func TestFig5ShapeAndCorrectness(t *testing.T) {
	rows, err := Fig5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig5Ratios()) {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.Ratio != 1 || last.Ratio != 16384 {
		t.Errorf("ratio endpoints %d..%d", first.Ratio, last.Ratio)
	}
	// The headline property: diff size scales down with the fraction
	// modified.
	if first.WireBytes < megabyte {
		t.Errorf("ratio 1 transmits %d bytes, want ~1MB+", first.WireBytes)
	}
	if last.WireBytes > first.WireBytes/100 {
		t.Errorf("ratio 16384 transmits %d bytes vs %d at ratio 1", last.WireBytes, first.WireBytes)
	}
	for _, r := range rows {
		if r.ClientCollectDiff <= 0 || r.ServerApplyDiff <= 0 || r.ServerCollectDiff <= 0 || r.ClientApplyDiff <= 0 {
			t.Errorf("ratio %d: non-positive timing %+v", r.Ratio, r)
		}
		// The stats breakdown must account for the collect total.
		if r.ClientWordDiff+r.ClientTranslate > r.ClientCollectDiff*3/2+r.ClientCollectDiff {
			t.Errorf("ratio %d: breakdown exceeds total", r.Ratio)
		}
	}
}

func TestFig6ShapeAndCorrectness(t *testing.T) {
	rows, err := Fig6(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2+len(Fig6CrossSizes()) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Case != "int1" || rows[1].Case != "struct1" {
		t.Errorf("leading cases = %s,%s", rows[0].Case, rows[1].Case)
	}
	for _, r := range rows {
		if r.Collect <= 0 || r.Apply <= 0 {
			t.Errorf("%s: non-positive timing %+v", r.Case, r)
		}
		// The paper reports about a microsecond per swizzle even in
		// bad cases; allow two orders of magnitude of slack.
		if r.Collect.Microseconds() > 100 {
			t.Errorf("%s: collect %v per pointer is implausible", r.Case, r.Collect)
		}
	}
}

func TestFig7BandwidthOrdering(t *testing.T) {
	db := seqmine.SmallConfig()
	db.Customers = 4000
	cfg := Fig7Config{DB: db, Updates: 8, MinSupport: 10}
	rows, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Config] = r
		if r.Bytes <= 0 {
			t.Errorf("%s transferred %d bytes", r.Config, r.Bytes)
		}
	}
	full := byName["Full transfer"].Bytes
	diffOnly := byName["Diff-only"].Bytes
	d2 := byName["Delta-2"].Bytes
	d4 := byName["Delta-4"].Bytes
	// The figure's shape: wire-format diffs cut bandwidth massively
	// (the paper reports ~80%), and relaxing coherence cuts further.
	if diffOnly >= full/2 {
		t.Errorf("diffs do not pay: full=%d diff=%d", full, diffOnly)
	}
	if d2 >= diffOnly {
		t.Errorf("Delta-2 (%d) not below diff-only (%d)", d2, diffOnly)
	}
	if d4 >= d2 {
		t.Errorf("Delta-4 (%d) not below Delta-2 (%d)", d4, d2)
	}
	// Sync counts: diff-only syncs every update, Delta-2 about half.
	if byName["Diff-only"].Syncs < cfg.Updates {
		t.Errorf("diff-only synced %d times of %d", byName["Diff-only"].Syncs, cfg.Updates)
	}
	if s := byName["Delta-2"].Syncs; s > cfg.Updates/2+2 {
		t.Errorf("Delta-2 synced %d times of %d", s, cfg.Updates)
	}
}

func TestTRServerShape(t *testing.T) {
	// Timing shapes are asserted on per-cell minima over interleaved
	// repetitions, each after a GC: under `go test ./...` every package
	// competes for CPU, and a single contended measurement says nothing.
	rows, err := TRServer(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TRServerRow{}
	for _, r := range rows {
		if r.ServerApply <= 0 || r.ServerCollect <= 0 || r.ClientCollect <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Name, r)
		}
		byName[r.Name] = r
	}
	// The paper's claim: server costs are much lower than the
	// client's for fixed-size mixes (wire-format storage avoids
	// translation: the server copies each run's bytes in one piece).
	// Assert comparable-or-lower with slack for timing jitter on a
	// loaded machine. (int_double, whose client translation alternates
	// kinds every unit, is excluded from the strict check.)
	for _, name := range []string{"int_array", "double_array", "int_struct", "double_struct"} {
		r := byName[name]
		if r.ServerCollect > r.ClientCollect*2 {
			t.Errorf("%s: server collect %v well above client %v", name, r.ServerCollect, r.ClientCollect)
		}
	}
	// ...with pointer and small_string as the expensive exceptions
	// (variable-length items stored separately). They must be the
	// costliest server mixes.
	costly := byName["pointer"].ServerCollect + byName["small_string"].ServerCollect
	cheap := byName["int_array"].ServerCollect + byName["double_array"].ServerCollect
	if costly <= cheap {
		t.Errorf("varlen mixes (%v) not costlier than fixed mixes (%v)", costly, cheap)
	}
}

func TestHeteroMatrix(t *testing.T) {
	rows, err := Hetero(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows = %d, want 25 (5x5 profiles)", len(rows))
	}
	for _, r := range rows {
		if r.Collect <= 0 || r.Apply <= 0 {
			t.Errorf("%s->%s: non-positive timings %+v", r.Src, r.Dst, r)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesProgram keeps BENCHMARK.json and the program in step
// without running anything.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: malformed", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for metric := range spanMetrics {
		if !seen[metric] {
			t.Errorf("span metric %q is not declared in BENCHMARK.json", metric)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload proxy_read --seed 9 --seconds 2 --trace 0"))
	if err != nil || o.workload != "proxy_read" || o.seed != 9 || o.seconds != 2 || o.trace {
		t.Fatalf("--trace 0: %+v, %v", o, err)
	}
	o, err = parseFlags(strings.Fields("--trace 1 --workload proxy_read"))
	if err != nil || !o.trace || o.workload != "proxy_read" || o.seconds != 5 {
		t.Fatalf("--trace 1: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"-trace"}); err != nil || !o.trace {
		t.Fatalf("-trace: %+v, %v", o, err)
	}
}

// TestQuartiles pins the spread rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two values: %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
}

// TestSmoke runs every workload for one second, traced, and checks
// that every declared metric comes out exactly once with its unit,
// that no operation failed, and that the trace file is well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := &options{seed: 1, seconds: 1, outDir: t.TempDir(), scratch: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d: error_share must be 0", res.Attempted, res.Failed)
			}
			// An open-loop generator that ran late invalidates a run; on
			// a loaded test machine that is reported, not failed.
			if res.Invalid != "" {
				t.Logf("invalid run: %s", res.Invalid)
			}
			for traced, list := range map[bool][]metricSpec{false: sp.EndToEnd, true: sp.PerLayer} {
				var buf bytes.Buffer
				if err := printJSON(&buf, sp, res, traced); err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(&buf)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || len(line.Metrics) != len(list) {
					t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(line.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := line.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v, want a value in %s", m.Name, got, m.Unit)
						continue
					}
					if math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) || *got.Value < 0 {
						t.Errorf("metric %s = %g", m.Name, *got.Value)
					}
					if !traced && *got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			}
			// The human-readable report names each metric once too.
			var report bytes.Buffer
			if err := printResult(&report, sp, res, true); err != nil {
				t.Fatal(err)
			}
			for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
				if n := strings.Count(report.String(), "  "+m.Name+" "); n != 1 {
					t.Errorf("report prints %s %d times", m.Name, n)
				}
			}

			raw, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			ids := make(map[int32]bool, len(tf.Spans))
			for _, s := range tf.Spans {
				ids[s.ID] = true
			}
			for _, s := range tf.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) has no parent %d in the file", s.ID, s.Name, s.Parent)
				}
				if s.End < s.Start || !nameRe.MatchString(s.Name) {
					t.Fatalf("span %+v is malformed", s)
				}
			}
			if len(tf.Spans) == 0 || len(tf.Layers) == 0 {
				t.Error("trace file is empty")
			}
		})
	}
}

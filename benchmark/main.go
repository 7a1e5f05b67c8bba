// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: five workloads against in-process servers and proxies
// over real loopback TCP, every output checked, every metric printed
// by name with its unit. BENCHMARK.json at the repository root
// declares the workloads, metrics, units and regression bounds;
// README.md in this directory explains them.
//
// Run from the repository root:
//
//	bash benchmark/run.sh                        # all workloads, untraced, 20 s each
//	bash benchmark/run.sh -trace                 # traced run, 5 s each, writes out/trace-*.json
//	bash benchmark/run.sh -repeat 5              # 5 sets; medians, quartiles, spread vs bound
//	bash benchmark/run.sh --workload hetero_sparse --seed 7 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// options is the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	specPath string
	outDir   string
	scratch  string
}

func parseFlags(args []string) (*options, error) {
	// The driver passes "--trace 0|1"; a boolean flag would stop
	// parsing at the bare value, so it is joined to the flag first.
	args = append([]string(nil), args...)
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args[i] += "=" + args[i+1]
			args = append(args[:i+1], args[i+2:]...)
		}
	}
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with the result as one JSON line")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured window per workload (default 20, traced 5); scales all workloads equally")
	fs.BoolVar(&o.trace, "trace", false, "traced run: record spans, replay the hidden layers, print per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run this many full sets and report medians, quartiles and spread against the declared bounds")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	fs.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for journals written during a run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 {
		o.seconds = 20
		if o.trace {
			o.seconds = 5
		}
	}
	return o, nil
}

func run(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	selected := workloads
	if o.workload != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == o.workload {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
	}
	if o.repeat > 0 {
		return repeatSets(o, sp, selected)
	}

	ok := true
	var last *result
	for _, w := range selected {
		res, err := runWorkload(w, o, o.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if o.trace && o.workload == "" {
			// The overhead of tracing is the difference from an
			// untraced run of the same length and seed.
			plain, err := runWorkload(w, o, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			for _, m := range sp.EndToEnd {
				if m.Name != "setup_s" && plain.E2E[m.Name] != 0 {
					res.Diag["trace_overhead_share."+m.Name] = worseBy(m, plain.E2E[m.Name], res.E2E[m.Name])
				}
			}
		}
		if err := printResult(os.Stdout, sp, res, o.trace); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		ok = ok && res.correct()
		last = res
	}
	if o.workload != "" {
		if err := printJSON(os.Stdout, sp, last, o.trace); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if !ok {
		return 1
	}
	return 0
}

func (r *result) correct() bool { return r.Failed == 0 && r.Invalid == "" }

// setupsPerRun is how many times a run sets the workload up; setup_s
// is the median, and the last set-up is the one measured.
const setupsPerRun = 5

// Cold reads follow the window for coldBudget of wall time, at least
// minColdReads of them, from as many new clients at a time as the
// workload has issuers: alone on an idle process, a cold read of small
// segments is a chain of round trips that each wait for the kernel to
// wake an idle thread, and its time follows the machine's mood, not
// the code. A single cold read takes milliseconds and, as
// it allocates the whole segment, meets a garbage collection about
// every other time: the times fall in two clumps, and how many fall in
// the slow one changes from run to run with the collector's pacing.
// cold_read_s is therefore the lower quartile: what a cold read takes
// when no collection runs beside it. What collections cost shows in
// the window's metrics and in runtime.gc_pause_ms.
const (
	coldBudget   = 1500 * time.Millisecond
	minColdReads = 15
)

// runWorkload sets one workload up, measures it, and tears it down.
func runWorkload(w workload, o *options, traced bool) (res *result, err error) {
	ctx := &runCtx{seed: o.seed, seconds: o.seconds, scratch: o.scratch,
		tag: fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano())}
	setups := setupsPerRun
	if traced {
		ctx.tr = newTracer()
		setups = 1 // a traced run reports no set-up time
	}
	res = newResult(w.name)
	var b bench
	var took []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		t0 := time.Now()
		if b, err = w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			res, err = nil, fmt.Errorf("tear-down: %w", cerr)
		}
	}()
	res.E2E["setup_s"] = median(took)
	if err := b.measure(ctx, res); err != nil {
		return nil, err
	}
	took = took[:0]
	runtime.GC() // the window's garbage is not the cold reads' to collect
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < b.coldReaders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				enough := res.Failed > 0 || (len(took) >= minColdReads && time.Since(t0) >= coldBudget)
				mu.Unlock()
				if enough {
					return
				}
				d, err := b.coldRead(ctx)
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.Failed++
					fmt.Printf("# %s: cold read: %v\n", w.name, err)
				} else {
					took = append(took, d.Seconds())
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Float64s(took)
	res.E2E["cold_read_s"] = percentile(took, 0.25)
	res.Diag["cold_reads"] = float64(len(took))
	if traced {
		spans := ctx.tr.finished()
		fillSpanLayers(res, spans)
		// What share of the time spent in operations the writer-side
		// mem and diff layers account for.
		var us float64
		for _, m := range []string{"mem.write_us", "diff.collect_us", "diff.translate_us", "diff.apply_us"} {
			us += res.Layer[m]
		}
		res.Diag["mem_diff_share_of_op_time"] = us * float64(res.writes) / (float64(res.opTime) / 1e3)
		path, err := writeTrace(o.outDir, w.name, o.seed, o.seconds, spans)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %s: %d spans written to %s\n", w.name, len(spans), path)
	}
	return res, nil
}

// worseBy is how much worse v is than base, as a share of base, in the
// metric's own direction.
func worseBy(m metricSpec, base, v float64) float64 {
	if m.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// printResult prints one run's metrics, one per line, by name, with
// unit, direction and bound.
func printResult(w io.Writer, sp *spec, res *result, traced bool) error {
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, error_share %g, latency samples %d\n",
		res.Workload, res.Attempted, res.Failed, share, res.Samples)
	if res.Invalid != "" {
		fmt.Fprintf(w, "%s: INVALID RUN: %s\n", res.Workload, res.Invalid)
	}
	for _, m := range sp.EndToEnd {
		v, ok := res.E2E[m.Name]
		if !ok {
			return fmt.Errorf("no value for end-to-end metric %s", m.Name)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better, bound %g)\n", m.Name, v, m.Unit, m.Better, m.Bound)
	}
	if traced {
		for _, m := range sp.PerLayer {
			v, ok := res.Layer[m.Name]
			if !ok {
				return fmt.Errorf("no value for per-layer metric %s", m.Name)
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
		}
	}
	for _, k := range sortedKeys(res.Diag) {
		fmt.Fprintf(w, "  %-28s %14.6g        (diagnostic, not gated)\n", k, res.Diag[k])
	}
	return nil
}

// printJSON ends a --workload run with the contract's result line.
func printJSON(w io.Writer, sp *spec, res *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list, vals := sp.EndToEnd, res.E2E
	if traced {
		list, vals = sp.PerLayer, res.Layer
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("no value for metric %s", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// repeatSets runs N full sets back to back and reports, per metric and
// workload, the median and quartiles and the spread — the distance
// between the quartiles as a share of the median — against the
// declared bound (with fewer than four sets, the range as a share of
// the median). It fails when a spread exceeds its bound.
func repeatSets(o *options, sp *spec, selected []workload) int {
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	correct := true
	for set := 0; set < o.repeat; set++ {
		for _, w := range selected {
			so := *o
			so.seed = o.seed + int64(set)
			res, err := runWorkload(w, &so, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d: %s: %v\n", set+1, w.name, err)
				return 1
			}
			fmt.Printf("set %d seed %d ", set+1, so.seed)
			if err := printResult(os.Stdout, sp, res, false); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			correct = correct && res.correct()
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, m := range sp.EndToEnd {
				values[w.name][m.Name] = append(values[w.name][m.Name], res.E2E[m.Name])
			}
		}
	}
	fmt.Printf("\n%d sets, %g s per workload, seeds %d..%d\n", o.repeat, o.seconds, o.seed, o.seed+int64(o.repeat)-1)
	fmt.Printf("%-14s %-12s %-5s %12s %12s %12s %8s %6s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	within := true
	for _, w := range selected {
		for _, m := range sp.EndToEnd {
			vals := values[w.name][m.Name]
			q1, med, q3 := quartiles(vals)
			spread := (q3 - q1) / med
			if len(vals) < 4 {
				// Quartiles of two or three values are extrapolations;
				// the sets agree when their whole range is within bound.
				s := append([]float64(nil), vals...)
				sort.Float64s(s)
				spread = (s[len(s)-1] - s[0]) / med
			}
			mark := ""
			// Set-up time is gated on its median only; its spread is shown.
			if spread > m.Bound && m.Name != "setup_s" {
				mark = "  EXCEEDS BOUND"
				within = false
			}
			fmt.Printf("%-14s %-12s %-5s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", w.name, m.Name, m.Unit, q1, med, q3, spread, m.Bound, mark)
		}
	}
	if !correct || !within {
		return 1
	}
	return 0
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// rule the spread is judged by: the exclusive method.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

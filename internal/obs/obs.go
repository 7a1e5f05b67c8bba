// Package obs is InterWeave's dependency-free observability layer:
// atomic counters, gauges, and fixed-bucket histograms collected into
// a Registry that renders the Prometheus text exposition format, plus
// a structured trace hook for tests that need to assert *behaviour*
// (retries, degraded reads, release recovery) rather than numbers.
//
// The package exists because the paper's entire evaluation (Section
// 4) is about measuring the system — translation cost, diff
// collection/application time, bandwidth saved by diffing — and a
// deployed server needs those same numbers live. Every metric the
// client and server register maps to a paper figure or DESIGN.md
// section; OBSERVABILITY.md is the complete catalogue.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Instrumented code holds a nil *Registry
//     (or nil instrument struct) and skips everything behind one nil
//     check; no time.Now calls, no allocation.
//   - Cheap when enabled. Updates are single atomic adds; histograms
//     use a short fixed bucket ladder scanned linearly. Instrument
//     handles are created once at client/server construction, never
//     looked up on hot paths.
//   - Mergeable. Snapshots of every metric type support Merge, so
//     per-client or per-run snapshots can be aggregated by tests and
//     by multi-process harnesses.
//   - Stdlib only, like the rest of the repo.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations.
// Bucket bounds are inclusive upper bounds, Prometheus-style; an
// implicit +Inf bucket catches everything above the last bound. All
// updates are atomic; Observe never allocates.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// newHistogram builds a histogram with the given ascending bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the idiom for
// latency instrumentation sites.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Snapshot returns a consistent-enough copy for reporting: buckets
// are read individually, so a concurrent Observe may be visible in
// the count but not yet the sum. Merging and monotonicity are
// unaffected.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Bounds []float64 // inclusive upper bounds, ascending; +Inf implied
	Counts []uint64  // per-bucket (non-cumulative) counts, len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Merge adds other into s. The bucket layouts must match (all
// histograms in this repo use the shared ladders below).
func (s *HistSnapshot) Merge(other HistSnapshot) error {
	if len(s.Counts) != len(other.Counts) {
		return fmt.Errorf("obs: merging histograms with %d and %d buckets", len(s.Counts), len(other.Counts))
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Sum += other.Sum
	s.Count += other.Count
	return nil
}

// DurationBuckets is the shared latency ladder: powers of four from
// 1µs to ~4s (in seconds). Thirteen buckets cover everything from a
// cached lock grant to a WAN retry storm without per-metric tuning.
var DurationBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
	1, 4,
}

// SizeBuckets is the shared byte-size ladder: powers of four from
// 64 B to 64 MiB.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536,
	262144, 1048576, 4194304, 16777216, 67108864,
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered metric instance (family name + one label
// set).
type entry struct {
	family string
	help   string
	kind   metricKind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// key renders the instance identity used for get-or-create and for
// Snapshot map keys: name{k="v",...} with labels in registration
// order.
func instanceKey(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	k := family + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l.Key + `="` + l.Value + `"`
	}
	return k + "}"
}

// GaugeEmit receives one gauge sample from a CollectFunc.
type GaugeEmit func(name, help string, v float64, labels ...Label)

// CollectFunc is called at render time to contribute gauges computed
// on demand — per-segment state the server would otherwise have to
// keep continuously up to date.
type CollectFunc func(emit GaugeEmit)

// Registry holds named metrics and renders them. The zero value is
// not usable; call NewRegistry. A nil *Registry is the disabled
// state: instrumented packages must skip their obs calls when their
// registry is nil.
type Registry struct {
	mu         sync.Mutex
	entries    []*entry
	byKey      map[string]*entry
	collectors []CollectFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// Counter returns the counter registered under name+labels, creating
// it on first use. Help is recorded on creation and ignored after.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	e := r.getOrCreate(name, help, kindCounter, labels)
	return e.counter
}

// Gauge returns the gauge registered under name+labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	e := r.getOrCreate(name, help, kindGauge, labels)
	return e.gauge
}

// Histogram returns the histogram registered under name+labels,
// creating it with the given bucket bounds on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := instanceKey(name, labels)
	if e, ok := r.byKey[key]; ok {
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("obs: %s re-registered as a different kind", key))
		}
		return e.hist
	}
	e := &entry{family: name, help: help, kind: kindHistogram, labels: labels, hist: newHistogram(bounds)}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e.hist
}

func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := instanceKey(name, labels)
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as a different kind", key))
		}
		return e
	}
	e := &entry{family: name, help: help, kind: kind, labels: labels}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// RegisterCollector adds a render-time gauge source.
func (r *Registry) RegisterCollector(fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot is a point-in-time copy of every metric in a registry,
// keyed by name{label="v",...}. Collector-produced gauges are
// included under Gauges.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	collectors := make([]CollectFunc, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, e := range entries {
		key := instanceKey(e.family, e.labels)
		switch e.kind {
		case kindCounter:
			s.Counters[key] = e.counter.Value()
		case kindGauge:
			s.Gauges[key] = float64(e.gauge.Value())
		case kindHistogram:
			s.Histograms[key] = e.hist.Snapshot()
		}
	}
	for _, fn := range collectors {
		fn(func(name, help string, v float64, labels ...Label) {
			s.Gauges[instanceKey(name, labels)] = v
		})
	}
	return s
}

// Merge adds other's counters, histograms, and gauges into s (gauges
// are summed, which is the useful aggregation for the per-segment and
// session gauges this repo exports).
func (s *Snapshot) Merge(other Snapshot) error {
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, h := range other.Histograms {
		if have, ok := s.Histograms[k]; ok {
			if err := have.Merge(h); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			s.Histograms[k] = have
		} else {
			cp := HistSnapshot{Bounds: h.Bounds, Counts: append([]uint64(nil), h.Counts...), Sum: h.Sum, Count: h.Count}
			s.Histograms[k] = cp
		}
	}
	return nil
}

// Event is one structured trace record. Fields besides Name are
// optional and event-specific; Err carries the error text (errors are
// stringified so trace consumers never retain live error chains).
type Event struct {
	// Name identifies the event, e.g. "rpc.retry", "read.degraded",
	// "wunlock.recover". OBSERVABILITY.md lists every name the client
	// emits.
	Name string
	// Seg is the segment URL the event concerns, when any.
	Seg string
	// RPC is the protocol message type short name, when the event
	// concerns an RPC (e.g. "WriteUnlock").
	RPC string
	// Attempt is the zero-based retry attempt, for retry events.
	Attempt int
	// Err is the triggering error's text, when any.
	Err string
	// N is an event-specific count (e.g. releases covered by a
	// commit-pipeline flush, subscribers invalidated by a demotion),
	// zero when the event carries none.
	N int64
	// At is when the event occurred, captured with time.Now on the
	// emitting goroutine. The reading carries Go's monotonic clock, so
	// events can be ordered and merged with span timelines without
	// wall-clock guessing. Emitters stamp it just before delivery; a
	// zero At means the emitting site predates stamping.
	At time.Time
	// Dur is the duration of the operation the event describes, when
	// the event marks a completion rather than an instant.
	Dur time.Duration
}

// TraceFunc receives trace events synchronously on the emitting
// goroutine; implementations must be fast and must not call back into
// the client. Chaos tests use it to assert retry and degraded-read
// behaviour without poking unexported state.
type TraceFunc func(Event)

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call into a layer. Live spans are recorded
// around the client calls on the measured path; replay spans time the
// layers the client hides (mem, diff, wire, protocol, swizzle,
// journal) by pushing the same seeded round through their public
// functions after the measured window, so they sit outside their
// parent's interval and are counted against it by duration.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Op     int64  `json:"op"` // round or operation number shared by one request's spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer collects spans in memory. A nil *tracer is the untraced run:
// every method is a no-op that reads no clock.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a replay span of a known duration.
func (t *tracer) add(name string, parent int32, op int64, start time.Time, d time.Duration) int32 {
	if t == nil {
		return 0
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: s, End: s + int64(d), Replay: true})
	t.mu.Unlock()
	return id
}

// layerStat is the per-span-name roll-up written to the trace file.
type layerStat struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	MeanUS  float64 `json:"mean_us"`
	// SelfUS is the spans' time minus what their child spans cover,
	// over the SelfCount spans whose children are all recorded.
	SelfCount  int     `json:"self_count"`
	SelfUS     float64 `json:"self_us"`
	MeanSelfUS float64 `json:"mean_self_us"`
}

// layers computes each span name's total and self time. A span's self
// time is its duration minus the time its children cover; children of
// one parent run one after another, so their durations add.
//
// Only a sample of rounds is replayed. A span name whose spans get
// replayed children takes its self time from the replayed spans alone;
// the others would count the hidden layers' time as their own.
func layers(spans []span) map[string]*layerStat {
	out := make(map[string]*layerStat)
	child := make(map[int32]int64)
	replayed := make(map[int32]bool)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
			replayed[s.Parent] = replayed[s.Parent] || s.Replay
		}
	}
	sampled := make(map[string]bool)
	for _, s := range spans {
		if !s.Replay && replayed[s.ID] {
			sampled[s.Name] = true
		}
	}
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.Count++
		ls.TotalUS += float64(d) / 1e3
		if sampled[s.Name] && !replayed[s.ID] {
			continue
		}
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		ls.SelfCount++
		ls.SelfUS += float64(self) / 1e3
	}
	for _, ls := range out {
		ls.MeanUS = ls.TotalUS / float64(ls.Count)
		ls.MeanSelfUS = ls.SelfUS / float64(ls.SelfCount)
	}
	return out
}

// traceFile is the document written to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Seconds  float64               `json:"seconds"`
	Layers   map[string]*layerStat `json:"layers"`
	Spans    []span                `json:"spans"`
}

// finished returns the recorded spans in id order. Unfinished spans (a
// call still in flight when the window closed) are dropped with their
// descendants, so every span returned has its parent present.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	dropped := make(map[int32]bool)
	spans := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End == 0 || dropped[s.Parent] {
			dropped[s.ID] = true
			continue
		}
		spans = append(spans, s)
	}
	return spans
}

func writeTrace(dir, workload string, seed int64, seconds float64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := traceFile{Workload: workload, Seed: seed, Seconds: seconds, Layers: layers(spans), Spans: spans}
	buf, err := json.Marshal(&doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

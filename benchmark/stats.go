package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the single place metric names, units,
// directions and bounds are declared; the program prints exactly the
// metrics listed there and fails when it has no value for one.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// result is what one run of one workload produced.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Invalid, when non-empty, says why the run's numbers must not be
	// used (an open-loop generator that ran late).
	Invalid string
	// E2E and Layer hold metric values by BENCHMARK.json name. Layer is
	// filled by traced runs only.
	E2E   map[string]float64
	Layer map[string]float64
	// Diag holds ungated diagnostics (p99, max, generator lateness...),
	// printed for people and never compared.
	Diag map[string]float64
	// Samples is the number of raw per-op samples behind the latency
	// percentiles.
	Samples int
	// opTime is the time the issuers spent inside operations and writes
	// the number of writer rounds in the window; a traced run sets them
	// so that the layers' share of operation time can be shown.
	opTime time.Duration
	writes int
}

func newResult(workload string) *result {
	return &result{
		Workload: workload,
		E2E:      make(map[string]float64),
		Layer:    make(map[string]float64),
		Diag:     make(map[string]float64),
	}
}

// sample is one timed operation: when it started, relative to the
// measured window, and how long it took.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// percentile returns the exact nearest-rank percentile of sorted vals.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// slicedPercentiles cuts the samples, in start order, into equal
// slices of at least minPerSlice samples (at most maxSlices), takes
// the exact percentile of each slice from its raw samples, and returns
// the median across slices — so one garbage-collection pause or
// scheduler hiccup disturbs one slice, not the reported value. With
// few samples it degenerates to the plain percentile. Values are in
// milliseconds.
func slicedPercentiles(samples []sample, ps ...float64) []float64 {
	const minPerSlice, maxSlices = 200, 10
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	n := len(samples) / minPerSlice
	if n < 1 {
		n = 1
	}
	if n > maxSlices {
		n = maxSlices
	}
	per := make([][]float64, len(ps))
	for s := 0; s < n; s++ {
		lo, hi := s*len(samples)/n, (s+1)*len(samples)/n
		ms := make([]float64, 0, hi-lo)
		for _, sm := range samples[lo:hi] {
			ms = append(ms, float64(sm.lat)/1e6)
		}
		sort.Float64s(ms)
		for i, p := range ps {
			per[i] = append(per[i], percentile(ms, p))
		}
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = median(per[i])
	}
	return out
}

// slicedRate returns the median operations-per-second over equal time
// slices of the window, for the same reason slicedPercentiles slices.
func slicedRate(samples []sample, window time.Duration) float64 {
	const slices = 10
	if window <= 0 || len(samples) == 0 {
		return 0
	}
	counts := make([]float64, slices)
	for _, sm := range samples {
		// An operation counts in the slice it completed in.
		i := int((sm.at + sm.lat) * slices / window)
		if i >= 0 && i < slices {
			counts[i]++
		}
	}
	per := window.Seconds() / slices
	for i := range counts {
		counts[i] /= per
	}
	return median(counts)
}

// latencyDiag adds the ungated tail diagnostics of a sample set.
func latencyDiag(res *result, prefix string, samples []sample) {
	ms := make([]float64, len(samples))
	for i, sm := range samples {
		ms[i] = float64(sm.lat) / 1e6
	}
	sort.Float64s(ms)
	res.Diag[prefix+"_p99_ms"] = percentile(ms, 0.99)
	res.Diag[prefix+"_max_ms"] = percentile(ms, 1)
}

// Command evictsmoke asserts the cold-segment eviction contract
// (DESIGN.md §12) against a live server after a loadgen run whose
// working set outgrows the server's resident-bytes budget. It is
// the check behind `make evict-smoke`.
//
// It reads the loadgen JSON report and requires a clean run — every
// session opened, zero op errors — because eviction must be invisible
// to clients: a segment faulting in from its journal serves the same
// bytes a resident one would. Then it polls the server's /metrics
// until:
//
//   - eviction actually happened: iw_server_segment_evictions_total
//     and iw_server_segment_faults_total are both positive (a budget
//     four times smaller than the working set cannot be met without
//     dropping and reloading segments);
//   - the budget holds: iw_server_resident_bytes is at most -budget
//     plus one average segment of slack (the evictor's granularity is
//     a whole segment, so "under budget ± one segment" is the
//     strongest steady-state claim it can make).
//
// The polling window (-timeout) covers the evictor's sweep cadence:
// the loadgen's last touches may leave the server momentarily over
// budget until the next pass.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	report := flag.String("report", "", "loadgen JSON report to validate")
	metrics := flag.String("metrics", "", "server metrics address (host:port)")
	budget := flag.Int64("budget", 0, "the -max-resident-bytes the server was started with")
	slack := flag.Int64("slack", 0, "allowed bytes over budget (0 = one observed average segment)")
	timeout := flag.Duration("timeout", 15*time.Second, "deadline for the metrics conditions to hold")
	flag.Parse()

	if err := run(*report, *metrics, *budget, *slack, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "evictsmoke:", err)
		os.Exit(1)
	}
}

func run(report, metrics string, budget, slack int64, timeout time.Duration) error {
	if err := checkReport(report); err != nil {
		return err
	}
	if budget <= 0 {
		return fmt.Errorf("-budget must match the server's -max-resident-bytes")
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		m, err := scrape(metrics)
		if err != nil {
			lastErr = fmt.Errorf("scraping %s: %w", metrics, err)
		} else {
			lastErr = check(m, budget, slack)
			if lastErr == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conditions not met within %s: %w", timeout, lastErr)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// check evaluates the eviction conditions against one scrape.
func check(m map[string]float64, budget, slack int64) error {
	evictions := m["iw_server_segment_evictions_total"]
	faults := m["iw_server_segment_faults_total"]
	resident := int64(m["iw_server_resident_bytes"])
	segs := m["iw_server_segments_resident"]
	if evictions <= 0 {
		return fmt.Errorf("no evictions recorded — the working set never outgrew the budget")
	}
	if faults <= 0 {
		return fmt.Errorf("no segment faults recorded — nothing evicted was ever touched again")
	}
	allowed := slack
	if allowed <= 0 {
		// One segment of slack, estimated from the live average; the
		// floor covers the degenerate all-evicted scrape.
		allowed = 4096
		if segs > 0 {
			if avg := resident / int64(segs); avg > allowed {
				allowed = avg
			}
		}
	}
	if resident > budget+allowed {
		return fmt.Errorf("resident bytes %d exceed budget %d by more than one segment (%d allowed)",
			resident, budget, allowed)
	}
	fmt.Printf("evictsmoke: ok — %.0f evictions, %.0f faults, %d resident bytes across %.0f segments (budget %d)\n",
		evictions, faults, resident, segs, budget)
	return nil
}

// checkReport validates the loadgen run: every session opened and zero
// client-visible op errors — eviction must not surface to clients.
func checkReport(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep struct {
		Schema   string `json:"schema"`
		Sessions struct {
			Target  int   `json:"target"`
			Open    int   `json:"open"`
			Refused int64 `json:"refused"`
		} `json:"sessions"`
		Ops struct {
			Done   int64 `json:"done"`
			Errors int64 `json:"errors"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if !strings.HasPrefix(rep.Schema, "interweave-loadgen/") {
		return fmt.Errorf("%s has schema %q, want interweave-loadgen/*", path, rep.Schema)
	}
	if rep.Sessions.Open != rep.Sessions.Target || rep.Sessions.Refused != 0 {
		return fmt.Errorf("sessions: opened %d/%d, %d refused", rep.Sessions.Open, rep.Sessions.Target, rep.Sessions.Refused)
	}
	if rep.Ops.Errors != 0 {
		return fmt.Errorf("%d op errors (of %d ops) — eviction leaked into client-visible failures", rep.Ops.Errors, rep.Ops.Done)
	}
	if rep.Ops.Done == 0 {
		return fmt.Errorf("no operations completed")
	}
	fmt.Printf("evictsmoke: loadgen clean — %d ops, 0 errors, %d sessions\n", rep.Ops.Done, rep.Sessions.Open)
	return nil
}

// scrape fetches a /metrics endpoint and parses the unlabelled
// Prometheus text samples into a name -> value map; labelled series
// (histogram buckets, per-segment gauges) are skipped — the smoke
// only reads scalar counters and gauges.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 8<<20))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// Command smokecheck asserts the properties the live smokes exist for,
// against running nodes after a tools/loadgen run. It is the check
// behind `make proxy-smoke` and `make evict-smoke`.
//
// Every check first reads the loadgen JSON report (-report) and
// requires a clean run: every session opened, none refused, zero op
// errors, at least one op done. Then, by the flags given:
//
// Proxy fan-out (DESIGN.md §11, CAPACITY.md), the default: scrape the
// origin's (-origin) and the leaf proxy's (-leaf) /metrics and require
//
//   - bounded staleness: read-staleness samples were recorded and
//     their p99 is within -max-staleness;
//   - reader independence: the origin holds at most -max-origin-sessions
//     ordinary sessions (the writers and the seeder — not the reader
//     population, which lives at the leaf) while the leaf opened at
//     least -min-leaf-sessions downstream sessions and at least one
//     proxy session is registered at the origin;
//   - fan-out amplification happened at the edge: the leaf's
//     iw_proxy_downstream_notifies_total is at least the origin's
//     iw_server_notifications_total, which itself tracks the proxy
//     subscriptions, not the reader count.
//
// Eviction (DESIGN.md §12), selected by -budget: poll the server's
// (-origin) /metrics until, within -timeout,
//
//   - eviction actually happened: iw_server_segment_evictions_total
//     and iw_server_segment_faults_total are both positive (a budget
//     four times smaller than the working set cannot be met without
//     dropping and reloading segments);
//   - the budget holds: iw_server_resident_bytes is at most -budget
//     plus -slack (default one observed average segment: the
//     evictor's granularity is a whole segment, so "under budget ± one
//     segment" is the strongest steady-state claim it can make).
//
// The polling window covers the evictor's sweep cadence: the loadgen's
// last touches may leave the server momentarily over budget until the
// next pass.
//
// With -wait-status the tool instead polls the leaf's /healthz until
// its verdict matches (e.g. "degraded" after the leaf's upstream is
// killed, "ok" once it recovers), which is how the proxy smoke's chaos
// step observes graceful degradation and recovery.
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
	origin := flag.String("origin", "", "origin server metrics address (host:port)")
	leaf := flag.String("leaf", "", "leaf proxy metrics address (host:port)")
	maxStaleness := flag.Float64("max-staleness", 64, "maximum allowed read-staleness p99, in versions")
	minLeafSessions := flag.Float64("min-leaf-sessions", 1000, "minimum downstream sessions the leaf proxy must have opened")
	maxOriginSessions := flag.Float64("max-origin-sessions", 100, "maximum ordinary sessions the origin may hold")
	budget := flag.Int64("budget", 0, "check eviction instead: the -max-resident-bytes the origin was started with")
	slack := flag.Int64("slack", 0, "allowed resident bytes over -budget (0 = one observed average segment)")
	waitStatus := flag.String("wait-status", "", "poll the leaf /healthz until its status equals this value, then exit")
	timeout := flag.Duration("timeout", 15*time.Second, "deadline for -wait-status and the eviction conditions")
	flag.Parse()

	err := func() error {
		if *waitStatus != "" {
			return waitForStatus(*leaf, *waitStatus, *timeout)
		}
		rep, err := checkReport(*report)
		if err != nil {
			return err
		}
		if *budget > 0 {
			return checkEviction(*origin, *budget, *slack, *timeout)
		}
		return checkProxy(rep, *origin, *leaf, *maxStaleness, *minLeafSessions, *maxOriginSessions)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		os.Exit(1)
	}
}

// loadgenReport is the part of a loadgen JSON report the checks read.
type loadgenReport struct {
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
	Staleness struct {
		Count uint64  `json:"count"`
		P99   float64 `json:"p99"`
	} `json:"read_staleness_versions"`
}

// checkReport validates the loadgen run: every session opened, zero
// client-visible op errors.
func checkReport(path string) (*loadgenReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep loadgenReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if !strings.HasPrefix(rep.Schema, "interweave-loadgen/") {
		return nil, fmt.Errorf("%s has schema %q, want interweave-loadgen/*", path, rep.Schema)
	}
	if rep.Sessions.Open != rep.Sessions.Target || rep.Sessions.Refused != 0 {
		return nil, fmt.Errorf("sessions: opened %d/%d, %d refused", rep.Sessions.Open, rep.Sessions.Target, rep.Sessions.Refused)
	}
	if rep.Ops.Errors != 0 {
		return nil, fmt.Errorf("%d op errors (of %d ops)", rep.Ops.Errors, rep.Ops.Done)
	}
	if rep.Ops.Done == 0 {
		return nil, fmt.Errorf("no operations completed")
	}
	fmt.Printf("smokecheck: loadgen clean — %d ops, 0 errors, %d sessions\n", rep.Ops.Done, rep.Sessions.Open)
	return &rep, nil
}

// checkProxy asserts bounded staleness and fan-out independence from
// the report and one scrape each of the origin and the leaf.
func checkProxy(rep *loadgenReport, origin, leaf string, maxStaleness, minLeafSessions, maxOriginSessions float64) error {
	if rep.Staleness.Count == 0 {
		return fmt.Errorf("no read-staleness samples recorded — were the reads routed through the proxy?")
	}
	if rep.Staleness.P99 > maxStaleness {
		return fmt.Errorf("read staleness p99 %.0f versions exceeds bound %.0f", rep.Staleness.P99, maxStaleness)
	}
	om, err := scrape(origin)
	if err != nil {
		return fmt.Errorf("scraping origin %s: %w", origin, err)
	}
	lm, err := scrape(leaf)
	if err != nil {
		return fmt.Errorf("scraping leaf %s: %w", leaf, err)
	}

	originNotifies := om["iw_server_notifications_total"]
	originSessions := om["iw_server_sessions"]
	proxySessions := om["iw_server_proxy_sessions"]
	leafSessions := lm["iw_proxy_sessions_opened_total"]
	leafReads := lm["iw_proxy_reads_total"]
	leafDownstream := lm["iw_proxy_downstream_notifies_total"]

	fmt.Printf("smokecheck: staleness p99 %.0f versions (bound %.0f)\n", rep.Staleness.P99, maxStaleness)
	fmt.Printf("smokecheck: origin sessions=%.0f proxy_sessions=%.0f notifications=%.0f\n",
		originSessions, proxySessions, originNotifies)
	fmt.Printf("smokecheck: leaf sessions_opened=%.0f reads=%.0f downstream_notifies=%.0f\n",
		leafSessions, leafReads, leafDownstream)

	if proxySessions < 1 {
		return fmt.Errorf("origin reports %.0f proxy sessions, want >= 1 (did the tree connect?)", proxySessions)
	}
	if leafSessions < minLeafSessions {
		return fmt.Errorf("leaf opened %.0f downstream sessions, want >= %.0f", leafSessions, minLeafSessions)
	}
	if originSessions > maxOriginSessions {
		return fmt.Errorf("origin holds %.0f ordinary sessions, want <= %.0f — the reader population leaked past the proxies",
			originSessions, maxOriginSessions)
	}
	if leafReads <= 0 {
		return fmt.Errorf("leaf served no reads")
	}
	if originNotifies <= 0 {
		return fmt.Errorf("origin pushed no notifications — the proxies never subscribed")
	}
	if leafDownstream < originNotifies {
		return fmt.Errorf("leaf fanned out %.0f notifications vs %.0f at the origin — amplification should happen at the edge, not the origin",
			leafDownstream, originNotifies)
	}
	fmt.Printf("smokecheck: ok — %.0f readers fanned out at the edge, origin notify cost tracked its proxy subscriptions\n", leafSessions)
	return nil
}

// checkEviction polls the server's /metrics until the eviction
// conditions hold or the deadline passes.
func checkEviction(server string, budget, slack int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := scrape(server)
		if err != nil {
			err = fmt.Errorf("scraping %s: %w", server, err)
		} else if err = evicted(m, budget, slack); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("conditions not met within %s: %w", timeout, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// evicted evaluates the eviction conditions against one scrape.
func evicted(m map[string]float64, budget, slack int64) error {
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
	fmt.Printf("smokecheck: ok — %.0f evictions, %.0f faults, %d resident bytes across %.0f segments (budget %d)\n",
		evictions, faults, resident, segs, budget)
	return nil
}

// waitForStatus polls the leaf's /healthz until its verdict equals
// want or the deadline passes.
func waitForStatus(leaf, want string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last := "(unreachable)"
	for {
		var h struct {
			Status string `json:"status"`
		}
		resp, err := http.Get("http://" + leaf + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if rerr == nil && json.Unmarshal(body, &h) == nil {
				last = h.Status
				if h.Status == want {
					fmt.Printf("smokecheck: leaf %s reached status %q\n", leaf, want)
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leaf %s never reached status %q within %s (last: %s)", leaf, want, timeout, last)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// scrape fetches a /metrics endpoint and parses the unlabelled
// Prometheus text samples into a name -> value map; labelled series
// (histogram buckets, per-segment gauges) are skipped — the smokes
// only read scalar counters and gauges.
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
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.ContainsRune(fields[0], '{') {
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

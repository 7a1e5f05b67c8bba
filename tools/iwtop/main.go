// Command iwtop is the fleet-wide observability aggregator
// (OBSERVABILITY.md): top(1) for an InterWeave cluster. From one seed
// node it discovers the whole membership over the cluster's own
// RingGet RPC — every member advertises its metrics address in gossip —
// then concurrently scrapes each node's /metrics, /healthz,
// /debug/slo, and /debug/segments, merges the per-node histograms
// bucket-for-bucket into cluster-level latency quantiles, and renders
// a live terminal view that refreshes every -interval.
//
// Usage:
//
//	go run ./tools/iwtop -seed 127.0.0.1:7777             # live view
//	go run ./tools/iwtop -seed 127.0.0.1:7777 -json -once # one machine-readable snapshot
//	go run ./tools/iwtop -metrics host1:9090,host2:9090   # skip discovery, scrape these
//
// Discovery is resilient to the seed dying: every tick retries the
// seed first and then every previously seen live member, so kills,
// restarts, and failovers show up in the next refresh without
// restarting iwtop. With -json the output is one schema-stable
// document (schema "interweave-iwtop/1") per tick; -once emits a
// single tick and exits, and -expect N makes that exit non-zero
// unless at least N nodes were discovered, scraped, and healthy —
// the CI smoke gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/session"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Seed, "seed", "", "any cluster member's client address; membership (and every node's metrics address) is discovered from it")
	flag.StringVar(&cfg.Metrics, "metrics", "", "comma-separated metrics addresses to scrape directly, skipping discovery")
	flag.DurationVar(&cfg.Interval, "interval", 2*time.Second, "refresh interval")
	flag.DurationVar(&cfg.Timeout, "timeout", 2*time.Second, "per-node scrape timeout")
	flag.BoolVar(&cfg.JSON, "json", false, "emit one schema-stable JSON document per tick instead of the terminal view")
	flag.BoolVar(&cfg.Once, "once", false, "render a single tick and exit")
	flag.IntVar(&cfg.Expect, "expect", 0, "with -once: exit non-zero unless at least this many nodes are scraped and healthy")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iwtop:", err)
		os.Exit(1)
	}
}

type config struct {
	Seed     string
	Metrics  string
	Interval time.Duration
	Timeout  time.Duration
	JSON     bool
	Once     bool
	Expect   int
}

// topSegments is how many segment rows a tick shows and emits,
// hottest first.
const topSegments = 12

// nodeDoc is one node's row in the fleet document. Role and the
// upstream-lag fields are additive to schema interweave-iwtop/1:
// existing consumers that never look at them parse unchanged.
type nodeDoc struct {
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr"`
	// Role distinguishes node kinds: "server" owns segments, "proxy"
	// is a read fan-out proxy (DESIGN.md §11) mirroring them.
	Role          string   `json:"role"`
	Dead          bool     `json:"dead,omitempty"`
	Err           string   `json:"err,omitempty"`
	Health        string   `json:"health"`
	Reasons       []string `json:"reasons,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Sessions      float64  `json:"sessions"`
	Conns         float64  `json:"conns"`
	RPCCount      uint64   `json:"rpc_count"`
	// Proxy-only: how far the worst mirror trails its upstream, in
	// versions and in seconds since the last confirmed sync.
	UpstreamLagVersions float64  `json:"upstream_lag_versions,omitempty"`
	UpstreamLagSeconds  float64  `json:"upstream_lag_seconds,omitempty"`
	Burning             []string `json:"burning,omitempty"`

	snap     obs.Snapshot
	segments []server.SegmentDebug
}

// histDoc is a merged histogram's summary; quantiles are conservative
// bucket upper bounds, like every quantile this repo reports.
type histDoc struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// segDoc is one segment's cluster-wide row: gauges summed across the
// nodes that hold it (owner plus replicas), version the maximum seen.
type segDoc struct {
	Name        string `json:"name"`
	Owner       string `json:"owner,omitempty"`
	Version     uint32 `json:"version"`
	Subscribers int    `json:"subscribers"`
	Sessions    int    `json:"sessions"`
	Waiters     int    `json:"waiters"`
	GroupFlush  uint64 `json:"group_flushes"`
	GroupRel    uint64 `json:"group_releases"`
	// Resident counts the nodes holding the segment's image in
	// memory; the remainder have evicted it to their journals. Bytes
	// is the summed resident footprint across those nodes.
	Resident int   `json:"resident"`
	Bytes    int64 `json:"mem_bytes"`
}

// fleetDoc is the schema-stable JSON snapshot -json emits per tick.
type fleetDoc struct {
	Schema   string             `json:"schema"`
	At       time.Time          `json:"at"`
	Epoch    uint64             `json:"epoch"`
	Nodes    []nodeDoc          `json:"nodes"`
	Scraped  int                `json:"nodes_scraped"`
	RPC      map[string]histDoc `json:"rpc_seconds"`
	RPCTotal uint64             `json:"rpc_total"`
	Segments []segDoc           `json:"segments"`
}

// app carries the state that survives across ticks: the last known
// live members (discovery fallback) and the previous tick's totals
// (rate display).
type app struct {
	cfg    config
	known  []string
	client *http.Client

	prevAt    time.Time
	prevTotal uint64
}

func run(cfg config, out io.Writer) error {
	if cfg.Seed == "" && cfg.Metrics == "" {
		return fmt.Errorf("need -seed (cluster discovery) or -metrics (direct scrape list)")
	}
	a := &app{cfg: cfg, client: &http.Client{Timeout: cfg.Timeout}}
	for {
		doc := a.tick()
		if cfg.JSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				return err
			}
		} else {
			a.render(out, doc)
		}
		if cfg.Once {
			if cfg.Expect > 0 {
				healthy := 0
				for _, n := range doc.Nodes {
					if n.Err == "" && n.Health == server.HealthOK {
						healthy++
					}
				}
				if healthy < cfg.Expect {
					return fmt.Errorf("%d healthy nodes, expected %d (doc above)", healthy, cfg.Expect)
				}
			}
			return nil
		}
		time.Sleep(cfg.Interval)
	}
}

// tick produces one fleet document: discover, scrape, merge.
func (a *app) tick() fleetDoc {
	doc := fleetDoc{Schema: "interweave-iwtop/1", At: time.Now(), RPC: make(map[string]histDoc)}
	var nodes []nodeDoc
	if a.cfg.Metrics != "" {
		for _, m := range strings.Split(a.cfg.Metrics, ",") {
			if m = strings.TrimSpace(m); m != "" {
				nodes = append(nodes, nodeDoc{Addr: m, MetricsAddr: m})
			}
		}
	} else {
		ms, err := a.discover()
		if err != nil {
			doc.Nodes = []nodeDoc{{Addr: a.cfg.Seed, Err: "discover: " + err.Error(), Health: "unknown"}}
			return doc
		}
		doc.Epoch = ms.Epoch
		ring := cluster.BuildRing(ms)
		for _, m := range ms.Members {
			role := "server"
			if m.Proxy {
				role = "proxy"
			}
			nodes = append(nodes, nodeDoc{Addr: m.Addr, MetricsAddr: m.MetricsAddr, Dead: m.Dead, Role: role})
		}
		defer func() { a.fillOwners(doc.Segments, ring) }()
	}
	var wg sync.WaitGroup
	for i := range nodes {
		if nodes[i].Dead || nodes[i].MetricsAddr == "" {
			if nodes[i].Health == "" {
				nodes[i].Health = "unknown"
			}
			continue
		}
		wg.Add(1)
		go func(n *nodeDoc) {
			defer wg.Done()
			a.scrape(n)
		}(&nodes[i])
	}
	wg.Wait()
	doc.Nodes = nodes
	a.merge(&doc)
	return doc
}

// discover fetches the membership over RingGet, trying the seed first
// and then every member seen alive on a previous tick — so the fleet
// stays visible when the original seed dies.
func (a *app) discover() (protocol.Membership, error) {
	tried := make(map[string]bool)
	var firstErr error
	for _, addr := range append([]string{a.cfg.Seed}, a.known...) {
		if addr == "" || tried[addr] {
			continue
		}
		tried[addr] = true
		ms, err := fetchMembership(addr, a.cfg.Timeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.known = ms.Live()
		return ms, nil
	}
	return protocol.Membership{}, firstErr
}

// fetchMembership runs one RingGet RPC against a node's client port.
func fetchMembership(addr string, timeout time.Duration) (protocol.Membership, error) {
	reply, err := session.RoundTrip(nil, addr, &protocol.RingGet{}, timeout)
	if err != nil {
		return protocol.Membership{}, err
	}
	rr, ok := reply.(*protocol.RingReply)
	if !ok {
		return protocol.Membership{}, fmt.Errorf("%s answered %T to RingGet (not a cluster node?)", addr, reply)
	}
	return rr.Ms, nil
}

// scrape pulls one node's full observability surface.
func (a *app) scrape(n *nodeDoc) {
	n.Health = "unknown"
	resp, err := a.client.Get("http://" + n.MetricsAddr + "/metrics")
	if err != nil {
		n.Err = err.Error()
		return
	}
	snap, err := parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		n.Err = "parse /metrics: " + err.Error()
		return
	}
	n.snap = snap
	// Direct -metrics scrapes have no membership to learn the role
	// from; the scraped surface itself tells (a proxy exports
	// iw_proxy_uptime_seconds, a server iw_server_uptime_seconds).
	if n.Role == "" {
		if _, isProxy := snap.Gauges["iw_proxy_uptime_seconds"]; isProxy {
			n.Role = "proxy"
		} else {
			n.Role = "server"
		}
	}
	if n.Role == "proxy" {
		n.Sessions = snap.Gauges["iw_proxy_sessions"]
		n.UptimeSeconds = snap.Gauges["iw_proxy_uptime_seconds"]
		n.UpstreamLagVersions = snap.Gauges["iw_proxy_upstream_lag_versions"]
		n.UpstreamLagSeconds = snap.Gauges["iw_proxy_upstream_lag_seconds"]
	} else {
		n.Sessions = snap.Gauges["iw_server_sessions"]
		n.Conns = snap.Gauges["iw_server_conns"]
		n.UptimeSeconds = snap.Gauges["iw_server_uptime_seconds"]
	}
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "iw_server_rpc_seconds{") {
			n.RPCCount += h.Count
		}
	}

	// /healthz: the verdict is valid at 200 and 503 alike. Proxies
	// serve the same document shape minus the SLO block.
	var h server.Health
	if err := a.getJSON(n.MetricsAddr, "/healthz", &h); err != nil {
		n.Err = err.Error()
		return
	}
	n.Health, n.Reasons = h.Status, h.Reasons
	for _, o := range h.SLO.Objectives {
		if o.Burning {
			n.Burning = append(n.Burning, o.Name)
		}
	}

	if n.Role == "proxy" {
		return // proxies own no segments, and serve no /debug/segments
	}
	var segs []server.SegmentDebug
	if err := a.getJSON(n.MetricsAddr, "/debug/segments", &segs); err != nil {
		n.Err = err.Error()
		return
	}
	n.segments = segs
}

// getJSON decodes one JSON debug endpoint; non-2xx statuses are fine
// (an overloaded /healthz answers 503 with the verdict as its body).
func (a *app) getJSON(addr, path string, v any) error {
	resp, err := a.client.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %v", path, err)
	}
	return nil
}

// merge folds every scraped node into the cluster-level view: RPC
// histograms merged bucket-for-bucket (the merged count equals the
// sum of per-node counts), segment rows summed by name.
func (a *app) merge(doc *fleetDoc) {
	merged := make(map[string]obs.HistSnapshot)
	segs := make(map[string]*segDoc)
	for i := range doc.Nodes {
		n := &doc.Nodes[i]
		if n.Err != "" || n.snap.Histograms == nil {
			continue
		}
		doc.Scraped++
		for k, h := range n.snap.Histograms {
			rpc, ok := rpcLabel(k)
			if !ok {
				continue
			}
			if have, ok := merged[rpc]; ok {
				if err := have.Merge(h); err == nil {
					merged[rpc] = have
				}
			} else {
				cp := obs.HistSnapshot{
					Bounds: append([]float64(nil), h.Bounds...),
					Counts: append([]uint64(nil), h.Counts...),
					Sum:    h.Sum, Count: h.Count,
				}
				merged[rpc] = cp
			}
		}
		for _, sd := range n.segments {
			row := segs[sd.Name]
			if row == nil {
				row = &segDoc{Name: sd.Name}
				segs[sd.Name] = row
			}
			if sd.Version > row.Version {
				row.Version = sd.Version
			}
			row.Subscribers += sd.Subscribers
			row.Sessions += sd.Sessions
			row.Waiters += sd.Waiters
			row.GroupFlush += sd.GroupFlushes
			row.GroupRel += sd.GroupReleases
			if sd.Resident {
				row.Resident++
				row.Bytes += sd.MemBytes
			}
		}
	}
	for rpc, h := range merged {
		doc.RPC[rpc] = summarize(h)
		doc.RPCTotal += h.Count
	}
	for _, row := range segs {
		doc.Segments = append(doc.Segments, *row)
	}
	// Hottest first: version is the write count, the natural heat rank.
	sort.Slice(doc.Segments, func(i, j int) bool {
		if doc.Segments[i].Version != doc.Segments[j].Version {
			return doc.Segments[i].Version > doc.Segments[j].Version
		}
		return doc.Segments[i].Name < doc.Segments[j].Name
	})
	if len(doc.Segments) > topSegments {
		doc.Segments = doc.Segments[:topSegments]
	}
}

// fillOwners stamps each merged segment row with the owner the
// discovered ring places it on.
func (a *app) fillOwners(segs []segDoc, ring *cluster.Ring) {
	for i := range segs {
		segs[i].Owner = ring.Owner(segs[i].Name)
	}
}

// rpcLabel extracts the rpc="..." label value from an
// iw_server_rpc_seconds instance key.
func rpcLabel(key string) (string, bool) {
	rest, ok := strings.CutPrefix(key, `iw_server_rpc_seconds{rpc="`)
	if !ok {
		return "", false
	}
	v, ok := strings.CutSuffix(rest, `"}`)
	return v, ok
}

// summarize reduces a merged histogram to conservative quantiles
// (bucket upper bounds, one rung past the ladder for the +Inf tail).
func summarize(s obs.HistSnapshot) histDoc {
	r := histDoc{Count: s.Count}
	if s.Count == 0 || len(s.Bounds) == 0 {
		return r
	}
	r.Mean = s.Sum / float64(s.Count)
	q := func(frac float64) float64 {
		want := uint64(frac * float64(s.Count))
		var cum uint64
		for i, c := range s.Counts {
			cum += c
			if cum > want {
				if i < len(s.Bounds) {
					return s.Bounds[i]
				}
				break
			}
		}
		return s.Bounds[len(s.Bounds)-1] * 4
	}
	r.P50, r.P99 = q(0.50), q(0.99)
	return r
}

// render draws the live terminal view for one tick.
func (a *app) render(out io.Writer, doc fleetDoc) {
	fmt.Fprint(out, "\x1b[H\x1b[2J")
	rate := ""
	if !a.prevAt.IsZero() && doc.RPCTotal >= a.prevTotal {
		secs := doc.At.Sub(a.prevAt).Seconds()
		if secs > 0 {
			rate = fmt.Sprintf("  %.0f rpc/s", float64(doc.RPCTotal-a.prevTotal)/secs)
		}
	}
	a.prevAt, a.prevTotal = doc.At, doc.RPCTotal
	fmt.Fprintf(out, "iwtop — %d/%d nodes scraped, epoch %d%s  (%s)\n\n",
		doc.Scraped, len(doc.Nodes), doc.Epoch, rate, doc.At.Format(time.RFC3339))

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tHEALTH\tUPTIME\tSESSIONS\tCONNS\tRPCS\tLAG\tNOTES")
	for _, n := range doc.Nodes {
		notes := n.Err
		if notes == "" && len(n.Reasons) > 0 {
			notes = strings.Join(n.Reasons, "; ")
		}
		if n.Dead {
			notes = strings.TrimSpace("dead " + notes)
		}
		lag := "-"
		if n.Role == "proxy" {
			lag = fmt.Sprintf("%.0fv/%.1fs", n.UpstreamLagVersions, n.UpstreamLagSeconds)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.0f\t%.0f\t%d\t%s\t%s\n",
			n.Addr, n.Role, n.Health, (time.Duration(n.UptimeSeconds) * time.Second).String(),
			n.Sessions, n.Conns, n.RPCCount, lag, notes)
	}
	tw.Flush()

	if len(doc.RPC) > 0 {
		fmt.Fprintln(out, "\nCLUSTER RPC LATENCY (merged)")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "RPC\tCOUNT\tMEAN\tP50\tP99")
		rpcs := make([]string, 0, len(doc.RPC))
		for rpc := range doc.RPC {
			rpcs = append(rpcs, rpc)
		}
		sort.Slice(rpcs, func(i, j int) bool { return doc.RPC[rpcs[i]].Count > doc.RPC[rpcs[j]].Count })
		for _, rpc := range rpcs {
			h := doc.RPC[rpc]
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n", rpc, h.Count,
				fmtSeconds(h.Mean), fmtSeconds(h.P50), fmtSeconds(h.P99))
		}
		tw.Flush()
	}

	if len(doc.Segments) > 0 {
		fmt.Fprintln(out, "\nHOTTEST SEGMENTS")
		tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SEGMENT\tOWNER\tVERSION\tSUBS\tSESSIONS\tWAITERS\tGC-FLUSH\tGC-REL\tRES\tBYTES")
		for _, s := range doc.Segments {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				s.Name, s.Owner, s.Version, s.Subscribers, s.Sessions, s.Waiters, s.GroupFlush, s.GroupRel, s.Resident, s.Bytes)
		}
		tw.Flush()
	}
}

// fmtSeconds renders a duration-in-seconds with a sensible unit.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

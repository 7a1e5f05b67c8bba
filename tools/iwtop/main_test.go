package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
)

// fleetNode is one in-process cluster member with its metrics surface
// mounted on a real HTTP listener, exactly as iwserver arranges it.
type fleetNode struct {
	addr        string
	metricsAddr string
	reg         *obs.Registry
	srv         *server.Server
	node        *cluster.Node
	hsrv        *http.Server
	ln, mln     net.Listener
}

// kill emulates a node death: the RPC listener and every metrics
// connection (including keep-alive ones iwtop may hold) go away.
func (n *fleetNode) kill() {
	_ = n.ln.Close()
	_ = n.hsrv.Close()
	n.node.Close()
	_ = n.srv.Close()
}

// startFleet boots n cluster servers, each advertising its metrics
// listener through membership gossip.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &fleetNode{
			addr: ln.Addr().String(), metricsAddr: mln.Addr().String(),
			reg: obs.NewRegistry(), ln: ln, mln: mln,
		}
		addrs[i] = nodes[i].addr
	}
	for i, fn := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		fn.node = cluster.NewNode(cluster.Options{
			Self: fn.addr, Peers: peers, Replicas: 1,
			MetricsAddr: fn.metricsAddr, Metrics: fn.reg, Logf: t.Logf,
		})
		srv, err := server.New(server.Options{
			Cluster: fn.node, Metrics: fn.reg, Logf: t.Logf,
			SLOSampleEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fn.srv = srv
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(fn.reg))
		mux.Handle("/healthz", srv.HealthzHandler())
		mux.Handle("/debug/slo", srv.SLOHandler())
		mux.HandleFunc("/debug/segments", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(srv.DebugSegments())
		})
		fn.hsrv = &http.Server{Handler: mux}
		go func(fn *fleetNode) { _ = fn.srv.Serve(fn.ln) }(fn)
		go func(fn *fleetNode) { _ = fn.hsrv.Serve(fn.mln) }(fn)
		fn.node.Start()
		t.Cleanup(fn.kill)
	}
	return nodes
}

// drive sends a little raw-protocol traffic at addr so the node's RPC
// histograms are non-empty: Hello, OpenSegment, ReadLock.
func drive(t *testing.T, addr, seg string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	id := uint32(1)
	call := func(m protocol.Message) protocol.Message {
		t.Helper()
		if err := protocol.WriteFrame(conn, id, m); err != nil {
			t.Fatal(err)
		}
		for {
			gotID, reply, err := protocol.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if gotID == id {
				id++
				return reply
			}
		}
	}
	if _, ok := call(&protocol.Hello{ClientName: "iwtop-test", Profile: "x86-32le"}).(*protocol.Ack); !ok {
		t.Fatal("hello not acked")
	}
	call(&protocol.OpenSegment{Name: seg, Create: true}) // OpenReply or Redirect, both count
	call(&protocol.ReadLock{Seg: seg})
}

// rpcCountFromReg sums every iw_server_rpc_seconds instance in a live
// registry — the ground truth a node's scrape must agree with.
func rpcCountFromReg(reg *obs.Registry) uint64 {
	var total uint64
	for k, h := range reg.Snapshot().Histograms {
		if rpc, ok := rpcLabel(k); ok && rpc != "" {
			total += h.Count
		}
	}
	return total
}

// TestFleetDiscoveryMergeAndKill is the end-to-end aggregation check:
// three nodes discovered from one seed, the merged cluster histogram
// count equal to the sum of the per-node counts, and a killed node
// reflected on the next tick without restarting iwtop.
func TestFleetDiscoveryMergeAndKill(t *testing.T) {
	nodes := startFleet(t, 3)
	for _, fn := range nodes {
		drive(t, fn.addr, "iwtop-seg")
	}

	// The fleet runs without a heartbeat loop so no background gossip
	// perturbs the registries mid-assertion; push each node's
	// metrics-addr annotation by hand instead. The merge cascade is
	// asynchronous, so poll until one tick sees all three
	// advertisements AND its scraped totals agree with the live
	// registries — equality proves no merge traffic was in flight
	// between the scrape and the ground-truth read.
	for _, fn := range nodes {
		fn.node.Gossip()
	}
	a := &app{
		cfg:    config{Seed: nodes[0].addr, Timeout: 2 * time.Second},
		client: &http.Client{Timeout: 2 * time.Second},
	}
	var doc fleetDoc
	var perNode, ground uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		doc = a.tick()
		perNode, ground = 0, 0
		for _, n := range doc.Nodes {
			perNode += n.RPCCount
		}
		for _, fn := range nodes {
			ground += rpcCountFromReg(fn.reg)
		}
		if len(doc.Nodes) == 3 && doc.Scraped == 3 &&
			doc.RPCTotal == perNode && doc.RPCTotal == ground {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: nodes %d scraped %d rpcTotal %d perNode %d ground %d: %+v",
				len(doc.Nodes), doc.Scraped, doc.RPCTotal, perNode, ground, doc.Nodes)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, n := range doc.Nodes {
		if n.Err != "" || n.Health != server.HealthOK {
			t.Fatalf("node %s: health %q err %q, want ok", n.Addr, n.Health, n.Err)
		}
		if n.MetricsAddr == "" {
			t.Fatalf("node %s advertised no metrics address", n.Addr)
		}
		if n.UptimeSeconds <= 0 {
			t.Fatalf("node %s uptime %v, want > 0", n.Addr, n.UptimeSeconds)
		}
	}

	if doc.RPC["Hello"].Count != 3 {
		t.Fatalf("merged Hello count = %d, want 3 (one per node)", doc.RPC["Hello"].Count)
	}

	// Every segment row names its ring owner.
	for _, s := range doc.Segments {
		if s.Owner == "" {
			t.Fatalf("segment %s has no owner", s.Name)
		}
	}

	// Kill a non-seed node: the very next tick reports it unreachable,
	// with the survivors still merged — no iwtop restart.
	nodes[2].kill()
	doc = a.tick()
	if doc.Scraped != 2 {
		t.Fatalf("scraped %d after kill, want 2: %+v", doc.Scraped, doc.Nodes)
	}
	killed := false
	for _, n := range doc.Nodes {
		if n.Addr == nodes[2].addr && n.Err != "" {
			killed = true
		}
	}
	if !killed {
		t.Fatalf("killed node %s not reported unreachable: %+v", nodes[2].addr, doc.Nodes)
	}

	// Kill the seed too: discovery falls back to the surviving member
	// learned on an earlier tick.
	nodes[0].kill()
	doc = a.tick()
	if doc.Scraped != 1 {
		t.Fatalf("scraped %d after seed kill, want 1: %+v", doc.Scraped, doc.Nodes)
	}
}

// TestParseReverseRoundTrip feeds a registry's own Prometheus output
// back through the scrape parser and requires the exact snapshot —
// counters, gauges (incl. collector gauges), histogram buckets, and
// escaped label values — to survive the round trip.
func TestParseReverseRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rt_ops_total", "ops", obs.L("path", `a\b"c`+"\n")).Add(42)
	reg.Gauge("rt_depth", "depth").Set(-7)
	h := reg.Histogram("rt_seconds", "latency", obs.DurationBuckets, obs.L("rpc", "X"))
	for _, v := range []float64{1e-6, 5e-4, 0.3, 99} {
		h.Observe(v)
	}
	reg.RegisterCollector(func(emit obs.GaugeEmit) {
		emit("rt_col", "collected", 3.5, obs.L("seg", "s1"))
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	if !reflect.DeepEqual(parsed.Counters, want.Counters) {
		t.Fatalf("counters:\n got %+v\nwant %+v", parsed.Counters, want.Counters)
	}
	if !reflect.DeepEqual(parsed.Gauges, want.Gauges) {
		t.Fatalf("gauges:\n got %+v\nwant %+v", parsed.Gauges, want.Gauges)
	}
	if !reflect.DeepEqual(parsed.Histograms, want.Histograms) {
		t.Fatalf("histograms:\n got %+v\nwant %+v", parsed.Histograms, want.Histograms)
	}
}

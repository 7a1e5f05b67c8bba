// Command iwserver runs a standalone InterWeave server.
//
// Usage:
//
//	iwserver -addr :7777 -journal-dir /var/lib/interweave
//
// The server maintains the master copy of every segment clients
// create under its address, arbitrates write locks, serves
// wire-format diffs under relaxed coherence, and pushes invalidation
// notifications. With -journal-dir it is persistent (DESIGN.md §9):
// every committed diff is appended to a per-segment journal before the
// client sees the acknowledgement, and restart recovery replays the
// journal tail on top of the last compacted base. Without it, segments
// live in memory only.
//
// Cold-segment eviction (DESIGN.md §12) lets a journal-mode server
// address more state than RAM:
//
//	iwserver -addr :7777 -journal-dir /var/lib/interweave \
//	  -max-resident-bytes 268435456
//
// A background sweep, every -evict-interval, drops the in-memory image
// of idle segments — least-recently-touched first — whenever the
// estimated resident footprint exceeds -max-resident-bytes; each
// eviction first forces a compaction so the journal base captures the
// state exactly. The next touch faults the segment back in
// transparently. -max-resident-bytes requires -journal-dir.
//
// For resilience testing the listener can be wrapped in a seeded
// fault schedule (internal/faultnet):
//
//	iwserver -addr :7777 -chaos-seed 42
//
// injects the same connection resets on every run with the same seed,
// so client retry behavior is reproducible end to end.
//
// Cluster mode (DESIGN.md §7) joins the server to a sharded,
// replicated cluster:
//
//	iwserver -addr :7777 -cluster-self host1:7777 \
//	  -cluster-peers host2:7777,host3:7777 -cluster-replicas 1
//
// -cluster-self is this node's address as peers and clients dial it;
// every node must be started with the same total member set (its own
// self plus its peers) so the epoch-1 views agree. Segments the
// consistent-hash ring places elsewhere are answered with redirects,
// committed writes stream to -cluster-replicas successors before the
// client sees the acknowledgement, and a fixed peer heartbeat drives
// failure detection and replica promotion.
//
// Session scale (DESIGN.md §10, CAPACITY.md): clients may multiplex
// many logical sessions onto each connection;
//
//	iwserver -addr :7777 -max-sessions 120000
//
// refuses session creation over the cap (CodeOverloaded). Fixed queue
// bounds shed slow subscribers and evict connections that stop
// draining replies.
//
// Observability (see OBSERVABILITY.md) is opt-in:
//
//	iwserver -addr :7777 -metrics-addr :9090
//
// serves Prometheus text metrics on /metrics, the node health verdict
// on /healthz (503 when overloaded), the full SLO report on
// /debug/slo, the flight-recorder event ring on /debug/flight (it is
// also dumped on panic), a per-segment JSON snapshot on
// /debug/segments, distributed traces on /debug/traces (JSON, ?id=
// detail, ?format=chrome Perfetto export), a runtime health snapshot
// on /debug/runtime, and the standard pprof profiles under
// /debug/pprof/. With -metrics-addr :0 the chosen port is logged at
// startup, and in cluster mode the bound address is advertised in
// membership gossip so fleet tools (tools/iwtop) can discover every
// node's scrape endpoint from one seed. Tracing is on whenever
// -metrics-addr is set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/faultnet"
	"interweave/internal/obs"
	"interweave/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iwserver:", err)
		os.Exit(1)
	}
}

// Settings the command fixes rather than exposes. Chaos mode spreads
// chaosResets resets over the first chaosConns connections, each at a
// byte offset up to chaosMaxBytes, with no added latency.
const (
	clusterHeartbeat = 500 * time.Millisecond
	chaosConns       = 16
	chaosResets      = 4
	chaosMaxBytes    = 64 << 10
)

func run(args []string) error {
	fs := flag.NewFlagSet("iwserver", flag.ContinueOnError)
	addr := fs.String("addr", ":7777", "listen address")
	journalDir := fs.String("journal-dir", "", "log-structured journal directory: releases append before ack, recovery is base+replay (empty = in-memory only)")
	maxResident := fs.Int64("max-resident-bytes", 0, "in-memory budget across segments: idle journaled segments evict (LRU) to stay under it and fault back in on touch (0 = unlimited, requires -journal-dir)")
	evictInterval := fs.Duration("evict-interval", 0, "eviction sweep cadence (0 = default, negative = off)")
	quiet := fs.Bool("quiet", false, "suppress diagnostics")
	maxSessions := fs.Int("max-sessions", 0, "cap on concurrent logical sessions, refusals answer CodeOverloaded (0 = unlimited)")
	chaosSeed := fs.Int64("chaos-seed", 0, "inject seeded connection resets into the listener (0 = off)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and the /debug endpoints on this address, and record traces (empty = off)")
	clusterSelf := fs.String("cluster-self", "", "this node's address as peers and clients dial it (enables cluster mode)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated peer addresses")
	clusterReplicas := fs.Int("cluster-replicas", 1, "replicas each segment streams committed writes to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := server.Options{
		JournalDir:       *journalDir,
		MaxResidentBytes: *maxResident,
		EvictInterval:    *evictInterval,
		MaxSessions:      *maxSessions,
		Flight:           obs.NewFlightRecorder(obs.DefaultFlightCapacity),
	}
	if !*quiet {
		logger := log.New(os.Stderr, "iwserver: ", log.LstdFlags)
		opts.Logf = logger.Printf
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		tracer = obs.NewTracer(obs.TracerOptions{})
		opts.Tracer = tracer
	}
	// The metrics listener binds before the cluster node is built: its
	// bound address is advertised on this node's member entry, which is
	// how fleet tools (tools/iwtop) learn every node's scrape endpoint
	// from membership gossip alone.
	var mln net.Listener
	if reg != nil {
		var err error
		mln, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", *metricsAddr, err)
		}
		defer mln.Close()
	}
	var node *cluster.Node
	if *clusterSelf != "" {
		var peers []string
		for _, p := range strings.Split(*clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) == 0 {
			return fmt.Errorf("cluster mode needs -cluster-peers alongside -cluster-self")
		}
		var advertise string
		if mln != nil {
			advertise = cluster.AdvertiseAddr(mln.Addr().String(), *clusterSelf)
		}
		node = cluster.NewNode(cluster.Options{
			Self:        *clusterSelf,
			Peers:       peers,
			Replicas:    *clusterReplicas,
			Heartbeat:   clusterHeartbeat,
			MetricsAddr: advertise,
			Metrics:     reg,
			Logf:        opts.Logf,
		})
		opts.Cluster = node
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	if node != nil {
		node.Start()
		defer node.Close()
	}
	if mln != nil {
		go func() { _ = http.Serve(mln, metricsMux(reg, srv, tracer)) }()
		if !*quiet {
			log.Printf("iwserver: metrics on http://%s/metrics", mln.Addr())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *chaosSeed != 0 {
		rules := faultnet.ChaosRules(*chaosSeed, chaosConns, chaosResets, chaosMaxBytes, 0)
		ln = faultnet.WrapListener(ln, faultnet.NewSchedule(rules...))
		if !*quiet {
			log.Printf("iwserver: chaos schedule active (seed %d, %d rules)", *chaosSeed, len(rules))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if !*quiet {
		log.Printf("iwserver: listening on %s", ln.Addr())
	}
	select {
	case s := <-sig:
		if !*quiet {
			log.Printf("iwserver: %v, shutting down", s)
		}
		return srv.Close()
	case err := <-errc:
		return err
	}
}

// metricsMux builds the observability surface: Prometheus text on
// /metrics, per-segment JSON on /debug/segments, traces on
// /debug/traces, runtime health on /debug/runtime, and pprof under
// /debug/pprof/.
func metricsMux(reg *obs.Registry, srv *server.Server, tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/healthz", srv.HealthzHandler())
	mux.Handle("/debug/slo", srv.SLOHandler())
	mux.Handle("/debug/flight", obs.FlightHandler(srv.Flight()))
	mux.HandleFunc("/debug/segments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.DebugSegments())
	})
	mux.Handle("/debug/traces", obs.TraceHandler(tracer))
	mux.Handle("/debug/runtime", obs.RuntimeHandler())
	// pprof registers itself on http.DefaultServeMux; mount its
	// handlers explicitly since this mux is private.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

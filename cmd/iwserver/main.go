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
// client sees the acknowledgement, restart recovery replays the
// journal tail on top of the last compacted base, and
// -journal-compact-bytes bounds each segment's log between
// compactions. Without it, segments live in memory only.
//
// Cold-segment eviction (DESIGN.md §12) lets a journal-mode server
// address more state than RAM:
//
//	iwserver -addr :7777 -journal-dir /var/lib/interweave \
//	  -max-resident-bytes 268435456 -evict-idle-age 10m
//
// A background sweep drops the in-memory image of idle segments —
// least-recently-touched first — whenever the estimated resident
// footprint exceeds -max-resident-bytes, and (independently) any
// segment untouched for -evict-idle-age; each eviction first forces a
// compaction so the journal base captures the state exactly. The next
// touch faults the segment back in transparently. Both flags require
// -journal-dir.
//
// For resilience testing the listener can be wrapped in a seeded
// fault schedule (internal/faultnet):
//
//	iwserver -addr :7777 -chaos-seed 42 -chaos-resets 8 -chaos-max-delay 2ms
//
// injects the same connection resets and latency on every run with
// the same seed, so client retry behavior is reproducible end to end.
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
// client sees the acknowledgement, and -cluster-heartbeat drives
// failure detection and replica promotion.
//
// Session scale (DESIGN.md §10, CAPACITY.md): clients may multiplex
// many logical sessions onto each connection, and four knobs bound
// the server's exposure to load and slow consumers:
//
//	iwserver -addr :7777 -max-sessions 120000
//
// -max-sessions refuses session creation over the cap
// (CodeOverloaded), -session-queue and -conn-queue bound the
// outbound queues whose overflow sheds (and evicts) slow
// subscribers, and -write-timeout evicts connections that stop
// draining replies. Every release takes the commit pipeline, which
// coalesces a hot segment's journal, replication, and notification
// work across whatever releases queue behind a flush; it has no knob.
//
// Observability (see OBSERVABILITY.md) is opt-in:
//
//	iwserver -addr :7777 -metrics-addr :9090
//
// serves Prometheus text metrics on /metrics, the node health verdict
// on /healthz (503 when overloaded; -slo-short/-slo-long/-slo-sample
// tune its burn-rate windows), the full SLO report on /debug/slo, the
// flight-recorder event ring on /debug/flight (-flight-capacity sizes
// it; it is also dumped on panic), a per-segment JSON snapshot on
// /debug/segments, distributed traces on /debug/traces (JSON, ?id=
// detail, ?format=chrome Perfetto export), a runtime health snapshot
// on /debug/runtime, and the standard pprof profiles under
// /debug/pprof/. With -metrics-addr :0 the chosen port is logged at
// startup, and in cluster mode the bound address is advertised in
// membership gossip so fleet tools (tools/iwtop) can discover every
// node's scrape endpoint from one seed. Tracing rides the same flag;
// -trace=false turns it off, and -trace-capacity / -trace-sample /
// -trace-slowest tune the tail-sampled store.
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

func run(args []string) error {
	fs := flag.NewFlagSet("iwserver", flag.ContinueOnError)
	addr := fs.String("addr", ":7777", "listen address")
	journalDir := fs.String("journal-dir", "", "log-structured journal directory: releases append before ack, recovery is base+replay (empty = in-memory only)")
	journalCompact := fs.Int64("journal-compact-bytes", server.DefaultJournalCompactBytes, "per-segment log size that triggers compaction into a fresh base (negative = only eviction/shutdown compaction)")
	maxResident := fs.Int64("max-resident-bytes", 0, "in-memory budget across segments: idle journaled segments evict (LRU) to stay under it and fault back in on touch (0 = unlimited, requires -journal-dir)")
	evictIdleAge := fs.Duration("evict-idle-age", 0, "evict any journaled segment untouched this long, even under budget (0 = off, requires -journal-dir)")
	evictInterval := fs.Duration("evict-interval", 0, "eviction sweep cadence (0 = default, negative = off)")
	quiet := fs.Bool("quiet", false, "suppress diagnostics")
	maxSessions := fs.Int("max-sessions", 0, "cap on concurrent logical sessions, refusals answer CodeOverloaded (0 = unlimited)")
	sessionQueue := fs.Int("session-queue", 0, "outbound frames one session may queue before notifications shed it (0 = default)")
	connQueue := fs.Int("conn-queue", 0, "per-connection writer queue shared by its sessions (0 = default)")
	writeTimeout := fs.Duration("write-timeout", 0, "how long a reply may wait for queue space before the connection is evicted as stuck (0 = default)")
	chaosSeed := fs.Int64("chaos-seed", 0, "inject seeded faults into the listener (0 = off)")
	chaosConns := fs.Int("chaos-conns", 16, "connections the chaos schedule spreads resets over")
	chaosResets := fs.Int("chaos-resets", 4, "connection resets in the chaos schedule")
	chaosMaxBytes := fs.Int64("chaos-max-bytes", 64<<10, "latest byte offset at which a chaos reset fires")
	chaosMaxDelay := fs.Duration("chaos-max-delay", 0, "upper bound for chaos per-chunk latency (0 = none)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and the /debug endpoints on this address (empty = off)")
	traceOn := fs.Bool("trace", true, "record distributed traces when -metrics-addr is set")
	traceCap := fs.Int("trace-capacity", 256, "finished traces kept in the tail-sampled store")
	traceSample := fs.Float64("trace-sample", 1, "probability of keeping an unremarkable trace (errored and slowest-N are always kept; negative = 0)")
	traceSlowest := fs.Int("trace-slowest", 16, "slowest-N traces always kept regardless of sampling")
	clusterSelf := fs.String("cluster-self", "", "this node's address as peers and clients dial it (enables cluster mode)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated peer addresses")
	clusterReplicas := fs.Int("cluster-replicas", 1, "replicas each segment streams committed writes to")
	clusterVNodes := fs.Int("cluster-vnodes", 0, "virtual nodes per member on the hash ring (0 = default)")
	clusterHeartbeat := fs.Duration("cluster-heartbeat", 500*time.Millisecond, "peer probe interval for failure detection (0 = off)")
	flightCap := fs.Int("flight-capacity", obs.DefaultFlightCapacity, "events the always-on flight recorder retains for /debug/flight and panic post-mortems (0 = off)")
	sloShort := fs.Duration("slo-short", 0, "short SLO burn-rate window for /healthz and /debug/slo (0 = default)")
	sloLong := fs.Duration("slo-long", 0, "long SLO burn-rate window (0 = default)")
	sloSample := fs.Duration("slo-sample", 0, "SLO sampling cadence (0 = default, negative = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := server.Options{
		JournalDir:          *journalDir,
		JournalCompactBytes: *journalCompact,
		MaxResidentBytes:    *maxResident,
		EvictIdleAge:        *evictIdleAge,
		EvictInterval:       *evictInterval,
		MaxSessions:         *maxSessions,
		SessionSendQueue:    *sessionQueue,
		ConnSendQueue:       *connQueue,
		WriteTimeout:        *writeTimeout,
		SLOShortWindow:      *sloShort,
		SLOLongWindow:       *sloLong,
		SLOSampleEvery:      *sloSample,
	}
	if *flightCap > 0 {
		opts.Flight = obs.NewFlightRecorder(*flightCap)
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
		if *traceOn {
			tracer = obs.NewTracer(obs.TracerOptions{
				Capacity:   *traceCap,
				SampleRate: *traceSample,
				SlowestN:   *traceSlowest,
			})
			opts.Tracer = tracer
		}
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
			advertise = advertiseAddr(mln.Addr().String(), *clusterSelf)
		}
		node = cluster.NewNode(cluster.Options{
			Self:        *clusterSelf,
			Peers:       peers,
			Replicas:    *clusterReplicas,
			VNodes:      *clusterVNodes,
			Heartbeat:   *clusterHeartbeat,
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
		rules := faultnet.ChaosRules(*chaosSeed, *chaosConns, *chaosResets, *chaosMaxBytes, *chaosMaxDelay)
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

// advertiseAddr turns the metrics listener's bound address into the
// address peers should be told to scrape: a bind to an unspecified
// host (":9090", "0.0.0.0:9090") advertises the cluster-self host with
// the bound port, since peers cannot dial the wildcard.
func advertiseAddr(bound, self string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return bound
	}
	if sh, _, err := net.SplitHostPort(self); err == nil && sh != "" {
		return net.JoinHostPort(sh, port)
	}
	return net.JoinHostPort("127.0.0.1", port)
}

// metricsMux builds the observability surface: Prometheus text on
// /metrics, per-segment JSON on /debug/segments, traces on
// /debug/traces (when tracing is on), runtime health on
// /debug/runtime, and pprof under /debug/pprof/.
func metricsMux(reg *obs.Registry, srv *server.Server, tracer *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/healthz", srv.HealthzHandler())
	mux.Handle("/debug/slo", srv.SLOHandler())
	if f := srv.Flight(); f != nil {
		mux.Handle("/debug/flight", obs.FlightHandler(f))
	}
	mux.HandleFunc("/debug/segments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.DebugSegments())
	})
	if tracer != nil {
		mux.Handle("/debug/traces", obs.TraceHandler(tracer))
	}
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

// Command iwproxy runs a read fan-out proxy (DESIGN.md §11).
//
// Usage:
//
//	iwproxy -addr :7788 -upstream origin:7777
//
// The proxy follows each segment once upstream — the upstream pushes
// it every committed diff — and serves ReadLock/Subscribe/Notify to
// any number of downstream clients from a local mirror; WriteLock/WriteUnlock/TxCommit/Resume are forwarded
// upstream untouched. Downstream clients speak the ordinary protocol
// — pointing an existing client (or tools/loadgen) at a proxy is an
// address change, nothing more. Proxies chain: -upstream may name
// another proxy, forming a distribution tree.
//
// Staleness is bounded with -max-lag (versions): a read that finds the
// mirror further behind waits for it to catch up with the upstream
// first. When the
// upstream is unreachable the proxy serves degraded stale reads
// (counted in iw_proxy_reads_degraded_total) and reroutes via the
// cluster ring when the upstream was clustered.
//
// Observability mirrors iwserver: -metrics-addr serves Prometheus
// text on /metrics and the health verdict on /healthz. The metrics
// address is advertised through the upstream cluster's gossip, so
// tools/iwtop discovers proxies exactly like servers.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/obs"
	"interweave/internal/proxy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iwproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iwproxy", flag.ContinueOnError)
	addr := fs.String("addr", ":7788", "downstream listen address")
	upstream := fs.String("upstream", "", "upstream server or proxy address (required)")
	advertise := fs.String("advertise", "", "address downstream clients reach this proxy at (default: the bound listen address)")
	maxLag := fs.Uint("max-lag", 0, "staleness bound in versions: reads finding the mirror further behind wait for it to catch up (0 = unbounded)")
	syncEvery := fs.Duration("sync-every", proxy.DefaultSyncEvery, "maintenance cadence: each mirror re-subscribes upstream as a follower, catching up on anything missed")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty = off)")
	quiet := fs.Bool("quiet", false, "suppress diagnostics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	opts := proxy.Options{
		Upstream:      *upstream,
		Advertise:     *advertise,
		MaxVersionLag: uint32(*maxLag),
		SyncEvery:     *syncEvery,
	}
	if !*quiet {
		logger := log.New(os.Stderr, "iwproxy: ", log.LstdFlags)
		opts.Logf = logger.Printf
	}
	var reg *obs.Registry
	var mln net.Listener
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		var err error
		mln, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", *metricsAddr, err)
		}
		defer mln.Close()
		opts.MetricsAddr = cluster.AdvertiseAddr(mln.Addr().String(), firstNonEmpty(*advertise, *addr))
	}
	p, err := proxy.New(opts)
	if err != nil {
		return err
	}
	if mln != nil {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/healthz", p.HealthzHandler())
		go func() { _ = http.Serve(mln, mux) }()
		if !*quiet {
			log.Printf("iwproxy: metrics on http://%s/metrics", mln.Addr())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- p.Serve(ln) }()
	if !*quiet {
		log.Printf("iwproxy: listening on %s, upstream %s", ln.Addr(), *upstream)
	}
	select {
	case s := <-sig:
		if !*quiet {
			log.Printf("iwproxy: %v, shutting down", s)
		}
		// Give in-flight forwards a moment to settle before teardown.
		time.Sleep(10 * time.Millisecond)
		return p.Close()
	case err := <-errc:
		return err
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

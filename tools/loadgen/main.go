// Command loadgen is the open-loop session-scale load generator
// behind the 100k-sessions-per-server claim (EXPERIMENTS.md,
// CAPACITY.md). It opens a large number of logical sessions —
// multiplexed over a handful of TCP connections via core.DialMux —
// against one server, drives ReadLock/ReadUnlock traffic at a fixed
// target rate, and reports SLO latency quantiles computed from an
// obs histogram.
//
// The generator is open-loop: operations are issued on a fixed
// schedule regardless of how fast earlier ones complete, and each
// operation's latency is measured from its INTENDED start time, so
// queueing delay under overload is counted rather than hidden
// (no coordinated omission).
//
// Sessions carry heterogeneous architecture profiles (all five
// arch.Profiles() in rotation), a background writer pool keeps the
// hot segments churning so read locks exercise the diff path, and an
// optional -subscribe fraction subscribes sessions to their segment
// to exercise the notification fan-out and shed path.
//
// -read-ratio mixes write-path traffic into the session schedule: a
// scheduled op is a ReadLock with probability r and a no-op
// WriteLock/WriteUnlock pair otherwise (exercising lock grants and,
// through a proxy, write forwarding — version churn stays with the
// writer pool). -via-proxy points the session connections at a read
// fan-out proxy (DESIGN.md §11) while the seeder and writer pool keep
// talking to the origin; the report then carries the read-staleness
// percentiles — how many versions behind the writers' last commit
// each read's answer was — which is the tier's staleness bound made
// measurable.
//
// Usage:
//
//	go run ./tools/loadgen                         # self-contained: in-process server
//	go run ./tools/loadgen -sessions 100000 -duration 30s -json slo.json
//	go run ./tools/loadgen -addr 127.0.0.1:7777    # against a running iwserver
//
// With -json the run writes a machine-readable SLO document
// (schema "interweave-loadgen/1"); EXPERIMENTS.md explains each
// field. The process exits non-zero when the run could not hold the
// requested session count (refused or evicted sessions), so CI can
// gate on it.
//
// A run against the in-process server also reports that server's own
// health verdict, computed from its SLO tracker after the measurement
// window. With -slo-gate the run additionally fails when that verdict
// is not "ok" — the generator consumes the server's burn-rate math
// instead of re-deriving it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/types"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", "", "server address (empty = start an in-process server)")
	flag.IntVar(&cfg.Sessions, "sessions", 1000, "logical sessions to hold open")
	flag.IntVar(&cfg.Conns, "conns", 16, "TCP connections to multiplex the sessions over")
	flag.Float64Var(&cfg.Rate, "rate", 2000, "target ReadLock issue rate, ops/sec, open-loop")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "measurement duration")
	flag.IntVar(&cfg.Segments, "segments", 16, "hot segments the sessions read")
	flag.IntVar(&cfg.Writers, "writers", 2, "background writer clients churning the segments")
	flag.Float64Var(&cfg.Subscribe, "subscribe", 0, "fraction of sessions subscribing to their segment (exercises notify/shed)")
	flag.Float64Var(&cfg.ReadRatio, "read-ratio", 1, "fraction of scheduled session ops that are reads; the rest are no-op write lock/unlock pairs")
	flag.StringVar(&cfg.ViaProxy, "via-proxy", "", "route the session connections through this proxy address (seeder and writers stay on -addr)")
	flag.StringVar(&cfg.JSONOut, "json", "", "write the SLO document to this path")
	flag.BoolVar(&cfg.SLOGate, "slo-gate", false, "exit non-zero when the post-run health verdict is not \"ok\"")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	Addr        string        `json:"addr"`
	Sessions    int           `json:"sessions"`
	Conns       int           `json:"conns"`
	Rate        float64       `json:"rate_ops_per_sec"`
	Duration    time.Duration `json:"-"`
	DurationStr string        `json:"duration"`
	Segments    int           `json:"segments"`
	Writers     int           `json:"writers"`
	Subscribe   float64       `json:"subscribe_fraction"`
	ReadRatio   float64       `json:"read_ratio"`
	ViaProxy    string        `json:"via_proxy,omitempty"`
	JSONOut     string        `json:"-"`
	SLOGate     bool          `json:"slo_gate"`
}

// loadSession is one held session plus the per-session client state a
// full Client would keep: which segment it reads and the version it
// last saw.
type loadSession struct {
	s      *core.MuxSession
	seg    string
	segIdx int
	have   atomic.Uint32
}

// storeMax raises a monotonic version register.
func storeMax(a *atomic.Uint32, v uint32) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// report is the -json SLO document.
type report struct {
	Schema   string `json:"schema"`
	When     string `json:"when"`
	Go       string `json:"go"`
	NumCPU   int    `json:"num_cpu"`
	Config   config `json:"config"`
	Sessions struct {
		Target  int   `json:"target"`
		Open    int   `json:"open"`
		Refused int64 `json:"refused"`
		Evicted int64 `json:"evicted"`
	} `json:"sessions"`
	Ops struct {
		Issued   int64   `json:"issued"`
		Done     int64   `json:"done"`
		Errors   int64   `json:"errors"`
		Rate     float64 `json:"achieved_ops_per_sec"`
		Fresh    int64   `json:"fresh"`
		Diffs    int64   `json:"diffs"`
		Writes   int64   `json:"writes"`
		Notifies int64   `json:"notifies"`
	} `json:"ops"`
	ReadLock histReport `json:"readlock_seconds"`
	// Staleness is the observed read staleness in versions: for each
	// read, how far the answered version lagged the writers' newest
	// committed version at that moment. Always ~0 against the origin;
	// through a proxy it measures the tier's staleness bound.
	Staleness histReport `json:"read_staleness_versions"`
	// Health is the in-process server's own post-run verdict; absent
	// against an external server.
	Health *server.Health `json:"health,omitempty"`
}

// histReport is an SLO summary of one latency histogram. Quantiles
// are conservative: each reports the upper bound of the bucket the
// quantile falls in.
type histReport struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

func summarize(s obs.HistSnapshot) histReport {
	r := histReport{Count: s.Count}
	if s.Count == 0 {
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
				return s.Bounds[len(s.Bounds)-1] * 4 // +Inf bucket: one rung past the ladder
			}
		}
		return s.Bounds[len(s.Bounds)-1] * 4
	}
	r.P50, r.P90, r.P99, r.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	return r
}

func run(cfg config) error {
	cfg.DurationStr = cfg.Duration.String()
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.Segments < 1 {
		cfg.Segments = 1
	}

	// Server: in-process unless targeting a running one. The
	// in-process server carries its own registry and SLO tracker so
	// the report can include the server-side verdict; sampling is
	// manual (disabled loop) so the two samples bracket the
	// measurement window exactly.
	var inproc *server.Server
	if cfg.Addr == "" {
		srv, err := server.New(server.Options{
			Metrics:        obs.NewRegistry(),
			SLOSampleEvery: -1,
		})
		if err != nil {
			return err
		}
		inproc = srv
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		cfg.Addr = ln.Addr().String()
		fmt.Printf("in-process server on %s\n", cfg.Addr)
	}

	// Seed the hot segments with one int32 array each.
	segNames := make([]string, cfg.Segments)
	seeder, err := core.NewClient(core.Options{Name: "loadgen-seeder"})
	if err != nil {
		return err
	}
	for i := range segNames {
		segNames[i] = fmt.Sprintf("%s/load-%d", cfg.Addr, i)
		if err := seedSegment(seeder, segNames[i]); err != nil {
			_ = seeder.Close()
			return fmt.Errorf("seeding %s: %w", segNames[i], err)
		}
	}

	// Background writers churn the segments so read locks see diffs.
	// committed[i] tracks the newest version the writer pool has
	// released for segment i — the reference the read-staleness
	// percentiles are measured against.
	committed := make([]atomic.Uint32, len(segNames))
	stopWriters := make(chan struct{})
	var writerWG sync.WaitGroup
	var writeErrs atomic.Int64
	for w := 0; w < cfg.Writers; w++ {
		prof := arch.Profiles()[w%len(arch.Profiles())]
		wc, err := core.NewClient(core.Options{Name: fmt.Sprintf("loadgen-writer-%d", w), Profile: prof})
		if err != nil {
			_ = seeder.Close()
			return err
		}
		defer wc.Close()
		writerWG.Add(1)
		go func(w int, wc *core.Client) {
			defer writerWG.Done()
			runWriter(w, wc, segNames, committed, stopWriters, &writeErrs)
		}(w, wc)
	}
	_ = seeder.Close()

	// Open the sessions: cfg.Sessions spread over cfg.Conns
	// connections, heterogeneous profiles in rotation.
	var evicted atomic.Int64
	var notifies atomic.Int64
	profiles := arch.Profiles()
	dialAddr := cfg.Addr
	if cfg.ViaProxy != "" {
		dialAddr = cfg.ViaProxy
		fmt.Printf("sessions via proxy %s\n", dialAddr)
	}
	mcs := make([]*core.MuxConn, cfg.Conns)
	for i := range mcs {
		mc, err := core.DialMux(dialAddr, core.MuxOptions{
			OnEvict:  func(*core.MuxSession, string) { evicted.Add(1) },
			OnNotify: func(*core.MuxSession, string, uint32) { notifies.Add(1) },
		})
		if err != nil {
			return err
		}
		defer mc.Close()
		mcs[i] = mc
	}
	openStart := time.Now()
	sessions := make([]*loadSession, cfg.Sessions)
	var refused atomic.Int64
	var openWG sync.WaitGroup
	setupWorkers := 64 * cfg.Conns
	if setupWorkers > 1024 {
		setupWorkers = 1024
	}
	idxCh := make(chan int, setupWorkers)
	for w := 0; w < setupWorkers; w++ {
		openWG.Add(1)
		go func() {
			defer openWG.Done()
			for i := range idxCh {
				mc := mcs[i%len(mcs)]
				prof := profiles[i%len(profiles)]
				ms, err := mc.NewSession(fmt.Sprintf("loadgen-%d", i), prof.Name)
				if err != nil {
					refused.Add(1)
					continue
				}
				ls := &loadSession{s: ms, seg: segNames[i%len(segNames)], segIdx: i % len(segNames)}
				if cfg.Subscribe > 0 && float64(i%1000) < cfg.Subscribe*1000 {
					if _, err := ms.Call(&protocol.Subscribe{Seg: ls.seg, Policy: coherence.Full()}); err != nil {
						fmt.Fprintf(os.Stderr, "loadgen: subscribe %s: %v\n", ls.seg, err)
					}
				}
				sessions[i] = ls
			}
		}()
	}
	for i := range sessions {
		idxCh <- i
	}
	close(idxCh)
	openWG.Wait()
	held := sessions[:0:0]
	for _, ls := range sessions {
		if ls != nil {
			held = append(held, ls)
		}
	}
	fmt.Printf("opened %d/%d sessions over %d conns in %v (%d refused)\n",
		len(held), cfg.Sessions, cfg.Conns, time.Since(openStart).Round(time.Millisecond), refused.Load())
	if len(held) == 0 {
		return fmt.Errorf("no sessions opened")
	}

	// Open-loop measurement: schedule ops at the target rate and
	// measure from intended start.
	reg := obs.NewRegistry()
	hist := reg.Histogram("loadgen_readlock_seconds",
		"ReadLock round-trip latency measured from intended (open-loop) start.",
		obs.DurationBuckets)
	staleHist := reg.Histogram("loadgen_read_staleness_versions",
		"Observed read staleness: versions behind the writers' newest commit.",
		versionBuckets)
	var issued, done, opErrs, fresh, diffs, writes atomic.Int64
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ops := make(chan time.Time, 8192)
	measureStart := time.Now()
	if inproc != nil {
		inproc.SampleSLO(measureStart) // baseline: SLO windows cover the measurement only
	}
	go func() {
		defer close(ops)
		deadline := measureStart.Add(cfg.Duration)
		next := measureStart
		for next.Before(deadline) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			ops <- next
			issued.Add(1)
			next = next.Add(interval)
		}
	}()
	var opWG sync.WaitGroup
	var rr atomic.Uint64
	readPerMille := int64(cfg.ReadRatio * 1000)
	for w := 0; w < opWorkers; w++ {
		opWG.Add(1)
		go func() {
			defer opWG.Done()
			for intended := range ops {
				seq := rr.Add(1)
				ls := held[seq%uint64(len(held))]
				if int64(seq%1000) >= readPerMille {
					// Write-path op: grab and release the write lock with
					// no diff. Versions don't move, but the lock grant —
					// and, through a proxy, the forward — is real.
					if _, err := ls.s.Call(&protocol.WriteLock{Seg: ls.seg}); err != nil {
						opErrs.Add(1)
						continue
					}
					if _, err := ls.s.Call(&protocol.WriteUnlock{Seg: ls.seg}); err != nil {
						opErrs.Add(1)
						continue
					}
					writes.Add(1)
					done.Add(1)
					continue
				}
				have := ls.have.Load()
				reply, err := ls.s.Call(&protocol.ReadLock{Seg: ls.seg, HaveVersion: have})
				hist.ObserveSince(intended)
				if err != nil {
					opErrs.Add(1)
					continue
				}
				if lr, ok := reply.(*protocol.LockReply); ok {
					if lr.Fresh {
						fresh.Add(1)
					} else if lr.Diff != nil {
						diffs.Add(1)
						ls.have.Store(lr.Diff.Version)
					}
					// Staleness: the answered version vs the newest the
					// writer pool had committed. Writers race reads, so
					// clamp the occasional negative to zero.
					if want := committed[ls.segIdx].Load(); want > ls.have.Load() {
						staleHist.Observe(float64(want - ls.have.Load()))
					} else {
						staleHist.Observe(0)
					}
				}
				_, _ = ls.s.Call(&protocol.ReadUnlock{Seg: ls.seg})
				done.Add(1)
			}
		}()
	}
	opWG.Wait()
	elapsed := time.Since(measureStart)
	close(stopWriters)
	writerWG.Wait()
	if inproc != nil {
		inproc.SampleSLO(time.Now())
	}

	// Report.
	var rep report
	rep.Schema = "interweave-loadgen/1"
	rep.When = time.Now().UTC().Format(time.RFC3339)
	rep.Go = runtime.Version()
	rep.NumCPU = runtime.NumCPU()
	rep.Config = cfg
	rep.Sessions.Target = cfg.Sessions
	rep.Sessions.Open = len(held)
	rep.Sessions.Refused = refused.Load()
	rep.Sessions.Evicted = evicted.Load()
	rep.Ops.Issued = issued.Load()
	rep.Ops.Done = done.Load()
	rep.Ops.Errors = opErrs.Load() + writeErrs.Load()
	rep.Ops.Rate = float64(done.Load()) / elapsed.Seconds()
	rep.Ops.Fresh = fresh.Load()
	rep.Ops.Diffs = diffs.Load()
	rep.Ops.Writes = writes.Load()
	rep.Ops.Notifies = notifies.Load()
	rep.ReadLock = summarize(hist.Snapshot())
	rep.Staleness = summarize(staleHist.Snapshot())
	if inproc != nil {
		h := inproc.Health(time.Now())
		rep.Health = &h
	}

	fmt.Printf("held %d sessions; %d ops in %v (%.0f/s, target %.0f/s); fresh=%d diffs=%d errors=%d\n",
		len(held), done.Load(), elapsed.Round(time.Millisecond), rep.Ops.Rate, cfg.Rate,
		fresh.Load(), diffs.Load(), rep.Ops.Errors)
	fmt.Printf("ReadLock latency (open-loop): mean=%s p50=%s p90=%s p99=%s p99.9=%s\n",
		secs(rep.ReadLock.Mean), secs(rep.ReadLock.P50), secs(rep.ReadLock.P90),
		secs(rep.ReadLock.P99), secs(rep.ReadLock.P999))
	if rep.Staleness.Count > 0 {
		fmt.Printf("read staleness (versions behind writers): mean=%.2f p50=%.0f p90=%.0f p99=%.0f\n",
			rep.Staleness.Mean, rep.Staleness.P50, rep.Staleness.P90, rep.Staleness.P99)
	}
	if rep.Health != nil {
		line := "server health: " + rep.Health.Status
		if len(rep.Health.Reasons) > 0 {
			line += " (" + strings.Join(rep.Health.Reasons, "; ") + ")"
		}
		fmt.Println(line)
	}

	if cfg.JSONOut != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(cfg.JSONOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.JSONOut)
	}
	if len(held) < cfg.Sessions || evicted.Load() > 0 {
		return fmt.Errorf("held %d/%d sessions (%d refused, %d evicted)",
			len(held), cfg.Sessions, refused.Load(), evicted.Load())
	}
	if cfg.SLOGate {
		if rep.Health == nil {
			return fmt.Errorf("slo gate: no health verdict (needs the in-process server)")
		}
		if rep.Health.Status != server.HealthOK {
			return fmt.Errorf("slo gate: server %s: %s",
				rep.Health.Status, strings.Join(rep.Health.Reasons, "; "))
		}
	}
	return nil
}

func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// Fixed run shape: arrayUnits is the int32 array length each hot
// segment holds, writeEvery each background writer's release interval,
// and opWorkers the number of concurrent operation issuers.
const (
	arrayUnits = 64
	writeEvery = 20 * time.Millisecond
	opWorkers  = 256
)

// versionBuckets is the staleness ladder, in whole versions.
var versionBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

var arrayT = func() *types.Type {
	t, err := types.ArrayOf(types.Int32(), arrayUnits)
	if err != nil {
		panic(err)
	}
	return t
}()

// seedSegment creates a segment holding one named int32 array.
func seedSegment(c *core.Client, name string) error {
	h, err := c.Open(name)
	if err != nil {
		return err
	}
	if err := c.WLock(h); err != nil {
		return err
	}
	if _, err := c.Alloc(h, arrayT, 1, "data"); err != nil {
		_ = c.WUnlock(h)
		return err
	}
	return c.WUnlock(h)
}

// runWriter churns its share of the segments: write-lock, bump one
// int, release — at the configured interval, until stopped.
func runWriter(w int, wc *core.Client, segNames []string, committed []atomic.Uint32, stop <-chan struct{}, errs *atomic.Int64) {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	handles := make([]*core.Segment, len(segNames))
	addrs := make([]mem.Addr, len(segNames))
	ticker := time.NewTicker(writeEvery)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		si := (w + i) % len(segNames)
		if handles[si] == nil {
			h, err := wc.Open(segNames[si])
			if err != nil {
				errs.Add(1)
				continue
			}
			handles[si] = h
		}
		h := handles[si]
		if err := wc.WLock(h); err != nil {
			errs.Add(1)
			continue
		}
		if addrs[si] == 0 {
			// Resolve the seeded array's address once, under the lock
			// (the MIP resolves only against a fresh copy).
			a, err := wc.MIPToPtr(segNames[si] + "#data")
			if err != nil {
				errs.Add(1)
				_ = wc.WUnlock(h)
				continue
			}
			addrs[si] = a
		}
		if err := wc.Heap().WriteI32(addrs[si], rng.Int31()); err != nil {
			errs.Add(1)
		}
		if err := wc.WUnlock(h); err != nil {
			errs.Add(1)
			continue
		}
		storeMax(&committed[si], h.Version())
	}
}

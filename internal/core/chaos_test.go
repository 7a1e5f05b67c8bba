package core

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/faultnet"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/server"
	"interweave/internal/types"
)

// counterSum totals a counter family across its label instances in a
// registry snapshot.
func counterSum(snap obs.Snapshot, family string) uint64 {
	var n uint64
	for key, v := range snap.Counters {
		if key == family || strings.HasPrefix(key, family+"{") {
			n += v
		}
	}
	return n
}

// eventLog is a concurrency-safe obs.TraceFunc recorder.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) record(ev obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// count returns how many recorded events carry the given name.
func (l *eventLog) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// find returns the first recorded event with the given name.
func (l *eventLog) find(name string) (obs.Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Name == name {
			return ev, true
		}
	}
	return obs.Event{}, false
}

// startChaosServer is startServer, but also returns the handle so
// tests can inspect the authoritative segment state.
func startChaosServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, ln.Addr().String()
}

func startChaosProxy(t *testing.T, target string, sched *faultnet.Schedule) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.NewProxy(target, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// fastRetry is the client tuning chaos tests run with: real retry
// machinery, but with backoff measured in milliseconds.
func fastRetry(name string) Options {
	return Options{
		Profile:         arch.AMD64(),
		Name:            name,
		MaxRetries:      8,
		RetryBackoff:    2 * time.Millisecond,
		RetryMaxBackoff: 25 * time.Millisecond,
	}
}

func newChaosClient(t *testing.T, opts Options) *Client {
	t.Helper()
	c, err := NewClient(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// armOnce returns a When predicate that fires on the first chunk
// after arm is set, exactly once — the hook tests use to kill a
// connection at a protocol-defined instant.
func armOnce(arm *atomic.Bool) func(int, faultnet.Direction, int64, []byte) bool {
	return func(int, faultnet.Direction, int64, []byte) bool {
		return arm.CompareAndSwap(true, false)
	}
}

// appRetry redoes a whole critical section until it sticks: chaos
// can exhaust the client's transport retries or abandon a release
// with ErrWriteConflict, and the application-level answer in both
// cases is to run the section again.
func appRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < 60; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return err
}

// serverBytes renders a segment's authoritative content as the wire
// encoding of a from-scratch diff, the canonical form runs are
// compared in.
func serverBytes(t *testing.T, srv *server.Server, name string) []byte {
	t.Helper()
	seg := srv.SegmentSnapshot(name)
	if seg == nil {
		t.Fatalf("server has no segment %q", name)
	}
	d, err := seg.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	return d.Marshal(nil)
}

// chaosAccWorkload is the acceptance sequence from the issue:
// Open → WLock → write → WUnlock → RLock. The second release is the
// one a schedule may kill mid-RPC (the test arms the rule just
// before it). Returns the server-side segment bytes afterwards.
func chaosAccWorkload(t *testing.T, srv *server.Server, segName string, arm *atomic.Bool, reg *obs.Registry, trace obs.TraceFunc) []byte {
	t.Helper()
	opts := fastRetry("acc")
	opts.Metrics = reg
	opts.Trace = trace
	c := newChaosClient(t, opts)
	h, err := c.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 4, "vals")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Heap().WriteI32(blk.Addr+mem.Addr(4*i), int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}

	// The release under fire.
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Heap().WriteI32(blk.Addr+mem.Addr(4*i), int32(10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if arm != nil {
		arm.Store(true)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatalf("write unlock under fault: %v", err)
	}

	if err := c.RLock(h); err != nil {
		t.Fatalf("read lock after recovery: %v", err)
	}
	for i := 0; i < 4; i++ {
		v, err := c.Heap().ReadI32(blk.Addr + mem.Addr(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if want := int32(10 * (i + 1)); v != want {
			t.Errorf("vals[%d] = %d, want %d", i, v, want)
		}
	}
	if err := c.RUnlock(h); err != nil {
		t.Fatal(err)
	}
	return serverBytes(t, srv, segName)
}

// TestChaosAcceptanceMidRPCReset is the issue's acceptance scenario:
// a client behind a fault proxy whose connection is reset in the
// middle of the release RPC must still complete
// Open → WLock → write → WUnlock → RLock through backoff-retry, and
// the server must end up holding exactly the bytes of a fault-free
// run. Both fault points are covered: the request lost before the
// server sees it (Up) and the reply lost after the server applied it
// (Down) — the latter is where at-most-once matters.
func TestChaosAcceptanceMidRPCReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  faultnet.Direction
	}{
		{"request-lost", faultnet.Up},
		{"reply-lost", faultnet.Down},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startChaosServer(t)
			sched := faultnet.NewSchedule()
			var arm atomic.Bool
			sched.AddRule(faultnet.Rule{Dir: tc.dir, Op: faultnet.OpReset, When: armOnce(&arm)})
			p := startChaosProxy(t, addr, sched)
			reg := obs.NewRegistry()
			var events eventLog
			got := chaosAccWorkload(t, srv, p.Addr()+"/acc", &arm, reg, events.record)

			if n := sched.Stats().Resets; n != 1 {
				t.Fatalf("schedule fired %d resets, want exactly 1", n)
			}

			// The observability layer must have seen the recovery: the
			// killed RPC is a transport error, and the release is
			// resolved through the Resume protocol, traced as
			// wunlock.recover plus an outcome event telling the two
			// fault points apart.
			snap := reg.Snapshot()
			if n := counterSum(snap, "iw_client_rpc_transport_errors_total"); n < 1 {
				t.Errorf("transport-error counters total %d, want >= 1", n)
			}
			if _, ok := events.find("wunlock.recover"); !ok {
				t.Error("no wunlock.recover trace event recorded")
			}
			switch tc.dir {
			case faultnet.Up:
				// Request lost before the server saw it: the probe finds
				// nothing applied and the identical release is resent.
				if _, ok := events.find("wunlock.resent"); !ok {
					t.Error("no wunlock.resent trace event for lost request")
				}
			case faultnet.Down:
				// Reply lost after the server applied the release: the
				// probe finds it applied and nothing is resent.
				if _, ok := events.find("wunlock.recover-applied"); !ok {
					t.Error("no wunlock.recover-applied trace event for lost reply")
				}
				if _, ok := events.find("wunlock.resent"); ok {
					t.Error("lost-reply recovery resent the release")
				}
			}

			// Fault-free twin run on its own server, also instrumented:
			// it must record no transport errors or retries at all.
			srv2, addr2 := startChaosServer(t)
			cleanReg := obs.NewRegistry()
			want := chaosAccWorkload(t, srv2, addr2+"/acc", nil, cleanReg, nil)
			cleanSnap := cleanReg.Snapshot()
			if n := counterSum(cleanSnap, "iw_client_rpc_transport_errors_total"); n != 0 {
				t.Errorf("fault-free run recorded %d transport errors, want 0", n)
			}
			if n := counterSum(cleanSnap, "iw_client_rpc_retries_total"); n != 0 {
				t.Errorf("fault-free run recorded %d retries, want 0", n)
			}

			if !bytes.Equal(got, want) {
				t.Errorf("server bytes diverge from fault-free run:\n faulted %x\n clean   %x", got, want)
			}
		})
	}
}

// TestChaosSeededConvergence runs a multi-client workload through a
// proxy loaded with a seeded ChaosRules schedule (resets at fixed
// byte offsets plus per-chunk latency) and checks that the segment
// converges to the fault-free result: every worker's final value is
// present. The schedule derives purely from the seed, so the faults
// injected are identical across runs.
func TestChaosSeededConvergence(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	const workers = 3

	_, addr := startChaosServer(t)
	sched := faultnet.NewSchedule()
	for _, r := range faultnet.ChaosRules(0xC0FFEE, 24, 10, 2000, 200*time.Microsecond) {
		sched.AddRule(r)
	}
	p := startChaosProxy(t, addr, sched)
	segName := p.Addr() + "/conv"

	setup := newChaosClient(t, fastRetry("setup"))
	h, err := setup.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := appRetry(func() error {
		if err := setup.WLock(h); err != nil {
			return err
		}
		if _, ok := h.Mem().BlockByName("slots"); !ok {
			if _, err := setup.Alloc(h, types.Int32(), workers, "slots"); err != nil {
				_ = setup.WUnlock(h)
				return err
			}
		}
		return setup.WUnlock(h)
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- chaosWorker(segName, w, iters)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// A fresh reader through the same proxy sees every worker's last
	// write — exactly what a fault-free run produces.
	reader := newChaosClient(t, fastRetry("reader"))
	hr, err := reader.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := appRetry(func() error { return reader.RLock(hr) }); err != nil {
		t.Fatal(err)
	}
	blk, ok := hr.Mem().BlockByName("slots")
	if !ok {
		t.Fatal("slots block missing")
	}
	for w := 0; w < workers; w++ {
		v, err := reader.Heap().ReadI32(blk.Addr + mem.Addr(4*w))
		if err != nil {
			t.Fatal(err)
		}
		if v != int32(iters) {
			t.Errorf("slot %d = %d, want %d", w, v, iters)
		}
	}
	if err := reader.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
}

func chaosWorker(segName string, w, iters int) error {
	c, err := NewClient(fastRetry(fmt.Sprintf("w%d", w)))
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	var h *Segment
	if err := appRetry(func() error {
		h, err = c.Open(segName)
		return err
	}); err != nil {
		return err
	}
	for i := 1; i <= iters; i++ {
		v := int32(i)
		if err := appRetry(func() error {
			if err := c.WLock(h); err != nil {
				return err
			}
			blk, ok := h.Mem().BlockByName("slots")
			if !ok {
				_ = c.WUnlock(h)
				return fmt.Errorf("worker %d: slots missing", w)
			}
			if err := c.Heap().WriteI32(blk.Addr+mem.Addr(4*w), v); err != nil {
				_ = c.WUnlock(h)
				return err
			}
			return c.WUnlock(h)
		}); err != nil {
			return fmt.Errorf("worker %d iteration %d: %w", w, i, err)
		}
	}
	return nil
}

// TestChaosPartitionDegradedRead pins down the coherence × partition
// interaction: with the client→server direction blackholed, a reader
// under relaxed (Delta) coherence keeps serving its valid cached
// copy — counted in StaleReads — while a Full-coherence reader gets
// an error, because strict freshness cannot be degraded. After the
// partition heals both read normally again.
func TestChaosPartitionDegradedRead(t *testing.T) {
	_, addr := startChaosServer(t)
	sched := faultnet.NewSchedule()
	p := startChaosProxy(t, addr, sched)
	segName := p.Addr() + "/deg"

	w := newChaosClient(t, fastRetry("writer"))
	h, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(h, types.Int32(), 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(blk.Addr, 42); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(h); err != nil {
		t.Fatal(err)
	}

	// Two readers, one relaxed, one strict. A blackholed request
	// hangs rather than failing fast, so reads during the partition
	// depend on RPCTimeout to detect the outage.
	readerOpts := func(name string, reg *obs.Registry, trace obs.TraceFunc) Options {
		o := fastRetry(name)
		o.RPCTimeout = 150 * time.Millisecond
		o.MaxRetries = 1
		o.Metrics = reg
		o.Trace = trace
		return o
	}
	readVal := func(c *Client, h *Segment) (int32, error) {
		if err := c.RLock(h); err != nil {
			return 0, err
		}
		defer func() { _ = c.RUnlock(h) }()
		b, ok := h.Mem().BlockByName("v")
		if !ok {
			return 0, fmt.Errorf("block v missing")
		}
		return c.Heap().ReadI32(b.Addr)
	}

	relaxedReg, strictReg := obs.NewRegistry(), obs.NewRegistry()
	var relaxedEvents eventLog
	relaxed := newChaosClient(t, readerOpts("relaxed", relaxedReg, relaxedEvents.record))
	hr, err := relaxed.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := relaxed.SetPolicy(hr, coherence.Delta(4)); err != nil {
		t.Fatal(err)
	}
	strict := newChaosClient(t, readerOpts("strict", strictReg, nil))
	hf, err := strict.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	// Both fetch version 1 while the link is healthy.
	for _, r := range []struct {
		c *Client
		h *Segment
	}{{relaxed, hr}, {strict, hf}} {
		if v, err := readVal(r.c, r.h); err != nil || v != 42 {
			t.Fatalf("pre-partition read = %d, %v", v, err)
		}
	}

	sched.Partition(faultnet.Up)

	v, err := readVal(relaxed, hr)
	if err != nil {
		t.Fatalf("relaxed reader failed during partition: %v", err)
	}
	if v != 42 {
		t.Errorf("degraded read = %d, want 42", v)
	}
	if n := relaxed.StaleReads(); n != 1 {
		t.Errorf("relaxed StaleReads = %d, want 1", n)
	}
	// The degraded read is observable from the outside: the metric
	// counter advanced and a structured read.degraded event names the
	// affected segment.
	if n := counterSum(relaxedReg.Snapshot(), "iw_client_degraded_reads_total"); n != 1 {
		t.Errorf("relaxed degraded-read counter = %d, want 1", n)
	}
	if ev, ok := relaxedEvents.find("read.degraded"); !ok {
		t.Error("no read.degraded trace event recorded")
	} else {
		if ev.Seg != segName {
			t.Errorf("read.degraded event names segment %q, want %q", ev.Seg, segName)
		}
		if ev.Err == "" {
			t.Error("read.degraded event carries no cause")
		}
	}
	if _, err := readVal(strict, hf); err == nil {
		t.Error("strict reader succeeded during partition, want error")
	}
	if n := strict.StaleReads(); n != 0 {
		t.Errorf("strict StaleReads = %d, want 0", n)
	}
	if n := counterSum(strictReg.Snapshot(), "iw_client_degraded_reads_total"); n != 0 {
		t.Errorf("strict degraded-read counter = %d, want 0", n)
	}

	sched.Heal()

	// The writer publishes version 2; the strict reader must see it.
	if err := w.WLock(h); err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(blk.Addr, 43); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	if v, err := readVal(strict, hf); err != nil || v != 43 {
		t.Errorf("strict read after heal = %d, %v; want 43", v, err)
	}
	// The relaxed reader works again too, within its staleness bound,
	// and no new degraded reads are counted.
	if v, err := readVal(relaxed, hr); err != nil || (v != 42 && v != 43) {
		t.Errorf("relaxed read after heal = %d, %v", v, err)
	}
	if n := relaxed.StaleReads(); n != 1 {
		t.Errorf("relaxed StaleReads after heal = %d, want still 1", n)
	}
	if n := counterSum(relaxedReg.Snapshot(), "iw_client_degraded_reads_total"); n != 1 {
		t.Errorf("relaxed degraded-read counter after heal = %d, want still 1", n)
	}
}

// TestChaosServerRestartMidWorkload combines the proxy with a server
// restart: the backend dies and comes back from its journal on
// the same address mid-workload, and the client's sections ride
// backoff-retry through the outage. The final version count proves
// every section applied exactly once across the restart.
func TestChaosServerRestartMidWorkload(t *testing.T) {
	dir := t.TempDir()
	srv1, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = srv1.Serve(ln) }()

	sched := faultnet.NewSchedule()
	p := startChaosProxy(t, addr, sched)
	segName := p.Addr() + "/restart"

	c := newChaosClient(t, fastRetry("surv"))
	h, err := c.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	var blk *mem.Block
	section := func(v int32) error {
		if err := c.WLock(h); err != nil {
			return err
		}
		if blk == nil {
			if blk, err = c.Alloc(h, types.Int32(), 1, "v"); err != nil {
				_ = c.WUnlock(h)
				return err
			}
		}
		if err := c.Heap().WriteI32(blk.Addr, v); err != nil {
			_ = c.WUnlock(h)
			return err
		}
		return c.WUnlock(h)
	}
	for i := 1; i <= 3; i++ {
		if err := appRetry(func() error { return section(int32(i)) }); err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
	}

	// Close compacts the final state; restart on the same address
	// so the proxy's next backend dial lands on the new instance.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	for i := 4; i <= 6; i++ {
		if err := appRetry(func() error { return section(int32(i)) }); err != nil {
			t.Fatalf("section %d after restart: %v", i, err)
		}
	}

	if err := c.RLock(h); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Heap().ReadI32(blk.Addr); v != 6 {
		t.Errorf("final value = %d, want 6", v)
	}
	if err := c.RUnlock(h); err != nil {
		t.Fatal(err)
	}
	seg := srv2.SegmentSnapshot(segName)
	if seg == nil {
		t.Fatal("segment missing after restart")
	}
	// Six sections on a fresh segment: exactly versions 1 through 6.
	if seg.Version != 6 {
		t.Errorf("server version = %d, want 6 (each section applied once)", seg.Version)
	}
}

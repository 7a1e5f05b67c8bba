package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/faultnet"
	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// doWrite runs one full write cycle (lock, diff, unlock) against seg.
func doWrite(t *testing.T, rc *rawClient, seg string, serial uint32) {
	t.Helper()
	reply, _ := rc.call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("write lock reply = %+v", reply)
	}
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: seg, Diff: intCreateDiff(t, serial, serial)})
	if _, ok := reply.(*protocol.VersionReply); !ok {
		t.Fatalf("unlock reply = %+v", reply)
	}
}

// TestHealthVerdictAndHandlers exercises the /healthz and /debug/slo
// surface on a healthy server: the verdict is ok with real traffic,
// the handlers serve well-formed JSON, and a synthetic shed burst
// flips the verdict to overloaded (503).
func TestHealthVerdictAndHandlers(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{
		Metrics:        reg,
		SLOShortWindow: 10 * time.Second,
		SLOLongWindow:  60 * time.Second,
		SLOSampleEvery: -1, // test drives SampleSLO manually
	})
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "h", Profile: "x86-32le"})
	reply, _ := rc.call(&protocol.OpenSegment{Name: "s", Create: true})
	if _, ok := reply.(*protocol.OpenReply); !ok {
		t.Fatalf("open reply = %+v", reply)
	}
	doWrite(t, rc, "s", 1)

	t0 := time.Now()
	srv.SampleSLO(t0)
	doWrite(t, rc, "s", 2)
	srv.SampleSLO(t0.Add(5 * time.Second))

	h := srv.Health(t0.Add(5 * time.Second))
	if h.Status != HealthOK {
		t.Fatalf("Health = %q (%v), want ok", h.Status, h.Reasons)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("UptimeSeconds = %v, want > 0", h.UptimeSeconds)
	}
	if len(h.SLO.Objectives) != 3 {
		t.Fatalf("SLO objectives = %d, want 3", len(h.SLO.Objectives))
	}

	// /healthz answers 200 with the ok verdict.
	rr := httptest.NewRecorder()
	srv.HealthzHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200 (%s)", rr.Code, rr.Body)
	}
	var got Health
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("/healthz JSON: %v", err)
	}
	if got.Status != HealthOK {
		t.Fatalf("/healthz status = %q, want ok", got.Status)
	}

	// /debug/slo serves the full report.
	rr = httptest.NewRecorder()
	srv.SLOHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	var rep obs.SLOReport
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/debug/slo JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, o := range rep.Objectives {
		names[o.Name] = true
	}
	for _, want := range []string{"read_lock", "write_unlock", "journal_append"} {
		if !names[want] {
			t.Fatalf("/debug/slo missing objective %q (have %v)", want, names)
		}
	}

	// A shed burst between two samples flips the verdict to
	// overloaded, and /healthz answers 503.
	srv.ins.shed.Add(20)
	srv.SampleSLO(t0.Add(8 * time.Second))
	h = srv.Health(t0.Add(8 * time.Second))
	if h.Status != HealthOverloaded {
		t.Fatalf("Health after shed burst = %q (%v), want overloaded", h.Status, h.Reasons)
	}
	rr = httptest.NewRecorder()
	srv.HealthzHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while overloaded = %d, want 503", rr.Code)
	}
}

// TestSLOChaosFlip is the acceptance chaos test: injected faultnet
// latency on the replication path balloons WriteUnlock handling past
// its SLO bound, the verdict flips to degraded, and healing the
// network flips it back to ok — all on one server process, no
// restarts.
func TestSLOChaosFlip(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	// The fault: every replication chunk A sends is delayed well past
	// the 256ms WriteUnlock objective bound, but only while the
	// injecting flag is up — the Dial hook decides per connection, and
	// cluster RPCs are one connection per call.
	var injecting atomic.Bool
	sched := faultnet.NewSchedule(faultnet.Rule{
		Dir: faultnet.Down, Op: faultnet.OpDelay, Delay: 400 * time.Millisecond,
	})
	dial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if injecting.Load() {
			return faultnet.WrapConn(c, sched, 1), nil
		}
		return c, nil
	}

	nodeA := cluster.NewNode(cluster.Options{
		Self: addrA, Peers: []string{addrB}, Replicas: 1,
		DialTimeout: 5 * time.Second, Dial: dial, Logf: t.Logf,
	})
	nodeB := cluster.NewNode(cluster.Options{
		Self: addrB, Peers: []string{addrA}, Replicas: 1,
		DialTimeout: 5 * time.Second, Logf: t.Logf,
	})
	regA := obs.NewRegistry()
	srvA, err := New(Options{
		Cluster: nodeA, Metrics: regA, Logf: t.Logf,
		SLOShortWindow: 10 * time.Second,
		SLOLongWindow:  60 * time.Second,
		SLOSampleEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(Options{Cluster: nodeB, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srvA.Serve(lnA) }()
	go func() { _ = srvB.Serve(lnB) }()
	nodeA.Start()
	nodeB.Start()
	t.Cleanup(func() {
		nodeA.Close()
		nodeB.Close()
		_ = srvA.Close()
		_ = srvB.Close()
	})

	// Pick a segment A owns, so its releases replicate A -> B through
	// the shaped dial.
	seg := ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("chaos-%d", i)
		if nodeA.Ring().Owner(name) == addrA {
			seg = name
			break
		}
	}
	if seg == "" {
		t.Fatal("no segment owned by node A in 64 candidates")
	}

	rc := dialRaw(t, addrA)
	rc.mustAck(&protocol.Hello{ClientName: "chaos", Profile: "x86-32le"})
	if reply, _ := rc.call(&protocol.OpenSegment{Name: seg, Create: true}); reply == nil {
		t.Fatal("open failed")
	}

	t0 := time.Now()
	srvA.SampleSLO(t0)

	// Fault phase: three slow releases land in the short window.
	injecting.Store(true)
	for i := uint32(1); i <= 3; i++ {
		doWrite(t, rc, seg, i)
	}
	srvA.SampleSLO(t0.Add(5 * time.Second))
	h := srvA.Health(t0.Add(5 * time.Second))
	if h.Status != HealthDegraded {
		t.Fatalf("Health under injected latency = %q (%v), want degraded", h.Status, h.Reasons)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "write_unlock") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded reasons %v do not name write_unlock", h.Reasons)
	}

	// Heal and let the short window roll past the fault: the verdict
	// returns to ok without restarting anything.
	injecting.Store(false)
	for i := uint32(4); i <= 6; i++ {
		doWrite(t, rc, seg, i)
	}
	srvA.SampleSLO(t0.Add(30 * time.Second))
	srvA.SampleSLO(t0.Add(35 * time.Second))
	h = srvA.Health(t0.Add(35 * time.Second))
	if h.Status != HealthOK {
		t.Fatalf("Health after heal = %q (%v), want ok", h.Status, h.Reasons)
	}
}

// TestServerGaugesAndDebugSegments checks the scrape-time gauges
// (uptime, per-segment journal disk bytes) and the extended
// /debug/segments fields (sessions, commit-pipeline coalesce stats,
// journal bytes).
func TestServerGaugesAndDebugSegments(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(64)
	srv, addr := startTestServer(t, Options{
		Metrics:             reg,
		Flight:              flight,
		JournalDir:          t.TempDir(),
		JournalCompactBytes: 1 << 20,
		SLOSampleEvery:      -1,
	})
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "g", Profile: "x86-32le"})
	if reply, _ := rc.call(&protocol.OpenSegment{Name: "g", Create: true}); reply == nil {
		t.Fatal("open failed")
	}
	for i := uint32(1); i <= 4; i++ {
		doWrite(t, rc, "g", i)
	}

	snap := reg.Snapshot()
	if up := snap.Gauges["iw_server_uptime_seconds"]; up <= 0 {
		t.Fatalf("iw_server_uptime_seconds = %v, want > 0", up)
	}
	if jb := snap.Gauges[`iw_server_journal_disk_bytes{seg="g"}`]; jb <= 0 {
		t.Fatalf("iw_server_journal_disk_bytes = %v, want > 0", jb)
	}
	if h, ok := snap.Histograms["iw_server_journal_append_seconds"]; !ok || h.Count < 4 {
		t.Fatalf("iw_server_journal_append_seconds count = %+v, want >= 4 observations", h)
	}

	// Hold the write lock so the session is attached, then inspect
	// the debug snapshot.
	reply, _ := rc.call(&protocol.WriteLock{Seg: "g", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("write lock reply = %+v", reply)
	}
	var sd *SegmentDebug
	for _, d := range srv.DebugSegments() {
		if d.Name == "g" {
			d := d
			sd = &d
		}
	}
	if sd == nil {
		t.Fatal("segment g missing from DebugSegments")
	}
	if sd.Sessions < 1 {
		t.Fatalf("Sessions = %d, want >= 1", sd.Sessions)
	}
	if sd.GroupFlushes < 1 || sd.GroupReleases < 4 {
		t.Fatalf("commit pipeline stats = %d flushes / %d releases, want >= 1 / >= 4",
			sd.GroupFlushes, sd.GroupReleases)
	}
	if sd.JournalBytes <= 0 {
		t.Fatalf("JournalBytes = %d, want > 0", sd.JournalBytes)
	}
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "g"})
	if _, ok := reply.(*protocol.VersionReply); !ok {
		t.Fatalf("empty unlock reply = %+v", reply)
	}

	// The flight recorder saw the pipeline's flushes, and a forced
	// compaction leaves a journal.compact event behind.
	if err := srv.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	var sawFlush, sawCompact bool
	for _, ev := range flight.Events() {
		switch ev.Name {
		case "groupcommit.flush":
			if ev.Seg == "g" && ev.N >= 1 {
				sawFlush = true
			}
		case "journal.compact":
			if ev.Seg == "g" {
				sawCompact = true
			}
		}
	}
	if !sawFlush || !sawCompact {
		t.Fatalf("flight events: flush=%v compact=%v, want both (events %v)",
			sawFlush, sawCompact, flight.Events())
	}
	if srv.Flight() != flight {
		t.Fatal("Flight() accessor does not return the configured recorder")
	}
}

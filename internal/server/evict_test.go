package server

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/journal"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// seedEvictSeg drives a segment to version 2 with a known writer
// identity: version 1 creates a 3-int block (7,8,9), version 2
// overwrites it with (10,11,12). All eviction tests share this shape
// so expected bytes are uniform.
func seedEvictSeg(t *testing.T, rc *rawClient, name string) {
	t.Helper()
	rc.call(&protocol.OpenSegment{Name: name, Create: true})
	rc.call(&protocol.WriteLock{Seg: name, Policy: coherence.Full()})
	reply, _ := rc.call(&protocol.WriteUnlock{Seg: name, Diff: intCreateDiff(t, 1, 7, 8, 9), WriterID: "w-e", Seq: 1})
	if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 1 {
		t.Fatalf("seed release 1 = %+v", reply)
	}
	rc.call(&protocol.WriteLock{Seg: name, Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: name, Diff: runDiff(1, 0, 10, 11, 12), WriterID: "w-e", Seq: 2})
	if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 2 {
		t.Fatalf("seed release 2 = %+v", reply)
	}
}

// isResident reports whether the segment's in-memory image is loaded.
func isResident(srv *Server, name string) bool {
	st, ok := srv.reg.get(name)
	if !ok {
		return false
	}
	srv.lockSeg(st)
	defer st.mu.Unlock()
	return st.seg != nil
}

// segImage snapshots a segment's identity triple — encoded bytes,
// version, applied table — under its lock, for byte-exact comparison
// across evict/reload cycles.
func segImage(t *testing.T, srv *Server, name string) ([]byte, uint32, map[string]appliedWrite) {
	t.Helper()
	st, ok := srv.reg.get(name)
	if !ok {
		t.Fatalf("segment %q missing", name)
	}
	srv.lockSeg(st)
	defer st.mu.Unlock()
	if st.seg == nil {
		t.Fatalf("segment %q not resident", name)
	}
	applied := make(map[string]appliedWrite, len(st.applied))
	for k, v := range st.applied {
		applied[k] = v
	}
	return st.seg.encode(), st.seg.Version, applied
}

// TestEvictOptionValidation: the eviction knobs only make sense when a
// journal can serve fault-ins, so booting with a resident budget and no
// journal must refuse with an error that says why, not silently never
// evict.
func TestEvictOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // "" = must succeed
	}{
		{"budget without persistence", Options{MaxResidentBytes: 1 << 20}, "JournalDir"},
		{"idle-age without persistence", Options{EvictIdleAge: time.Minute}, "JournalDir"},
		{"budget with journal", Options{JournalDir: t.TempDir(), MaxResidentBytes: 1 << 20}, ""},
		{"idle-age with journal", Options{JournalDir: t.TempDir(), EvictIdleAge: time.Minute}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(tc.opts)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("New: %v, want success", err)
				}
				_ = srv.Close()
				return
			}
			if err == nil {
				_ = srv.Close()
				t.Fatalf("New succeeded, want an error naming %s", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestEvictReloadTransparent is the subsystem's basic contract: evict
// drops the image and the metrics say so; Resume answers from the stub
// without reloading; the next read faults in a byte-identical image;
// and a write after a second eviction works the same.
func TestEvictReloadTransparent(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{JournalDir: t.TempDir(), Metrics: reg})
	rc := dialRaw(t, addr)
	seedEvictSeg(t, rc, "e/seg")
	wantBytes, wantVer, wantApplied := segImage(t, srv, "e/seg")

	if !srv.EvictSegment("e/seg") {
		t.Fatal("EvictSegment refused an idle journaled segment")
	}
	if isResident(srv, "e/seg") {
		t.Fatal("segment still resident after EvictSegment")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["iw_server_segment_evictions_total"]; got != 1 {
		t.Errorf("evictions counter = %d, want 1", got)
	}
	if got := snap.Gauges["iw_server_segments_resident"]; got != 0 {
		t.Errorf("resident-segments gauge = %v, want 0", got)
	}
	if got := snap.Gauges["iw_server_resident_bytes"]; got != 0 {
		t.Errorf("resident-bytes gauge = %v, want 0", got)
	}
	var dbg *SegmentDebug
	for _, d := range srv.DebugSegments() {
		if d.Name == "e/seg" {
			dd := d
			dbg = &dd
		}
	}
	if dbg == nil {
		t.Fatal("evicted segment missing from DebugSegments")
	}
	if dbg.Resident || dbg.Version != 2 || dbg.MemBytes != 0 {
		t.Errorf("evicted debug row = %+v, want resident=false version=2 mem=0", dbg)
	}

	// Resume answers from the stub: applied table and version survive
	// eviction without the image being reloaded.
	reply, _ := rc.call(&protocol.Resume{Seg: "e/seg", WriterID: "w-e", Seq: 2})
	rr, ok := reply.(*protocol.ResumeReply)
	if !ok || !rr.Applied || rr.AppliedVersion != 2 || rr.CurrentVersion != 2 {
		t.Fatalf("Resume against evicted stub = %+v", reply)
	}
	if isResident(srv, "e/seg") {
		t.Error("Resume faulted the segment in; it must answer from the stub")
	}
	if got := reg.Snapshot().Counters["iw_server_segment_faults_total"]; got != 0 {
		t.Errorf("faults after Resume = %d, want 0", got)
	}

	// The read faults it in, transparently, with the same bytes.
	reply, _ = rc.call(&protocol.ReadLock{Seg: "e/seg", HaveVersion: 0, Policy: coherence.Full()})
	lr, ok := reply.(*protocol.LockReply)
	if !ok || lr.Fresh || lr.Diff == nil {
		t.Fatalf("read lock on evicted segment = %+v", reply)
	}
	if got := wire.NewReader(lr.Diff.Blocks[0].Runs[0].Data).U32(); got != 10 {
		t.Errorf("reloaded data starts with %d, want 10", got)
	}
	rc.mustAck(&protocol.ReadUnlock{Seg: "e/seg"})
	if got := reg.Snapshot().Counters["iw_server_segment_faults_total"]; got != 1 {
		t.Errorf("faults after read = %d, want 1", got)
	}
	gotBytes, gotVer, gotApplied := segImage(t, srv, "e/seg")
	if gotVer != wantVer || !reflect.DeepEqual(gotBytes, wantBytes) {
		t.Errorf("reloaded image differs: version %d vs %d, bytes equal %v", gotVer, wantVer, reflect.DeepEqual(gotBytes, wantBytes))
	}
	if !reflect.DeepEqual(gotApplied, wantApplied) {
		t.Errorf("reloaded applied table %+v, want %+v", gotApplied, wantApplied)
	}

	// Evict again; a write faults in and lands on top.
	if !srv.EvictSegment("e/seg") {
		t.Fatal("second EvictSegment refused")
	}
	rc.call(&protocol.WriteLock{Seg: "e/seg", Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "e/seg", Diff: runDiff(1, 0, 99), WriterID: "w-e", Seq: 3})
	if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 3 {
		t.Fatalf("write after reload = %+v", reply)
	}
	if got := reg.Snapshot().Counters["iw_server_segment_faults_total"]; got != 2 {
		t.Errorf("faults after write = %d, want 2", got)
	}
}

// TestEvictWriterFence: a held write lock fences eviction — the image
// under an open critical section must never be dropped — and the fence
// lifts with the lock.
func TestEvictWriterFence(t *testing.T) {
	srv, addr := startTestServer(t, Options{JournalDir: t.TempDir()})
	rc := dialRaw(t, addr)
	seedEvictSeg(t, rc, "f/seg")
	rc.call(&protocol.WriteLock{Seg: "f/seg", Policy: coherence.Full()})
	if srv.EvictSegment("f/seg") {
		t.Fatal("EvictSegment dropped a segment whose write lock is held")
	}
	reply, _ := rc.call(&protocol.WriteUnlock{Seg: "f/seg", Diff: runDiff(1, 0, 42), WriterID: "w-e", Seq: 3})
	if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 3 {
		t.Fatalf("release = %+v", reply)
	}
	if !srv.EvictSegment("f/seg") {
		t.Fatal("EvictSegment still refused after the lock was released")
	}
}

// TestEvictSubscriberNotify: subscriptions live on the segState, not
// the image — they survive eviction, and a write that faults the
// segment back in still notifies them.
func TestEvictSubscriberNotify(t *testing.T) {
	srv, addr := startTestServer(t, Options{JournalDir: t.TempDir()})
	w := dialRaw(t, addr)
	seedEvictSeg(t, w, "n/seg")
	sub := dialRaw(t, addr)
	sub.mustAck(&protocol.Subscribe{Seg: "n/seg", HaveVersion: 2, Policy: coherence.Full()})

	if !srv.EvictSegment("n/seg") {
		t.Fatal("a subscriber must not fence eviction (notify only runs on writes, which fault in)")
	}
	w.call(&protocol.WriteLock{Seg: "n/seg", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "n/seg", Diff: runDiff(1, 0, 55), WriterID: "w-e", Seq: 3})

	// The notify is pushed asynchronously; a round-trip on the
	// subscriber's connection collects it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, notes := sub.call(&protocol.Resume{Seg: "n/seg", WriterID: "none", Seq: 1})
		if len(notes) > 0 {
			if notes[0].Seg != "n/seg" || notes[0].Version != 3 {
				t.Fatalf("notify = %+v, want n/seg@3", notes[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never notified after the write faulted the segment in")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvictTouchPaths enumerates every frame kind that must fault an
// evicted segment back in — and the ones that must answer from the
// stub without reloading. Replicate and Pull run against a single-node
// cluster (the node is its own owner, so no redirects fire).
func TestEvictTouchPaths(t *testing.T) {
	const seg = "t/seg"
	cases := []struct {
		name         string
		clustered    bool
		wantFaults   uint64
		stillEvicted bool
		touch        func(t *testing.T, srv *Server, rc *rawClient)
	}{
		{name: "open", wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.OpenSegment{Name: seg})
			if or, ok := reply.(*protocol.OpenReply); !ok || or.Version != 2 {
				t.Fatalf("open = %+v", reply)
			}
		}},
		{name: "read-lock", wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.ReadLock{Seg: seg, HaveVersion: 0, Policy: coherence.Full()})
			lr, ok := reply.(*protocol.LockReply)
			if !ok || lr.Diff == nil {
				t.Fatalf("read lock = %+v", reply)
			}
			if got := wire.NewReader(lr.Diff.Blocks[0].Runs[0].Data).U32(); got != 10 {
				t.Errorf("reloaded data starts with %d, want 10", got)
			}
			rc.mustAck(&protocol.ReadUnlock{Seg: seg})
		}},
		{name: "write-lock-release", wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
			if _, ok := reply.(*protocol.LockReply); !ok {
				t.Fatalf("write lock = %+v", reply)
			}
			reply, _ = rc.call(&protocol.WriteUnlock{Seg: seg, Diff: runDiff(1, 0, 77), WriterID: "w-e", Seq: 3})
			if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 3 {
				t.Fatalf("release = %+v", reply)
			}
		}},
		{name: "tx-commit", wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			// The write lock faults the segment in (and from then on
			// fences re-eviction), so the commit itself always runs
			// resident — the invariant the tx path's defensive fault-in
			// backs up.
			reply, _ := rc.call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
			if _, ok := reply.(*protocol.LockReply); !ok {
				t.Fatalf("write lock = %+v", reply)
			}
			if srv.EvictSegment(seg) {
				t.Fatal("segment evicted between write lock and tx commit")
			}
			reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{
				{Seg: seg, Diff: runDiff(1, 0, 88), WriterID: "w-e", Seq: 3},
			}})
			tr, ok := reply.(*protocol.TxReply)
			if !ok || len(tr.Versions) != 1 || tr.Versions[0] != 3 {
				t.Fatalf("tx commit = %+v", reply)
			}
		}},
		{name: "resume-from-stub", wantFaults: 0, stillEvicted: true, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.Resume{Seg: seg, WriterID: "w-e", Seq: 2})
			rr, ok := reply.(*protocol.ResumeReply)
			if !ok || !rr.Applied || rr.AppliedVersion != 2 || rr.CurrentVersion != 2 {
				t.Fatalf("resume = %+v", reply)
			}
		}},
		{name: "subscribe-from-stub", wantFaults: 0, stillEvicted: true, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			rc.mustAck(&protocol.Subscribe{Seg: seg, HaveVersion: 2, Policy: coherence.Full()})
		}},
		{name: "replicate", clustered: true, wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.Replicate{
				Seg: seg, PrevVersion: 2, Version: 3, Diff: runDiff(1, 0, 66),
				Applied: []protocol.AppliedEntry{{WriterID: "w-e", Seq: 3, Version: 3}},
			})
			rr, ok := reply.(*protocol.ReplicateReply)
			if !ok || !rr.Acked || rr.Version != 3 {
				t.Fatalf("replicate = %+v", reply)
			}
		}},
		{name: "pull", clustered: true, wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			reply, _ := rc.call(&protocol.Pull{Seg: seg, HaveVersion: 0})
			pr, ok := reply.(*protocol.PullReply)
			if !ok || pr.Version != 2 || pr.Diff == nil || len(pr.Applied) == 0 {
				t.Fatalf("pull = %+v", reply)
			}
		}},
		{name: "proxy-session-read", wantFaults: 1, touch: func(t *testing.T, srv *Server, rc *rawClient) {
			rc.mustAck(&protocol.ProxyHello{ProxyAddr: "127.0.0.1:0", Name: "edge"})
			reply, _ := rc.call(&protocol.ReadLock{Seg: seg, HaveVersion: 0, Policy: coherence.Full()})
			if lr, ok := reply.(*protocol.LockReply); !ok || lr.Diff == nil {
				t.Fatalf("proxy read lock = %+v", reply)
			}
			rc.mustAck(&protocol.ReadUnlock{Seg: seg})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			opts := Options{JournalDir: t.TempDir(), Metrics: reg}
			if tc.clustered {
				opts.Cluster = cluster.NewNode(cluster.Options{Self: "127.0.0.1:1"})
			}
			srv, addr := startTestServer(t, opts)
			seeder := dialRaw(t, addr)
			seedEvictSeg(t, seeder, seg)
			if !srv.EvictSegment(seg) {
				t.Fatal("EvictSegment refused")
			}
			tc.touch(t, srv, dialRaw(t, addr))
			if got := reg.Snapshot().Counters["iw_server_segment_faults_total"]; got != tc.wantFaults {
				t.Errorf("faults = %d, want %d", got, tc.wantFaults)
			}
			if got := isResident(srv, seg); got == tc.stillEvicted {
				t.Errorf("resident = %v after touch, want %v", got, !tc.stillEvicted)
			}
		})
	}
}

// TestEvictPassBudgetLRU: with a budget that fits two of three equal
// segments, one sweep evicts exactly the least-recently-touched one.
func TestEvictPassBudgetLRU(t *testing.T) {
	// Measure one seeded segment's footprint on a throwaway server:
	// contents are deterministic, so the size transfers.
	probe, paddr := startTestServer(t, Options{JournalDir: t.TempDir()})
	seedEvictSeg(t, dialRaw(t, paddr), "s/0")
	st, _ := probe.reg.get("s/0")
	probe.lockSeg(st)
	segBytes := st.seg.MemBytes()
	st.mu.Unlock()

	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{
		JournalDir:       t.TempDir(),
		MaxResidentBytes: 2*segBytes + segBytes/2,
		EvictInterval:    -1, // sweeps driven by hand
		Metrics:          reg,
	})
	rc := dialRaw(t, addr)
	for _, name := range []string{"s/0", "s/1", "s/2"} {
		seedEvictSeg(t, rc, name)
	}
	time.Sleep(2 * time.Millisecond)
	// Touch the newer two so s/0 is the LRU victim.
	for _, name := range []string{"s/1", "s/2"} {
		reply, _ := rc.call(&protocol.ReadLock{Seg: name, HaveVersion: 2, Policy: coherence.Full()})
		if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
			t.Fatalf("touch read of %s = %+v", name, reply)
		}
		rc.mustAck(&protocol.ReadUnlock{Seg: name})
	}

	if got := srv.EvictPass(); got != 1 {
		t.Fatalf("EvictPass evicted %d segments, want exactly 1 (3x%dB vs %dB budget)", got, segBytes, 2*segBytes+segBytes/2)
	}
	if isResident(srv, "s/0") {
		t.Error("s/0 (least recently touched) survived the sweep")
	}
	for _, name := range []string{"s/1", "s/2"} {
		if !isResident(srv, name) {
			t.Errorf("%s (recently touched) was evicted", name)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["iw_server_segments_resident"]; got != 2 {
		t.Errorf("resident-segments gauge = %v, want 2", got)
	}
	if got := int64(snap.Gauges["iw_server_resident_bytes"]); got > 2*segBytes+segBytes/2 {
		t.Errorf("resident bytes %d still over the %d budget after the sweep", got, 2*segBytes+segBytes/2)
	}
}

// TestEvictPassIdleAge: segments idle past EvictIdleAge are dropped
// regardless of budget; a fresh touch resets the clock.
func TestEvictPassIdleAge(t *testing.T) {
	srv, addr := startTestServer(t, Options{
		JournalDir:    t.TempDir(),
		EvictIdleAge:  5 * time.Millisecond,
		EvictInterval: -1,
	})
	rc := dialRaw(t, addr)
	seedEvictSeg(t, rc, "i/0")
	seedEvictSeg(t, rc, "i/1")
	time.Sleep(20 * time.Millisecond)
	if got := srv.EvictPass(); got != 2 {
		t.Fatalf("EvictPass evicted %d idle segments, want 2", got)
	}
	// Reload one; it was just touched, so the next sweep spares it.
	reply, _ := rc.call(&protocol.ReadLock{Seg: "i/0", HaveVersion: 2, Policy: coherence.Full()})
	if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
		t.Fatalf("reload read = %+v", reply)
	}
	rc.mustAck(&protocol.ReadUnlock{Seg: "i/0"})
	if got := srv.EvictPass(); got != 0 {
		t.Errorf("EvictPass evicted %d segments right after a touch, want 0", got)
	}
	if !isResident(srv, "i/0") {
		t.Error("just-touched segment not resident")
	}
}

// TestEvictLoopBackground: Serve wires the background sweep — an
// over-budget segment is evicted without any manual EvictPass, and
// still serves reads afterwards.
func TestEvictLoopBackground(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{
		JournalDir:       t.TempDir(),
		MaxResidentBytes: 1,
		EvictInterval:    time.Millisecond,
		Metrics:          reg,
	})
	rc := dialRaw(t, addr)
	seedEvictSeg(t, rc, "bg/seg")
	deadline := time.Now().Add(5 * time.Second)
	for isResident(srv, "bg/seg") {
		if time.Now().After(deadline) {
			t.Fatal("background sweep never evicted an over-budget segment")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := reg.Snapshot().Counters["iw_server_segment_evictions_total"]; got == 0 {
		t.Error("evictions counter still zero after the background sweep")
	}
	reply, _ := rc.call(&protocol.ReadLock{Seg: "bg/seg", HaveVersion: 0, Policy: coherence.Full()})
	lr, ok := reply.(*protocol.LockReply)
	if !ok || lr.Diff == nil {
		t.Fatalf("read after background eviction = %+v", reply)
	}
	if got := wire.NewReader(lr.Diff.Blocks[0].Runs[0].Data).U32(); got != 10 {
		t.Errorf("reloaded data starts with %d, want 10", got)
	}
	rc.mustAck(&protocol.ReadUnlock{Seg: "bg/seg"})
}

// release is one step of a generated write history: a diff, the writer
// identity releasing it, and whether it travels as a TxCommit part.
type release struct {
	diff   *wire.SegmentDiff
	writer string
	seq    uint32
	tx     bool
}

// send drives the release through rc against seg — write lock, then a
// WriteUnlock or a one-part TxCommit — and fails the test unless it
// produced version want.
func (r release) send(t *testing.T, rc *rawClient, seg string, want uint32) {
	t.Helper()
	rc.call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
	part := protocol.WriteUnlock{Seg: seg, Diff: r.diff, WriterID: r.writer, Seq: r.seq}
	var reply protocol.Message
	var got uint32
	if r.tx {
		reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{part}})
		if tr, ok := reply.(*protocol.TxReply); ok && len(tr.Versions) == 1 {
			got = tr.Versions[0]
		}
	} else {
		reply, _ = rc.call(&part)
		if vr, ok := reply.(*protocol.VersionReply); ok {
			got = vr.Version
		}
	}
	if got != want {
		t.Fatalf("release %s#%d = %+v, want version %d", r.writer, r.seq, reply, want)
	}
}

// histGen generates a seeded random write history for one segment:
// blocks created under either of two descriptors (int32, int64), one-
// and two-run modifications and frees, released by two writer
// identities, about a quarter of them as TxCommit parts. Every release
// advances the segment by exactly one version.
type histGen struct {
	rng  *rand.Rand
	next uint32 // next block serial
	live []histBlock
	seqs map[string]uint32
}

// histBlock is one live block of a generated history.
type histBlock struct {
	serial uint32
	units  int
	wide   bool // int64 units, else int32
}

func newHistGen(seed int64) *histGen {
	return &histGen{rng: rand.New(rand.NewSource(seed)), next: 1, seqs: make(map[string]uint32)}
}

// step returns the history's next release.
func (g *histGen) step(t *testing.T) release {
	t.Helper()
	writer := []string{"w-a", "w-b"}[g.rng.Intn(2)]
	g.seqs[writer]++
	r := release{writer: writer, seq: g.seqs[writer], tx: g.rng.Intn(4) == 0}
	switch roll := g.rng.Intn(10); {
	case len(g.live) == 0 || roll < 3:
		b := histBlock{serial: g.next, units: 1 + g.rng.Intn(40), wide: g.rng.Intn(2) == 0}
		g.next++
		g.live = append(g.live, b)
		typ := types.Int32()
		if b.wide {
			typ = types.Int64()
		}
		desc, err := types.Marshal(typ)
		if err != nil {
			t.Fatal(err)
		}
		r.diff = &wire.SegmentDiff{
			Descs:  []wire.DescDef{{Serial: 1, Bytes: desc}},
			News:   []wire.NewBlock{{Serial: b.serial, DescSerial: 1, Count: uint32(b.units), Name: fmt.Sprintf("b%d", b.serial)}},
			Blocks: []wire.BlockDiff{{Serial: b.serial, Runs: []wire.Run{g.run(b, 0, b.units)}}},
		}
	case roll < 4 && len(g.live) > 1:
		i := g.rng.Intn(len(g.live))
		r.diff = &wire.SegmentDiff{Freed: []uint32{g.live[i].serial}}
		g.live = append(g.live[:i], g.live[i+1:]...)
	default:
		b := g.live[g.rng.Intn(len(g.live))]
		runs := []wire.Run{g.run(b, 0, b.units)}
		if b.units >= 4 && g.rng.Intn(2) == 0 {
			runs = []wire.Run{g.run(b, 0, b.units/2), g.run(b, b.units/2, b.units)}
		}
		r.diff = &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: b.serial, Runs: runs}}}
	}
	return r
}

// run builds one run of random values inside units [lo, hi) of b.
func (g *histGen) run(b histBlock, lo, hi int) wire.Run {
	start := lo + g.rng.Intn(hi-lo)
	count := 1 + g.rng.Intn(hi-start)
	var data []byte
	for i := 0; i < count; i++ {
		if b.wide {
			data = wire.AppendU64(data, g.rng.Uint64())
		} else {
			data = wire.AppendU32(data, g.rng.Uint32())
		}
	}
	return wire.Run{Start: uint32(start), Count: uint32(count), Data: data}
}

// sameImage fails the test unless got's copy of seg equals want's:
// encoded image, version and applied table.
func sameImage(t *testing.T, receiver string, want, got *Server, seg string) {
	t.Helper()
	if _, ok := got.reg.get(seg); !ok {
		t.Fatalf("%s: segment %q missing", receiver, seg)
	}
	wantBytes, wantVer, wantApplied := segImage(t, want, seg)
	gotBytes, gotVer, gotApplied := segImage(t, got, seg)
	if gotVer != wantVer {
		t.Fatalf("%s: version %d, want %d", receiver, gotVer, wantVer)
	}
	if !reflect.DeepEqual(gotBytes, wantBytes) {
		t.Fatalf("%s: segment encoding diverged", receiver)
	}
	if !reflect.DeepEqual(gotApplied, wantApplied) {
		t.Fatalf("%s: applied table %+v, want %+v", receiver, gotApplied, wantApplied)
	}
}

// TestEvictReloadProperty: for random write histories (histGen) with
// random evictions and reloads interleaved, the journaled server's
// segment stays byte-identical — encoding, version, applied table — to
// a shadow server that received the same writes and was never evicted.
func TestEvictReloadProperty(t *testing.T) {
	prop := func(seed int64) bool {
		gen := newHistGen(seed)
		srvE, addrE := startTestServer(t, Options{JournalDir: t.TempDir(), JournalCompactBytes: -1})
		srvS, addrS := startTestServer(t, Options{})
		rcE, rcS := dialRaw(t, addrE), dialRaw(t, addrS)
		rcE.call(&protocol.OpenSegment{Name: "p/seg", Create: true})
		rcS.call(&protocol.OpenSegment{Name: "p/seg", Create: true})

		releases := uint32(1 + gen.rng.Intn(10))
		for v := uint32(1); v <= releases; v++ {
			r := gen.step(t)
			r.send(t, rcE, "p/seg", v)
			r.send(t, rcS, "p/seg", v)
			switch gen.rng.Intn(3) {
			case 0:
				srvE.EvictSegment("p/seg") // may be refused; both outcomes are valid states
			case 1:
				if srvE.SegmentSnapshot("p/seg") == nil { // faults in when evicted
					t.Errorf("seed %d: snapshot after release %d returned nil", seed, v)
					return false
				}
			}
		}

		// Force at least one full evict/reload cycle per seed (the
		// random walk may have left the segment evicted: fault it in
		// first so the eviction has an image to drop).
		if srvE.SegmentSnapshot("p/seg") == nil {
			t.Errorf("seed %d: pre-evict fault-in failed", seed)
			return false
		}
		if !srvE.EvictSegment("p/seg") {
			t.Errorf("seed %d: final EvictSegment refused on an idle segment", seed)
			return false
		}
		if srvE.SegmentSnapshot("p/seg") == nil {
			t.Errorf("seed %d: final fault-in failed", seed)
			return false
		}
		sameImage(t, fmt.Sprintf("seed %d: evict + fault-in", seed), srvS, srvE, "p/seg")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestStateTransferEquivalence drives one seeded write history
// (histGen) into a journaled cluster primary and a plain shadow server,
// then moves the primary's segment through every state-transfer
// receiver — restart, evict + fault-in, the live replica's incremental
// apply, journal-chain catch-up, collected-diff catch-up, promotion
// pull and a migration snapshot — and requires each copy's encoded
// image and applied table to equal the shadow's. The collected-diff and
// promotion receivers start one version behind: a diff collected over
// several versions legitimately stamps every block it carries with the
// newest of them, so only a one-version gap has a byte-exact answer.
func TestStateTransferEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkStateTransfer(t, seed) })
	}
}

func checkStateTransfer(t *testing.T, seed int64) {
	// Three cluster members: the primary, its replica, and a third node
	// that holds nothing until the segment migrates to it.
	var addrs, dirs []string
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns, addrs, dirs = append(lns, ln), append(addrs, ln.Addr().String()), append(dirs, t.TempDir())
	}
	var srvs []*Server
	var primaryNode *cluster.Node
	for i, ln := range lns {
		peers := slices.Delete(slices.Clone(addrs), i, i+1)
		node := cluster.NewNode(cluster.Options{Self: addrs[i], Peers: peers, Replicas: 1})
		srv, err := New(Options{JournalDir: dirs[i], JournalCompactBytes: -1, Cluster: node})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		srvs = append(srvs, srv)
		if i == 0 {
			primaryNode = node
		}
	}
	primary, replica, target := srvs[0], srvs[1], srvs[2]
	var seg string
	for i := 0; seg == ""; i++ {
		if i == 1024 {
			t.Fatal("no segment placed on (primary, replica) in 1024 candidates")
		}
		name := fmt.Sprintf("x/%d", i)
		if primaryNode.Owner(name) == addrs[0] && slices.Equal(primaryNode.ReplicasOf(name), addrs[1:2]) {
			seg = name
		}
	}

	shadow, addrS := startTestServer(t, Options{})
	rcP, rcS := dialRaw(t, addrs[0]), dialRaw(t, addrS)
	rcP.call(&protocol.OpenSegment{Name: seg, Create: true})
	rcS.call(&protocol.OpenSegment{Name: seg, Create: true})
	gen := newHistGen(seed)
	n := uint32(2 + gen.rng.Intn(10))
	for v := uint32(1); v <= n; v++ {
		r := gen.step(t)
		r.send(t, rcP, seg, v)
		r.send(t, rcS, seg, v)
	}
	check := func(receiver string, got *Server) { sameImage(t, receiver, shadow, got, seg) }
	check("primary", primary)
	check("replica incremental apply", replica)
	restarted, err := New(Options{JournalDir: dirs[0]})
	if err != nil {
		t.Fatal(err)
	}
	check("restart", restarted)

	stP, _ := primary.reg.get(seg)
	chain, err := primary.streamFrom(stP, 0, n)
	if err != nil || len(chain) != int(n) {
		t.Fatalf("stream from version 0 = %d records (%v), want the %d-record journal chain", len(chain), err, n)
	}
	chainDir := t.TempDir()
	chained := newReceiver(t, Options{JournalDir: chainDir})
	feed(t, chained, chain)
	check("journal-chain catch-up", chained)
	if restarted, err = New(Options{JournalDir: chainDir}); err != nil {
		t.Fatal(err)
	}
	check("journal-chain catch-up, restarted", restarted)

	collected := newReceiver(t, Options{})
	feed(t, collected, chain[:n-1])
	promoteNode := cluster.NewNode(cluster.Options{Self: "127.0.0.1:1", Peers: addrs[:1]})
	promoted := newReceiver(t, Options{Cluster: promoteNode})
	feed(t, promoted, chain[:n-1])
	// Compaction empties the primary's window, so the last version can
	// only travel as a collected diff.
	if err := primary.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	last, err := primary.streamFrom(stP, n-1, n)
	if err != nil || len(last) != 1 {
		t.Fatalf("stream from version %d = %d records (%v), want one collected diff", n-1, len(last), err)
	}
	feed(t, collected, last)
	check("collected-diff catch-up", collected)
	promoted.promoteSegment(seg, promoteNode.Ring(), promoteNode.Self())
	check("promotion pull", promoted)

	if !primary.EvictSegment(seg) || primary.SegmentSnapshot(seg) == nil {
		t.Fatal("evict + fault-in of the primary's copy failed")
	}
	check("evict + fault-in", primary)

	rcP.mustAck(&protocol.Migrate{Seg: seg, Target: addrs[2]})
	check("migration snapshot", target)
	if restarted, err = New(Options{JournalDir: dirs[2]}); err != nil {
		t.Fatal(err)
	}
	check("migration snapshot, restarted", restarted)
}

// newReceiver builds a server that is fed state-transfer records
// directly, without a listener.
func newReceiver(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// feed applies records to srv through applyRecord, each as a private
// copy (applying remaps a diff's descriptor serials in place), and
// requires every one acked.
func feed(t *testing.T, srv *Server, recs []*protocol.Replicate) {
	t.Helper()
	for _, rec := range recs {
		m, err := protocol.UnmarshalMessage(protocol.MarshalMessage(nil, rec))
		if err != nil {
			t.Fatal(err)
		}
		if rr, fail := srv.applyRecord(m.(*protocol.Replicate)); fail != nil || !rr.Acked {
			t.Fatalf("record %d→%d: reply %+v, error %v", rec.PrevVersion, rec.Version, rr, fail)
		}
	}
}

// TestEvictCrashRecovery covers the crash window the eviction design
// leaves on disk: after evict-compact the stub exists only in memory,
// so a kill right there must recover entirely from the compacted base
// — and a journal whose base came from an eviction must survive the
// torn-write matrix across subsequent appends.
func TestEvictCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startTestServer(t, Options{JournalDir: dir, Metrics: obs.NewRegistry()})
	rc := dialRaw(t, addr)
	seedEvictSeg(t, rc, "c/seg")
	wantBytes, wantVer, wantApplied := segImage(t, srv, "c/seg")
	if !srv.EvictSegment("c/seg") {
		t.Fatal("EvictSegment refused")
	}

	// Phase 1: "kill" between the evict-compaction and any further
	// traffic. The first server is abandoned, never Closed; a fresh
	// server over the same directory must recover the exact image from
	// the base the eviction wrote.
	srv2, err := New(Options{JournalDir: dir})
	if err != nil {
		t.Fatalf("recovery after evict-crash: %v", err)
	}
	st2, ok := srv2.reg.get("c/seg")
	if !ok {
		t.Fatal("recovered server lost the segment")
	}
	srv2.lockSeg(st2)
	if st2.seg.Version != wantVer || !reflect.DeepEqual(st2.seg.encode(), wantBytes) {
		st2.mu.Unlock()
		t.Fatalf("recovered image differs from the pre-eviction state (version %d, want %d)", st2.seg.Version, wantVer)
	}
	if !reflect.DeepEqual(st2.applied, wantApplied) {
		st2.mu.Unlock()
		t.Fatalf("recovered applied table %+v, want %+v", st2.applied, wantApplied)
	}
	st2.mu.Unlock()

	// Phase 2: the torn-write matrix over a log whose base came from
	// an eviction. Fault the segment back in on the original server,
	// append two more releases, then cut the log at every byte. The
	// evict-compaction removed the old log; the first post-evict
	// release recreates it.
	basePath := findJournalFile(t, dir, journal.BaseSuffix)
	if basePath == "" {
		t.Fatal("no base on disk after eviction")
	}
	var logPath string
	var boundaries []int64
	for i := uint32(3); i <= 4; i++ {
		rc.call(&protocol.WriteLock{Seg: "c/seg", Policy: coherence.Full()})
		reply, _ := rc.call(&protocol.WriteUnlock{Seg: "c/seg", Diff: runDiff(1, 0, i*100), WriterID: "w-e", Seq: i})
		if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != i {
			t.Fatalf("post-evict release %d = %+v", i, reply)
		}
		if logPath == "" {
			logPath = findJournalFile(t, dir, journal.LogSuffix)
			if logPath == "" {
				t.Fatal("no journal log after a post-evict release")
			}
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fi.Size())
	}
	image, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	baseImage, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	liveBytes, liveVer, _ := segImage(t, srv, "c/seg")

	for cut := 0; cut <= len(image); cut++ {
		wantCutVer := uint32(2) // the evict-compacted base
		for i, b := range boundaries {
			if int64(cut) >= b {
				wantCutVer = uint32(3 + i)
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(basePath)), baseImage, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, filepath.Base(logPath)), image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		csrv, err := New(Options{JournalDir: cdir})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		seg := csrv.SegmentSnapshot("c/seg")
		if seg == nil || seg.Version != wantCutVer {
			t.Fatalf("cut %d/%d: recovered to %+v, want version %d", cut, len(image), seg, wantCutVer)
		}
		if cut == len(image) {
			cBytes, cVer, _ := segImage(t, csrv, "c/seg")
			if cVer != liveVer || !reflect.DeepEqual(cBytes, liveBytes) {
				t.Fatalf("full-log recovery diverged from the live server (version %d, want %d)", cVer, liveVer)
			}
		}
	}
}

// BenchmarkEvictReload measures one full evict + fault-in cycle over a
// segment recovered from a 200-release journal: the compaction is paid
// on the first eviction, so the steady state is drop + base decode.
func BenchmarkEvictReload(b *testing.B) {
	dir := b.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	l, err := store.Segment("bench/evict")
	if err != nil {
		b.Fatal(err)
	}
	descBytes, err := types.Marshal(types.Int32())
	if err != nil {
		b.Fatal(err)
	}
	const releases = 200
	for v := uint32(1); v <= releases; v++ {
		diff := &wire.SegmentDiff{
			Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 1, Data: wire.AppendU32(nil, v)}}}},
		}
		if v == 1 {
			diff.Descs = []wire.DescDef{{Serial: 1, Bytes: descBytes}}
			diff.News = []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: 1}}
		}
		err := l.Append(&protocol.Replicate{
			Seg:         "bench/evict",
			PrevVersion: v - 1,
			Version:     v,
			Diff:        diff,
			Applied:     []protocol.AppliedEntry{{WriterID: "w", Seq: v, Version: v}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Options{JournalDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !srv.EvictSegment("bench/evict") {
			b.Fatal("EvictSegment refused")
		}
		if seg := srv.SegmentSnapshot("bench/evict"); seg == nil || seg.Version != releases {
			b.Fatalf("fault-in recovered %+v", seg)
		}
	}
}

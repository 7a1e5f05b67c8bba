package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/protocol"
)

// The commit pipeline (commit.go) is the only write path, so one table
// drives every way a version range enters it — a lone WriteUnlock,
// contended WriteUnlocks that land in one batch, a TxCommit, and a
// TxCommit part joining a batch behind an in-flight flush — against
// every combination of durability sinks, and checks that a given
// fault is answered with the same code whichever way the release came
// in.

type commitSink struct {
	name             string
	journal, cluster bool
}

var commitSinks = []commitSink{
	{"no sink", false, false},
	{"journal", true, false},
	{"cluster", false, true},
	{"journal+cluster", true, true},
}

// commitEnv is one primary with the chosen sinks, two seeded segments
// it owns (version 1, one block of 8 ints, serial 1), and — in cluster
// mode — the replica they stream to.
type commitEnv struct {
	t    *testing.T
	srv  *Server
	addr string
	segs [2]string

	node        *cluster.Node
	replica     *Server
	replicaAddr string
	stopReplica func()
	// gate, while non-nil, parks the primary's peer dials until closed.
	gate atomic.Pointer[chan struct{}]
}

func startCommitEnv(t *testing.T, sink commitSink, tweak ...func(*Options)) *commitEnv {
	t.Helper()
	e := &commitEnv{t: t, segs: [2]string{"commit/a", "commit/b"}}
	opts := Options{Logf: t.Logf}
	if sink.journal {
		opts.JournalDir = t.TempDir()
	}
	for _, fn := range tweak {
		fn(&opts)
	}
	if !sink.cluster {
		e.srv, e.addr = startTestServer(t, opts)
	} else {
		lnA, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lnB, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e.addr, e.replicaAddr = lnA.Addr().String(), lnB.Addr().String()
		e.node = cluster.NewNode(cluster.Options{
			Self: e.addr, Peers: []string{e.replicaAddr}, Replicas: 1, Logf: t.Logf,
			DialTimeout: 5 * time.Second,
			Dial: func(addr string) (net.Conn, error) {
				if g := e.gate.Load(); g != nil {
					<-*g
				}
				return net.DialTimeout("tcp", addr, 5*time.Second)
			},
		})
		replicaNode := cluster.NewNode(cluster.Options{
			Self: e.replicaAddr, Peers: []string{e.addr}, Replicas: 1, Logf: t.Logf,
		})
		opts.Cluster = e.node
		if e.srv, err = New(opts); err != nil {
			t.Fatal(err)
		}
		ropts := Options{Cluster: replicaNode, Logf: t.Logf}
		if sink.journal {
			ropts.JournalDir = t.TempDir()
		}
		if e.replica, err = New(ropts); err != nil {
			t.Fatal(err)
		}
		go func() { _ = e.srv.Serve(lnA) }()
		go func() { _ = e.replica.Serve(lnB) }()
		e.node.Start()
		replicaNode.Start()
		var once sync.Once
		e.stopReplica = func() {
			once.Do(func() {
				replicaNode.Close()
				_ = e.replica.Close()
			})
		}
		t.Cleanup(func() {
			e.stopReplica()
			e.node.Close()
			_ = e.srv.Close()
		})
		// Two segments the primary owns, so their releases replicate
		// primary -> replica.
		found := 0
		for i := 0; found < 2; i++ {
			if i == 256 {
				t.Fatal("no two segments owned by the primary in 256 candidates")
			}
			if name := fmt.Sprintf("commit/%d", i); e.node.Owner(name) == e.addr {
				e.segs[found] = name
				found++
			}
		}
	}
	for _, seg := range e.segs {
		seedSeg(t, e.addr, seg, 8)
	}
	return e
}

func (e *commitEnv) state(seg string) *segState {
	st, ok := e.srv.reg.get(seg)
	if !ok {
		e.t.Fatalf("no segment %q", seg)
	}
	return st
}

// hold makes the test seg's flusher: releases queue up behind it as
// behind a flush in flight, until flush runs the flusher for real.
func (e *commitEnv) hold(seg string) {
	st := e.state(seg)
	st.mu.Lock()
	st.flushing = true
	st.mu.Unlock()
	// A test that fails while holding must not leave requests parked
	// behind it: the server's Close would wait for them forever.
	e.t.Cleanup(func() {
		st.mu.Lock()
		stuck := len(st.pending) > 0
		st.mu.Unlock()
		if stuck {
			e.srv.flush(st)
		}
	})
}

// waitPending blocks until seg is at version and n applied releases
// are pending on it.
func (e *commitEnv) waitPending(seg string, version uint32, n int) {
	e.t.Helper()
	st := e.state(seg)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st.mu.Lock()
		at, got := st.seg.Version, len(st.pending)
		st.mu.Unlock()
		if at == version && got == n {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("%s at version %d with %d releases pending, want version %d with %d", seg, at, got, version, n)
		}
	}
}

func (e *commitEnv) flush(seg string) { e.srv.flush(e.state(seg)) }

// commitWriter is one client session on its own connection, usable
// from any goroutine: failures are reported with Errorf and a nil
// reply.
type commitWriter struct {
	t    *testing.T
	conn net.Conn
	next uint32
}

func (e *commitEnv) writer() *commitWriter {
	e.t.Helper()
	conn, err := net.DialTimeout("tcp", e.addr, 5*time.Second)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { _ = conn.Close() })
	return &commitWriter{t: e.t, conn: conn, next: 1}
}

func (w *commitWriter) call(m protocol.Message) protocol.Message {
	id := w.next
	w.next++
	if err := protocol.WriteFrame(w.conn, id, m); err != nil {
		w.t.Errorf("%T: %v", m, err)
		return nil
	}
	for {
		gotID, reply, err := protocol.ReadFrame(w.conn)
		if err != nil {
			w.t.Errorf("%T: %v", m, err)
			return nil
		}
		if gotID == id {
			return reply
		}
	}
}

// start issues m and returns the channel its reply arrives on.
func (w *commitWriter) start(m protocol.Message) <-chan protocol.Message {
	ch := make(chan protocol.Message, 1)
	go func() { ch <- w.call(m) }()
	return ch
}

// lock takes seg's write lock, presenting have as the cached version.
func (w *commitWriter) lock(seg string, have uint32) {
	if _, ok := w.call(&protocol.WriteLock{Seg: seg, HaveVersion: have, Policy: coherence.Full()}).(*protocol.LockReply); !ok {
		w.t.Errorf("write lock on %s refused", seg)
	}
}

func bump(seg string, v uint32) *protocol.WriteUnlock {
	return &protocol.WriteUnlock{Seg: seg, Diff: runDiff(1, 0, v)}
}

// A commitDriver pushes releases through the pipeline and returns their
// replies. mid, when non-nil, must run at the driver's mid-flush point:
// with every release applied and pending behind a flush in flight.
// merged reports how many of seg 0's releases one flush must have
// covered when nothing failed.
type commitDriver struct {
	name   string
	merged int
	run    func(e *commitEnv, mid func()) []protocol.Message
}

var commitDrivers = []commitDriver{
	{"single WriteUnlock", 1, func(e *commitEnv, mid func()) []protocol.Message {
		w := e.writer()
		w.lock(e.segs[0], 1)
		if mid == nil {
			return []protocol.Message{w.call(bump(e.segs[0], 7))}
		}
		e.hold(e.segs[0])
		reply := w.start(bump(e.segs[0], 7))
		e.waitPending(e.segs[0], 2, 1)
		mid()
		e.flush(e.segs[0])
		return []protocol.Message{<-reply}
	}},
	{"contended WriteUnlocks", 4, func(e *commitEnv, mid func()) []protocol.Message {
		e.hold(e.segs[0])
		var replies []<-chan protocol.Message
		for i := uint32(0); i < 4; i++ {
			w := e.writer()
			ch := make(chan protocol.Message, 1)
			replies = append(replies, ch)
			go func(v uint32) {
				w.lock(e.segs[0], 1)
				ch <- w.call(bump(e.segs[0], v))
			}(10 + i)
		}
		e.waitPending(e.segs[0], 5, 4)
		if mid != nil {
			mid()
		}
		e.flush(e.segs[0])
		var out []protocol.Message
		for _, ch := range replies {
			out = append(out, <-ch)
		}
		return out
	}},
	{"TxCommit", 1, func(e *commitEnv, mid func()) []protocol.Message {
		w := e.writer()
		w.lock(e.segs[0], 1)
		w.lock(e.segs[1], 1)
		tx := &protocol.TxCommit{Parts: []protocol.WriteUnlock{*bump(e.segs[0], 21), *bump(e.segs[1], 22)}}
		if mid == nil {
			return []protocol.Message{w.call(tx)}
		}
		e.hold(e.segs[0])
		reply := w.start(tx)
		e.waitPending(e.segs[0], 2, 1)
		mid()
		e.flush(e.segs[0])
		return []protocol.Message{<-reply}
	}},
	{"TxCommit racing an in-flight batch", 2, func(e *commitEnv, mid func()) []protocol.Message {
		e.hold(e.segs[0])
		w1 := e.writer()
		w1.lock(e.segs[0], 1)
		first := w1.start(bump(e.segs[0], 31))
		e.waitPending(e.segs[0], 2, 1)
		// The lock was handed off at enqueue: the transaction takes it
		// while the first release's flush is still outstanding.
		w2 := e.writer()
		w2.lock(e.segs[0], 2)
		w2.lock(e.segs[1], 1)
		tx := w2.start(&protocol.TxCommit{Parts: []protocol.WriteUnlock{*bump(e.segs[0], 32), *bump(e.segs[1], 33)}})
		e.waitPending(e.segs[0], 3, 2)
		if mid != nil {
			mid()
		}
		e.flush(e.segs[0])
		return []protocol.Message{<-first, <-tx}
	}},
}

type commitFault struct {
	name    string
	applies func(commitSink) bool
	arm     func(e *commitEnv) // before the driver runs
	mid     func(e *commitEnv) // at the driver's mid-flush point
	want    uint16             // every reply's code; 0 = success
}

var commitFaults = []commitFault{
	{name: "no fault", applies: func(commitSink) bool { return true }},
	{
		name:    "journal append fails",
		applies: func(s commitSink) bool { return s.journal },
		arm:     func(e *commitEnv) { _ = e.srv.journal.Close() },
		want:    protocol.CodeInternal,
	},
	{
		name:    "dead replica",
		applies: func(s commitSink) bool { return s.cluster },
		arm:     func(e *commitEnv) { e.stopReplica() },
		want:    protocol.CodeNotReplicated,
	},
	{
		name:    "demotion mid-flush",
		applies: func(s commitSink) bool { return s.cluster },
		mid:     func(e *commitEnv) { e.node.SetOverride(e.segs[0], e.replicaAddr) },
		want:    protocol.CodeNotOwner,
	},
}

func replyCode(m protocol.Message) uint16 {
	switch r := m.(type) {
	case *protocol.VersionReply, *protocol.TxReply:
		return 0
	case *protocol.ErrorReply:
		return r.Code
	}
	return 0xffff
}

func TestCommitPipeline(t *testing.T) {
	for _, sink := range commitSinks {
		for _, fault := range commitFaults {
			if !fault.applies(sink) {
				continue
			}
			for _, driver := range commitDrivers {
				t.Run(sink.name+"/"+fault.name+"/"+driver.name, func(t *testing.T) {
					e := startCommitEnv(t, sink)
					if fault.arm != nil {
						fault.arm(e)
					}
					var mid func()
					if fault.mid != nil {
						mid = func() { fault.mid(e) }
					}
					for i, reply := range driver.run(e, mid) {
						if got := replyCode(reply); got != fault.want {
							t.Errorf("reply %d = %+v (code %d), want code %d", i, reply, got, fault.want)
						}
					}
					if fault.want == 0 && !t.Failed() {
						// Every driver but the contended one locks at the
						// current version, so the only diff collection left
						// to see is a flush's.
						checkCommitted(t, e, sink, driver.merged, driver.name != "contended WriteUnlocks")
					}
				})
			}
		}
	}
}

// segContent flattens a segment's blocks — serial, name, wire-format
// units — in serial order: what two copies at one version must agree
// on, whatever route their diffs took.
func segContent(seg *Segment) []byte {
	var out []byte
	for _, b := range seg.Blocks() {
		out = fmt.Appendf(out, "%d %q %d:", b.Serial, b.Name, b.Units())
		out = b.appendUnits(out, 0, b.Units())
	}
	return out
}

// checkCommitted verifies what a fault-free run leaves behind: journal
// records that chain without gap or overlap up to the segment's
// version; a replica holding the primary's content at the primary's
// version; and, when merged > 0 — seg 0 took one flush of that many
// releases on top of its seed — one journal record for it and, with
// hits set, no diff collection for a batch of one.
func checkCommitted(t *testing.T, e *commitEnv, sink commitSink, merged int, hits bool) {
	t.Helper()
	for i, seg := range e.segs {
		st := e.state(seg)
		st.mu.Lock()
		version, content, collected := st.seg.Version, segContent(st.seg), st.seg.CacheHits() > 0
		st.mu.Unlock()
		if i == 0 && merged > 0 {
			if want := uint32(1 + merged); version != want {
				t.Errorf("%s at version %d, want %d", seg, version, want)
			}
			if hits && merged == 1 && collected {
				t.Errorf("%s: a batch of one collected a diff", seg)
			}
		}
		if sink.journal {
			l, err := e.srv.journal.Segment(seg)
			if err != nil {
				t.Fatal(err)
			}
			recs := l.Window(0)
			at := uint32(0)
			for _, rec := range recs {
				if rec.PrevVersion != at || rec.Version <= rec.PrevVersion {
					t.Errorf("%s: journal record %d..%d does not continue from version %d", seg, rec.PrevVersion, rec.Version, at)
				}
				at = rec.Version
			}
			if at != version {
				t.Errorf("%s: journal ends at version %d, segment at %d", seg, at, version)
			}
			if i == 0 && merged > 0 && len(recs) != 2 {
				t.Errorf("%s: %d journal records, want the seed's and one for the flush of %d", seg, len(recs), merged)
			}
		}
		if sink.cluster {
			rst, ok := e.replica.reg.get(seg)
			if !ok {
				t.Fatalf("replica has no copy of %s", seg)
			}
			rst.mu.Lock()
			rver, rcontent := rst.seg.Version, segContent(rst.seg)
			rst.mu.Unlock()
			if rver != version || !bytes.Equal(rcontent, content) {
				t.Errorf("%s: replica at version %d differs from the acknowledged primary at version %d", seg, rver, version)
			}
		}
	}
}

// TestCommitCompactionWaitsForBatchBoundary: a compaction that cut its
// base while releases are pending would capture versions the flusher
// has yet to journal, and the record it appends next — spanning from
// before the base to after it — could not be replayed onto that base
// (here: its NewBlock would already exist). The pending fence in
// compactJournalSeg plus the flusher's own boundary-aligned fold must
// leave a journal a restart recovers.
func TestCommitCompactionWaitsForBatchBoundary(t *testing.T) {
	for _, c := range []struct {
		name         string
		compactBytes int64 // Options.JournalCompactBytes
		folds        bool  // the flusher must fold the log itself
	}{
		// Only the periodic compaction is in play.
		{"default threshold", 0, false},
		// The log is outgrown from the seed on.
		{"one-byte threshold", 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := startCommitEnv(t, commitSinks[1], func(o *Options) { o.JournalCompactBytes = c.compactBytes })
			seg := e.segs[0]
			e.hold(seg)
			w1 := e.writer()
			w1.lock(seg, 1)
			first := w1.start(&protocol.WriteUnlock{Seg: seg, Diff: intCreateDiff(t, 2, 42)})
			e.waitPending(seg, 2, 1)
			// The periodic compaction fires with version 2 applied but
			// not yet journaled.
			if err := e.srv.CompactJournal(); err != nil {
				t.Fatal(err)
			}
			l, err := e.srv.journal.Segment(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, cut, _ := l.Base(); cut {
				t.Fatal("compaction cut a base with a release pending")
			}
			w2 := e.writer()
			w2.lock(seg, 2)
			second := w2.start(bump(seg, 9))
			e.waitPending(seg, 3, 2)
			e.flush(seg)
			for i, ch := range []<-chan protocol.Message{first, second} {
				if reply := <-ch; replyCode(reply) != 0 {
					t.Fatalf("release %d = %+v", i+1, reply)
				}
			}
			if _, cut, _ := l.Base(); cut != c.folds {
				t.Errorf("flusher folded the log at its batch boundary = %v, want %v", cut, c.folds)
			}
			// "Kill" the server: a fresh one over the same directory
			// must replay base + log to the acknowledged version.
			srv2, err := New(Options{JournalDir: e.srv.opts.JournalDir})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if got := srv2.SegmentSnapshot(seg); got == nil || got.Version != 3 || got.NumBlocks() != 2 {
				t.Fatalf("recovered %+v, want version 3 with 2 blocks", got)
			}
		})
	}
}

// TestCommitCatchUpPastTheBatch: the write lock is handed off before
// the flush, so a replica catch-up collected mid-flush may cover
// releases beyond the batch being replicated. The catch-up frame must
// then carry the version it really reaches, and the next batch must
// not be sent on top of it again — here it would re-create a block.
func TestCommitCatchUpPastTheBatch(t *testing.T) {
	e := startCommitEnv(t, commitSinks[2])
	seg := e.segs[0]
	// The replica loses its copy, so the next Replicate frame is
	// NACKed at version 0 and needs a collected catch-up.
	rst, _ := e.replica.reg.get(seg)
	rst.mu.Lock()
	rst.seg = NewSegment(seg)
	rst.mu.Unlock()

	gate := make(chan struct{})
	e.gate.Store(&gate)
	w1 := e.writer()
	w1.lock(seg, 1)
	first := w1.start(bump(seg, 5)) // leads: its flush parks in the dial
	w2 := e.writer()
	w2.lock(seg, 2)
	second := w2.start(&protocol.WriteUnlock{Seg: seg, Diff: intCreateDiff(t, 2, 6)})
	e.waitPending(seg, 3, 1) // version 3 applied behind the parked flush
	e.gate.Store(nil)
	close(gate)
	for i, ch := range []<-chan protocol.Message{first, second} {
		if reply := <-ch; replyCode(reply) != 0 {
			t.Fatalf("release %d = %+v", i+1, reply)
		}
	}
	// A third release replicates on top without another catch-up.
	w3 := e.writer()
	w3.lock(seg, 3)
	if reply := w3.call(bump(seg, 7)); replyCode(reply) != 0 {
		t.Fatalf("release 3 = %+v", reply)
	}
	checkCommitted(t, e, commitSinks[2], 0, false)
}

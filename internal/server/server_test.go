package server

import (
	"net"
	"testing"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// rawClient speaks the protocol directly, for testing the server's
// network layer without the client library in the way.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	next uint32
}

func startTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv, err := New(opts)
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

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawClient{t: t, conn: conn, next: 1}
}

// call sends a request and reads frames until its reply arrives,
// returning any notifications seen on the way.
func (rc *rawClient) call(m protocol.Message) (protocol.Message, []*protocol.Notify) {
	rc.t.Helper()
	id := rc.next
	rc.next++
	if err := protocol.WriteFrame(rc.conn, id, m); err != nil {
		rc.t.Fatal(err)
	}
	var notes []*protocol.Notify
	for {
		gotID, reply, err := protocol.ReadFrame(rc.conn)
		if err != nil {
			rc.t.Fatal(err)
		}
		if gotID == 0 {
			if n, ok := reply.(*protocol.Notify); ok {
				notes = append(notes, n)
			}
			continue
		}
		if gotID != id {
			rc.t.Fatalf("reply id %d, want %d", gotID, id)
		}
		return reply, notes
	}
}

func (rc *rawClient) mustAck(m protocol.Message) {
	rc.t.Helper()
	reply, _ := rc.call(m)
	if _, ok := reply.(*protocol.Ack); !ok {
		rc.t.Fatalf("reply = %T (%v), want Ack", reply, reply)
	}
}

func intCreateDiff(t *testing.T, serial uint32, vals ...uint32) *wire.SegmentDiff {
	return intsDiff(t, 1, serial, len(vals), "", vals...)
}

func TestProtocolHappyPath(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "raw", Profile: "x86-32le"})

	// Create a segment.
	reply, _ := rc.call(&protocol.OpenSegment{Name: "s", Create: true})
	or, ok := reply.(*protocol.OpenReply)
	if !ok || !or.Created || or.Version != 0 {
		t.Fatalf("open reply = %+v", reply)
	}

	// Acquire the write lock and push a diff.
	reply, _ = rc.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
		t.Fatalf("write lock reply = %+v", reply)
	}
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "s", Diff: intCreateDiff(t, 1, 7, 8, 9)})
	vr, ok := reply.(*protocol.VersionReply)
	if !ok || vr.Version != 1 {
		t.Fatalf("unlock reply = %+v", reply)
	}

	// A read lock from version 0 yields the data.
	reply, _ = rc.call(&protocol.ReadLock{Seg: "s", HaveVersion: 0, Policy: coherence.Full()})
	lr, ok := reply.(*protocol.LockReply)
	if !ok || lr.Fresh || lr.Diff == nil || len(lr.Diff.News) != 1 {
		t.Fatalf("read lock reply = %+v", reply)
	}
	rc.mustAck(&protocol.ReadUnlock{Seg: "s"})

	// Up to date: fresh.
	reply, _ = rc.call(&protocol.ReadLock{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})
	if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
		t.Fatalf("fresh read lock reply = %+v", reply)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	rc := dialRaw(t, addr)

	// Open without create on a missing segment.
	reply, _ := rc.call(&protocol.OpenSegment{Name: "missing", Create: false})
	if e, ok := reply.(*protocol.ErrorReply); !ok || e.Code != protocol.CodeNoSegment {
		t.Errorf("open missing = %+v", reply)
	}
	// Lock on a missing segment.
	reply, _ = rc.call(&protocol.ReadLock{Seg: "missing", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.ErrorReply); !ok {
		t.Errorf("read lock missing = %+v", reply)
	}
	// Unlock without the lock.
	rc.call(&protocol.OpenSegment{Name: "s", Create: true})
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "s"})
	if e, ok := reply.(*protocol.ErrorReply); !ok || e.Code != protocol.CodeLockState {
		t.Errorf("unlock without lock = %+v", reply)
	}
	// Double write lock from the same session.
	rc.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	if e, ok := reply.(*protocol.ErrorReply); !ok || e.Code != protocol.CodeLockState {
		t.Errorf("double write lock = %+v", reply)
	}
	// Bad diff: run for a block that does not exist.
	bad := &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 42, Runs: []wire.Run{{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}}}}}}
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "s", Diff: bad})
	if _, ok := reply.(*protocol.ErrorReply); !ok {
		t.Errorf("bad diff = %+v", reply)
	}
	// Subscribe with an invalid policy.
	reply, _ = rc.call(&protocol.Subscribe{Seg: "s", Policy: coherence.Policy{Model: 99}})
	if e, ok := reply.(*protocol.ErrorReply); !ok || e.Code != protocol.CodeBadRequest {
		t.Errorf("bad subscribe = %+v", reply)
	}
}

func TestWriteLockQueueing(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	a := dialRaw(t, addr)
	b := dialRaw(t, addr)
	a.call(&protocol.OpenSegment{Name: "s", Create: true})
	b.call(&protocol.OpenSegment{Name: "s", Create: true})

	if reply, _ := a.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()}); reply == nil {
		t.Fatal("no reply")
	}
	// B's write lock must block until A releases.
	got := make(chan protocol.Message, 1)
	go func() {
		reply, _ := b.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
		got <- reply
	}()
	select {
	case reply := <-got:
		t.Fatalf("B acquired the lock while A held it: %+v", reply)
	case <-time.After(100 * time.Millisecond):
	}
	if reply, _ := a.call(&protocol.WriteUnlock{Seg: "s"}); reply == nil {
		t.Fatal("no unlock reply")
	}
	select {
	case reply := <-got:
		if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
			t.Fatalf("B's lock reply = %+v", reply)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B never acquired the lock")
	}
}

func TestDisconnectReleasesWriteLock(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	a := dialRaw(t, addr)
	b := dialRaw(t, addr)
	a.call(&protocol.OpenSegment{Name: "s", Create: true})
	b.call(&protocol.OpenSegment{Name: "s", Create: true})
	a.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})

	got := make(chan protocol.Message, 1)
	go func() {
		reply, _ := b.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
		got <- reply
	}()
	time.Sleep(50 * time.Millisecond)
	_ = a.conn.Close() // A crashes while holding the lock
	select {
	case reply := <-got:
		if _, ok := reply.(*protocol.LockReply); !ok {
			t.Fatalf("B's reply after A crash = %+v", reply)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lock never released after holder disconnect")
	}
}

func TestNotificationDelivery(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	w := dialRaw(t, addr)
	r := dialRaw(t, addr)
	w.call(&protocol.OpenSegment{Name: "s", Create: true})
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: intCreateDiff(t, 1, 1)})

	r.call(&protocol.OpenSegment{Name: "s", Create: false})
	r.mustAck(&protocol.Subscribe{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})

	// The writer publishes again; the reader must receive a Notify.
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 0, 9)})

	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	id, msg, err := protocol.ReadFrame(r.conn)
	if err != nil {
		t.Fatalf("waiting for notify: %v", err)
	}
	n, ok := msg.(*protocol.Notify)
	if id != 0 || !ok || n.Seg != "s" || n.Version != 2 {
		t.Fatalf("notification = id %d, %+v", id, msg)
	}
	_ = r.conn.SetReadDeadline(time.Time{})

	// No duplicate notification for the next version until the
	// reader refreshes.
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 0, 10)})
	_ = r.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, msg, err := protocol.ReadFrame(r.conn); err == nil {
		t.Fatalf("unexpected second frame: %+v", msg)
	}
	_ = r.conn.SetReadDeadline(time.Time{})

	// After a refresh (read lock), the next publish notifies again.
	reply, notes := r.call(&protocol.ReadLock{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})
	if lr, ok := reply.(*protocol.LockReply); !ok || lr.Fresh {
		t.Fatalf("read lock = %+v", reply)
	}
	_ = notes
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 0, 11)})
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	id, msg, err = protocol.ReadFrame(r.conn)
	if err != nil || id != 0 {
		t.Fatalf("second notify: id %d err %v", id, err)
	}
	if n, ok := msg.(*protocol.Notify); !ok || n.Version != 4 {
		t.Fatalf("second notify = %+v", msg)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	w := dialRaw(t, addr)
	r := dialRaw(t, addr)
	w.call(&protocol.OpenSegment{Name: "s", Create: true})
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: intCreateDiff(t, 1, 1)})
	r.call(&protocol.OpenSegment{Name: "s", Create: false})
	r.mustAck(&protocol.Subscribe{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})
	r.mustAck(&protocol.Unsubscribe{Seg: "s"})

	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 0, 9)})
	_ = r.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, msg, err := protocol.ReadFrame(r.conn); err == nil {
		t.Fatalf("notification after unsubscribe: %+v", msg)
	}
}

func TestTxCommitRaw(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "a", Create: true})
	rc.call(&protocol.OpenSegment{Name: "b", Create: true})

	// Without locks: rejected.
	reply, _ := rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{{Seg: "a"}, {Seg: "b"}}})
	if e, ok := reply.(*protocol.ErrorReply); !ok || e.Code != protocol.CodeLockState {
		t.Fatalf("tx without locks = %+v", reply)
	}
	// Empty transaction: rejected.
	reply, _ = rc.call(&protocol.TxCommit{})
	if _, ok := reply.(*protocol.ErrorReply); !ok {
		t.Fatalf("empty tx = %+v", reply)
	}
	// Duplicate part: rejected, and — like every failed commit — the
	// transaction aborts, releasing the session's write locks.
	rc.call(&protocol.WriteLock{Seg: "a", Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{{Seg: "a"}, {Seg: "a"}}})
	if _, ok := reply.(*protocol.ErrorReply); !ok {
		t.Fatalf("duplicate part = %+v", reply)
	}
	// Valid commit of two parts; one with data, one empty.
	rc.call(&protocol.WriteLock{Seg: "a", Policy: coherence.Full()})
	rc.call(&protocol.WriteLock{Seg: "b", Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{
		{Seg: "a", Diff: intCreateDiff(t, 1, 5)},
		{Seg: "b"},
	}})
	tr, ok := reply.(*protocol.TxReply)
	if !ok || len(tr.Versions) != 2 || tr.Versions[0] != 1 || tr.Versions[1] != 0 {
		t.Fatalf("tx reply = %+v", reply)
	}
	if seg := srv.SegmentSnapshot("a"); seg.Version != 1 || seg.NumBlocks() != 1 {
		t.Errorf("segment a = v%d, %d blocks", seg.Version, seg.NumBlocks())
	}
	// Locks were released by the commit.
	reply, _ = rc.call(&protocol.WriteLock{Seg: "a", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("relock after tx = %+v", reply)
	}

	// A failing part rolls everything back and releases locks.
	rc.call(&protocol.WriteLock{Seg: "b", Policy: coherence.Full()})
	bad := &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 99, Runs: []wire.Run{{Start: 0, Count: 1, Data: []byte{0, 0, 0, 1}}}}}}
	reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{
		{Seg: "a", Diff: intCreateDiff(t, 2, 6)},
		{Seg: "b", Diff: bad},
	}})
	if _, ok := reply.(*protocol.ErrorReply); !ok {
		t.Fatalf("failing tx = %+v", reply)
	}
	if seg := srv.SegmentSnapshot("a"); seg.Version != 1 || seg.NumBlocks() != 1 {
		t.Errorf("rollback leaked: segment a = v%d, %d blocks", seg.Version, seg.NumBlocks())
	}
	// A failed transaction aborts: the write locks were released, so
	// another session can acquire them immediately.
	other := dialRaw(t, addr)
	reply, _ = other.call(&protocol.WriteLock{Seg: "a", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("lock after aborted tx = %+v", reply)
	}
	reply, _ = other.call(&protocol.WriteLock{Seg: "b", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("lock b after aborted tx = %+v", reply)
	}
}

// TestRefusedWriteUnlockChangesNothing sends a release whose valid run
// (unit 0 := 42) is followed by one past the block's end: the refusal
// must leave the master copy as it was, not half-written, and hand the
// write lock on.
func TestRefusedWriteUnlockChangesNothing(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "s", Create: true})
	rc.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	if reply, _ := rc.call(&protocol.WriteUnlock{Seg: "s", Diff: intCreateDiff(t, 1, 7, 8, 9)}); replyCode(reply) != 0 {
		t.Fatalf("seeding release = %+v", reply)
	}
	rc.call(&protocol.WriteLock{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})
	bad := &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{
		{Start: 0, Count: 1, Data: wire.AppendU32(nil, 42)},
		{Start: 2, Count: 2, Data: wire.AppendU32(wire.AppendU32(nil, 1), 2)},
	}}}}
	if reply, _ := rc.call(&protocol.WriteUnlock{Seg: "s", Diff: bad}); replyCode(reply) != protocol.CodeBadRequest {
		t.Fatalf("release with a run past the block = %+v, want CodeBadRequest", reply)
	}
	seg := srv.SegmentSnapshot("s")
	if seg.Version != 1 {
		t.Errorf("version = %d after the refused release, want 1", seg.Version)
	}
	d, err := seg.collectFull(0)
	if err != nil {
		t.Fatal(err)
	}
	if v := wire.NewReader(d.Blocks[0].Runs[0].Data).U32(); v != 7 {
		t.Errorf("unit 0 = %d after the refused release, want 7", v)
	}
	other := dialRaw(t, addr)
	reply, _ := other.call(&protocol.WriteLock{Seg: "s", HaveVersion: 1, Policy: coherence.Full()})
	if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
		t.Fatalf("write lock after the refused release = %+v", reply)
	}
}

func TestDiffCoherenceSubscription(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	w := dialRaw(t, addr)
	r := dialRaw(t, addr)
	w.call(&protocol.OpenSegment{Name: "s", Create: true})
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	// 100 units.
	vals := make([]uint32, 100)
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: intCreateDiff(t, 1, vals...)})

	r.call(&protocol.OpenSegment{Name: "s", Create: false})
	// Tolerate 50% staleness.
	r.mustAck(&protocol.Subscribe{Seg: "s", HaveVersion: 1, Policy: coherence.Diff(50)})

	// Modify 16 units (one subblock): 16% < 50%, no notification.
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 0, make([]uint32, 16)...)})
	_ = r.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, msg, err := protocol.ReadFrame(r.conn); err == nil {
		t.Fatalf("notified below the diff bound: %+v", msg)
	}
	// Another 48 units: cumulative 64% > 50%, notify.
	w.call(&protocol.WriteLock{Seg: "s", Policy: coherence.Full()})
	w.call(&protocol.WriteUnlock{Seg: "s", Diff: runDiff(1, 20, make([]uint32, 48)...)})
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	id, msg, err := protocol.ReadFrame(r.conn)
	if err != nil || id != 0 {
		t.Fatalf("diff-bound notify: id %d err %v", id, err)
	}
	if _, ok := msg.(*protocol.Notify); !ok {
		t.Fatalf("diff-bound notify = %+v", msg)
	}
}

// TestWriteUnlockDedupAndResume exercises the at-most-once release
// protocol raw: a duplicate (WriterID, Seq) release is answered from
// the applied record without touching the segment, and Resume reports
// the fate of any probed release.
func TestWriteUnlockDedupAndResume(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "d/seg", Create: true})
	rc.call(&protocol.WriteLock{Seg: "d/seg", Policy: coherence.Full()})
	reply, _ := rc.call(&protocol.WriteUnlock{Seg: "d/seg", Diff: intCreateDiff(t, 1, 1, 2), WriterID: "w", Seq: 1})
	vr, ok := reply.(*protocol.VersionReply)
	if !ok || vr.Version != 1 {
		t.Fatalf("first release = %+v", reply)
	}

	// The identical retry — no lock held, diff would collide with the
	// existing block if re-applied — returns the recorded version.
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "d/seg", Diff: intCreateDiff(t, 1, 1, 2), WriterID: "w", Seq: 1})
	if vr, ok = reply.(*protocol.VersionReply); !ok || vr.Version != 1 {
		t.Fatalf("duplicate release = %+v", reply)
	}
	if seg := srv.SegmentSnapshot("d/seg"); seg.Version != 1 || seg.NumBlocks() != 1 {
		t.Fatalf("duplicate modified the segment: v%d, %d blocks", seg.Version, seg.NumBlocks())
	}

	// Resume: applied seq, unknown seq, unknown segment.
	reply, _ = rc.call(&protocol.Resume{Seg: "d/seg", WriterID: "w", Seq: 1})
	if rr, ok := reply.(*protocol.ResumeReply); !ok || !rr.Applied || rr.AppliedVersion != 1 || rr.CurrentVersion != 1 {
		t.Fatalf("Resume(applied) = %+v", reply)
	}
	reply, _ = rc.call(&protocol.Resume{Seg: "d/seg", WriterID: "w", Seq: 2})
	if rr, ok := reply.(*protocol.ResumeReply); !ok || rr.Applied || rr.CurrentVersion != 1 {
		t.Fatalf("Resume(unknown seq) = %+v", reply)
	}
	reply, _ = rc.call(&protocol.Resume{Seg: "d/none", WriterID: "w", Seq: 1})
	if er, ok := reply.(*protocol.ErrorReply); !ok || er.Code != protocol.CodeNoSegment {
		t.Fatalf("Resume(no segment) = %+v", reply)
	}

	// A release without a WriterID keeps the legacy semantics: no
	// record, so an identical resend without the lock is an error.
	rc.call(&protocol.WriteLock{Seg: "d/seg", Policy: coherence.Full()})
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "d/seg"})
	if _, ok := reply.(*protocol.VersionReply); !ok {
		t.Fatalf("anonymous release = %+v", reply)
	}
	reply, _ = rc.call(&protocol.WriteUnlock{Seg: "d/seg"})
	if er, ok := reply.(*protocol.ErrorReply); !ok || er.Code != protocol.CodeLockState {
		t.Fatalf("anonymous resend = %+v", reply)
	}
}

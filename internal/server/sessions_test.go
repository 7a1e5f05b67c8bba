package server

// Tests for the session transport (DESIGN.md §10): legacy-framing
// interop, mux session lifecycle and isolation, admission control,
// slow-consumer shedding, and commit-pipeline coalescing. The shed
// and stress tests are written to be meaningful under -race.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// muxClient speaks raw multiplexed frames, for driving the server's
// session layer without the client library in the way.
type muxClient struct {
	t    *testing.T
	conn net.Conn
	next uint32
}

func dialMuxRaw(t *testing.T, addr string) *muxClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &muxClient{t: t, conn: conn, next: 1}
}

// call sends one request on the given session and reads frames until
// its reply arrives, discarding pushes.
func (mc *muxClient) call(sid uint32, m protocol.Message) protocol.Message {
	mc.t.Helper()
	id := mc.next
	mc.next++
	if err := protocol.WriteFrameMux(mc.conn, id, m, protocol.TraceContext{}, sid); err != nil {
		mc.t.Fatal(err)
	}
	for {
		gotID, reply, _, gotSID, err := protocol.ReadFrameMux(mc.conn)
		if err != nil {
			mc.t.Fatal(err)
		}
		if gotID == 0 {
			continue // push (Notify or eviction notice)
		}
		if gotID != id || gotSID != sid {
			mc.t.Fatalf("reply (id=%d sid=%d), want (id=%d sid=%d)", gotID, gotSID, id, sid)
		}
		return reply
	}
}

// seedSeg creates a segment with one n-int block (serial 1) so
// writers can modify it with runDiff.
func seedSeg(t *testing.T, addr, name string, n int) {
	t.Helper()
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "seeder", Profile: "x86-32le"})
	if reply, _ := rc.call(&protocol.OpenSegment{Name: name, Create: true}); reply == nil {
		t.Fatal("open failed")
	}
	if reply, _ := rc.call(&protocol.WriteLock{Seg: name, Policy: coherence.Full()}); reply == nil {
		t.Fatal("seed wlock failed")
	}
	reply, _ := rc.call(&protocol.WriteUnlock{Seg: name, Diff: intsDiff(t, 1, 1, n, "blk")})
	if _, ok := reply.(*protocol.VersionReply); !ok {
		t.Fatalf("seed unlock reply = %+v", reply)
	}
}

// TestLegacyFramingInterop runs a pre-mux client (classic WriteFrame
// framing, no session IDs) through the full lock/release/read path on
// a server that is simultaneously carrying multiplexed sessions on
// another connection. The legacy client's behavior must be exactly
// the PR-1 contract — same replies, same ordering — because its
// frames are byte-identical to the pre-mux format (pinned by
// TestMuxSessionZeroByteIdentical in internal/protocol).
func TestLegacyFramingInterop(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	seedSeg(t, addr, "interop/s", 8)

	// Mux traffic in the background on its own connection.
	mux, err := core.DialMux(addr, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	stop := make(chan struct{})
	var muxErrs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ms, err := mux.NewSession(fmt.Sprintf("mux-%d", i), "x86-32le")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ms *core.MuxSession) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ms.Call(&protocol.ReadLock{Seg: "interop/s", Policy: coherence.Full()}); err != nil {
					muxErrs.Add(1)
					return
				}
				if _, err := ms.Call(&protocol.ReadUnlock{Seg: "interop/s"}); err != nil {
					muxErrs.Add(1)
					return
				}
			}
		}(ms)
	}

	// The legacy client's full happy path, meanwhile.
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "legacy", Profile: "x86-32le"})
	for round := 0; round < 10; round++ {
		reply, _ := rc.call(&protocol.WriteLock{Seg: "interop/s", Policy: coherence.Full()})
		if _, ok := reply.(*protocol.LockReply); !ok {
			t.Fatalf("round %d: write lock reply = %+v", round, reply)
		}
		reply, _ = rc.call(&protocol.WriteUnlock{Seg: "interop/s", Diff: runDiff(1, 0, uint32(round))})
		vr, ok := reply.(*protocol.VersionReply)
		if !ok || vr.Version != uint32(round+2) {
			t.Fatalf("round %d: unlock reply = %+v", round, reply)
		}
		reply, _ = rc.call(&protocol.ReadLock{Seg: "interop/s", HaveVersion: vr.Version, Policy: coherence.Full()})
		if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
			t.Fatalf("round %d: read lock reply = %+v", round, reply)
		}
		rc.mustAck(&protocol.ReadUnlock{Seg: "interop/s"})
	}
	close(stop)
	wg.Wait()
	if n := muxErrs.Load(); n != 0 {
		t.Errorf("mux sessions saw %d errors alongside the legacy client", n)
	}
}

// TestMuxRequiresHello checks that a non-zero session must be created
// by a Hello: any other first frame is refused with CodeNoSession,
// and after the Hello the session works.
func TestMuxRequiresHello(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	seedSeg(t, addr, "hello/s", 8)
	mc := dialMuxRaw(t, addr)

	reply := mc.call(7, &protocol.ReadLock{Seg: "hello/s", Policy: coherence.Full()})
	er, ok := reply.(*protocol.ErrorReply)
	if !ok || er.Code != protocol.CodeNoSession {
		t.Fatalf("pre-Hello reply = %+v, want CodeNoSession", reply)
	}
	if reply := mc.call(7, &protocol.Hello{ClientName: "late", Profile: "x86-32le"}); reply == nil {
		t.Fatal("Hello failed")
	} else if _, ok := reply.(*protocol.ErrorReply); ok {
		t.Fatalf("Hello reply = %+v", reply)
	}
	reply = mc.call(7, &protocol.ReadLock{Seg: "hello/s", Policy: coherence.Full()})
	if _, ok := reply.(*protocol.LockReply); !ok {
		t.Fatalf("post-Hello read lock reply = %+v", reply)
	}
}

// TestMuxSessionIsolation checks there is no head-of-line blocking
// across sessions of one connection: while session A sits in a
// write-lock queue, session B on the same connection completes RPCs.
func TestMuxSessionIsolation(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	seedSeg(t, addr, "iso/hot", 8)
	seedSeg(t, addr, "iso/cold", 8)

	holder := dialRaw(t, addr)
	holder.mustAck(&protocol.Hello{ClientName: "holder", Profile: "x86-32le"})
	if reply, _ := holder.call(&protocol.WriteLock{Seg: "iso/hot", Policy: coherence.Full()}); reply == nil {
		t.Fatal("holder wlock failed")
	}

	mux, err := core.DialMux(addr, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	a, err := mux.NewSession("a", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mux.NewSession("b", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}

	// A queues for the held write lock and blocks.
	aDone := make(chan error, 1)
	go func() {
		_, err := a.Call(&protocol.WriteLock{Seg: "iso/hot", Policy: coherence.Full()})
		aDone <- err
	}()
	select {
	case err := <-aDone:
		t.Fatalf("session A write lock returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// B, on the same connection, must complete a full RPC round.
	if _, err := b.Call(&protocol.ReadLock{Seg: "iso/cold", Policy: coherence.Full()}); err != nil {
		t.Fatalf("session B blocked behind session A: %v", err)
	}
	if _, err := b.Call(&protocol.ReadUnlock{Seg: "iso/cold"}); err != nil {
		t.Fatal(err)
	}

	// Release the lock; A's queued request completes.
	reply, _ := holder.call(&protocol.WriteUnlock{Seg: "iso/hot", Diff: runDiff(1, 0, 42)})
	if _, ok := reply.(*protocol.VersionReply); !ok {
		t.Fatalf("holder unlock reply = %+v", reply)
	}
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("session A write lock after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session A never got the lock")
	}
	if _, err := a.Call(&protocol.WriteUnlock{Seg: "iso/hot", Diff: runDiff(1, 0, 43)}); err != nil {
		t.Fatal(err)
	}
}

// TestSessionAdmissionCap checks Options.MaxSessions: admissions over
// the cap are refused with CodeOverloaded (surfacing as
// core.ErrOverloaded), the refusal is counted, and closing a session
// frees its slot.
func TestSessionAdmissionCap(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{MaxSessions: 2, Metrics: reg})
	mux, err := core.DialMux(addr, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	s1, err := mux.NewSession("one", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mux.NewSession("two", "x86-32le"); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.NewSession("three", "x86-32le"); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("over-cap NewSession error = %v, want ErrOverloaded", err)
	}
	if got := srv.ins.sessionsRefused.Value(); got < 1 {
		t.Errorf("sessions refused = %d, want >= 1", got)
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.NewSession("four", "x86-32le"); err != nil {
		t.Fatalf("NewSession after freeing a slot: %v", err)
	}
}

// TestSessionCloseReleasesState checks that SessionClose releases
// everything the session held: its subscription disappears and its
// write lock passes to the next waiter.
func TestSessionCloseReleasesState(t *testing.T) {
	srv, addr := startTestServer(t, Options{})
	seedSeg(t, addr, "close/s", 8)

	mux, err := core.DialMux(addr, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	s, err := mux.NewSession("closer", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(&protocol.Subscribe{Seg: "close/s", Policy: coherence.Full()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(&protocol.WriteLock{Seg: "close/s", Policy: coherence.Full()}); err != nil {
		t.Fatal(err)
	}
	if n := segDebug(t, srv, "close/s").Subscribers; n != 1 {
		t.Fatalf("subscribers before close = %d, want 1", n)
	}

	// Another client queues for the same write lock.
	waiterDone := make(chan error, 1)
	go func() {
		c, err := dialStress(addr)
		if err != nil {
			waiterDone <- err
			return
		}
		defer c.close()
		_, err = c.call(&protocol.WriteLock{Seg: "close/s", Policy: coherence.Full()})
		waiterDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	if err := s.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter after session close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write lock never passed to the waiter")
	}
	if n := segDebug(t, srv, "close/s").Subscribers; n != 0 {
		t.Errorf("subscribers after close = %d, want 0", n)
	}
	// The session is gone server-side: its next frame is refused.
	if _, err := s.Call(&protocol.ReadLock{Seg: "close/s", Policy: coherence.Full()}); err == nil {
		t.Error("call on closed session succeeded")
	}
}

func segDebug(t *testing.T, srv *Server, name string) SegmentDebug {
	t.Helper()
	for _, d := range srv.DebugSegments() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("segment %q not found", name)
	return SegmentDebug{}
}

// TestSlowConsumerShed wedges a connection (big pipelined replies,
// client never reads, small receive buffer) and then publishes to
// subscribers on that connection. The notifications must not block
// the publisher: they are shed and the subscriber sessions evicted,
// counted by iw_server_shed_total / iw_server_sessions_evicted_total.
func TestSlowConsumerShed(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{
		Metrics:          reg,
		SessionSendQueue: 2,
		ConnSendQueue:    4,
		WriteTimeout:     20 * time.Second, // replies wait patiently; notifies never do
	})
	// Big segment: each from-zero ReadLock reply is ~1MB, enough to
	// wedge socket buffers after a few.
	seedSeg(t, addr, "shed/big", 262144)

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	victim := &muxClient{t: t, conn: conn, next: 1}
	const subs = 8
	for sid := uint32(1); sid <= subs; sid++ {
		if reply := victim.call(sid, &protocol.Hello{ClientName: "victim", Profile: "x86-32le"}); reply == nil {
			t.Fatal("hello failed")
		}
		reply := victim.call(sid, &protocol.Subscribe{Seg: "shed/big", Policy: coherence.Full()})
		if _, ok := reply.(*protocol.Ack); !ok {
			t.Fatalf("subscribe reply = %+v", reply)
		}
	}
	// Wedge the connection: pipeline full-content reads and stop
	// reading. The replies fill the socket, then the writer queue,
	// then block their handlers (within WriteTimeout).
	for i := 0; i < 8; i++ {
		id := victim.next
		victim.next++
		err := protocol.WriteFrameMux(conn, id, &protocol.ReadLock{Seg: "shed/big", Policy: coherence.Full()},
			protocol.TraceContext{}, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)

	// Publish until the fan-out sheds. Releases come from a healthy
	// connection and must keep completing — shedding is what keeps
	// the publisher unblocked.
	writer, err := dialStress(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.close()
	deadline := time.Now().Add(10 * time.Second)
	for srv.ins.shed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no notification was shed")
		}
		if _, err := writer.call(&protocol.WriteLock{Seg: "shed/big", Policy: coherence.Full()}); err != nil {
			t.Fatalf("publisher write lock: %v", err)
		}
		if _, err := writer.call(&protocol.WriteUnlock{Seg: "shed/big", Diff: runDiff(1, 0, 1)}); err != nil {
			t.Fatalf("publisher write unlock: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.ins.sessionsEvicted.Value(); got < 1 {
		t.Errorf("sessions evicted = %d, want >= 1", got)
	}
}

// TestGroupCommitCoalesces runs contending writers against a server
// with default options and checks the commit pipeline's batching is
// invisible to correctness: every release gets its own version (a
// permutation of 1..N), the data converges, a transaction on the same
// segment commits on top, and the flush/release counters add up.
func TestGroupCommitCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startTestServer(t, Options{Metrics: reg})
	seedSeg(t, addr, "gc/s", 64)
	// The seed release took the pipeline too; assert on deltas.
	committed0 := srv.ins.groupCommitted.Value()
	flushes0 := srv.ins.groupCommits.Value()

	const writers = 6
	const rounds = 10
	var mu sync.Mutex
	seen := make(map[uint32]bool)
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dialStress(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.close()
			for r := 0; r < rounds; r++ {
				if _, err := c.call(&protocol.WriteLock{Seg: "gc/s", Policy: coherence.Full()}); err != nil {
					errCh <- fmt.Errorf("writer %d wlock: %w", w, err)
					return
				}
				reply, err := c.call(&protocol.WriteUnlock{Seg: "gc/s", Diff: runDiff(1, uint32(w), uint32(r))})
				if err != nil {
					errCh <- fmt.Errorf("writer %d wunlock: %w", w, err)
					return
				}
				vr, ok := reply.(*protocol.VersionReply)
				if !ok {
					errCh <- fmt.Errorf("writer %d unlock reply = %T", w, reply)
					return
				}
				mu.Lock()
				if seen[vr.Version] {
					err = fmt.Errorf("version %d acknowledged twice", vr.Version)
				}
				seen[vr.Version] = true
				mu.Unlock()
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every release got a distinct version 2..writers*rounds+1 (the
	// seed took version 1).
	const total = writers * rounds
	if len(seen) != total {
		t.Fatalf("distinct acknowledged versions = %d, want %d", len(seen), total)
	}
	for v := uint32(2); v <= total+1; v++ {
		if !seen[v] {
			t.Fatalf("version %d never acknowledged", v)
		}
	}

	// The counters account for every release, in at most one flush
	// each.
	committed := srv.ins.groupCommitted.Value() - committed0
	flushes := srv.ins.groupCommits.Value() - flushes0
	if committed != total {
		t.Errorf("flushed releases = %d, want %d", committed, total)
	}
	if flushes < 1 || flushes > committed {
		t.Errorf("flushes = %d, want 1..%d", flushes, committed)
	}

	// A reader from zero sees the converged state at the final
	// version.
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "reader", Profile: "x86-32le"})
	reply, _ := rc.call(&protocol.ReadLock{Seg: "gc/s", HaveVersion: 0, Policy: coherence.Full()})
	lr, ok := reply.(*protocol.LockReply)
	if !ok || lr.Diff == nil || lr.Diff.Version != total+1 {
		t.Fatalf("read-from-zero reply = %+v, want diff at version %d", reply, total+1)
	}
	rc.mustAck(&protocol.ReadUnlock{Seg: "gc/s"})

	// A transaction on the same segment joins the pipeline behind
	// whatever is in flight and commits on top.
	if reply, _ := rc.call(&protocol.WriteLock{Seg: "gc/s", Policy: coherence.Full()}); reply == nil {
		t.Fatal("tx wlock failed")
	}
	reply, _ = rc.call(&protocol.TxCommit{Parts: []protocol.WriteUnlock{
		{Seg: "gc/s", Diff: runDiff(1, 0, 99)},
	}})
	tr, ok := reply.(*protocol.TxReply)
	if !ok || len(tr.Versions) != 1 || tr.Versions[0] != total+2 {
		t.Fatalf("tx reply = %+v, want version %d", reply, total+2)
	}
	_ = srv
}

// TestStressMuxShedEvict churns sessions, subscriptions, evictions,
// and pipelined releases together; meant for -race. Sessions
// open, subscribe, read, and close (or get evicted) while writers
// publish; the server must stay responsive to a healthy legacy client
// throughout.
func TestStressMuxShedEvict(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Options{
		Metrics:          reg,
		SessionSendQueue: 4,
		ConnSendQueue:    64,
		WriteTimeout:     2 * time.Second,
	})
	seedSeg(t, addr, "churn/s", 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publisher: releases the whole time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := dialStress(addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.close()
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.call(&protocol.WriteLock{Seg: "churn/s", Policy: coherence.Full()}); err != nil {
				t.Errorf("publisher wlock: %v", err)
				return
			}
			if _, err := c.call(&protocol.WriteUnlock{Seg: "churn/s", Diff: runDiff(1, i%64, i)}); err != nil {
				t.Errorf("publisher wunlock: %v", err)
				return
			}
		}
	}()

	// Churners: short-lived mux sessions that subscribe, read, and
	// close. Errors are expected under churn (evictions); crashes and
	// races are not.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mux, err := core.DialMux(addr, core.MuxOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer mux.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := mux.NewSession(fmt.Sprintf("churn-%d-%d", g, i), "x86-32le")
				if err != nil {
					continue
				}
				_, _ = s.Call(&protocol.Subscribe{Seg: "churn/s", Policy: coherence.Full()})
				if _, err := s.Call(&protocol.ReadLock{Seg: "churn/s", Policy: coherence.Full()}); err == nil {
					_, _ = s.Call(&protocol.ReadUnlock{Seg: "churn/s"})
				}
				_ = s.Close()
			}
		}(g)
	}

	// The control: a legacy client that must see zero errors.
	deadline := time.Now().Add(2 * time.Second)
	rc := dialRaw(t, addr)
	rc.mustAck(&protocol.Hello{ClientName: "control", Profile: "x86-32le"})
	for time.Now().Before(deadline) {
		reply, _ := rc.call(&protocol.ReadLock{Seg: "churn/s", Policy: coherence.Full()})
		if _, ok := reply.(*protocol.LockReply); !ok {
			t.Fatalf("control read lock reply = %+v", reply)
		}
		rc.mustAck(&protocol.ReadUnlock{Seg: "churn/s"})
	}
	close(stop)
	wg.Wait()
}

// BenchmarkSessionScale measures the session lifecycle on the mux
// transport: open (Hello), one ReadLock/ReadUnlock round, close. This
// is the per-session cost that bounds how fast tools/loadgen can
// stand up its 100k sessions.
func BenchmarkSessionScale(b *testing.B) {
	srv, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()

	seed, err := dialStress(addr)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.call(&protocol.OpenSegment{Name: "bench/s", Create: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.call(&protocol.WriteLock{Seg: "bench/s", Policy: coherence.Full()}); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.call(&protocol.WriteUnlock{Seg: "bench/s", Diff: benchSeedDiff()}); err != nil {
		b.Fatal(err)
	}
	seed.close()

	mux, err := core.DialMux(addr, core.MuxOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer mux.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mux.NewSession("bench", "x86-32le")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Call(&protocol.ReadLock{Seg: "bench/s", Policy: coherence.Full()}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Call(&protocol.ReadUnlock{Seg: "bench/s"}); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSeedDiff builds the seed diff without a *testing.T.
func benchSeedDiff() *wire.SegmentDiff {
	descBytes, err := types.Marshal(types.Int32())
	if err != nil {
		panic(err)
	}
	const n = 64
	data := make([]byte, 0, n*4)
	for i := 0; i < n; i++ {
		data = wire.AppendU32(data, uint32(i))
	}
	return &wire.SegmentDiff{
		Descs: []wire.DescDef{{Serial: 1, Bytes: descBytes}},
		News:  []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: n, Name: "blk"}},
		Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{
			{Start: 0, Count: n, Data: data},
		}}},
	}
}

package session_test

// Transport conformance: one table of wire-level behaviours every host
// of the session transport must show, run against a fake host, a real
// server.Server listener, and a real proxy.Proxy listener (origin
// behind it). A case drives the target with raw frames only; what
// differs per target — how to make a write lock block, how to publish
// a version, how large the queues are — is in its env.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/proxy"
	"interweave/internal/server"
	"interweave/internal/session"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// env is one running target.
type env struct {
	addr string
	seg  string // seeded at version 1; a from-zero ReadLock reply is replyBytes long
	// block arranges that a WriteLock on seg parks; the next publish
	// undoes it.
	block func(t *testing.T)
	// publish commits one more version of seg, which owes every
	// subscriber a Notify.
	publish func(t *testing.T)
	// shed and evicted read the host's two teardown counters.
	shed, evicted func() uint64
	// A connection is wedged by pipelining from-zero reads and not
	// reading the replies: what the socket buffers cannot absorb (a few
	// MB on loopback) backs up into the writer queue. wedgeReads
	// overflow one session's queue bound while leaving the connection
	// queue room; stuckReads fill the connection queue too, leaving a
	// reply blocked.
	wedgeReads, stuckReads int
	writeTimeout           time.Duration
}

// intBlockDiff creates block serial 1 of n int32s; bumpDiff rewrites
// its first element.
func intBlockDiff(t *testing.T, n int) *wire.SegmentDiff {
	t.Helper()
	desc, err := types.Marshal(types.Int32())
	if err != nil {
		t.Fatal(err)
	}
	return &wire.SegmentDiff{
		Descs:  []wire.DescDef{{Serial: 1, Bytes: desc}},
		News:   []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: uint32(n), Name: "blk"}},
		Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: uint32(n), Data: make([]byte, 4*n)}}}},
	}
}

func bumpDiff(v uint32) *wire.SegmentDiff {
	return &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{
		{Start: 0, Count: 1, Data: wire.AppendU32(nil, v)},
	}}}}
}

// rawConn speaks raw multiplexed frames.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	next uint32
}

func dial(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{t: t, conn: conn, next: 1}
}

// post writes one request and returns its ID.
func (rc *rawConn) post(sid uint32, m protocol.Message) uint32 {
	rc.t.Helper()
	id := rc.next
	rc.next++
	if err := protocol.WriteFrameMux(rc.conn, id, m, protocol.TraceContext{}, sid); err != nil {
		rc.t.Fatal(err)
	}
	return id
}

// frame is one received frame.
type frame struct {
	id, sid uint32
	m       protocol.Message
}

func (rc *rawConn) read() (frame, error) {
	_ = rc.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	id, m, _, sid, err := protocol.ReadFrameMux(rc.conn)
	return frame{id, sid, m}, err
}

// await reads until the reply to request id arrives, returning it and
// the unsolicited frames seen on the way. Replies to other requests
// are dropped.
func (rc *rawConn) await(id uint32) (frame, []frame) {
	rc.t.Helper()
	var pushed []frame
	for {
		f, err := rc.read()
		if err != nil {
			rc.t.Fatalf("waiting for reply %d: %v", id, err)
		}
		switch f.id {
		case 0:
			pushed = append(pushed, f)
		case id:
			return f, pushed
		}
	}
}

func (rc *rawConn) call(sid uint32, m protocol.Message) protocol.Message {
	rc.t.Helper()
	f, _ := rc.await(rc.post(sid, m))
	if f.sid != sid {
		rc.t.Fatalf("reply to %T on session %d came back on session %d", m, sid, f.sid)
	}
	return f.m
}

func (rc *rawConn) mustAck(sid uint32, m protocol.Message) {
	rc.t.Helper()
	if reply := rc.call(sid, m); !isAck(reply) {
		rc.t.Fatalf("%T on session %d answered %T (%v), want Ack", m, sid, reply, reply)
	}
}

func isAck(m protocol.Message) bool { _, ok := m.(*protocol.Ack); return ok }

func codeOf(m protocol.Message) uint16 {
	if er, ok := m.(*protocol.ErrorReply); ok {
		return er.Code
	}
	return 0
}

func hello() protocol.Message { return &protocol.Hello{ClientName: "conf", Profile: "x86-32le"} }

func readFromZero(seg string) protocol.Message {
	return &protocol.ReadLock{Seg: seg, Policy: coherence.Full()}
}

var cases = []struct {
	name string
	run  func(t *testing.T, e env)
}{
	{"non-zero session needs Hello", func(t *testing.T, e env) {
		rc := dial(t, e.addr)
		if reply := rc.call(7, readFromZero(e.seg)); codeOf(reply) != protocol.CodeNoSession {
			t.Fatalf("pre-Hello reply = %v, want CodeNoSession", reply)
		}
		rc.mustAck(7, hello())
		if _, ok := rc.call(7, readFromZero(e.seg)).(*protocol.LockReply); !ok {
			t.Fatal("post-Hello read lock refused")
		}
	}},
	{"SessionClose idempotent and acked", func(t *testing.T, e env) {
		rc := dial(t, e.addr)
		rc.mustAck(9, &protocol.SessionClose{}) // never existed
		rc.mustAck(3, hello())
		rc.mustAck(3, &protocol.SessionClose{})
		rc.mustAck(3, &protocol.SessionClose{})
		if reply := rc.call(3, readFromZero(e.seg)); codeOf(reply) != protocol.CodeNoSession {
			t.Fatalf("frame on closed session answered %v, want CodeNoSession", reply)
		}
		// Closing the implicit session keeps the connection; the next
		// frame recreates it.
		rc.mustAck(0, hello())
		rc.mustAck(0, &protocol.SessionClose{})
		if _, ok := rc.call(0, readFromZero(e.seg)).(*protocol.LockReply); !ok {
			t.Fatal("implicit session not recreated after SessionClose")
		}
	}},
	{"session 0 replies in request order", func(t *testing.T, e env) {
		rc := dial(t, e.addr)
		const n = 64
		for i := 0; i < n; i++ {
			var m protocol.Message = &protocol.ReadUnlock{Seg: e.seg}
			if i%2 == 0 {
				m = readFromZero(e.seg) // uneven work per request
			}
			rc.post(0, m)
		}
		for want := uint32(1); want <= n; want++ {
			f, err := rc.read()
			if err != nil {
				t.Fatal(err)
			}
			if f.id != want || f.sid != 0 {
				t.Fatalf("reply %d arrived as (id=%d sid=%d)", want, f.id, f.sid)
			}
		}
	}},
	{"slow consumer is shed, told, and gone", func(t *testing.T, e env) {
		rc := dial(t, e.addr)
		rc.mustAck(1, hello())
		rc.mustAck(1, &protocol.Subscribe{Seg: e.seg, HaveVersion: 1, Policy: coherence.Full()})
		for i := 0; i < e.wedgeReads; i++ {
			rc.post(1, readFromZero(e.seg))
		}
		for deadline := time.Now().Add(20 * time.Second); e.shed() == 0; time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no notification was shed")
			}
			e.publish(t) // must keep completing: shedding is what keeps the publisher unblocked
		}
		if got := e.evicted(); got != 1 {
			t.Errorf("evicted = %d, want 1", got)
		}
		// The connection queue had room, so the eviction notice was
		// pushed; it is behind the wedged replies.
		probe := rc.post(1, readFromZero(e.seg))
		reply, pushed := rc.await(probe)
		told := false
		for _, f := range pushed {
			told = told || (f.sid == 1 && codeOf(f.m) == protocol.CodeOverloaded)
		}
		if !told {
			t.Error("no CodeOverloaded notice was pushed on the evicted session")
		}
		if codeOf(reply.m) != protocol.CodeNoSession {
			t.Errorf("frame on the evicted session answered %v, want CodeNoSession", reply.m)
		}
	}},
	{"subscriber already behind is notified at once", func(t *testing.T, e env) {
		e.publish(t) // version 2
		rc := dial(t, e.addr)
		rc.mustAck(1, hello())
		// A proxy's mirror follows its origin asynchronously: wait until
		// the target serves a reader at version 1 an update.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			lr, ok := rc.call(1, &protocol.ReadLock{Seg: e.seg, HaveVersion: 1, Policy: coherence.Full()}).(*protocol.LockReply)
			if ok && lr.Diff != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("target never reached version 2")
			}
		}
		// Subscribing at version 1 is one write late: without a Notify
		// now, the subscriber would trust its copy until the next write.
		reply, pushed := rc.await(rc.post(1, &protocol.Subscribe{Seg: e.seg, HaveVersion: 1, Policy: coherence.Full()}))
		if !isAck(reply.m) {
			t.Fatalf("Subscribe answered %v", reply.m)
		}
		if len(pushed) == 0 {
			f, err := rc.read()
			if err != nil {
				t.Fatalf("no Notify followed the late Subscribe: %v", err)
			}
			pushed = append(pushed, f)
		}
		n, ok := pushed[0].m.(*protocol.Notify)
		if !ok || pushed[0].sid != 1 || n.Seg != e.seg || n.Version < 2 {
			t.Fatalf("pushed %+v on session %d, want a Notify of %s at version >= 2 on session 1", pushed[0].m, pushed[0].sid, e.seg)
		}
		// At the current version nothing is owed: the next frame is the
		// probe's reply, not a Notify.
		rc.mustAck(1, &protocol.Subscribe{Seg: e.seg, HaveVersion: n.Version, Policy: coherence.Full()})
		if _, pushed := rc.await(rc.post(1, &protocol.ReadUnlock{Seg: e.seg})); len(pushed) != 0 {
			t.Fatalf("current subscriber was pushed %+v", pushed[0].m)
		}
	}},
	{"reply to a session that died in flight is delivered", func(t *testing.T, e env) {
		e.block(t)
		rc := dial(t, e.addr)
		rc.mustAck(5, hello())
		parked := rc.post(5, &protocol.WriteLock{Seg: e.seg, Policy: coherence.Full()})
		time.Sleep(100 * time.Millisecond) // let it park
		closeID := rc.post(5, &protocol.SessionClose{})
		// Every target answers the parked request as its session dies,
		// while the blocker still holds the lock: the proxy's release
		// closes the session's upstream forwarder without waiting for
		// the call it has in flight. Both answers arrive, in either
		// order: the SessionClose ack and a reply to the parked request,
		// addressed to the dead session so the client's pending call
		// resolves.
		for left := 2; left > 0; {
			f, err := rc.read()
			if err != nil {
				t.Fatalf("with %d replies outstanding: %v", left, err)
			}
			switch f.id {
			case parked:
				if f.sid != 5 {
					t.Errorf("parked request's reply came back on session %d", f.sid)
				}
				left--
			case closeID:
				if !isAck(f.m) {
					t.Errorf("SessionClose answered %v", f.m)
				}
				left--
			}
		}
	}},
	{"stuck writer past the write timeout evicts the connection", func(t *testing.T, e env) {
		if testing.Short() && e.writeTimeout > 2*time.Second {
			t.Skipf("write timeout is %v", e.writeTimeout)
		}
		rc := dial(t, e.addr)
		rc.mustAck(1, hello())
		for i := 0; i < e.stuckReads; i++ {
			rc.post(1, readFromZero(e.seg))
		}
		time.Sleep(e.writeTimeout + e.writeTimeout/2 + 200*time.Millisecond)
		got := 0
		for {
			if _, err := rc.read(); err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("connection still open past the write timeout")
				}
				break
			}
			got++
		}
		if got >= e.stuckReads {
			t.Fatalf("all %d replies arrived: the connection was never stuck", got)
		}
	}},
}

func TestConformance(t *testing.T) {
	targets := []struct {
		name  string
		start func(t *testing.T) env
	}{
		{"fake", startFake},
		{"server", startServer},
		{"proxy", startProxy},
	}
	for _, target := range targets {
		for _, tc := range cases {
			t.Run(target.name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				tc.run(t, target.start(t))
			})
		}
	}
}

// fakeHost is the smallest host: it acks, serves one fixed large read
// reply, records subscribers, and parks write locks until their
// session is released.
type fakeHost struct {
	big           protocol.Message
	shed, evicted atomic.Uint64

	mu      sync.Mutex
	subs    map[*session.Session]struct{}
	version uint32 // 1 + publishes
}

func (h *fakeHost) Admit(s *session.Session, _ protocol.Message) protocol.Message {
	s.Data = make(chan struct{}) // closed by Release
	return nil
}

func (h *fakeHost) Handle(s *session.Session, m protocol.Message, _ protocol.TraceContext) protocol.Message {
	switch m := m.(type) {
	case *protocol.ReadLock:
		return h.big
	case *protocol.Subscribe:
		h.mu.Lock()
		h.subs[s] = struct{}{}
		version := h.version
		h.mu.Unlock()
		if m.HaveVersion < version {
			s.Notify(&protocol.Notify{Seg: m.Seg, Version: version})
		}
	case *protocol.WriteLock:
		<-s.Data.(chan struct{})
		return &protocol.ErrorReply{Code: protocol.CodeNoSession, Text: "session closed"}
	}
	return &protocol.Ack{}
}

func (h *fakeHost) Release(s *session.Session, evictReason string) {
	if !s.Gone() {
		panic("Release before Gone")
	}
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	if evictReason != "" {
		h.shed.Add(1)
		h.evicted.Add(1)
	}
	close(s.Data.(chan struct{}))
}

func (h *fakeHost) publish(*testing.T) {
	h.mu.Lock()
	subs := make([]*session.Session, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.version++
	version := h.version
	h.mu.Unlock()
	for _, s := range subs {
		s.Notify(&protocol.Notify{Seg: "fake/s", Version: version})
	}
}

// smallQueues are the bounds the fake and the server run with; the
// proxy's are fixed constants.
var smallQueues = session.Config{ConnQueue: 64, SessionQueue: 2, WriteTimeout: 300 * time.Millisecond}

// bigInts sizes the small-queue targets' segment: a from-zero read
// reply of 256 KB, so a few dozen outrun any socket buffering.
const bigInts = 64 << 10

func startFake(t *testing.T) env {
	h := &fakeHost{
		big:     &protocol.LockReply{Diff: intBlockDiff(t, bigInts)},
		subs:    make(map[*session.Session]struct{}),
		version: 1,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		conns   []*session.Conn
		serving sync.WaitGroup
	)
	serving.Add(1)
	go func() {
		defer serving.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c := session.NewConn(conn, h, smallQueues)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			serving.Add(1)
			go func() { defer serving.Done(); c.Serve() }()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		serving.Wait()
	})
	return env{
		addr: ln.Addr().String(), seg: "fake/s",
		block:   func(*testing.T) {},
		publish: h.publish,
		shed:    h.shed.Load, evicted: h.evicted.Load,
		wedgeReads: 48, stuckReads: 64 + 48,
		writeTimeout: smallQueues.WriteTimeout,
	}
}

// seed creates seg at addr with one block of n ints (version 1).
func seed(t *testing.T, addr, seg string, n int) {
	t.Helper()
	rc := dial(t, addr)
	rc.mustAck(0, hello())
	rc.call(0, &protocol.OpenSegment{Name: seg, Create: true})
	rc.call(0, &protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
	if _, ok := rc.call(0, &protocol.WriteUnlock{Seg: seg, Diff: intBlockDiff(t, n)}).(*protocol.VersionReply); !ok {
		t.Fatal("seeding failed")
	}
}

// writerAt returns block and publish for a real origin: block takes
// seg's write lock on a connection of its own and publish releases it,
// taking it first if need be.
func writerAt(addr, seg string) (block, publish func(t *testing.T)) {
	var rc *rawConn
	held := false
	lock := func(t *testing.T) {
		t.Helper()
		if rc == nil {
			rc = dial(t, addr)
			rc.mustAck(0, hello())
		}
		if _, ok := rc.call(0, &protocol.WriteLock{Seg: seg, Policy: coherence.Full()}).(*protocol.LockReply); !ok {
			t.Fatal("writer could not lock")
		}
		held = true
	}
	n := uint32(0)
	return lock, func(t *testing.T) {
		t.Helper()
		if !held {
			lock(t)
		}
		held = false
		n++
		if _, ok := rc.call(0, &protocol.WriteUnlock{Seg: seg, Diff: bumpDiff(n)}).(*protocol.VersionReply); !ok {
			t.Fatal("writer could not publish")
		}
	}
}

func listen(t *testing.T, serve func(net.Listener) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = serve(ln) }()
	return ln.Addr().String()
}

func counter(reg *obs.Registry, name string) func() uint64 {
	return func() uint64 { return reg.Snapshot().Counters[name] }
}

func startServer(t *testing.T) env {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Options{
		Metrics:          reg,
		ConnSendQueue:    smallQueues.ConnQueue,
		SessionSendQueue: smallQueues.SessionQueue,
		WriteTimeout:     smallQueues.WriteTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	addr := listen(t, srv.Serve)
	seed(t, addr, "conf/s", bigInts)
	block, publish := writerAt(addr, "conf/s")
	return env{
		addr: addr, seg: "conf/s",
		block: block, publish: publish,
		shed:       counter(reg, "iw_server_shed_total"),
		evicted:    counter(reg, "iw_server_sessions_evicted_total"),
		wedgeReads: 48, stuckReads: 64 + 48,
		writeTimeout: smallQueues.WriteTimeout,
	}
}

func startProxy(t *testing.T) env {
	origin, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = origin.Close() })
	originAddr := listen(t, origin.Serve)
	seg := originAddr + "/conf"
	// 64 KB replies against the proxy's fixed bounds (connection
	// queue 1024, session bound 256, write timeout 10 s).
	seed(t, originAddr, seg, 16<<10)
	reg := obs.NewRegistry()
	p, err := proxy.New(proxy.Options{Upstream: originAddr, Metrics: reg, SyncEvery: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	addr := listen(t, p.Serve)
	block, publish := writerAt(originAddr, seg)
	return env{
		addr: addr, seg: seg,
		block: block, publish: publish,
		shed:       counter(reg, "iw_proxy_shed_total"),
		evicted:    counter(reg, "iw_proxy_sessions_evicted_total"),
		wedgeReads: 960, stuckReads: 1024 + 256,
		writeTimeout: 10 * time.Second,
	}
}

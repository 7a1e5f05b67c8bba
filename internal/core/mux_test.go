package core

// Client-side tests of the session-mux transport against a scripted
// in-test server, pinning the properties DESIGN.md §10 promises the
// client: per-call timeouts fail only their call (late replies are
// discarded harmlessly), CodeNoSession maps to ErrSessionLost and
// latches, and an unsolicited eviction notice surfaces through
// OnEvict and poisons the session with ErrOverloaded.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"interweave/internal/protocol"
)

// muxFakeServer accepts connections and answers frames with the
// handler's reply (nil = swallow the request). Pushes can be injected
// with push(), on the newest connection.
type muxFakeServer struct {
	t  *testing.T
	ln net.Listener

	mu   sync.Mutex
	conn net.Conn
}

func startMuxFake(t *testing.T, handler func(sid uint32, m protocol.Message) protocol.Message) *muxFakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &muxFakeServer{t: t, ln: ln}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conn = conn
			fs.mu.Unlock()
			go func() {
				for {
					id, m, _, sid, err := protocol.ReadFrameMux(conn)
					if err != nil {
						return
					}
					if reply := handler(sid, m); reply != nil {
						fs.send(sid, id, reply)
					}
				}
			}()
		}
	}()
	return fs
}

func (fs *muxFakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *muxFakeServer) send(sid, id uint32, m protocol.Message) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.conn != nil {
		_ = protocol.WriteFrameMux(fs.conn, id, m, protocol.TraceContext{}, sid)
	}
}

// push sends a server-initiated frame (request id 0) to a session.
func (fs *muxFakeServer) push(sid uint32, m protocol.Message) {
	// The conn may not be registered yet right after dial.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fs.mu.Lock()
		ready := fs.conn != nil
		fs.mu.Unlock()
		if ready || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	fs.send(sid, 0, m)
}

func TestMuxCallTimeoutFailsOnlyThatCall(t *testing.T) {
	var mu sync.Mutex
	delayed := make(map[uint32]bool) // sid -> delay this session's calls
	fs := startMuxFake(t, func(sid uint32, m protocol.Message) protocol.Message {
		if _, ok := m.(*protocol.Hello); ok {
			return &protocol.Ack{}
		}
		mu.Lock()
		d := delayed[sid]
		mu.Unlock()
		if d {
			return nil // swallowed: the call must time out
		}
		return &protocol.VersionReply{Version: 7}
	})

	mc, err := DialMux(fs.addr(), MuxOptions{RPCTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	slow, err := mc.NewSession("slow", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mc.NewSession("fast", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	delayed[slow.SID()] = true
	mu.Unlock()

	if _, err := slow.Call(&protocol.ReadUnlock{Seg: "s"}); err == nil {
		t.Fatal("swallowed call did not time out")
	}
	// The timeout poisoned neither the connection nor the session.
	if _, err := fast.Call(&protocol.ReadUnlock{Seg: "s"}); err != nil {
		t.Fatalf("fast session after slow timeout: %v", err)
	}
	if slow.Lost() {
		t.Fatal("timeout marked the session lost")
	}
	mu.Lock()
	delayed[slow.SID()] = false
	mu.Unlock()
	if _, err := slow.Call(&protocol.ReadUnlock{Seg: "s"}); err != nil {
		t.Fatalf("slow session after recovery: %v", err)
	}
}

func TestMuxNoSessionLatchesLost(t *testing.T) {
	fs := startMuxFake(t, func(sid uint32, m protocol.Message) protocol.Message {
		if _, ok := m.(*protocol.Hello); ok {
			return &protocol.Ack{}
		}
		return &protocol.ErrorReply{Code: protocol.CodeNoSession, Text: "evicted"}
	})
	mc, err := DialMux(fs.addr(), MuxOptions{RPCTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	s, err := mc.NewSession("s", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(&protocol.ReadUnlock{Seg: "x"}); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("error = %v, want ErrSessionLost", err)
	}
	if !s.Lost() {
		t.Fatal("session not marked lost")
	}
	// Lost latches: the next call fails locally with the same error.
	if _, err := s.Call(&protocol.ReadUnlock{Seg: "x"}); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("second error = %v, want ErrSessionLost", err)
	}
}

func TestMuxEvictionNoticeFiresOnEvict(t *testing.T) {
	fs := startMuxFake(t, func(sid uint32, m protocol.Message) protocol.Message {
		if _, ok := m.(*protocol.Hello); ok {
			return &protocol.Ack{}
		}
		return &protocol.Ack{}
	})
	evicted := make(chan string, 1)
	mc, err := DialMux(fs.addr(), MuxOptions{
		RPCTimeout: time.Second,
		OnEvict:    func(s *MuxSession, reason string) { evicted <- reason },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	s, err := mc.NewSession("victim", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}

	fs.push(s.SID(), &protocol.ErrorReply{Code: protocol.CodeOverloaded, Text: "session evicted: slow"})
	select {
	case reason := <-evicted:
		if reason != "session evicted: slow" {
			t.Fatalf("evict reason = %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnEvict never fired")
	}
	if !s.Lost() {
		t.Fatal("evicted session not marked lost")
	}
	if _, err := s.Call(&protocol.ReadUnlock{Seg: "x"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call on evicted session = %v, want ErrOverloaded", err)
	}
}

// TestRPCTimeoutBoundsSubscribe pins that RPCTimeout bounds the
// adaptive protocol's Subscribe like any other RPC: against a server
// that answers everything but Subscribe, the read lock that subscribes
// returns within the timeout (failing the connection, whose ordered
// stream is now suspect), and the next read lock redials.
func TestRPCTimeoutBoundsSubscribe(t *testing.T) {
	const timeout = 200 * time.Millisecond
	var hellos, subscribes atomic.Int32
	fs := startMuxFake(t, func(_ uint32, m protocol.Message) protocol.Message {
		switch m.(type) {
		case *protocol.Hello:
			hellos.Add(1)
			return &protocol.Ack{}
		case *protocol.OpenSegment:
			return &protocol.OpenReply{}
		case *protocol.ReadLock:
			return &protocol.LockReply{Fresh: true}
		case *protocol.Subscribe:
			subscribes.Add(1)
		}
		return nil
	})
	c, err := NewClient(Options{Name: "sub", RPCTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	h, err := c.Open(fs.addr() + "/seg")
	if err != nil {
		t.Fatal(err)
	}
	rlock := func() {
		t.Helper()
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- c.RLock(h) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(timeout + 2*time.Second):
			t.Fatalf("RLock still blocked after %v (RPCTimeout %v)", time.Since(start), timeout)
		}
		if err := c.RUnlock(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; subscribes.Load() == 0; i++ {
		if i == 10 {
			t.Fatal("the adaptive protocol never subscribed")
		}
		rlock()
	}
	if n := hellos.Load(); n != 1 {
		t.Fatalf("%d connections before the timed-out Subscribe, want 1", n)
	}
	rlock()
	if n := hellos.Load(); n != 2 {
		t.Errorf("%d connections after the timed-out Subscribe, want 2 (a redial)", n)
	}
}

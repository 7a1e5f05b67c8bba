package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/protocol"
)

// Host is what an accepting node — an origin server or a proxy —
// supplies to the transport: the three decisions that differ between
// them. Everything else (framing, the session table, ordering,
// backpressure, shedding) is the transport's and is the same for both.
type Host interface {
	// Admit is called on the read loop when first, a frame allowed to
	// create a session, arrives for an ID with no live session. A nil
	// return admits s; the host attaches its per-session state through
	// s.Data before returning. A non-nil return is sent as the reply
	// and nothing is created.
	Admit(s *Session, first protocol.Message) (refusal protocol.Message)
	// Handle serves one request frame and returns its reply (nil sends
	// nothing). It runs inline on the read loop for session 0 and on
	// its own goroutine for every other session.
	Handle(s *Session, m protocol.Message, tc protocol.TraceContext) protocol.Message
	// Release is called exactly once per admitted session, after the
	// session has left its connection's table and Gone reports true:
	// the host drops everything it attached. A non-empty evictReason
	// means the session was shed as a slow consumer, not closed.
	Release(s *Session, evictReason string)
}

// Config bounds one accepted connection's queues (CAPACITY.md).
type Config struct {
	// ConnQueue bounds the connection's writer queue, shared by every
	// session multiplexed on it.
	ConnQueue int
	// SessionQueue bounds the frames queued on one session's behalf; a
	// Notify arriving over the bound is shed.
	SessionQueue int
	// WriteTimeout bounds how long a reply waits for queue space
	// before the connection is declared stuck and evicted whole.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives diagnostics.
	Logf func(format string, args ...any)
}

// frame is one queued outbound frame. sess is nil for frames that
// belong to no live session (refusals, SessionClose acks, replies to a
// session that died in flight, eviction notices).
type frame struct {
	sess *Session
	sid  uint32
	id   uint32
	m    protocol.Message
}

// Conn is one accepted TCP connection and the logical sessions it
// carries.
type Conn struct {
	host Host
	cfg  Config
	conn net.Conn

	sendCh chan frame
	// dead is closed exactly once when the connection is being torn
	// down; senders select on it so they never block on a dying conn.
	dead     chan struct{}
	deadOnce sync.Once

	mu       sync.Mutex // guards sessions
	sessions map[uint32]*Session

	// handlers tracks the per-request goroutines of non-zero sessions;
	// Serve waits for them after their sessions were released.
	handlers sync.WaitGroup
}

// Session is one logical client session. A pre-mux client is exactly
// one session (ID 0) on its own connection.
type Session struct {
	// Data is the host's per-session state, set in Host.Admit and
	// never touched by the transport.
	Data any

	conn *Conn
	sid  uint32

	// queued counts frames sitting in the writer queue on this
	// session's behalf; notifications are shed when it reaches the
	// per-session bound.
	queued atomic.Int32

	// closed flips once, before Host.Release runs. Handlers re-check
	// it (Gone) under whatever lock guards the state they are about to
	// attach, which makes teardown race-free: an attach either happens
	// before Release takes that lock (and is swept) or observes Gone
	// and refuses.
	closed atomic.Bool
}

// NewConn wraps an accepted connection; Serve runs it.
func NewConn(conn net.Conn, host Host, cfg Config) *Conn {
	return &Conn{
		host:     host,
		cfg:      cfg,
		conn:     conn,
		sendCh:   make(chan frame, cfg.ConnQueue),
		dead:     make(chan struct{}),
		sessions: make(map[uint32]*Session),
	}
}

func (c *Conn) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Close marks the connection dead (idempotent) and closes the socket,
// releasing the read loop, the writer goroutine, and every sender
// blocked on the queue. Serve then tears the sessions down.
func (c *Conn) Close() {
	c.deadOnce.Do(func() {
		close(c.dead)
		_ = c.conn.Close()
	})
}

// writeLoop is the connection's single writer goroutine: it drains
// the queue and owns the socket for writes, so no handler ever does
// socket I/O directly (or under a host lock).
func (c *Conn) writeLoop() {
	for {
		select {
		case f := <-c.sendCh:
			err := protocol.WriteFrameMux(c.conn, f.id, f.m, protocol.TraceContext{}, f.sid)
			if f.sess != nil {
				f.sess.queued.Add(-1)
			}
			if err != nil {
				c.Close()
				return
			}
		case <-c.dead:
			return
		}
	}
}

// Serve runs the connection until it dies: the read loop plus session
// dispatch. On return every session has been released and every
// handler goroutine has finished.
func (c *Conn) Serve() {
	defer c.cleanup()
	go c.writeLoop()
	for {
		id, msg, tc, sid, err := protocol.ReadFrameMux(c.conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.logf("conn %s: %v", c.conn.RemoteAddr(), err)
			}
			return
		}
		if _, ok := msg.(*protocol.SessionClose); ok {
			// Idempotent, and always acked. Closing session 0 resets
			// the implicit session's state but keeps the connection; a
			// later frame recreates it fresh.
			c.mu.Lock()
			s := c.sessions[sid]
			c.mu.Unlock()
			if s != nil {
				s.teardown("")
			}
			if c.enqueue(frame{sid: sid, id: id, m: &protocol.Ack{}}) != nil {
				return
			}
			continue
		}
		s, refusal := c.sessionFor(sid, msg)
		if refusal != nil {
			if c.enqueue(frame{sid: sid, id: id, m: refusal}) != nil {
				return
			}
			continue
		}
		if sid == 0 {
			// The implicit session keeps the classic contract: strict
			// per-connection request ordering, handled inline.
			if reply := c.host.Handle(s, msg, tc); reply != nil {
				if err := s.send(id, reply); err != nil {
					return
				}
			}
		} else {
			c.handlers.Add(1)
			go func() {
				defer c.handlers.Done()
				if reply := c.host.Handle(s, msg, tc); reply != nil {
					_ = s.send(id, reply)
				}
			}()
		}
	}
}

// sessionFor resolves the session a frame is addressed to, creating
// it lazily. A non-zero session must be created by a Hello (or a
// proxy's ProxyHello) — any other first frame is answered
// CodeNoSession (the ID is unknown: never created, or evicted).
// Creation passes the host's admission control.
func (c *Conn) sessionFor(sid uint32, msg protocol.Message) (*Session, protocol.Message) {
	c.mu.Lock()
	s, ok := c.sessions[sid]
	c.mu.Unlock()
	if ok {
		return s, nil
	}
	if sid != 0 {
		switch msg.(type) {
		case *protocol.Hello, *protocol.ProxyHello:
		default:
			return nil, &protocol.ErrorReply{Code: protocol.CodeNoSession,
				Text: fmt.Sprintf("no session %d on this connection (send Hello first)", sid)}
		}
	}
	s = &Session{conn: c, sid: sid}
	if refusal := c.host.Admit(s, msg); refusal != nil {
		return nil, refusal
	}
	c.mu.Lock()
	c.sessions[sid] = s
	c.mu.Unlock()
	return s, nil
}

// enqueue queues one outbound frame, blocking for queue space up to
// the write timeout: a connection that cannot drain a frame for that
// long is stuck, and is evicted whole.
func (c *Conn) enqueue(f frame) error {
	select {
	case c.sendCh <- f:
		return nil
	default:
	}
	t := time.NewTimer(c.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case c.sendCh <- f:
		return nil
	case <-c.dead:
		return net.ErrClosed
	case <-t.C:
		c.logf("conn %s: reply stuck for %v, evicting", c.conn.RemoteAddr(), c.cfg.WriteTimeout)
		c.Close()
		return errors.New("session: write timeout")
	}
}

// cleanup tears the connection down: every session it carries, then
// the spawned handlers (unblocked by the hosts' releases).
func (c *Conn) cleanup() {
	c.Close()
	c.mu.Lock()
	sessions := make([]*Session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	for _, s := range sessions {
		s.teardown("")
	}
	c.handlers.Wait()
}

// SID returns the session's wire ID.
func (s *Session) SID() uint32 { return s.sid }

// Gone reports whether the session has been torn down (closed,
// evicted, or its connection died).
func (s *Session) Gone() bool { return s.closed.Load() }

// send queues a reply for the session. Replies are allowed to block
// for queue space — the requester is waiting for exactly this frame —
// but only up to the write timeout (enqueue).
func (s *Session) send(id uint32, m protocol.Message) error {
	if s.Gone() {
		// The session died while this request was in flight. Still
		// deliver the reply (addressed to the dead session ID) so the
		// client's pending call resolves instead of hanging; the
		// client already knows — or learns on its next frame — that
		// the session is gone.
		return s.conn.enqueue(frame{sid: s.sid, id: id, m: m})
	}
	s.queued.Add(1)
	err := s.conn.enqueue(frame{sess: s, sid: s.sid, id: id, m: m})
	if err != nil {
		s.queued.Add(-1)
	}
	return err
}

// Notify queues a server-initiated frame (request ID 0) without ever
// blocking. A session over its queue bound — or a full connection
// queue — sheds the notification, and shedding evicts: a subscriber
// that missed a Notify would trust stale data forever, so the session
// is torn down and the client re-establishes it (re-validating by
// version, exactly as after a reconnect). A Replicate record (one per
// version, to a proxy follower) is held to the connection queue alone.
func (s *Session) Notify(m protocol.Message) {
	if s.Gone() {
		return
	}
	c := s.conn
	if _, rec := m.(*protocol.Replicate); !rec && int(s.queued.Load()) >= c.cfg.SessionQueue {
		s.shed("session queue bound")
		return
	}
	s.queued.Add(1)
	select {
	case c.sendCh <- frame{sess: s, sid: s.sid, m: m}:
	case <-c.dead:
		s.queued.Add(-1)
	default:
		s.queued.Add(-1)
		s.shed("connection queue full")
	}
}

func (s *Session) shed(why string) {
	s.conn.logf("conn %s session %d: shedding slow consumer (%s)", s.conn.conn.RemoteAddr(), s.sid, why)
	s.teardown(why)
}

// teardown removes the session and has the host release everything it
// holds. Idempotent. A non-empty evictReason makes it an eviction: the
// client gets a best-effort unsolicited CodeOverloaded error on the
// session, and — for the implicit session, where the connection IS
// the session and a pre-mux client has no other way to learn its only
// session died — the connection is closed.
func (s *Session) teardown(evictReason string) {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	c := s.conn
	c.mu.Lock()
	if c.sessions[s.sid] == s {
		delete(c.sessions, s.sid)
	}
	c.mu.Unlock()
	c.host.Release(s, evictReason)
	if evictReason == "" {
		return
	}
	if s.sid == 0 {
		c.Close()
		return
	}
	// Non-blocking: if the queue is full the client finds out via
	// CodeNoSession on its next frame.
	notice := &protocol.ErrorReply{Code: protocol.CodeOverloaded, Text: "session evicted: " + evictReason}
	select {
	case c.sendCh <- frame{sid: s.sid, m: notice}:
	default:
	}
}

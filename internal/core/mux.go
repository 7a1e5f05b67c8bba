package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"interweave/internal/protocol"
	"interweave/internal/session"
)

// Session multiplexing, client side (DESIGN.md §10, PROTOCOL.md
// "Multiplexed sessions"). A MuxConn is one TCP connection carrying
// many logical sessions; each MuxSession behaves like an independent
// client toward the server (own locks, own subscriptions, own
// at-most-once identity) at the cost of a 4-byte session ID per
// frame instead of a whole connection. This is the substrate for
// driving very large session counts — tools/loadgen holds 100k
// sessions on a handful of connections — while the full Client keeps
// the classic one-connection-per-server shape (its frames are
// session 0, byte-identical to the pre-mux format).

// Typed errors of the session-mux path. Callers match with
// errors.Is.
var (
	// ErrOverloaded: the server refused admission (session cap) or
	// shed this session as a slow consumer. Back off or spread load
	// to another server; immediate retry will meet the same answer.
	ErrOverloaded = errors.New("core: server overloaded")
	// ErrSessionLost: the logical session is gone on the server
	// (evicted, or never created). The session object is dead; open
	// a fresh session and re-validate cached state by version,
	// exactly as after a reconnect.
	ErrSessionLost = errors.New("core: session lost")
)

// MuxOptions configures DialMux.
type MuxOptions struct {
	// Dial overrides TCP dialing (tests, faultnet); the default dials
	// TCP with a 10 s timeout.
	Dial func(addr string) (net.Conn, error)
	// RPCTimeout bounds each Call round trip. Unlike the full
	// client's serial stream, mux replies are matched by request ID,
	// so a timeout fails only the one call — a late reply is
	// discarded harmlessly. Zero disables the timeout.
	RPCTimeout time.Duration
	// OnNotify, when non-nil, receives server-pushed invalidations,
	// asynchronously, with the session they are addressed to.
	OnNotify func(s *MuxSession, seg string, version uint32)
	// OnEvict, when non-nil, is told (asynchronously) when the server
	// sheds one of the connection's sessions.
	OnEvict func(s *MuxSession, reason string)
}

// MuxConn is one TCP connection multiplexing many logical sessions:
// a dialed connection (internal/session) whose sessions the server
// serves concurrently, so an overdue reply fails only its own call.
type MuxConn struct {
	d    *session.Dialed
	opts MuxOptions

	mu       sync.Mutex
	nextSID  uint32
	sessions map[uint32]*MuxSession
}

// MuxSession is one logical session on a MuxConn. Its methods are
// safe for concurrent use; requests from different sessions (and even
// concurrent requests of one session) are serviced concurrently by
// the server.
type MuxSession struct {
	mc  *MuxConn
	sid uint32

	mu      sync.Mutex
	lost    bool
	lostWhy error
}

// DialMux connects to a server for session-multiplexed use.
func DialMux(addr string, opts MuxOptions) (*MuxConn, error) {
	conn, err := session.Dialer(opts.Dial)(addr)
	if err != nil {
		return nil, fmt.Errorf("core: connecting to %s: %w (%v)", addr, ErrUnavailable, err)
	}
	mc := &MuxConn{
		opts:     opts,
		nextSID:  1,
		sessions: make(map[uint32]*MuxSession),
	}
	mc.d = session.NewDialed(conn, mc.handlePush)
	return mc, nil
}

// handlePush routes server-initiated frames: invalidation Notifies,
// and unsolicited ErrorReplies announcing a session eviction.
func (mc *MuxConn) handlePush(sid uint32, msg protocol.Message) {
	mc.mu.Lock()
	s := mc.sessions[sid]
	mc.mu.Unlock()
	if s == nil {
		return
	}
	switch m := msg.(type) {
	case *protocol.Notify:
		if mc.opts.OnNotify != nil {
			// Asynchronously: the callback may call back into the
			// session while the read loop must keep draining.
			go mc.opts.OnNotify(s, m.Seg, m.Version)
		}
	case *protocol.ErrorReply:
		s.markLost(fmt.Errorf("%w: evicted: %s", ErrOverloaded, m.Text))
		if mc.opts.OnEvict != nil {
			go mc.opts.OnEvict(s, m.Text)
		}
	}
}

// Close tears the connection down; the server implicitly closes every
// session it carried.
func (mc *MuxConn) Close() error {
	mc.d.Close()
	return nil
}

// NewSession opens a logical session: it allocates a session ID and
// introduces it to the server with a Hello (the frame that creates a
// multiplexed session server-side). An ErrOverloaded failure means
// admission control refused the session.
func (mc *MuxConn) NewSession(name, profile string) (*MuxSession, error) {
	mc.mu.Lock()
	sid := mc.nextSID
	mc.nextSID++
	s := &MuxSession{mc: mc, sid: sid}
	mc.sessions[sid] = s
	mc.mu.Unlock()
	if _, err := s.Call(&protocol.Hello{ClientName: name, Profile: profile}); err != nil {
		mc.dropSession(sid)
		return nil, err
	}
	return s, nil
}

func (mc *MuxConn) dropSession(sid uint32) {
	mc.mu.Lock()
	delete(mc.sessions, sid)
	mc.mu.Unlock()
}

// SID returns the session's wire ID (diagnostics).
func (s *MuxSession) SID() uint32 { return s.sid }

func (s *MuxSession) markLost(why error) {
	s.mu.Lock()
	if !s.lost {
		s.lost = true
		s.lostWhy = why
	}
	s.mu.Unlock()
}

// Lost reports whether the session is known dead on the server.
func (s *MuxSession) Lost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// Call performs one RPC on the session. Server-reported ErrorReplies
// come back as errors, with CodeOverloaded mapped to ErrOverloaded
// and CodeNoSession to ErrSessionLost (both wrap the ErrorReply, so
// errCode introspection still works).
func (s *MuxSession) Call(m protocol.Message) (protocol.Message, error) {
	s.mu.Lock()
	if s.lost {
		err := s.lostWhy
		s.mu.Unlock()
		if err == nil {
			err = ErrSessionLost
		}
		return nil, err
	}
	s.mu.Unlock()
	reply, err := s.mc.call(s.sid, m)
	if err == nil {
		return reply, nil
	}
	switch errCode(err) {
	case protocol.CodeNoSession:
		err = fmt.Errorf("%w: %w", ErrSessionLost, err)
		s.markLost(err)
	case protocol.CodeOverloaded:
		err = fmt.Errorf("%w: %w", ErrOverloaded, err)
	}
	return nil, err
}

// Close ends the session on the server (best effort) and forgets it
// locally.
func (s *MuxSession) Close() error {
	s.markLost(ErrSessionLost)
	_, err := s.mc.call(s.sid, &protocol.SessionClose{})
	s.mc.dropSession(s.sid)
	return err
}

// call performs one request/reply round trip addressed to a session.
func (mc *MuxConn) call(sid uint32, m protocol.Message) (protocol.Message, error) {
	return mc.d.Call(sid, m, protocol.TraceContext{}, mc.opts.RPCTimeout)
}

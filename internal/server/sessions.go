package server

import (
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/session"
)

// The server is one host of the session transport (internal/session,
// DESIGN.md §10): the transport owns connections, the session table,
// ordering, and backpressure; this file is the three host decisions —
// admission control, request dispatch, and releasing a torn-down
// session's segment state.

// Default transport bounds; see Options and CAPACITY.md.
const (
	// DefaultSessionSendQueue bounds outbound frames queued per
	// logical session.
	DefaultSessionSendQueue = 32
	// DefaultConnSendQueue bounds the per-connection writer queue.
	DefaultConnSendQueue = 1024
	// DefaultWriteTimeout bounds how long a reply waits for space in
	// the connection's writer queue.
	DefaultWriteTimeout = 10 * time.Second
)

// clientSession is the server's state for one logical client session:
// lock ownership, subscriptions, queued lock waits, and the
// at-most-once identity all hang off it, never off the connection.
type clientSession struct {
	// Session is the transport's half: Notify, Gone, SID. Gone flips
	// before Release sweeps the session's segment state, and handlers
	// re-check it under each segment lock before attaching the session
	// to that segment.
	*session.Session
	srv *Server

	name    string
	profile string

	// proxy marks a session created by (or upgraded with) ProxyHello: a
	// read fan-out proxy's upstream session, exempt from MaxSessions
	// admission, whose subscriptions are followers. Set under srv.mu.
	proxy atomic.Bool
	// exempt marks a session excluded from MaxSessions admission:
	// proxy sessions and sessions created by a cluster-plane RPC
	// (a peer's or proxy's gossip round trip). Guarded by srv.mu.
	exempt bool

	// touchedMu guards touched, the segments this session may have
	// attached state to (subscription, waiter, write lock). Release
	// sweeps only these instead of the whole registry, which is what
	// keeps 100k-session churn off the registry snapshot path.
	touchedMu sync.Mutex
	touched   map[*segState]struct{}
}

// errSessionClosed is the reply for requests racing their session's
// teardown.
func errSessionClosed() *protocol.ErrorReply {
	return errReply(protocol.CodeNoSession, "session closed")
}

// touch records that the session may attach state to st, before doing
// so. Must be called before taking st.mu (never under it).
func (sess *clientSession) touch(st *segState) {
	sess.touchedMu.Lock()
	if sess.touched == nil {
		sess.touched = make(map[*segState]struct{})
	}
	sess.touched[st] = struct{}{}
	sess.touchedMu.Unlock()
}

// Admit is the server's admission control (session.Host). When
// Options.MaxSessions is reached the frame is refused with
// CodeOverloaded and nothing is created. Proxy sessions are exempt
// from the cap and do not consume it: one proxy session stands in for
// thousands of direct client sessions, so refusing it to protect
// capacity would be backwards. Sessions created by a cluster-plane
// frame (gossip, replication, migration) are exempt for the same
// reason — they are peer infrastructure round trips, not client load.
func (s *Server) Admit(ts *session.Session, first protocol.Message) protocol.Message {
	_, isProxy := first.(*protocol.ProxyHello)
	exempt := isProxy || isClusterFrame(first)
	sess := &clientSession{Session: ts, srv: s}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errReply(protocol.CodeInternal, "server shutting down")
	}
	if !exempt && s.opts.MaxSessions > 0 && len(s.sessions)-s.exemptSessions >= s.opts.MaxSessions {
		if s.ins != nil {
			s.ins.sessionsRefused.Inc()
		}
		return errReply(protocol.CodeOverloaded, "session cap %d reached", s.opts.MaxSessions)
	}
	ts.Data = sess
	s.sessions[sess] = struct{}{}
	if exempt {
		// A ProxyHello's dispatch (markProxySession) does the proxy
		// accounting; admission only has to not charge the cap.
		sess.exempt = true
		s.exemptSessions++
	}
	if s.ins != nil {
		s.ins.sessions.Set(int64(len(s.sessions)))
		s.ins.sessionsOpened.Inc()
	}
	return nil
}

// markProxySession upgrades an existing session to proxy status (the
// ProxyHello dispatch path — covers a session created earlier by a
// different first frame). Idempotent.
func (s *Server) markProxySession(sess *clientSession) {
	s.mu.Lock()
	if !sess.proxy.Load() && !sess.Gone() {
		sess.proxy.Store(true)
		s.proxySessions++
		if !sess.exempt {
			sess.exempt = true
			s.exemptSessions++
		}
		if s.ins != nil {
			s.ins.proxySessions.Set(int64(s.proxySessions))
		}
	}
	s.mu.Unlock()
}

// isClusterFrame reports whether msg is a cluster-plane RPC
// (gossip, replication, migration). A session created by one of these
// is a peer server's or proxy's infrastructure round trip — often on a
// throwaway connection — not client load, so it bypasses MaxSessions
// admission and does not consume the budget.
func isClusterFrame(msg protocol.Message) bool {
	switch msg.(type) {
	case *protocol.RingGet, *protocol.RingPush, *protocol.Replicate,
		*protocol.Pull, *protocol.Migrate:
		return true
	}
	return false
}

// Release drops one torn-down session's registration and everything it
// holds on segments (session.Host). A non-empty evictReason is a shed:
// the notification that could not be queued and the eviction it forced
// are counted here, for every way a session can be shed.
func (s *Server) Release(ts *session.Session, evictReason string) {
	sess := ts.Data.(*clientSession)
	s.mu.Lock()
	delete(s.sessions, sess)
	if sess.proxy.Load() {
		s.proxySessions--
		if s.ins != nil {
			s.ins.proxySessions.Set(int64(s.proxySessions))
		}
	}
	if sess.exempt {
		s.exemptSessions--
	}
	if s.ins != nil {
		s.ins.sessions.Set(int64(len(s.sessions)))
		if evictReason != "" {
			s.ins.shed.Inc()
			s.ins.sessionsEvicted.Inc()
		}
	}
	s.mu.Unlock()
	if s.flight != nil && evictReason != "" {
		s.flight.Record(obs.Event{Name: "session.evict", Err: evictReason, N: int64(sess.SID())})
	}
	sess.sweepSegments()
}

// sweepSegments releases the session's per-segment state: its
// subscription, queued waiters, and any held write lock — but only on
// segments the session touched, not the whole registry. Gone already
// reports true, so handlers racing this sweep either attached before a
// given segment's lock acquisition here (and are released here) or
// observe Gone under that lock and refuse to attach.
func (sess *clientSession) sweepSegments() {
	s := sess.srv
	sess.touchedMu.Lock()
	touched := make([]*segState, 0, len(sess.touched))
	for st := range sess.touched {
		touched = append(touched, st)
	}
	sess.touched = nil
	sess.touchedMu.Unlock()
	for _, st := range touched {
		s.lockSeg(st)
		st.subs.Unsubscribe(sess)
		kept := st.waiters[:0]
		for _, w := range st.waiters {
			if w.sess == sess {
				close(w.ch) // its handler observes Gone and bows out
				continue
			}
			kept = append(kept, w)
		}
		st.waiters = kept
		releaseWriter(st, sess)
		st.mu.Unlock()
	}
}

package proxy

import (
	"sync"
	"time"

	"interweave/internal/core"
	"interweave/internal/protocol"
	"interweave/internal/session"
)

// Downstream transport bounds (session.Config): the per-connection
// writer queue, the per-session share of it a subscriber's unread
// notifications may occupy before it is shed, and how long a reply
// waits for queue space before the connection is declared stuck.
const (
	downstreamConnQueue    = 1024
	downstreamSessionQueue = downstreamConnQueue / 4
	downstreamWriteTimeout = 10 * time.Second
)

// downstream is the proxy's state for one logical downstream session.
type downstream struct {
	// Session is the transport's half: Notify, Gone, SID.
	*session.Session

	name  string
	proxy bool // introduced by ProxyHello: a chained proxy

	// fwdMu guards fwd, the lazily created upstream write-forwarding
	// client. Each downstream session forwards through its own
	// upstream session so write-lock ownership and at-most-once
	// records stay per-writer upstream, exactly as if the writer had
	// connected directly.
	fwdMu sync.Mutex
	fwd   *core.Client

	// touchedMu guards touched, the mirrors this session subscribed
	// to; Release sweeps only these.
	touchedMu sync.Mutex
	touched   map[*mirror]struct{}
}

func (sess *downstream) touch(m *mirror) {
	sess.touchedMu.Lock()
	if sess.touched == nil {
		sess.touched = make(map[*mirror]struct{})
	}
	sess.touched[m] = struct{}{}
	sess.touchedMu.Unlock()
}

// Admit creates a downstream session (session.Host). Unlike the
// server there is no admission cap: absorbing arbitrarily many cheap
// read sessions is the proxy's job.
func (p *Proxy) Admit(ts *session.Session, _ protocol.Message) protocol.Message {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errReply(protocol.CodeInternal, "proxy shutting down")
	}
	p.sessions++
	p.mu.Unlock()
	if p.ins != nil {
		p.ins.sessionsOpened.Inc()
	}
	ts.Data = &downstream{Session: ts}
	return nil
}

// Release drops one torn-down downstream session (session.Host): its
// subscriptions on every touched mirror and its upstream forwarder. A
// non-empty evictReason is a shed slow consumer, counted here.
func (p *Proxy) Release(ts *session.Session, evictReason string) {
	sess := ts.Data.(*downstream)
	p.mu.Lock()
	p.sessions--
	p.mu.Unlock()
	if p.ins != nil && evictReason != "" {
		p.ins.shed.Inc()
		p.ins.sessionsEvicted.Inc()
	}
	sess.touchedMu.Lock()
	touched := make([]*mirror, 0, len(sess.touched))
	for m := range sess.touched {
		touched = append(touched, m)
	}
	sess.touched = nil
	sess.touchedMu.Unlock()
	for _, m := range touched {
		m.mu.Lock()
		m.subs.Unsubscribe(sess)
		m.mu.Unlock()
	}
	sess.fwdMu.Lock()
	fwd := sess.fwd
	sess.fwd = nil
	sess.fwdMu.Unlock()
	if fwd != nil {
		// Closing the forwarder drops its upstream session, which
		// releases any write lock the downstream writer still held.
		_ = fwd.Close()
	}
}

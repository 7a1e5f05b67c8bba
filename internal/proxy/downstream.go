package proxy

import (
	"errors"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/protocol"
	"interweave/internal/session"
)

// Downstream requests. The proxy speaks the same framed protocol as a
// server — it is the other host of the session transport
// (internal/session, DESIGN.md §10) — so every existing client
// (core.Client, core.MuxConn, tools/loadgen) points at a proxy with
// nothing but an address change. This file is what the proxy does with
// a frame once the transport hands it over.

// Handle routes one downstream request (session.Host). Reads are
// served from the mirror; the write path is forwarded upstream; ring
// RPCs serve the proxy's adopted view so gossip probes and fleet tools
// see through it.
func (p *Proxy) Handle(ts *session.Session, msg protocol.Message, _ protocol.TraceContext) protocol.Message {
	sess := ts.Data.(*downstream)
	switch m := msg.(type) {
	case *protocol.Hello:
		sess.name = m.ClientName
		return &protocol.Ack{}
	case *protocol.ProxyHello:
		sess.name, sess.proxy = m.Name, true
		return &protocol.Ack{}
	case *protocol.RingGet:
		return p.handleRingGet()
	case *protocol.RingPush:
		return p.handleRingPush(m)
	case *protocol.OpenSegment:
		return p.handleOpen(m)
	case *protocol.ReadLock:
		return p.handleReadLock(sess, m)
	case *protocol.ReadUnlock:
		return &protocol.Ack{}
	case *protocol.Subscribe:
		return p.handleSubscribe(sess, m)
	case *protocol.Unsubscribe:
		return p.handleUnsubscribe(sess, m)
	case *protocol.WriteLock, *protocol.WriteUnlock, *protocol.TxCommit, *protocol.Resume:
		return p.forward(sess, msg)
	default:
		return errReply(protocol.CodeBadRequest, "unexpected message %T", msg)
	}
}

func (p *Proxy) handleRingGet() protocol.Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ms == nil {
		return errReply(protocol.CodeBadRequest, "proxy upstream not in cluster mode")
	}
	return &protocol.RingReply{Ms: p.ms.Clone()}
}

func (p *Proxy) handleRingPush(m *protocol.RingPush) protocol.Message {
	p.mu.Lock()
	if p.ms == nil || m.Ms.Epoch > p.ms.Epoch {
		cp := m.Ms.Clone()
		p.ms = &cp
	}
	p.mu.Unlock()
	return &protocol.Ack{}
}

func (p *Proxy) handleOpen(m *protocol.OpenSegment) protocol.Message {
	mir, created, errRep := p.ensureMirror(m.Name, m.Create)
	if errRep != nil {
		return errRep
	}
	mir.mu.Lock()
	defer mir.mu.Unlock()
	return &protocol.OpenReply{
		Created: created,
		Version: mir.seg.Version,
		Dir:     mir.seg.Directory(),
	}
}

func (p *Proxy) handleReadLock(sess *downstream, m *protocol.ReadLock) protocol.Message {
	mir, _, errRep := p.ensureMirror(m.Seg, false)
	if errRep != nil {
		return errRep
	}
	if p.ins != nil {
		p.ins.reads.Inc()
	}
	p.freshen(mir, m.Policy)
	mir.mu.Lock()
	defer mir.mu.Unlock()
	if mir.degraded && p.ins != nil {
		p.ins.degradedReads.Inc()
	}
	if !mir.subs.Stale(mir.seg, sess, m.HaveVersion, m.Policy) {
		mir.subs.Rearm(sess)
		return &protocol.LockReply{Fresh: true}
	}
	d, err := mir.subs.Collect(mir.seg, sess, m.HaveVersion)
	if err != nil {
		return errReply(protocol.CodeInternal, "collecting diff: %v", err)
	}
	if d == nil {
		mir.subs.Rearm(sess)
	}
	return &protocol.LockReply{Fresh: d == nil, Diff: d}
}

// freshen waits for mir to follow when the staleness bound (MaxVersionLag,
// MaxAge) or the reader's own policy rules out its copy; a failed
// follow degrades to a stale serve: availability over freshness.
func (p *Proxy) freshen(mir *mirror, policy coherence.Policy) {
	now := time.Now()
	mir.mu.Lock()
	lag := mir.upstreamVer - min(mir.upstreamVer, mir.seg.Version)
	stale := p.opts.MaxVersionLag > 0 && lag > p.opts.MaxVersionLag ||
		p.opts.MaxAge > 0 && (mir.lastSync.IsZero() || now.Sub(mir.lastSync) > p.opts.MaxAge) ||
		policyNeedsSync(policy, mir, now)
	mir.mu.Unlock()
	if stale {
		if p.ins != nil {
			p.ins.syncReads.Inc()
		}
		p.follow(mir)
	}
}

func (p *Proxy) handleSubscribe(sess *downstream, m *protocol.Subscribe) protocol.Message {
	mir, _, errRep := p.ensureMirror(m.Seg, false)
	if errRep != nil {
		return errRep
	}
	if err := m.Policy.Validate(); err != nil {
		return errReply(protocol.CodeBadRequest, "%v", err)
	}
	if sess.proxy { // a follower starts from what a reader would get
		p.freshen(mir, m.Policy)
	}
	sess.touch(mir)
	mir.mu.Lock()
	if sess.Gone() {
		mir.mu.Unlock()
		return errReply(protocol.CodeNoSession, "session closed")
	}
	owed, err := mir.subs.Subscribe(mir.seg, sess, m.Policy, m.HaveVersion, sess.proxy)
	mir.mu.Unlock()
	if err != nil {
		return errReply(protocol.CodeInternal, "collecting catch-up diff: %v", err)
	}
	if owed != nil {
		// Ahead of the Ack but outside the mirror lock: shedding a
		// slow consumer sweeps its mirrors.
		sess.Notify(owed)
	}
	return &protocol.Ack{}
}

func (p *Proxy) handleUnsubscribe(sess *downstream, m *protocol.Unsubscribe) protocol.Message {
	mir := p.mirrorOf(m.Seg)
	if mir == nil {
		return errReply(protocol.CodeNoSegment, "no segment %q", m.Seg)
	}
	mir.mu.Lock()
	defer mir.mu.Unlock()
	mir.subs.Unsubscribe(sess)
	return &protocol.Ack{}
}

// forward relays one write-path request upstream through the
// session's own forwarding client and returns the upstream's answer
// verbatim. The forwarder follows Redirects and reroutes via the ring
// itself, so a downstream client never sees a Redirect from a proxy —
// which is what makes redirect-following loop-free across the tree.
func (p *Proxy) forward(sess *downstream, msg protocol.Message) protocol.Message {
	seg := writeSegOf(msg)
	if seg == "" {
		return errReply(protocol.CodeBadRequest, "proxy: %T names no segment", msg)
	}
	fwd, err := sess.forwarder(p)
	if err != nil {
		return errReply(protocol.CodeInternal, "proxy: %v", err)
	}
	p.aimUpstream(fwd, seg)
	if p.ins != nil {
		p.ins.forwardedWrites.Inc()
	}
	reply, err := fwd.Forward(seg, msg)
	if err != nil {
		if p.ins != nil {
			p.ins.forwardErrors.Inc()
		}
		return relayErr("forwarding", seg, err)
	}
	// A committed write tells us the upstream version directly, so a
	// reader whose policy cannot miss it waits for its record.
	switch r := reply.(type) {
	case *protocol.VersionReply:
		p.heard(seg, r.Version)
	case *protocol.TxReply:
		if tx, ok := msg.(*protocol.TxCommit); ok {
			for i, part := range tx.Parts {
				if i >= len(r.Versions) {
					break
				}
				p.heard(part.Seg, r.Versions[i])
			}
		}
	}
	return reply
}

// forwarder returns the session's upstream write-forwarding client,
// creating it on first use.
func (sess *downstream) forwarder(p *Proxy) (*core.Client, error) {
	sess.fwdMu.Lock()
	defer sess.fwdMu.Unlock()
	if sess.Gone() {
		return nil, errors.New("session closed")
	}
	if sess.fwd != nil {
		return sess.fwd, nil
	}
	c, err := core.NewClient(core.Options{
		Name:       p.opts.Name + "-fwd",
		ProxyAddr:  p.advertiseAddr(),
		Dial:       p.opts.Dial,
		RPCTimeout: p.opts.RPCTimeout,
	})
	if err != nil {
		return nil, err
	}
	sess.fwd = c
	return c, nil
}

func (p *Proxy) advertiseAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.advertise
}

// writeSegOf names the segment a write-path request routes by.
func writeSegOf(msg protocol.Message) string {
	switch m := msg.(type) {
	case *protocol.WriteLock:
		return m.Seg
	case *protocol.WriteUnlock:
		return m.Seg
	case *protocol.Resume:
		return m.Seg
	case *protocol.TxCommit:
		if len(m.Parts) > 0 {
			return m.Parts[0].Seg
		}
	}
	return ""
}

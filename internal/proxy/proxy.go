// Package proxy implements the read fan-out proxy tier (DESIGN.md
// §11). A Proxy subscribes to each segment exactly once upstream — as
// an ordinary relaxed-coherence client session, introduced with
// ProxyHello so the upstream exempts it from MaxSessions admission —
// and serves ReadLock/Subscribe/Notify to any number of downstream
// clients from a local mirror, while forwarding the write path
// (WriteLock/WriteUnlock/TxCommit/Resume) upstream untouched. The
// primary's notification fan-out then scales with the number of
// proxies, not the number of readers.
//
// Proxies chain: a proxy's upstream may itself be a proxy, forming a
// distribution tree. The mirror is a server.Segment kept at upstream
// version numbers (ApplyReplicatedDiff), so version arithmetic —
// coherence policies, HaveVersion freshness, at-most-once records —
// is identical at every level of the tree.
//
// Staleness is bounded, not hidden: a downstream ReadLock that finds
// the mirror more than MaxVersionLag versions or MaxAge behind blocks
// on a synchronous pull before being served. When the upstream is
// unreachable the proxy degrades gracefully — reads are served from
// the stale mirror (counted as degraded), and the upstream client's
// routing machinery reroutes via the cluster ring (RingGet) so a
// failover upstream is found without restarting the proxy.
package proxy

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/session"
)

// DefaultSyncEvery is the maintenance cadence: how often every mirror
// re-subscribes upstream and probes for missed versions. It bounds
// the staleness window left by a lost Notify or a reconnect that
// silently dropped the upstream subscription.
const DefaultSyncEvery = time.Second

// Options configures a Proxy.
type Options struct {
	// Upstream is the address new segments are aimed at: an origin
	// server or another proxy (tree composition). Redirects and ring
	// reroutes may move individual segments off it later.
	Upstream string
	// Advertise is the address downstream clients (and the cluster's
	// gossip) reach this proxy at. Defaults to the listener address.
	Advertise string
	// Name identifies the proxy to its upstream (diagnostics).
	Name string
	// MaxVersionLag is the staleness bound in versions: a downstream
	// ReadLock finding the mirror further behind the last version
	// heard from upstream blocks on a synchronous pull first. Zero
	// disables the version bound.
	MaxVersionLag uint32
	// MaxAge is the staleness bound in time: a downstream ReadLock
	// finding the mirror unconfirmed for longer blocks on a
	// synchronous pull first. Zero disables the age bound.
	MaxAge time.Duration
	// SyncEvery is the maintenance cadence (DefaultSyncEvery if zero;
	// negative disables the loop — tests drive Maintain manually).
	SyncEvery time.Duration
	// MetricsAddr is the proxy's observability address, advertised
	// through gossip so fleet tools can scrape it.
	MetricsAddr string
	// Dial overrides TCP dialing (tests, faultnet).
	Dial func(addr string) (net.Conn, error)
	// RPCTimeout bounds upstream round trips, as in core.Options.
	RPCTimeout time.Duration
	// Metrics, when non-nil, receives the proxy's instrumentation
	// (iw_proxy_*, OBSERVABILITY.md).
	Metrics *obs.Registry
	// Logf, when non-nil, receives diagnostics.
	Logf func(format string, args ...any)
}

// Proxy is one read fan-out proxy node.
type Proxy struct {
	opts  Options
	start time.Time
	// transport is the downstream session transport's fixed bounds.
	transport session.Config

	mu        sync.Mutex // lifecycle: mirrors, conns, ln, ms, closed
	mirrors   map[string]*mirror
	conns     map[*session.Conn]struct{}
	sessions  int
	ln        net.Listener
	advertise string
	closed    bool
	// ms is the adopted upstream membership view, served to RingGet so
	// the fleet (origin gossip probes, iwtop, chained proxies) can see
	// through the proxy. Nil against a non-clustered upstream.
	ms *protocol.Membership

	// up is the single upstream client: one subscription session per
	// upstream server, shared by every mirror. Created in Serve, once
	// the advertised address is known (it rides in ProxyHello).
	up *core.Client

	done chan struct{}
	wg   sync.WaitGroup
	ins  *proxyInstruments
}

// mirror is the proxy's local copy of one segment, kept at upstream
// version numbers.
type mirror struct {
	name string

	// syncMu serializes pulls: one puller per mirror, whether the pull
	// was triggered by a Notify, the maintenance loop, or a stale
	// read. Never held together with p.mu; held across upstream RPCs.
	syncMu sync.Mutex

	mu sync.Mutex // guards everything below
	// seg is the mirrored content; seg.Version is the upstream version
	// it reflects (ApplyReplicatedDiff preserves the numbering).
	seg *server.Segment
	// upstreamVer is the newest version heard from upstream (Notify,
	// pull, or forwarded-write reply); seg.Version lags it until the
	// next pull lands.
	upstreamVer uint32
	// lastSync is when the mirror last confirmed itself current with
	// the upstream; the MaxAge staleness bound measures from here.
	lastSync time.Time
	// degraded marks the upstream unreachable as of the last attempt;
	// reads served meanwhile are counted as degraded.
	degraded bool
	// subs are the downstream subscriptions.
	subs server.Subscriptions[*downstream]
}

// New returns a proxy. It does not touch the network until Serve.
func New(opts Options) (*Proxy, error) {
	if opts.Upstream == "" {
		return nil, errors.New("proxy: Upstream is required")
	}
	if opts.SyncEvery == 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.Name == "" {
		opts.Name = "iwproxy"
	}
	p := &Proxy{
		opts:    opts,
		start:   time.Now(),
		mirrors: make(map[string]*mirror),
		conns:   make(map[*session.Conn]struct{}),
		done:    make(chan struct{}),
	}
	p.transport = session.Config{
		ConnQueue:    downstreamConnQueue,
		SessionQueue: downstreamSessionQueue,
		WriteTimeout: downstreamWriteTimeout,
		Logf:         func(format string, args ...any) { p.logf("proxy: "+format, args...) },
	}
	if opts.Metrics != nil {
		p.ins = newProxyInstruments(opts.Metrics)
		opts.Metrics.RegisterCollector(p.collectGauges)
	}
	return p, nil
}

func (p *Proxy) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (p *Proxy) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("proxy: listen %s: %w", addr, err)
	}
	return p.Serve(ln)
}

// Serve accepts downstream connections on ln until Close. It always
// returns a non-nil error; after Close the error is net.ErrClosed.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	p.ln = ln
	p.advertise = p.opts.Advertise
	if p.advertise == "" {
		p.advertise = ln.Addr().String()
	}
	up, err := core.NewClient(core.Options{
		Name:       p.opts.Name,
		ProxyAddr:  p.advertise,
		Dial:       p.opts.Dial,
		RPCTimeout: p.opts.RPCTimeout,
		OnNotify:   p.onUpstreamNotify,
	})
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.up = up
	p.mu.Unlock()

	if p.opts.SyncEvery > 0 {
		p.wg.Add(1)
		go p.maintainLoop()
	}
	// Join the fleet's gossip right away so observers see the proxy
	// before its first maintenance tick.
	p.gossipOnce()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return net.ErrClosed
			default:
				return fmt.Errorf("proxy: accept: %w", err)
			}
		}
		dc := session.NewConn(conn, p, p.transport)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		p.conns[dc] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			dc.Serve()
			p.mu.Lock()
			delete(p.conns, dc)
			p.mu.Unlock()
		}()
	}
}

// Addr returns the downstream listener address.
func (p *Proxy) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Close shuts the proxy down: stops accepting, drops every downstream
// connection, and closes the upstream client.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	ln := p.ln
	up := p.up
	for dc := range p.conns {
		dc.Close()
	}
	p.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	p.wg.Wait()
	if up != nil {
		_ = up.Close()
	}
	return nil
}

// ensureMirror returns the mirror for a segment, creating it — which
// opens the segment upstream, pulls it current, and subscribes — on
// first use. The returned Message is a relayable error reply when the
// upstream refused (e.g. CodeNoSegment with create=false). created
// reports whether this call created the segment upstream.
func (p *Proxy) ensureMirror(name string, create bool) (mir *mirror, created bool, errRep protocol.Message) {
	p.mu.Lock()
	if m, ok := p.mirrors[name]; ok {
		p.mu.Unlock()
		return m, false, nil
	}
	up := p.up
	p.mu.Unlock()
	if up == nil {
		return nil, false, errReply(protocol.CodeInternal, "proxy not serving yet")
	}
	p.aimUpstream(up, name)
	reply, err := up.Forward(name, &protocol.OpenSegment{Name: name, Create: create})
	if err != nil {
		return nil, false, relayErr("open", name, err)
	}
	or, ok := reply.(*protocol.OpenReply)
	if !ok {
		return nil, false, errReply(protocol.CodeInternal, "proxy: unexpected reply %T to upstream open", reply)
	}
	m := &mirror{
		name:        name,
		seg:         server.NewSegment(name),
		upstreamVer: or.Version,
	}
	p.mu.Lock()
	if existing, ok := p.mirrors[name]; ok {
		p.mu.Unlock()
		return existing, false, nil
	}
	p.mirrors[name] = m
	p.mu.Unlock()
	// Pull the mirror current and subscribe for pushes. Best effort:
	// a failure here leaves the mirror degraded at version 0, exactly
	// like an upstream that died one RPC later.
	_ = p.syncMirror(m)
	if err := p.subscribeUpstream(m); err != nil {
		p.setDegraded(m, err)
	}
	return m, or.Created, nil
}

// aimUpstream seeds the upstream client's route for a segment at the
// configured upstream when no route is cached — a proxy addresses its
// upstream, not the home server embedded in the segment URL (which,
// one level down a proxy tree, would bypass the tree entirely).
// Redirects and ring reroutes overwrite the seed normally.
func (p *Proxy) aimUpstream(c *core.Client, seg string) {
	if c.RouteTo(seg) == "" {
		c.SeedRoute(seg, p.opts.Upstream)
	}
}

// mirrorOf returns an existing mirror, nil when the segment has never
// been opened through this proxy.
func (p *Proxy) mirrorOf(name string) *mirror {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mirrors[name]
}

// subscribeUpstream (re-)registers the proxy's one upstream
// subscription for a mirror, with the mirror's current version as the
// baseline. Full coherence: the proxy must hear about every version,
// because its downstream subscribers' policies are applied locally.
// Idempotent; the maintenance loop re-issues it every tick so a
// reconnect that silently dropped the server-side subscription heals
// within one cycle.
func (p *Proxy) subscribeUpstream(m *mirror) error {
	m.mu.Lock()
	have := m.seg.Version
	m.mu.Unlock()
	p.aimUpstream(p.up, m.name)
	_, err := p.up.Forward(m.name, &protocol.Subscribe{Seg: m.name, HaveVersion: have, Policy: coherence.Full()})
	return err
}

// onUpstreamNotify handles an upstream-pushed invalidation: record the
// advertised version and pull asynchronously.
func (p *Proxy) onUpstreamNotify(seg string, version uint32) {
	m := p.mirrorOf(seg)
	if m == nil {
		return
	}
	if p.ins != nil {
		p.ins.upstreamNotifies.Inc()
	}
	p.noteUpstreamVersion(m, version)
}

// noteUpstreamVersion records that upstream reached at least version
// and triggers an asynchronous pull if the mirror is behind.
func (p *Proxy) noteUpstreamVersion(m *mirror, version uint32) {
	m.mu.Lock()
	if version > m.upstreamVer {
		m.upstreamVer = version
	}
	behind := m.seg.Version < m.upstreamVer
	m.mu.Unlock()
	if !behind {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.trySync(m)
	}()
}

// trySync pulls the mirror current unless a pull is already running
// (whoever holds syncMu will observe the bumped upstreamVer and catch
// up before releasing it).
func (p *Proxy) trySync(m *mirror) {
	if !m.syncMu.TryLock() {
		return
	}
	defer m.syncMu.Unlock()
	p.syncLocked(m)
}

// syncMirror pulls the mirror current, waiting for any in-flight pull
// first. Returns the first upstream error; the mirror keeps serving
// (degraded) regardless.
func (p *Proxy) syncMirror(m *mirror) error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	return p.syncLocked(m)
}

// syncLocked drives ReadLock pulls until the mirror has caught up with
// the newest version heard from upstream. Caller holds m.syncMu.
func (p *Proxy) syncLocked(m *mirror) error {
	for {
		m.mu.Lock()
		have := m.seg.Version
		m.mu.Unlock()
		p.aimUpstream(p.up, m.name)
		reply, err := p.up.Forward(m.name, &protocol.ReadLock{Seg: m.name, HaveVersion: have, Policy: coherence.Full()})
		if err != nil {
			if p.ins != nil {
				p.ins.pullErrors.Inc()
			}
			p.setDegraded(m, err)
			return err
		}
		lr, ok := reply.(*protocol.LockReply)
		if !ok {
			return fmt.Errorf("proxy: unexpected reply %T to mirror pull", reply)
		}
		if p.ins != nil {
			p.ins.pulls.Inc()
		}
		now := time.Now()
		m.mu.Lock()
		if lr.Fresh || lr.Diff == nil {
			m.lastSync = now
			m.degraded = false
			if m.upstreamVer < m.seg.Version {
				m.upstreamVer = m.seg.Version
			}
			m.mu.Unlock()
			return nil
		}
		var owed []*downstream
		if lr.Diff.Version > m.seg.Version {
			modified, aerr := m.seg.ApplyReplicatedDiff(lr.Diff, lr.Diff.Version)
			if aerr != nil {
				m.mu.Unlock()
				return fmt.Errorf("proxy: applying pulled diff to %q: %w", m.name, aerr)
			}
			// No downstream session is the writer of a pulled
			// version: every subscriber the policy says to tell is told.
			owed = m.subs.Advance(m.seg, nil, lr.Diff.Version, modified)
		}
		if m.upstreamVer < lr.Diff.Version {
			m.upstreamVer = lr.Diff.Version
		}
		caughtUp := m.seg.Version >= m.upstreamVer
		if caughtUp {
			m.lastSync = now
			m.degraded = false
		}
		m.mu.Unlock()
		if len(owed) > 0 {
			if p.ins != nil {
				p.ins.downstreamNotifies.Add(uint64(len(owed)))
			}
			note := &protocol.Notify{Seg: m.name, Version: lr.Diff.Version}
			for _, sess := range owed {
				sess.Notify(note)
			}
		}
		if caughtUp {
			return nil
		}
	}
}

// setDegraded marks a mirror's upstream unreachable.
func (p *Proxy) setDegraded(m *mirror, err error) {
	m.mu.Lock()
	was := m.degraded
	m.degraded = true
	m.mu.Unlock()
	if !was {
		p.logf("proxy: upstream of %q unreachable, serving stale: %v", m.name, err)
	}
}

// policyNeedsSync reports whether serving the mirror's current copy
// would violate the reader's own coherence policy, given what the
// proxy knows about the upstream (the newest version heard via notify
// or a forwarded commit). A mirror that is not known-behind satisfies
// every model — the proxy's Full-coherence upstream subscription
// keeps that knowledge one notify round trip fresh, the same latitude
// the origin's adaptive protocol gives direct clients. When the
// mirror is behind: Delta tolerates a known lag within its bound,
// Temporal tolerates one within its window since the last confirmed
// sync, and everything else (Full, and Diff conservatively — the
// units modified upstream beyond the mirror are unknowable) must
// block on a pull. Called with m.mu held.
func policyNeedsSync(policy coherence.Policy, m *mirror, now time.Time) bool {
	if m.upstreamVer <= m.seg.Version {
		return false
	}
	switch policy.Model {
	case coherence.ModelDelta:
		return m.upstreamVer-m.seg.Version > policy.Delta
	case coherence.ModelTemporal:
		return m.lastSync.IsZero() || now.Sub(m.lastSync) > policy.Window
	default:
		return true
	}
}

// staleExceeded reports whether the mirror violates the configured
// staleness bound. Called with m.mu held.
func (p *Proxy) staleExceeded(m *mirror, now time.Time) bool {
	if p.opts.MaxVersionLag > 0 && m.upstreamVer > m.seg.Version &&
		m.upstreamVer-m.seg.Version > p.opts.MaxVersionLag {
		return true
	}
	if p.opts.MaxAge > 0 && (m.lastSync.IsZero() || now.Sub(m.lastSync) > p.opts.MaxAge) {
		return true
	}
	return false
}

// Maintain runs one maintenance pass: refresh the upstream ring view
// and the gossip registration, then re-subscribe and probe every
// mirror. Exported so tests (and -sync-every<0 deployments) can drive
// it deterministically.
func (p *Proxy) Maintain() {
	p.gossipOnce()
	// Best effort: a clustered upstream seeds the upstream client's
	// ring so transport failures can reroute to a failover owner; a
	// standalone upstream answers with an error, which leaves the
	// client in single-server mode. When the configured upstream is
	// itself down, any live member of the adopted view will do — this
	// is what keeps the proxy routable across an upstream failover.
	p.mu.Lock()
	up := p.up
	p.mu.Unlock()
	if up == nil {
		return
	}
	for _, addr := range p.gossipCandidates() {
		if up.RefreshRing(addr) == nil {
			break
		}
	}
	p.mu.Lock()
	mirrors := make([]*mirror, 0, len(p.mirrors))
	for _, m := range p.mirrors {
		mirrors = append(mirrors, m)
	}
	p.mu.Unlock()
	for _, m := range mirrors {
		if err := p.subscribeUpstream(m); err != nil {
			p.setDegraded(m, err)
			continue
		}
		p.trySync(m)
	}
}

func (p *Proxy) maintainLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opts.SyncEvery)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
			p.Maintain()
		}
	}
}

// gossipOnce performs the proxy's "lite join" of the upstream
// cluster's gossip: fetch the membership view, adopt it, and — when
// this proxy is missing from it or marked dead — push back a view
// that includes it with the Proxy role bit set. Equal-epoch divergent
// views merge deterministically server-side (epoch+1), and the Proxy
// bit survives merges, so the fleet converges on a view where the
// proxy is visible but owns nothing. A non-clustered upstream answers
// RingGet with an error; the proxy then simply stays out of gossip.
func (p *Proxy) gossipOnce() {
	p.mu.Lock()
	var have uint64
	if p.ms != nil {
		have = p.ms.Epoch
	}
	self := p.advertise
	p.mu.Unlock()
	if self == "" {
		return
	}
	var rr *protocol.RingReply
	var peer string
	for _, addr := range p.gossipCandidates() {
		reply, err := p.rpc(addr, &protocol.RingGet{HaveEpoch: have})
		if err != nil {
			continue
		}
		if r, ok := reply.(*protocol.RingReply); ok {
			rr, peer = r, addr
			break
		}
	}
	if rr == nil {
		return
	}
	var push *protocol.Membership
	p.mu.Lock()
	if p.ms == nil || rr.Ms.Epoch > p.ms.Epoch {
		cp := rr.Ms.Clone()
		p.ms = &cp
	}
	found, dead := false, false
	for _, m := range p.ms.Members {
		if m.Addr == self {
			found, dead = true, m.Dead
			break
		}
	}
	if !found || dead {
		cp := p.ms.Clone()
		if !found {
			cp.Members = append(cp.Members, protocol.Member{
				Addr:        self,
				Proxy:       true,
				MetricsAddr: p.opts.MetricsAddr,
			})
		} else {
			for i := range cp.Members {
				if cp.Members[i].Addr == self {
					cp.Members[i].Dead = false
					cp.Members[i].Proxy = true
					cp.Members[i].MetricsAddr = p.opts.MetricsAddr
				}
			}
			// A revival must outrank the view that declared us dead.
			cp.Epoch++
		}
		p.ms = &cp
		push = &cp
	}
	p.mu.Unlock()
	if push != nil {
		_, _ = p.rpc(peer, &protocol.RingPush{Ms: *push})
	}
}

// gossipCandidates lists the addresses the proxy may learn the
// membership (and ring) from: the configured upstream first, then
// every other live non-proxy member of the adopted view. The fallback
// is what keeps gossip — and, through RefreshRing, the upstream
// client's failover routing — alive when the configured upstream is
// the node that died.
func (p *Proxy) gossipCandidates() []string {
	out := []string{p.opts.Upstream}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ms == nil {
		return out
	}
	for _, m := range p.ms.Members {
		if m.Dead || m.Proxy || m.Addr == p.opts.Upstream || m.Addr == p.advertise {
			continue
		}
		out = append(out, m.Addr)
	}
	return out
}

// rpc performs one request/reply round trip on a throwaway connection
// — the gossip path, which must not ride the upstream client's
// segment-routed machinery.
func (p *Proxy) rpc(addr string, m protocol.Message) (protocol.Message, error) {
	return session.RoundTrip(p.opts.Dial, addr, m, p.opts.RPCTimeout)
}

// errReply builds a protocol error reply.
func errReply(code uint16, format string, args ...any) *protocol.ErrorReply {
	return &protocol.ErrorReply{Code: code, Text: fmt.Sprintf(format, args...)}
}

// relayErr converts an upstream call failure into the reply relayed
// downstream: server-reported errors pass through verbatim (the
// downstream client sees exactly what a direct client would), and
// transport failures become CodeInternal — never a Redirect, which the
// proxy always chases itself (a downstream client redirected into the
// cluster would bypass the tree).
func relayErr(op, seg string, err error) protocol.Message {
	var er *protocol.ErrorReply
	if errors.As(err, &er) {
		return er
	}
	return errReply(protocol.CodeInternal, "proxy: %s of %q upstream: %v", op, seg, err)
}

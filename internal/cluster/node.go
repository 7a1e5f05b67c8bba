package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/session"
)

// Options configures a Node.
type Options struct {
	// Self is this node's address as peers and clients dial it.
	Self string
	// Peers lists the other cluster members' addresses. The initial
	// membership is Self+Peers sorted, so every node that is configured
	// with the same set starts from an identical epoch-1 view.
	Peers []string
	// Replicas is R, the number of successors each segment streams to.
	// Zero means no replication.
	Replicas int
	// Heartbeat is the peer-probe interval. Zero disables the probe
	// loop; tests drive failure detection manually with MarkDead.
	Heartbeat time.Duration
	// FailureThreshold is how many consecutive probe failures mark a
	// peer dead; 0 = 3.
	FailureThreshold int
	// DialTimeout bounds peer dials and RPCs; 0 = 2s.
	DialTimeout time.Duration
	// MetricsAddr is this node's observability HTTP address (the
	// /metrics + /debug surface), advertised on its member entry so
	// membership gossip teaches fleet tools (tools/iwtop) every
	// node's scrape endpoint. Empty advertises nothing.
	MetricsAddr string
	// Metrics receives iw_cluster_* instruments; nil disables them.
	Metrics *obs.Registry
	// Logf logs membership transitions; nil discards.
	Logf func(format string, args ...any)
	// Dial overrides peer dialing, e.g. to route through faultnet in
	// tests; nil uses net.DialTimeout("tcp", ...).
	Dial func(addr string) (net.Conn, error)
}

// AdvertiseAddr turns a listener's bound address into one peers can
// dial, for MetricsAddr: a bind to an unspecified host (":9090",
// "0.0.0.0:9090", "[::]:9090") advertises self's host with the bound
// port, or 127.0.0.1 when self names no host. An unparsable bound
// address is returned as is.
func AdvertiseAddr(bound, self string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return bound
	}
	if sh, _, err := net.SplitHostPort(self); err == nil && sh != "" {
		return net.JoinHostPort(sh, port)
	}
	return net.JoinHostPort("127.0.0.1", port)
}

// Node is one server's live view of the cluster: the current
// Membership, the Ring it implies, and the gossip machinery that keeps
// peers converging on the highest epoch. All methods are safe for
// concurrent use.
type Node struct {
	opts Options

	mu      sync.Mutex
	ms      protocol.Membership
	ring    *Ring
	onEpoch func(ms protocol.Membership)
	fails   map[string]int
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup

	m *nodeMetrics
}

// nodeMetrics is the iw_cluster_* instrument set; nil when disabled.
type nodeMetrics struct {
	epoch     *obs.Gauge
	live      *obs.Gauge
	dead      *obs.Gauge
	adoptions *obs.Counter
	merges    *obs.Counter
	revivals  *obs.Counter
	gossipOK  *obs.Counter
	gossipErr *obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		return nil
	}
	return &nodeMetrics{
		epoch:     reg.Gauge("iw_cluster_epoch", "Current membership epoch."),
		live:      reg.Gauge("iw_cluster_members_live", "Live members in the current view."),
		dead:      reg.Gauge("iw_cluster_members_dead", "Members marked dead in the current view."),
		adoptions: reg.Counter("iw_cluster_epoch_adoptions_total", "Higher-epoch membership views adopted from peers."),
		merges:    reg.Counter("iw_cluster_view_merges_total", "Equal-epoch divergent views reconciled by deterministic merge."),
		revivals:  reg.Counter("iw_cluster_revivals_total", "Dead-marked members brought back to live after a successful probe."),
		gossipOK:  reg.Counter("iw_cluster_gossip_total", "Membership pushes delivered to peers.", obs.L("result", "ok")),
		gossipErr: reg.Counter("iw_cluster_gossip_total", "Membership pushes delivered to peers.", obs.L("result", "error")),
	}
}

// NewNode builds a Node from its options. The initial membership is
// epoch 1 over the sorted union of Self and Peers, so identically
// configured nodes agree without any exchange.
func NewNode(opts Options) *Node {
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	addrs := append([]string{opts.Self}, opts.Peers...)
	sort.Strings(addrs)
	// VNodes stays zero: the ring places DefaultVNodes per member.
	ms := protocol.Membership{Epoch: 1, Replicas: uint8(opts.Replicas)}
	for _, a := range addrs {
		m := protocol.Member{Addr: a}
		if a == opts.Self {
			m.MetricsAddr = opts.MetricsAddr
		}
		ms.Members = append(ms.Members, m)
	}
	n := &Node{
		opts:  opts,
		ms:    ms,
		ring:  BuildRing(ms),
		fails: make(map[string]int),
		done:  make(chan struct{}),
		m:     newNodeMetrics(opts.Metrics),
	}
	n.publishMetricsLocked()
	return n
}

// publishMetricsLocked refreshes the membership gauges; callers hold
// n.mu (or are the constructor).
func (n *Node) publishMetricsLocked() {
	if n.m == nil {
		return
	}
	var live, dead int64
	for _, m := range n.ms.Members {
		if m.Dead {
			dead++
		} else {
			live++
		}
	}
	n.m.epoch.Set(int64(n.ms.Epoch))
	n.m.live.Set(live)
	n.m.dead.Set(dead)
}

// Self returns this node's address.
func (n *Node) Self() string { return n.opts.Self }

// ReplicaCount returns R.
func (n *Node) ReplicaCount() int { return n.opts.Replicas }

// Membership returns a deep copy of the current view.
func (n *Node) Membership() protocol.Membership {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ms.Clone()
}

// Epoch returns the current membership epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ms.Epoch
}

// Ring returns the ring for the current view. The returned Ring is
// immutable; a later epoch produces a new one.
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Owner returns the node owning seg under the current view.
func (n *Node) Owner(seg string) string { return n.Ring().Owner(seg) }

// IsOwner reports whether this node owns seg under the current view.
func (n *Node) IsOwner(seg string) bool { return n.Owner(seg) == n.opts.Self }

// ReplicasOf returns the replica set for seg under the current view.
func (n *Node) ReplicasOf(seg string) []string {
	return n.Ring().Replicas(seg, n.opts.Replicas)
}

// OnEpochChange registers fn to run (on the mutating goroutine, after
// the new view is installed) whenever the membership epoch advances —
// locally or by adoption. The server hooks promotion catch-up here.
func (n *Node) OnEpochChange(fn func(ms protocol.Membership)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onEpoch = fn
}

// annotateSelfLocked re-stamps this node's metrics-addr advertisement
// onto its own member entry — adopted peer views may predate (or have
// never seen) the advertisement. Mutates ms in place; every caller
// passes a clone or a freshly built view. Callers hold n.mu.
func (n *Node) annotateSelfLocked(ms *protocol.Membership) {
	if n.opts.MetricsAddr == "" {
		return
	}
	for i := range ms.Members {
		if ms.Members[i].Addr == n.opts.Self {
			ms.Members[i].MetricsAddr = n.opts.MetricsAddr
		}
	}
}

// install replaces the view, rebuilds the ring, refreshes metrics, and
// returns the callback to fire. Callers hold n.mu.
func (n *Node) installLocked(ms protocol.Membership) func(protocol.Membership) {
	n.annotateSelfLocked(&ms)
	n.ms = ms
	n.ring = BuildRing(ms)
	n.publishMetricsLocked()
	n.logf("cluster: epoch %d, %d live", ms.Epoch, len(n.ring.Live()))
	return n.onEpoch
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// AdoptMembership installs ms if its epoch is higher than the current
// view's, reporting whether the local view changed. Equal-epoch views
// with identical content are the common convergence case and change
// nothing; equal-epoch views with *different* content mean two nodes
// bumped concurrently (e.g. a migration committing while a survivor
// marked a third node dead) — those are reconciled by a deterministic
// merge at epoch+1, so every node that sees both halves installs the
// same view and routing re-converges instead of ping-ponging.
func (n *Node) AdoptMembership(ms protocol.Membership) bool {
	n.mu.Lock()
	if ms.Epoch < n.ms.Epoch {
		n.mu.Unlock()
		return false
	}
	if ms.Epoch == n.ms.Epoch {
		if viewsEqual(ms, n.ms) {
			n.mu.Unlock()
			return false
		}
		merged := mergeViews(n.ms, ms)
		fn := n.installLocked(merged)
		n.mu.Unlock()
		if n.m != nil {
			n.m.merges.Inc()
		}
		n.logf("cluster: merged divergent epoch-%d views into epoch %d", ms.Epoch, merged.Epoch)
		if fn != nil {
			fn(merged)
		}
		n.Gossip()
		return true
	}
	cp := ms.Clone()
	fn := n.installLocked(cp)
	n.mu.Unlock()
	if n.m != nil {
		n.m.adoptions.Inc()
	}
	if fn != nil {
		fn(cp)
	}
	return true
}

// memberMeta is the per-address state viewsEqual and mergeViews
// compare and reconcile.
type memberMeta struct {
	dead    bool
	metrics string
	proxy   bool
}

// viewsEqual reports whether two same-epoch views describe the same
// cluster: identical member sets with identical dead marks and
// metrics-addr advertisements, and the same override mapping.
// Override order is irrelevant — it is a map in spirit — so it is
// compared as one. Advertisement differences count as divergence so
// an annotation spreads through the same merge machinery as every
// other membership fact.
func viewsEqual(a, b protocol.Membership) bool {
	if a.Replicas != b.Replicas || a.VNodes != b.VNodes ||
		len(a.Members) != len(b.Members) || len(a.Overrides) != len(b.Overrides) {
		return false
	}
	meta := make(map[string]memberMeta, len(a.Members))
	for _, m := range a.Members {
		meta[m.Addr] = memberMeta{dead: m.Dead, metrics: m.MetricsAddr, proxy: m.Proxy}
	}
	for _, m := range b.Members {
		mm, ok := meta[m.Addr]
		if !ok || mm.dead != m.Dead || mm.metrics != m.MetricsAddr || mm.proxy != m.Proxy {
			return false
		}
	}
	ov := make(map[string]string, len(a.Overrides))
	for _, o := range a.Overrides {
		ov[o.Seg] = o.Addr
	}
	for _, o := range b.Overrides {
		if ov[o.Seg] != o.Addr {
			return false
		}
	}
	return true
}

// mergeViews reconciles two divergent same-epoch views into one
// deterministic successor: the member union with dead marks OR'd and
// metrics-addr advertisements kept (non-empty wins; two different
// non-empty advertisements break ties by the lower string), the
// override union with same-segment conflicts broken by the lower
// address, and the epoch bumped past both. Merging (a,b) and (b,a)
// yield the same view, so concurrent mergers converge without another
// round.
func mergeViews(a, b protocol.Membership) protocol.Membership {
	out := protocol.Membership{
		Epoch:    a.Epoch + 1,
		Replicas: a.Replicas,
		VNodes:   a.VNodes,
	}
	meta := make(map[string]memberMeta)
	for _, m := range a.Members {
		meta[m.Addr] = memberMeta{dead: m.Dead, metrics: m.MetricsAddr, proxy: m.Proxy}
	}
	for _, m := range b.Members {
		mm := meta[m.Addr]
		mm.dead = mm.dead || m.Dead
		// The proxy role is a property of the node, not of either view:
		// whichever half knows it wins, so a merge never demotes a proxy
		// into a placement-eligible server.
		mm.proxy = mm.proxy || m.Proxy
		if m.MetricsAddr != "" && (mm.metrics == "" || m.MetricsAddr < mm.metrics) {
			mm.metrics = m.MetricsAddr
		}
		meta[m.Addr] = mm
	}
	addrs := make([]string, 0, len(meta))
	for addr := range meta {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		out.Members = append(out.Members, protocol.Member{
			Addr:        addr,
			Dead:        meta[addr].dead,
			MetricsAddr: meta[addr].metrics,
			Proxy:       meta[addr].proxy,
		})
	}
	ov := make(map[string]string)
	for _, o := range a.Overrides {
		ov[o.Seg] = o.Addr
	}
	for _, o := range b.Overrides {
		if prev, ok := ov[o.Seg]; !ok || o.Addr < prev {
			ov[o.Seg] = o.Addr
		}
	}
	segs := make([]string, 0, len(ov))
	for seg := range ov {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		out.Overrides = append(out.Overrides, protocol.Override{Seg: seg, Addr: ov[seg]})
	}
	return out
}

// MarkDead excludes addr from placement: it marks the member dead,
// bumps the epoch, and gossips the new view to the surviving peers.
// No-op if addr is unknown or already dead.
func (n *Node) MarkDead(addr string) bool {
	n.mu.Lock()
	idx := -1
	for i, m := range n.ms.Members {
		if m.Addr == addr && !m.Dead {
			idx = i
			break
		}
	}
	if idx < 0 {
		n.mu.Unlock()
		return false
	}
	cp := n.ms.Clone()
	cp.Members[idx].Dead = true
	cp.Epoch++
	delete(n.fails, addr)
	fn := n.installLocked(cp)
	n.mu.Unlock()
	n.logf("cluster: marked %s dead at epoch %d", addr, cp.Epoch)
	if fn != nil {
		fn(cp)
	}
	n.Gossip()
	return true
}

// Revive returns a dead-marked member to placement: it clears the Dead
// flag, bumps the epoch, and gossips the new view. No-op if addr is
// unknown or already live. Callers must first ensure the member has
// adopted a view in which it is dead (see probePeers), so it has
// demoted any stale segment state before placement hands ownership
// back to it.
func (n *Node) Revive(addr string) bool {
	n.mu.Lock()
	idx := -1
	for i, m := range n.ms.Members {
		if m.Addr == addr && m.Dead {
			idx = i
			break
		}
	}
	if idx < 0 {
		n.mu.Unlock()
		return false
	}
	cp := n.ms.Clone()
	cp.Members[idx].Dead = false
	cp.Epoch++
	delete(n.fails, addr)
	fn := n.installLocked(cp)
	n.mu.Unlock()
	if n.m != nil {
		n.m.revivals.Inc()
	}
	n.logf("cluster: revived %s at epoch %d", addr, cp.Epoch)
	if fn != nil {
		fn(cp)
	}
	n.Gossip()
	return true
}

// SetOverride pins seg's ownership to addr (the Migrate commit step),
// bumps the epoch, and gossips the new view.
func (n *Node) SetOverride(seg, addr string) {
	n.mu.Lock()
	cp := n.ms.Clone()
	found := false
	for i := range cp.Overrides {
		if cp.Overrides[i].Seg == seg {
			cp.Overrides[i].Addr = addr
			found = true
			break
		}
	}
	if !found {
		cp.Overrides = append(cp.Overrides, protocol.Override{Seg: seg, Addr: addr})
	}
	cp.Epoch++
	fn := n.installLocked(cp)
	n.mu.Unlock()
	if fn != nil {
		fn(cp)
	}
	n.Gossip()
}

// Gossip pushes the current view to every live peer. Push failures are
// counted but not retried — the heartbeat and redirect paths both
// carry the membership, so convergence has several channels.
func (n *Node) Gossip() {
	ms := n.Membership()
	for _, addr := range ms.Live() {
		if addr == n.opts.Self {
			continue
		}
		if err := n.pushRing(addr, ms); err != nil {
			if n.m != nil {
				n.m.gossipErr.Inc()
			}
			n.logf("cluster: gossip to %s: %v", addr, err)
			continue
		}
		if n.m != nil {
			n.m.gossipOK.Inc()
		}
	}
}

// Start launches the heartbeat loop when Options.Heartbeat is set.
func (n *Node) Start() {
	if n.opts.Heartbeat <= 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(n.opts.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-n.done:
				return
			case <-t.C:
				n.probePeers()
			}
		}
	}()
}

// probePeers RingGets every peer, live and dead: live peers feed the
// failure detector (FailureThreshold consecutive failures marks them
// dead) and may teach us a newer view; a dead-marked peer that answers
// is a rejoin candidate. Rejoin is a two-step handshake — first push
// it the current view, in which it is still dead, so it adopts that
// view and demotes any stale segment state it holds; only then Revive
// it, handing ownership back with a fresh epoch. A restarted node can
// therefore never serve pre-failover state as authoritative.
func (n *Node) probePeers() {
	ms := n.Membership()
	for _, m := range ms.Members {
		addr := m.Addr
		if addr == n.opts.Self {
			continue
		}
		if m.Dead {
			if _, err := n.fetchRing(addr); err != nil {
				continue
			}
			if err := n.pushRing(addr, n.Membership()); err != nil {
				continue
			}
			n.Revive(addr)
			continue
		}
		reply, err := n.fetchRing(addr)
		n.mu.Lock()
		if err != nil {
			n.fails[addr]++
			failed := n.fails[addr] >= n.opts.FailureThreshold
			n.mu.Unlock()
			if failed {
				n.MarkDead(addr)
			}
			continue
		}
		n.fails[addr] = 0
		n.mu.Unlock()
		n.AdoptMembership(reply)
	}
}

// Close stops the heartbeat loop.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
}

// Call performs one synchronous RPC against a peer: dial, one frame
// out, one frame in. A connection per call keeps the failure model
// trivial — any wedged peer costs one DialTimeout, never a pooled
// connection — and suits the rare control traffic (probes, gossip,
// pulls, migration). The replication fan-out is not rare: the server
// calls every replica once per flushed batch, so each committed batch
// pays one TCP dial and handshake per replica (DESIGN.md §7.3).
func (n *Node) Call(addr string, req protocol.Message) (protocol.Message, error) {
	reply, err := session.RoundTrip(n.opts.Dial, addr, req, n.opts.DialTimeout)
	var e *protocol.ErrorReply
	if errors.As(err, &e) {
		return nil, fmt.Errorf("cluster: peer %s: %w", addr, e)
	}
	return reply, err
}

// pushRing offers ms to addr.
func (n *Node) pushRing(addr string, ms protocol.Membership) error {
	_, err := n.Call(addr, &protocol.RingPush{Ms: ms})
	return err
}

// fetchRing asks addr for its view.
func (n *Node) fetchRing(addr string) (protocol.Membership, error) {
	reply, err := n.Call(addr, &protocol.RingGet{HaveEpoch: n.Epoch()})
	if err != nil {
		return protocol.Membership{}, err
	}
	rr, ok := reply.(*protocol.RingReply)
	if !ok {
		return protocol.Membership{}, fmt.Errorf("cluster: peer %s answered RingGet with %T", addr, reply)
	}
	return rr.Ms, nil
}

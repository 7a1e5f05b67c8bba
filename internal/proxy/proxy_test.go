package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/session"
	"interweave/internal/types"
)

// startOriginServer launches a standalone origin server and returns
// its address and handle (some tests kill it mid-flight).
func startOriginServer(t *testing.T, opts server.Options) (string, *server.Server) {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

// startProxyOn launches a proxy on a loopback port. Tests get fast
// maintenance by default; pass SyncEvery < 0 to drive Maintain by
// hand.
func startProxyOn(t *testing.T, opts Options) (*Proxy, string) {
	t.Helper()
	if opts.SyncEvery == 0 {
		opts.SyncEvery = 25 * time.Millisecond
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve(ln) }()
	t.Cleanup(func() { _ = p.Close() })
	waitUntil(t, 2*time.Second, "proxy serving", func() bool { return p.Addr() != nil })
	return p, ln.Addr().String()
}

func newTestClient(t *testing.T, name string) *core.Client {
	t.Helper()
	c, err := core.NewClient(core.Options{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// openVia opens seg with its route seeded at the proxy, the way a
// downstream client is deployed against the tier: same URL, different
// address.
func openVia(t *testing.T, c *core.Client, seg, proxyAddr string) *core.Segment {
	t.Helper()
	c.SeedRoute(seg, proxyAddr)
	h, err := c.Open(seg)
	if err != nil {
		t.Fatalf("Open(%q) via %s: %v", seg, proxyAddr, err)
	}
	return h
}

// writeVal writes v into the segment's single int32 block "v",
// allocating it on first use.
func writeVal(t *testing.T, c *core.Client, h *core.Segment, v int32) {
	t.Helper()
	if err := c.WLock(h); err != nil {
		t.Fatalf("WLock: %v", err)
	}
	var addr mem.Addr
	if b, ok := h.Mem().BlockByName("v"); ok {
		addr = b.Addr
	} else {
		blk, err := c.Alloc(h, types.Int32(), 1, "v")
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		addr = blk.Addr
	}
	if err := c.Heap().WriteI32(addr, v); err != nil {
		t.Fatalf("WriteI32: %v", err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatalf("WUnlock: %v", err)
	}
}

// readVal reads the segment's "v" block under a read lock. Non-fatal
// so tests can poll for propagation.
func readVal(c *core.Client, h *core.Segment) (int32, error) {
	if err := c.RLock(h); err != nil {
		return 0, err
	}
	defer func() { _ = c.RUnlock(h) }()
	b, ok := h.Mem().BlockByName("v")
	if !ok {
		return 0, fmt.Errorf("block %q missing", "v")
	}
	return c.Heap().ReadI32(b.Addr)
}

func waitVal(t *testing.T, c *core.Client, h *core.Segment, want int32, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := readVal(c, h)
		if err == nil && v == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("value = %d (err %v), want %d after %v", v, err, want, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startClusterNodes brings up n servers in cluster mode with the
// given replication factor. Zero heartbeat disables failure
// detection.
func startClusterNodes(t *testing.T, n, replicas int, heartbeat time.Duration) ([]string, []*server.Server, []*cluster.Node) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	srvs := make([]*server.Server, n)
	nodes := make([]*cluster.Node, n)
	for i := range lns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node := cluster.NewNode(cluster.Options{
			Self:             addrs[i],
			Peers:            peers,
			Replicas:         replicas,
			Heartbeat:        heartbeat,
			FailureThreshold: 3,
			DialTimeout:      250 * time.Millisecond,
		})
		srv, err := server.New(server.Options{Cluster: node})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], srvs[i] = node, srv
		go func(s *server.Server, ln net.Listener) { _ = s.Serve(ln) }(srv, lns[i])
		node.Start()
		t.Cleanup(func() { node.Close(); _ = srv.Close() })
	}
	return addrs, srvs, nodes
}

// segOwnedBy searches for a segment name homed at home whose ring
// owner is owner.
func segOwnedBy(t *testing.T, ms protocol.Membership, home, owner string) string {
	t.Helper()
	ring := cluster.BuildRing(ms)
	for i := 0; i < 1024; i++ {
		seg := home + "/seg" + strconv.Itoa(i)
		if ring.Owner(seg) == owner {
			return seg
		}
	}
	t.Fatalf("no segment homed at %s owned by %s", home, owner)
	return ""
}

// TestProxyReadThrough is the tier's basic contract: a reader pointed
// at the proxy sees the origin's writes — immediately on first open
// (the mirror pulls current), and within the notification pipeline's
// latency afterwards.
func TestProxyReadThrough(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin})
	seg := origin + "/counter"

	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 1)

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	if v, err := readVal(r, hr); err != nil || v != 1 {
		t.Fatalf("first read via proxy = %d, %v; want 1", v, err)
	}

	// The proxy is subscribed upstream: a new version propagates
	// without the reader ever touching the origin.
	writeVal(t, w, hw, 2)
	waitVal(t, r, hr, 2, 5*time.Second)

	if p.ins.reads.Value() == 0 {
		t.Error("iw_proxy_reads_total did not count")
	}
	if p.ins.pulls.Value() == 0 {
		t.Error("iw_proxy_pulls_total did not count")
	}
	if p.ins.forwardedWrites.Value() != 0 {
		t.Errorf("reads forwarded %d writes upstream", p.ins.forwardedWrites.Value())
	}
}

// TestProxyWriteForward pins the write path: a writer pointed at the
// proxy has its WriteLock/WriteUnlock forwarded upstream, the commit
// is visible to direct origin readers, and the writer's route cache
// never leaves the proxy (no Redirect leaks downstream).
func TestProxyWriteForward(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin})
	seg := origin + "/fwd"

	w := newTestClient(t, "writer")
	hw := openVia(t, w, seg, paddr)
	writeVal(t, w, hw, 7)

	if got := w.RouteTo(seg); got != paddr {
		t.Fatalf("writer's route moved off the proxy: %q (want %q)", got, paddr)
	}
	if p.ins.forwardedWrites.Value() < 2 { // WriteLock + WriteUnlock
		t.Errorf("forwarded writes = %d, want >= 2", p.ins.forwardedWrites.Value())
	}

	r := newTestClient(t, "reader")
	hr, err := r.Open(seg) // direct: the origin must have the commit
	if err != nil {
		t.Fatal(err)
	}
	if v, err := readVal(r, hr); err != nil || v != 7 {
		t.Fatalf("direct read after proxied write = %d, %v; want 7", v, err)
	}
}

// TestProxyFullCoherenceReadAfterForwardedWrite pins policy-aware
// freshness: one client commits through the proxy, and a second
// client's Full-coherence read through the same proxy must see the
// commit immediately. The forwarded commit taught the mirror the new
// upstream version, so serving the older copy would violate the
// reader's policy — the read must block on a sync pull instead of
// waiting for notify propagation. Deterministic: no polling allowed.
func TestProxyFullCoherenceReadAfterForwardedWrite(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	_, paddr := startProxyOn(t, Options{Upstream: origin, SyncEvery: -1})
	seg := origin + "/strict"

	w := newTestClient(t, "writer")
	hw := openVia(t, w, seg, paddr)
	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	for i := int32(1); i <= 5; i++ {
		writeVal(t, w, hw, i)
		if v, err := readVal(r, hr); err != nil || v != i {
			t.Fatalf("Full-coherence read via proxy after forwarded write = %d, %v; want %d", v, err, i)
		}
	}
}

// TestProxyChain runs a 2-level tree (origin <- p1 <- p2): a reader
// at the leaf sees writes made directly at the origin.
func TestProxyChain(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	_, p1addr := startProxyOn(t, Options{Upstream: origin, Name: "p1"})
	_, p2addr := startProxyOn(t, Options{Upstream: p1addr, Name: "p2"})
	seg := origin + "/chained"

	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 10)

	r := newTestClient(t, "leaf-reader")
	hr := openVia(t, r, seg, p2addr)
	waitVal(t, r, hr, 10, 5*time.Second)

	// Propagation crosses both levels: origin -> p1 -> p2 -> reader.
	writeVal(t, w, hw, 11)
	waitVal(t, r, hr, 11, 5*time.Second)

	// A write through the leaf forwards up the whole chain.
	w2 := newTestClient(t, "leaf-writer")
	hw2 := openVia(t, w2, seg, p2addr)
	writeVal(t, w2, hw2, 12)
	rd := newTestClient(t, "direct-reader")
	hrd, err := rd.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := readVal(rd, hrd); err != nil || v != 12 {
		t.Fatalf("direct read after leaf write = %d, %v; want 12", v, err)
	}
}

// TestProxyStalenessMaxAge pins the staleness bound: with MaxAge set
// impossibly tight, every downstream read blocks on a synchronous
// upstream pull first, so a read issued right after a direct write
// must see it — no propagation wait allowed.
func TestProxyStalenessMaxAge(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin, MaxAge: time.Nanosecond, SyncEvery: -1})
	seg := origin + "/bounded"

	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 1)

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	for i := int32(2); i <= 4; i++ {
		writeVal(t, w, hw, i)
		if v, err := readVal(r, hr); err != nil || v != i {
			t.Fatalf("bounded read = %d, %v immediately after write; want %d", v, err, i)
		}
	}
	if p.ins.syncReads.Value() == 0 {
		t.Error("iw_proxy_reads_sync_pull_total did not count")
	}
}

// TestProxyAdmissionExemption pins the capacity contract: proxy
// sessions (upstream subscription and per-writer forwarders) do not
// consume the origin's MaxSessions budget, while direct client
// sessions still do.
func TestProxyAdmissionExemption(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{MaxSessions: 1})
	_, paddr := startProxyOn(t, Options{Upstream: origin})
	seg := origin + "/capped"

	// Writing through the proxy exercises both proxy session kinds at
	// the origin: the shared subscription session and a forwarder.
	w := newTestClient(t, "writer")
	hw := openVia(t, w, seg, paddr)
	writeVal(t, w, hw, 3)

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	if v, err := readVal(r, hr); err != nil || v != 3 {
		t.Fatalf("read via proxy = %d, %v; want 3", v, err)
	}

	// The origin still has its whole direct budget: one session fits,
	// the second is refused.
	mc, err := core.DialMux(origin, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mc.Close() })
	if _, err := mc.NewSession("direct-1", "x86-32le"); err != nil {
		t.Fatalf("first direct session refused: %v", err)
	}
	if _, err := mc.NewSession("direct-2", "x86-32le"); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("second direct session: err = %v, want ErrOverloaded", err)
	}

	// The refusals upstream never touch the proxy's downstream service.
	r2 := newTestClient(t, "reader-2")
	hr2 := openVia(t, r2, seg, paddr)
	if v, err := readVal(r2, hr2); err != nil || v != 3 {
		t.Fatalf("read via proxy after refusals = %d, %v; want 3", v, err)
	}
}

// TestProxyRedirectNoLoop pins redirect handling with a clustered
// upstream: the segment's URL homes it at node A but the ring owns it
// at node B, so every forwarded request is answered with a Redirect at
// A. The proxy must chase that redirect itself — the downstream
// client's route cache stays aimed at the proxy and the write
// converges instead of looping.
func TestProxyRedirectNoLoop(t *testing.T) {
	addrs, _, nodes := startClusterNodes(t, 2, 1, 0)
	seg := segOwnedBy(t, nodes[0].Membership(), addrs[0], addrs[1])
	_, paddr := startProxyOn(t, Options{Upstream: addrs[0]})

	w := newTestClient(t, "writer")
	hw := openVia(t, w, seg, paddr)
	writeVal(t, w, hw, 5)
	if got := w.RouteTo(seg); got != paddr {
		t.Fatalf("redirect leaked downstream: writer routed to %q, want %q", got, paddr)
	}

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	if v, err := readVal(r, hr); err != nil || v != 5 {
		t.Fatalf("read via proxy = %d, %v; want 5", v, err)
	}
	if got := r.RouteTo(seg); got != paddr {
		t.Fatalf("redirect leaked downstream: reader routed to %q, want %q", got, paddr)
	}

	// The write really landed on the ring owner: a direct client
	// (which follows the redirect itself) reads it back.
	rd := newTestClient(t, "direct")
	hrd, err := rd.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := readVal(rd, hrd); err != nil || v != 5 {
		t.Fatalf("direct read = %d, %v; want 5", v, err)
	}
}

// TestProxyDegradedStandalone pins graceful degradation: when the
// (non-clustered) upstream dies, reads keep being served from the
// stale mirror with no error, counted as degraded, and the health
// verdict flips.
func TestProxyDegradedStandalone(t *testing.T) {
	origin, srv := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin, SyncEvery: -1, RPCTimeout: 500 * time.Millisecond})
	seg := origin + "/stale"

	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 1)

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	if v, err := readVal(r, hr); err != nil || v != 1 {
		t.Fatalf("read before origin death = %d, %v; want 1", v, err)
	}

	_ = srv.Close()
	p.Maintain() // the re-subscribe fails and marks the mirror degraded

	if got := p.Health(time.Now()); got.Status != HealthDegraded {
		t.Fatalf("health after upstream death = %+v, want %s", got, HealthDegraded)
	}
	for i := 0; i < 5; i++ {
		if v, err := readVal(r, hr); err != nil || v != 1 {
			t.Fatalf("degraded read = %d, %v; want stale 1 with no error", v, err)
		}
	}
	if p.ins.degradedReads.Value() == 0 {
		t.Error("iw_proxy_reads_degraded_total did not count")
	}
}

// TestProxyFailoverReroute is the chaos case: the proxy's configured
// upstream (and owner of the mirrored segment) dies in a 2-node
// replicated cluster. Reads through the proxy never fail — they serve
// stale during the window — and once the survivor promotes the
// segment, the proxy reroutes via the ring and converges on new
// writes without restarting.
func TestProxyFailoverReroute(t *testing.T) {
	addrs, srvs, nodes := startClusterNodes(t, 2, 2, 50*time.Millisecond)
	seg := segOwnedBy(t, nodes[0].Membership(), addrs[0], addrs[0])
	p, paddr := startProxyOn(t, Options{
		Upstream:   addrs[0],
		SyncEvery:  50 * time.Millisecond,
		RPCTimeout: time.Second,
	})

	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 1)

	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	waitVal(t, r, hr, 1, 5*time.Second)

	// The proxy must have joined the gossip before the upstream dies,
	// or it has no surviving peer to learn the new ring from.
	waitUntil(t, 5*time.Second, "proxy adopted cluster view", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.ms != nil
	})

	nodes[0].Close()
	_ = srvs[0].Close()

	// Degraded window: reads keep answering, stale but error-free.
	for i := 0; i < 20; i++ {
		if v, err := readVal(r, hr); err != nil || v != 1 {
			t.Fatalf("read during failover = %d, %v; want stale 1 with no error", v, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Wait for the survivor to declare the owner dead and promote.
	waitUntil(t, 10*time.Second, "survivor marked owner dead", func() bool {
		for _, m := range nodes[1].Membership().Members {
			if m.Addr == addrs[0] {
				return m.Dead
			}
		}
		return false
	})

	// A fresh writer seeded with the survivor's ring reroutes the
	// segment to the promoted owner and commits a new version.
	w2 := newTestClient(t, "writer-2")
	if err := w2.RefreshRing(addrs[1]); err != nil {
		t.Fatal(err)
	}
	h2, err := w2.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w2, h2, 2)

	// The proxy reroutes via the ring and catches up; the reader never
	// changed its address.
	waitVal(t, r, hr, 2, 10*time.Second)
}

// TestProxySessionCloseDoesNotStallConnection: closing a downstream
// session whose forwarded WriteLock is parked upstream must not hold up
// the other sessions on the same connection. Session B on A's
// connection is answered while A's WriteLock still waits for the
// origin's writer.
func TestProxySessionCloseDoesNotStallConnection(t *testing.T) {
	origin, srv := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin})
	seg := origin + "/close"
	holder := newTestClient(t, "holder")
	h, err := holder.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, holder, h, 1)
	if err := holder.WLock(h); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = holder.WUnlock(h) }()

	mc, err := core.DialMux(paddr, core.MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	a, err := mc.NewSession("a", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.NewSession("b", "x86-32le")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(&protocol.OpenSegment{Name: seg}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := a.Call(&protocol.WriteLock{Seg: seg, Policy: coherence.Full()})
		parked <- err
	}()
	waitUntil(t, 5*time.Second, "A's forwarded WriteLock queued at the origin", func() bool {
		return srv.DebugSegments()[0].Waiters == 1
	})
	go func() { _ = a.Close() }()
	waitUntil(t, 5*time.Second, "the proxy releasing A", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.sessions == 1
	})

	answered := make(chan error, 1)
	go func() {
		_, err := b.Call(&protocol.ReadLock{Seg: seg, Policy: coherence.Full()})
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("B's ReadLock: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("B's ReadLock was not answered while A's forwarded WriteLock was parked")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("A's WriteLock was granted after A closed")
		}
	case <-time.After(time.Second):
		t.Fatal("A's parked WriteLock was never answered after A closed")
	}
}

// mirrorVersion reads a mirror's version, 0 when the proxy has none.
func mirrorVersion(p *Proxy, seg string) uint32 {
	m := p.mirrorOf(seg)
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seg.Version
}

// TestProxyFollowsWithoutPulls pins the follower mechanism: after a
// mirror is opened, commits made directly at the origin reach it as
// pushed records alone — no sync round trip at any level of the tree —
// and the origin pushes exactly one frame per commit, however many
// readers the leaf serves.
func TestProxyFollowsWithoutPulls(t *testing.T) {
	for _, tc := range []struct {
		name    string
		levels  int
		readers int
	}{
		{"one proxy", 1, 0},
		{"two-level tree", 2, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			origin, _ := startOriginServer(t, server.Options{Metrics: reg})
			seg := origin + "/followed"
			w := newTestClient(t, "writer")
			hw, err := w.Open(seg)
			if err != nil {
				t.Fatal(err)
			}
			writeVal(t, w, hw, 0) // v1

			var proxies []*Proxy
			upstream := origin
			for i := 1; i <= tc.levels; i++ {
				p, addr := startProxyOn(t, Options{Upstream: upstream, Name: fmt.Sprintf("p%d", i), SyncEvery: -1})
				proxies = append(proxies, p)
				upstream = addr
			}
			leaf := proxies[len(proxies)-1]
			if _, _, errRep := leaf.ensureMirror(seg, false); errRep != nil {
				t.Fatalf("open via the leaf: %v", errRep)
			}
			readers := make([]*core.Client, tc.readers)
			handles := make([]*core.Segment, tc.readers)
			for i := range readers {
				readers[i] = newTestClient(t, fmt.Sprintf("leaf-reader-%d", i))
				handles[i] = openVia(t, readers[i], seg, upstream)
			}
			pulls := make([]uint64, len(proxies))
			for i, p := range proxies {
				pulls[i] = p.ins.pulls.Value()
			}
			notes := reg.Snapshot().Counters["iw_server_notifications_total"]

			for v := int32(1); v <= 50; v++ {
				writeVal(t, w, hw, v)
			}
			for _, p := range proxies {
				waitUntil(t, 5*time.Second, "mirror at v51", func() bool { return mirrorVersion(p, seg) == 51 })
			}
			for i, r := range readers {
				if v, err := readVal(r, handles[i]); err != nil || v != 50 {
					t.Fatalf("leaf reader %d read %d, %v; want 50", i, v, err)
				}
			}
			for i, p := range proxies {
				if got := p.ins.pulls.Value() - pulls[i]; got != 0 {
					t.Errorf("p%d made %d upstream sync round trips for 50 commits, want 0", i+1, got)
				}
			}
			if got := reg.Snapshot().Counters["iw_server_notifications_total"] - notes; got != 50 {
				t.Errorf("origin pushed %v frames for 50 commits, want 50", got)
			}
		})
	}
}

// TestProxyCloseUnderWrites closes proxies while commits on several
// segments stream into their mirrors and maintenance runs: Close must
// not race the goroutines the proxy starts (run it under -race).
func TestProxyCloseUnderWrites(t *testing.T) {
	const segments = 4
	origin, _ := startOriginServer(t, server.Options{})
	writers := make([]*core.Client, segments)
	handles := make([]*core.Segment, segments)
	for i := range writers {
		writers[i] = newTestClient(t, fmt.Sprintf("writer-%d", i))
		h, err := writers[i].Open(fmt.Sprintf("%s/storm-%d", origin, i))
		if err != nil {
			t.Fatal(err)
		}
		writeVal(t, writers[i], h, 0)
		handles[i] = h
	}
	for round := 0; round < 20; round++ {
		p, paddr := startProxyOn(t, Options{Upstream: origin})
		r := newTestClient(t, fmt.Sprintf("reader-%d", round))
		for _, h := range handles {
			openVia(t, r, h.Name(), paddr)
		}
		stop, done := make(chan struct{}), make(chan error, segments)
		for i := range writers {
			go func(c *core.Client, h *core.Segment) {
				for v := int32(1); ; v++ {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					if err := c.WLock(h); err != nil {
						done <- err
						return
					}
					b, _ := h.Mem().BlockByName("v")
					_ = c.Heap().WriteI32(b.Addr, v)
					if err := c.WUnlock(h); err != nil {
						done <- err
						return
					}
				}
			}(writers[i], handles[i])
		}
		first := handles[0].Name()
		start := mirrorVersion(p, first)
		waitUntil(t, 5*time.Second, "commits reaching the mirror", func() bool { return mirrorVersion(p, first) >= start+5 })
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		for range writers {
			if err := <-done; err != nil {
				t.Fatalf("round %d: direct write: %v", round, err)
			}
		}
	}
}

// TestProxyPushApplyRule feeds the push handler directly. The proxy's
// own upstream subscription is dropped first, and a capturing follower
// session at the origin records what the origin pushes, so each frame
// reaches the mirror only when the test hands it over.
func TestProxyPushApplyRule(t *testing.T) {
	origin, _ := startOriginServer(t, server.Options{})
	p, paddr := startProxyOn(t, Options{Upstream: origin, SyncEvery: -1})
	seg := origin + "/rule"
	w := newTestClient(t, "writer")
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	writeVal(t, w, hw, 1) // v1
	r := newTestClient(t, "reader")
	hr := openVia(t, r, seg, paddr)
	if v, err := readVal(r, hr); err != nil || v != 1 {
		t.Fatalf("first read = %d, %v; want 1", v, err)
	}

	conn, err := net.Dial("tcp", origin)
	if err != nil {
		t.Fatal(err)
	}
	records := make(chan *protocol.Replicate, 8)
	capture := session.NewDialed(conn, func(_ uint32, m protocol.Message) {
		if rec, ok := m.(*protocol.Replicate); ok {
			records <- rec
		}
	})
	t.Cleanup(capture.Close)
	for _, m := range []protocol.Message{
		&protocol.ProxyHello{ProxyAddr: "capture", Name: "capture"},
		&protocol.Subscribe{Seg: seg, HaveVersion: 1, Policy: coherence.Full()},
	} {
		if _, err := capture.Call(0, m, protocol.TraceContext{}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.up.Forward(seg, &protocol.Unsubscribe{Seg: seg}); err != nil {
		t.Fatal(err)
	}
	var recs []*protocol.Replicate
	for v := int32(2); v <= 4; v++ {
		writeVal(t, w, hw, v)
		select {
		case rec := <-records:
			recs = append(recs, rec)
		case <-time.After(5 * time.Second):
			t.Fatalf("no record pushed for v%d", v)
		}
	}
	m := p.mirrorOf(seg)
	image := func() []byte {
		m.mu.Lock()
		defer m.mu.Unlock()
		d, err := m.seg.CollectDiff(0)
		if err != nil {
			t.Fatal(err)
		}
		return d.Marshal(nil)
	}
	pulls := p.ins.pulls.Value()

	// Contiguous: applied in place, no round trip.
	p.onPush(recs[0])
	if got := mirrorVersion(p, seg); got != 2 {
		t.Fatalf("after the v2 record the mirror is at v%d", got)
	}
	// Duplicate: dropped, the image untouched.
	before := image()
	p.onPush(recs[0])
	if got := mirrorVersion(p, seg); got != 2 || !bytes.Equal(image(), before) {
		t.Fatalf("a duplicate record moved the mirror (v%d) or its image", got)
	}
	if got := p.ins.pulls.Value(); got != pulls {
		t.Fatalf("applying and dropping records made %d sync round trips", got-pulls)
	}

	// Gap: the v4 record cannot apply on v2. It starts one follow, and
	// the next Full read — which finds the mirror known-behind — waits
	// for that one instead of starting another.
	p.onPush(recs[2])
	if v, err := readVal(r, hr); err != nil || v != 4 {
		t.Fatalf("Full read after a gap = %d, %v; want 4", v, err)
	}
	if got := p.ins.pulls.Value() - pulls; got != 1 {
		t.Fatalf("the gap and the read made %d follows, want 1", got)
	}
	if got := mirrorVersion(p, seg); got != 4 {
		t.Fatalf("mirror at v%d after the catch-up, want v4", got)
	}

	// A deposed owner's Notify, at the version the mirror holds: the
	// subscription it names is gone, so it is followed once.
	pulls = p.ins.pulls.Value()
	p.onPush(&protocol.Notify{Seg: seg, Version: 4})
	waitUntil(t, 5*time.Second, "the catch-up after a Notify", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.following == nil
	})
	if got := p.ins.pulls.Value() - pulls; got != 1 {
		t.Fatalf("a Notify made %d follows, want 1", got)
	}
}

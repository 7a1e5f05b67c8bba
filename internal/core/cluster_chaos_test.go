package core

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/faultnet"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/types"
)

// chaosNode is one member of a test cluster: a real server reached
// only through a fault-injecting proxy. The proxy's address IS the
// member's identity — peers and clients alike dial it — so closing
// the proxy is indistinguishable from the machine dying.
type chaosNode struct {
	srv   *server.Server
	node  *cluster.Node
	proxy *faultnet.Proxy
	reg   *obs.Registry
	addr  string
}

// kill severs every connection to the node and refuses new ones.
func (n *chaosNode) kill() { _ = n.proxy.Close() }

// startChaosCluster brings up n servers in cluster mode, each behind
// its own faultnet proxy, with replication factor r. A zero heartbeat
// disables failure detection (tests that need staleness drive epochs
// by hand); a positive one runs the real probe/promote pipeline.
func startChaosCluster(t *testing.T, n, r int, heartbeat time.Duration) []*chaosNode {
	t.Helper()
	nodes := make([]*chaosNode, n)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		p := startChaosProxy(t, ln.Addr().String(), faultnet.NewSchedule())
		nodes[i] = &chaosNode{proxy: p, addr: p.Addr(), reg: obs.NewRegistry()}
		addrs[i] = p.Addr()
	}
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node := cluster.NewNode(cluster.Options{
			Self:             addrs[i],
			Peers:            peers,
			Replicas:         r,
			Heartbeat:        heartbeat,
			FailureThreshold: 3,
			DialTimeout:      250 * time.Millisecond,
			Metrics:          nodes[i].reg,
			Logf:             t.Logf,
		})
		// Every chaos node runs with the journal on: the whole suite's
		// replication invariants must hold unchanged under journal-mode
		// durability (DESIGN.md §9).
		srv, err := server.New(server.Options{
			Cluster:    node,
			Metrics:    nodes[i].reg,
			Logf:       t.Logf,
			JournalDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].node, nodes[i].srv = node, srv
		go func(s *server.Server, ln net.Listener) { _ = s.Serve(ln) }(srv, lns[i])
		node.Start()
		t.Cleanup(func() { node.Close(); _ = srv.Close() })
	}
	return nodes
}

// nodeAt returns the cluster node whose address is addr.
func nodeAt(t *testing.T, nodes []*chaosNode, addr string) *chaosNode {
	t.Helper()
	for _, n := range nodes {
		if n.addr == addr {
			return n
		}
	}
	t.Fatalf("no cluster node at %q", addr)
	return nil
}

// writeVals writes vals into blk and releases the write lock.
func writeVals(t *testing.T, c *Client, h *Segment, base mem.Addr, vals ...int32) {
	t.Helper()
	for i, v := range vals {
		if err := c.Heap().WriteI32(base+mem.Addr(4*i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatalf("WUnlock: %v", err)
	}
}

// readVals opens seg with a fresh client and returns the named
// block's first len(want) int32 values, comparing against want.
func readVals(t *testing.T, c *Client, seg, block string, want ...int32) {
	t.Helper()
	h, err := c.Open(seg)
	if err != nil {
		t.Fatalf("Open(%q): %v", seg, err)
	}
	if err := c.RLock(h); err != nil {
		t.Fatalf("RLock: %v", err)
	}
	defer func() { _ = c.RUnlock(h) }()
	b, ok := h.Mem().BlockByName(block)
	if !ok {
		t.Fatalf("block %q missing from %q", block, seg)
	}
	for i, w := range want {
		v, err := c.Heap().ReadI32(b.Addr + mem.Addr(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if v != w {
			t.Errorf("%s[%d] = %d, want %d", block, i, v, w)
		}
	}
}

// TestClusterFailoverMidWrite is the issue's acceptance scenario: the
// primary is killed with a write release in flight; the replica is
// promoted through the heartbeat/epoch pipeline; the client's
// existing Resume recovery completes the release against the new
// primary with no lost or duplicated versions.
func TestClusterFailoverMidWrite(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 5*time.Millisecond)
	seg := nodes[0].addr + "/acc"
	primary := nodeAt(t, nodes, nodes[0].node.Owner(seg))

	reg := obs.NewRegistry()
	opts := fastRetry("failover")
	opts.Metrics = reg
	c := newChaosClient(t, opts)
	// Seed the membership so the client can reroute even though its
	// first server may be the owner of everything it opens.
	var survivor *chaosNode
	for _, n := range nodes {
		if n != primary {
			survivor = n
			break
		}
	}
	if err := c.RefreshRing(survivor.addr); err != nil {
		t.Fatal(err)
	}

	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 4, "vals")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 1, 2, 3, 4) // version 1, replicated
	if got := h.Version(); got != 1 {
		t.Fatalf("version after first release = %d, want 1", got)
	}

	// The release under fire: the primary dies with the release in
	// flight (diff collected, connection severed under it).
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	primary.kill()
	writeVals(t, c, h, blk.Addr, 10, 20, 30, 40)
	if got := h.Version(); got != 2 {
		t.Errorf("version after failover release = %d, want exactly 2 (no lost or duplicated versions)", got)
	}

	// The promoted owner holds version 2 with the committed data.
	newOwner := nodeAt(t, nodes, survivor.node.Owner(seg))
	if newOwner == primary {
		t.Fatalf("ownership of %q did not move off the dead primary", seg)
	}
	snap := newOwner.srv.SegmentSnapshot(seg)
	if snap == nil {
		t.Fatalf("promoted owner has no copy of %q", seg)
	}
	if snap.Version != 2 {
		t.Errorf("promoted owner at version %d, want 2", snap.Version)
	}
	if got := counterSum(newOwner.reg.Snapshot(), "iw_cluster_promotions_total"); got < 1 {
		t.Errorf("promotions on new owner = %d, want >= 1", got)
	}
	if got := counterSum(reg.Snapshot(), "iw_client_reroutes_total"); got < 1 {
		t.Errorf("client reroutes = %d, want >= 1", got)
	}

	// A fresh reader whose home server (the segment URL's host) may be
	// the dead primary still reaches the data via the adopted ring.
	ropts := fastRetry("reader")
	r := newChaosClient(t, ropts)
	if err := r.RefreshRing(survivor.addr); err != nil {
		t.Fatal(err)
	}
	readVals(t, r, seg, "vals", 10, 20, 30, 40)
}

// TestClusterReleaseOnFreshSession pins the losing side of the race
// TestClusterFailoverMidWrite leaves to timing: the client already
// knows its connection is dead when it releases, so the release is
// re-dialed, rerouted to the promoted owner, and arrives on a session
// that holds no lock. The CodeLockState answer must run the Resume
// recovery (nothing applied, nobody else wrote: re-acquire and resend),
// not surface to the caller.
func TestClusterReleaseOnFreshSession(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 5*time.Millisecond)
	seg := nodes[0].addr + "/acc"
	primary := nodeAt(t, nodes, nodes[0].node.Owner(seg))
	var survivor *chaosNode
	for _, n := range nodes {
		if n != primary {
			survivor = n
			break
		}
	}
	c := newChaosClient(t, fastRetry("fresh-session"))
	if err := c.RefreshRing(survivor.addr); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 4, "vals")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 1, 2, 3, 4) // version 1, replicated

	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	primary.kill()
	for deadline := time.Now().Add(5 * time.Second); !h.s.conn.Closed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client never saw the killed primary's connection close")
		}
	}
	writeVals(t, c, h, blk.Addr, 10, 20, 30, 40)
	if got := h.Version(); got != 2 {
		t.Errorf("version after the rerouted release = %d, want exactly 2", got)
	}
	r := newChaosClient(t, fastRetry("reader"))
	if err := r.RefreshRing(survivor.addr); err != nil {
		t.Fatal(err)
	}
	readVals(t, r, seg, "vals", 10, 20, 30, 40)
}

// TestClusterRedirectStaleEpoch is the issue's second acceptance
// scenario: a client opening through a server whose ring epoch is
// stale converges on the owner in at most two redirect hops — one for
// the stale view, one for the epoch it learns en route.
func TestClusterRedirectStaleEpoch(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 0) // no heartbeat: staleness stays put
	home := nodes[0]

	// A segment whose epoch-1 owner is NOT its home server, so the
	// home's stale view yields the first hop.
	var seg string
	var owner *chaosNode
	for i := 0; ; i++ {
		seg = fmt.Sprintf("%s/stale%d", home.addr, i)
		if a := home.node.Owner(seg); a != home.addr {
			owner = nodeAt(t, nodes, a)
			break
		}
	}
	var target *chaosNode
	for _, n := range nodes {
		if n != home && n != owner {
			target = n
			break
		}
	}

	// Write through the cluster, then migrate the segment while the
	// home server is partitioned so it never hears the epoch bump.
	w := newChaosClient(t, fastRetry("writer"))
	h, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(h, types.Int32(), 2, "v")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, w, h, blk.Addr, 7, 9)

	home.proxy.Schedule().Partition(faultnet.Up)
	if err := w.Migrate(seg, target.addr); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	home.proxy.Schedule().Heal()

	if e := home.node.Epoch(); e != 1 {
		t.Fatalf("home server epoch = %d, want 1 (test needs a stale view)", e)
	}
	if e := target.node.Epoch(); e != 2 {
		t.Fatalf("migration target epoch = %d, want 2", e)
	}

	// A fresh client with no cluster knowledge opens via the stale
	// home: home (epoch 1) redirects to the old owner, which (epoch 2)
	// redirects to the migration target. Two hops, then data.
	reg := obs.NewRegistry()
	opts := fastRetry("stale-reader")
	opts.Metrics = reg
	r := newChaosClient(t, opts)
	readVals(t, r, seg, "v", 7, 9)
	if got := counterSum(reg.Snapshot(), "iw_client_redirects_total"); got == 0 || got > 2 {
		t.Errorf("redirects followed = %d, want 1..2 (converge in <= 2 hops)", got)
	}
	if e := r.ClusterEpoch(); e != 2 {
		t.Errorf("client adopted epoch %d, want 2", e)
	}

	// The route is cached: a second operation goes straight to the
	// owner with no further redirects.
	before := counterSum(reg.Snapshot(), "iw_client_redirects_total")
	readVals(t, r, seg, "v", 7, 9)
	if got := counterSum(reg.Snapshot(), "iw_client_redirects_total"); got != before {
		t.Errorf("cached route still redirected: %d -> %d", before, got)
	}
}

// TestClusterReplicationInvariant checks replicate-before-acknowledge
// directly: the moment a release returns to the client, the replica
// already holds the new version and the at-most-once record, so a
// Resume probe against it answers exactly as the primary would.
func TestClusterReplicationInvariant(t *testing.T) {
	nodes := startChaosCluster(t, 3, 2, 0) // R=2: both other nodes replicate
	seg := nodes[0].addr + "/repl"
	owner := nodeAt(t, nodes, nodes[0].node.Owner(seg))

	c := newChaosClient(t, fastRetry("repl"))
	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 42)

	for _, n := range nodes {
		if n == owner {
			continue
		}
		snap := n.srv.SegmentSnapshot(seg)
		if snap == nil {
			t.Fatalf("replica %s has no copy of %q after acked release", n.addr, seg)
		}
		if snap.Version != 1 {
			t.Errorf("replica %s at version %d, want 1", n.addr, snap.Version)
		}
	}
	if got := counterSum(owner.reg.Snapshot(), "iw_cluster_replicate_total"); got < 2 {
		t.Errorf("replicate fan-outs = %d, want >= 2", got)
	}
}

// TestClusterMigrationInvalidatesSubscribers: a reader that adapted
// to the notification protocol holds locally-fresh state and takes
// read locks without any RPC. When its segment migrates away, the old
// owner must push an invalidation as it demotes — otherwise the
// subscriber reads stale data forever, since the new owner has no
// subscription to notify.
func TestClusterMigrationInvalidatesSubscribers(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 0)
	seg := nodes[0].addr + "/sub"
	owner := nodeAt(t, nodes, nodes[0].node.Owner(seg))
	var target *chaosNode
	for _, n := range nodes {
		if n != owner {
			target = n
			break
		}
	}

	w := newChaosClient(t, fastRetry("sub-writer"))
	hw, err := w.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(hw, types.Int32(), 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, w, hw, blk.Addr, 1)

	// Poll with no updates until the adaptive protocol subscribes.
	r := newChaosClient(t, fastRetry("sub-reader"))
	hr, err := r.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	subscribed := hr.s.state.Subscribed
	r.mu.Unlock()
	if !subscribed {
		t.Fatal("setup: reader did not subscribe after repeated fresh polls")
	}

	if err := w.Migrate(seg, target.addr); err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	// Demotion on the old owner must invalidate the subscriber; without
	// it the reader stays locally fresh and never polls again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inv := invalidated(r, hr)
		if inv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never invalidated the subscribed reader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := counterSum(owner.reg.Snapshot(), "iw_cluster_demotions_total"); got < 1 {
		t.Errorf("demotions on old owner = %d, want >= 1", got)
	}

	// A post-migration write at the new owner must be visible to the
	// reader's next read lock (redirected off the demoted node).
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	writeVals(t, w, hw, blk.Addr, 7)
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	b, ok := hr.Mem().BlockByName("v")
	if !ok {
		t.Fatal("block v missing after refetch")
	}
	v, err := r.Heap().ReadI32(b.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Errorf("subscriber read %d after migration, want 7", v)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFencedRelease: a primary with a stale membership view
// accepts a write and fans it out; the replica — which has adopted a
// newer epoch under which the sender no longer owns the segment —
// must refuse the frame (fencing), depose the stale primary, and the
// client's release must recover at the real owner. Without fencing
// the deposed primary acks writes into a copy nobody routes to.
func TestClusterFencedRelease(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 0) // no heartbeat: staleness stays put
	seg := nodes[0].addr + "/fence"
	owner := nodeAt(t, nodes, nodes[0].node.Owner(seg))
	reps := owner.node.ReplicasOf(seg)
	if len(reps) == 0 {
		t.Fatal("setup: segment has no replica")
	}
	replica := nodeAt(t, nodes, reps[0])

	reg := obs.NewRegistry()
	opts := fastRetry("fenced")
	opts.Metrics = reg
	c := newChaosClient(t, opts)
	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 2, "v")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 1, 2) // version 1, replicated

	// Move ownership to the replica behind the primary's back: with the
	// primary's inbound blackholed, the replica adopts an epoch-2 view
	// pinning the segment to itself; the gossip push to the primary is
	// lost, so the primary still believes it owns the segment.
	owner.proxy.Schedule().Partition(faultnet.Up)
	ms := replica.node.Membership()
	ms.Epoch++
	ms.Overrides = append(ms.Overrides, protocol.Override{Seg: seg, Addr: replica.addr})
	if !replica.node.AdoptMembership(ms) {
		t.Fatal("setup: replica refused the crafted view")
	}
	owner.proxy.Schedule().Heal()
	if e := owner.node.Epoch(); e != 1 {
		t.Fatalf("stale primary epoch = %d, want 1 (gossip leaked through the partition)", e)
	}
	if e := replica.node.Epoch(); e != 2 {
		t.Fatalf("replica epoch = %d, want 2", e)
	}

	// The stale primary still grants the write lock and applies the
	// release, but its replication fan-out must be fenced; the client's
	// recovery then completes the same release at the new owner.
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 10, 20)
	if got := h.Version(); got != 2 {
		t.Errorf("version after fenced release = %d, want exactly 2", got)
	}

	if got := counterSum(owner.reg.Snapshot(), "iw_cluster_writes_fenced_total"); got < 1 {
		t.Errorf("fenced writes on stale primary = %d, want >= 1", got)
	}
	if got := counterSum(owner.reg.Snapshot(), "iw_cluster_demotions_total"); got < 1 {
		t.Errorf("demotions on stale primary = %d, want >= 1", got)
	}
	if e := owner.node.Epoch(); e != 2 {
		t.Errorf("deposed primary epoch = %d, want 2 (adopted from the fence reply)", e)
	}
	snap := replica.srv.SegmentSnapshot(seg)
	if snap == nil {
		t.Fatal("new owner has no copy after recovered release")
	}
	if snap.Version != 2 {
		t.Errorf("new owner at version %d, want 2", snap.Version)
	}

	// The committed data is reachable through the new view.
	r := newChaosClient(t, fastRetry("fence-reader"))
	if err := r.RefreshRing(replica.addr); err != nil {
		t.Fatal(err)
	}
	readVals(t, r, seg, "v", 10, 20)
}

// TestClusterReleaseNotReplicated: every placed replica must hold a
// release before it is acknowledged. With the sole replica dead (and
// no failure detector running to shrink placement), the release must
// fail typed as ErrNotReplicated rather than ack durability the
// cluster does not have.
func TestClusterReleaseNotReplicated(t *testing.T) {
	nodes := startChaosCluster(t, 3, 1, 0)
	seg := nodes[0].addr + "/ack"
	owner := nodeAt(t, nodes, nodes[0].node.Owner(seg))
	reps := owner.node.ReplicasOf(seg)
	if len(reps) == 0 {
		t.Fatal("setup: segment has no replica")
	}
	replica := nodeAt(t, nodes, reps[0])

	c := newChaosClient(t, fastRetry("noack"))
	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 1, "x")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 5) // version 1, replicated

	replica.kill()

	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Heap().WriteI32(blk.Addr, 6); err != nil {
		t.Fatal(err)
	}
	err = c.WUnlock(h)
	if err == nil {
		t.Fatal("release with a dead replica was acknowledged")
	}
	if !errors.Is(err, ErrNotReplicated) {
		t.Errorf("release error %v is not ErrNotReplicated", err)
	}

	// The write stays applied at the primary (re-covered by the next
	// successful fan-out's catch-up), but the replica never saw it.
	if snap := owner.srv.SegmentSnapshot(seg); snap == nil || snap.Version != 2 {
		t.Errorf("primary snapshot = %+v, want version 2", snap)
	}
	if snap := replica.srv.SegmentSnapshot(seg); snap == nil || snap.Version != 1 {
		t.Errorf("dead replica snapshot = %+v, want version 1", snap)
	}
}

// TestOpenOwnerDownTyped pins the typed error for an unreachable
// owner at Open time: the caller can errors.Is for ErrUnavailable
// instead of parsing a raw dial failure.
func TestOpenOwnerDownTyped(t *testing.T) {
	opts := fastRetry("down")
	opts.MaxRetries = 1
	c := newChaosClient(t, opts)
	_, err := c.Open("127.0.0.1:1/seg")
	if err == nil {
		t.Fatal("Open against a closed port succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("Open error %v is not ErrUnavailable", err)
	}
}

// fakeRedirector answers every request on one accepted connection
// with a fixed Redirect — a stand-in for a misconfigured or buggy
// cluster node.
func fakeRedirector(t *testing.T, red func(addr string) *protocol.Redirect) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	addr := ln.Addr().String()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer func() { _ = conn.Close() }()
				for {
					id, msg, err := protocol.ReadFrame(conn)
					if err != nil {
						return
					}
					var reply protocol.Message = red(addr)
					if _, ok := msg.(*protocol.Hello); ok {
						reply = &protocol.Ack{}
					}
					if err := protocol.WriteFrame(conn, id, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return addr
}

// TestOpenRedirectMismatchTyped pins the typed errors for redirects
// the client refuses to chase: an owner outside the carried
// membership (a URL/membership host mismatch) and a self-redirect.
func TestOpenRedirectMismatchTyped(t *testing.T) {
	// Redirect to an address the membership does not contain.
	addr := fakeRedirector(t, func(self string) *protocol.Redirect {
		return &protocol.Redirect{
			Seg:   self + "/s",
			Owner: "203.0.113.9:1",
			Ms: protocol.Membership{Epoch: 1, Members: []protocol.Member{
				{Addr: self},
			}},
		}
	})
	c := newChaosClient(t, fastRetry("mismatch"))
	_, err := c.Open(addr + "/s")
	if err == nil {
		t.Fatal("Open through a mismatched redirect succeeded")
	}
	if !errors.Is(err, ErrBadRedirect) {
		t.Errorf("Open error %v is not ErrBadRedirect", err)
	}

	// Redirect pointing straight back at the server that issued it.
	loopAddr := fakeRedirector(t, func(self string) *protocol.Redirect {
		return &protocol.Redirect{
			Seg:   self + "/s",
			Owner: self,
			Ms: protocol.Membership{Epoch: 1, Members: []protocol.Member{
				{Addr: self},
			}},
		}
	})
	c2 := newChaosClient(t, fastRetry("loop"))
	_, err = c2.Open(loopAddr + "/s")
	if err == nil {
		t.Fatal("Open through a self-redirect succeeded")
	}
	if !errors.Is(err, ErrRedirectLoop) {
		t.Errorf("Open error %v is not ErrRedirectLoop", err)
	}
}

// TestClusterPromoteWhileEvicted is the eviction/failover cross case
// (DESIGN.md §12): both replicas of a segment have their in-memory
// copies evicted to their journals when the primary dies. The
// promotion pipeline must fault the state back in — on the peer
// answering the catch-up Pull and on the new owner adopting it —
// before serving, so failover lands on the replicated bytes, not an
// empty stub.
func TestClusterPromoteWhileEvicted(t *testing.T) {
	nodes := startChaosCluster(t, 3, 2, 5*time.Millisecond)
	seg := nodes[0].addr + "/evc"
	primary := nodeAt(t, nodes, nodes[0].node.Owner(seg))
	var survivors []*chaosNode
	for _, n := range nodes {
		if n != primary {
			survivors = append(survivors, n)
		}
	}

	c := newChaosClient(t, fastRetry("evict-writer"))
	if err := c.RefreshRing(survivors[0].addr); err != nil {
		t.Fatal(err)
	}
	h, err := c.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), 4, "vals")
	if err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 1, 2, 3, 4) // version 1
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	writeVals(t, c, h, blk.Addr, 10, 20, 30, 40) // version 2

	// Replication is replicate-before-acknowledge: both replicas hold
	// version 2 now. Evict their in-memory copies to the journal.
	for _, n := range survivors {
		snap := n.srv.SegmentSnapshot(seg)
		if snap == nil || snap.Version != 2 {
			t.Fatalf("replica %s at %+v before eviction, want version 2", n.addr, snap)
		}
		if !n.srv.EvictSegment(seg) {
			t.Fatalf("EvictSegment refused on replica %s", n.addr)
		}
	}

	primary.kill()
	deadline := time.Now().Add(10 * time.Second)
	for survivors[0].node.Owner(seg) == primary.addr {
		if time.Now().After(deadline) {
			t.Fatal("ownership never moved off the dead primary")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh reader through the surviving ring sees the committed
	// data: the promotion faulted the evicted copies in.
	r := newChaosClient(t, fastRetry("evict-reader"))
	if err := r.RefreshRing(survivors[0].addr); err != nil {
		t.Fatal(err)
	}
	readVals(t, r, seg, "vals", 10, 20, 30, 40)

	newOwner := nodeAt(t, nodes, survivors[0].node.Owner(seg))
	if snap := newOwner.srv.SegmentSnapshot(seg); snap == nil || snap.Version != 2 {
		t.Errorf("promoted owner holds %+v, want version 2", snap)
	}
	var faults uint64
	for _, n := range survivors {
		faults += counterSum(n.reg.Snapshot(), "iw_server_segment_faults_total")
	}
	if faults == 0 {
		t.Error("promotion over evicted replicas recorded no segment fault-ins")
	}
}

package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// newTestNode builds a node with dialing stubbed out so gossip
// attempts fail instantly instead of hitting the network.
func newTestNode(self string, peers ...string) *Node {
	return NewNode(Options{
		Self:     self,
		Peers:    peers,
		Replicas: 1,
		Dial: func(addr string) (net.Conn, error) {
			return nil, net.ErrClosed
		},
	})
}

// TestNodeInitialAgreement: identically configured nodes start from
// identical views regardless of peer-list order.
func TestNodeInitialAgreement(t *testing.T) {
	a := newTestNode("h1:1", "h2:1", "h3:1")
	b := newTestNode("h2:1", "h3:1", "h1:1")
	defer a.Close()
	defer b.Close()
	am, bm := a.Membership(), b.Membership()
	if am.Epoch != 1 || bm.Epoch != 1 {
		t.Fatalf("initial epochs %d, %d", am.Epoch, bm.Epoch)
	}
	for i := range am.Members {
		if am.Members[i] != bm.Members[i] {
			t.Fatalf("views differ at %d: %+v vs %+v", i, am.Members[i], bm.Members[i])
		}
	}
	if a.Owner("h1:1/s") != b.Owner("h1:1/s") {
		t.Error("nodes disagree on placement from identical config")
	}
}

// TestNodeMarkDead: a death bumps the epoch, removes the node from
// placement, and fires the change callback.
func TestNodeMarkDead(t *testing.T) {
	n := newTestNode("h1:1", "h2:1", "h3:1")
	defer n.Close()

	var mu sync.Mutex
	var epochs []uint64
	n.OnEpochChange(func(ms protocol.Membership) {
		mu.Lock()
		epochs = append(epochs, ms.Epoch)
		mu.Unlock()
	})

	if !n.MarkDead("h2:1") {
		t.Fatal("MarkDead(h2:1) = false")
	}
	if n.MarkDead("h2:1") {
		t.Error("second MarkDead on same node should be a no-op")
	}
	if n.MarkDead("nope:1") {
		t.Error("MarkDead on unknown node should be a no-op")
	}
	if e := n.Epoch(); e != 2 {
		t.Errorf("epoch after one death = %d, want 2", e)
	}
	for _, addr := range n.Ring().Live() {
		if addr == "h2:1" {
			t.Error("dead node still on ring")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 1 || epochs[0] != 2 {
		t.Errorf("callback epochs = %v, want [2]", epochs)
	}
}

// TestNodeAdoptMembership: only strictly newer epochs are adopted.
func TestNodeAdoptMembership(t *testing.T) {
	n := newTestNode("h1:1", "h2:1")
	defer n.Close()
	stale := n.Membership() // epoch 1
	if n.AdoptMembership(stale) {
		t.Error("adopted equal-epoch view")
	}
	newer := n.Membership()
	newer.Epoch = 5
	newer.Members[0].Dead = true
	if !n.AdoptMembership(newer) {
		t.Fatal("rejected newer view")
	}
	if n.Epoch() != 5 {
		t.Errorf("epoch = %d, want 5", n.Epoch())
	}
	// The node keeps its own deep copy.
	newer.Members[1].Dead = true
	if n.Membership().Members[1].Dead {
		t.Error("adopted view shares caller's backing array")
	}
}

// TestNodeMetricsAddrAdvertisement: a node stamps its own metrics
// address onto every view it installs, adopted peer views included,
// and the equal-epoch merge machinery spreads advertisements without
// losing either side's.
func TestNodeMetricsAddrAdvertisement(t *testing.T) {
	failDial := func(addr string) (net.Conn, error) { return nil, net.ErrClosed }
	a := NewNode(Options{Self: "h1:1", Peers: []string{"h2:1"}, Replicas: 1,
		MetricsAddr: "h1:9", Dial: failDial})
	b := NewNode(Options{Self: "h2:1", Peers: []string{"h1:1"}, Replicas: 1,
		MetricsAddr: "h2:9", Dial: failDial})
	defer a.Close()
	defer b.Close()

	find := func(ms protocol.Membership, addr string) protocol.Member {
		for _, m := range ms.Members {
			if m.Addr == addr {
				return m
			}
		}
		t.Fatalf("member %s missing", addr)
		return protocol.Member{}
	}
	if got := find(a.Membership(), "h1:1").MetricsAddr; got != "h1:9" {
		t.Fatalf("initial self advertisement = %q", got)
	}

	// a learns b's view (equal epoch, divergent advertisements):
	// deterministic merge keeps both and bumps the epoch.
	if !a.AdoptMembership(b.Membership()) {
		t.Fatal("divergent equal-epoch view not merged")
	}
	am := a.Membership()
	if am.Epoch != 2 {
		t.Fatalf("merge epoch = %d, want 2", am.Epoch)
	}
	if find(am, "h1:1").MetricsAddr != "h1:9" || find(am, "h2:1").MetricsAddr != "h2:9" {
		t.Fatalf("merge lost advertisements: %+v", am.Members)
	}

	// b adopts the merged higher-epoch view and re-stamps itself; the
	// two nodes now agree.
	if !b.AdoptMembership(am) {
		t.Fatal("higher-epoch merged view not adopted")
	}
	bm := b.Membership()
	if !viewsEqual(am, bm) {
		t.Fatalf("views diverge after adoption:\n a %+v\n b %+v", am.Members, bm.Members)
	}

	// A node with no metrics address must not invent one, and a
	// re-adoption must not strip a peer's advertisement.
	if got := find(newTestNode("h9:1", "h1:1").Membership(), "h9:1").MetricsAddr; got != "" {
		t.Fatalf("unadvertised node exported %q", got)
	}
}

// TestNodeSetOverride: migration pins change placement and bump the
// epoch.
func TestNodeSetOverride(t *testing.T) {
	n := newTestNode("h1:1", "h2:1")
	defer n.Close()
	seg := "h1:1/moved"
	n.SetOverride(seg, "h2:1")
	if got := n.Owner(seg); got != "h2:1" {
		t.Errorf("Owner after override = %q", got)
	}
	if n.Epoch() != 2 {
		t.Errorf("epoch after override = %d, want 2", n.Epoch())
	}
	// Re-pointing the same segment updates in place.
	n.SetOverride(seg, "h1:1")
	if got := n.Owner(seg); got != "h1:1" {
		t.Errorf("Owner after second override = %q", got)
	}
	if len(n.Membership().Overrides) != 1 {
		t.Error("override list grew on update")
	}
}

// TestNodeRPCPlumbing exercises Call/fetchRing/pushRing against a
// minimal in-process peer speaking the cluster frames.
func TestNodeRPCPlumbing(t *testing.T) {
	peerView := protocol.Membership{
		Epoch:   9,
		Members: []protocol.Member{{Addr: "h1:1"}, {Addr: "h2:1", Dead: true}},
	}
	var gotPush protocol.Membership
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, msg, err := protocol.ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			switch m := msg.(type) {
			case *protocol.RingGet:
				_ = protocol.WriteFrame(conn, 1, &protocol.RingReply{Ms: peerView})
			case *protocol.RingPush:
				gotPush = m.Ms
				_ = protocol.WriteFrame(conn, 1, &protocol.Ack{})
			default:
				_ = protocol.WriteFrame(conn, 1, &protocol.ErrorReply{Code: protocol.CodeBadRequest, Text: "?"})
			}
			conn.Close()
		}
	}()

	reg := obs.NewRegistry()
	n := NewNode(Options{
		Self:        "self:1",
		Peers:       []string{ln.Addr().String()},
		Metrics:     reg,
		DialTimeout: time.Second,
	})
	defer n.Close()

	ms, err := n.fetchRing(ln.Addr().String())
	if err != nil {
		t.Fatalf("fetchRing: %v", err)
	}
	if ms.Epoch != 9 {
		t.Errorf("fetched epoch %d, want 9", ms.Epoch)
	}
	if !n.AdoptMembership(ms) {
		t.Error("fetched view not adopted")
	}

	if err := n.pushRing(ln.Addr().String(), n.Membership()); err != nil {
		t.Fatalf("pushRing: %v", err)
	}
	if gotPush.Epoch != 9 {
		t.Errorf("peer received epoch %d, want 9", gotPush.Epoch)
	}

	// An ErrorReply from the peer surfaces as an error.
	if _, err := n.Call(ln.Addr().String(), &protocol.Migrate{Seg: "x", Target: "y"}); err == nil {
		t.Error("Call returning ErrorReply did not error")
	}

	snap := reg.Snapshot()
	if snap.Gauges["iw_cluster_epoch"] != 9 {
		t.Errorf("iw_cluster_epoch = %v, want 9", snap.Gauges["iw_cluster_epoch"])
	}
	if snap.Gauges["iw_cluster_members_dead"] != 1 {
		t.Errorf("iw_cluster_members_dead = %v, want 1", snap.Gauges["iw_cluster_members_dead"])
	}
	ln.Close()
	<-done
}

// TestNodeEqualEpochMerge: two nodes that bump the epoch concurrently
// (one marks a death, the other commits a migration) diverge at the
// same epoch; adopting each other's half merges both changes into the
// same deterministic epoch+1 view on each side.
func TestNodeEqualEpochMerge(t *testing.T) {
	a := newTestNode("h1:1", "h2:1", "h3:1")
	b := newTestNode("h2:1", "h3:1", "h1:1")
	defer a.Close()
	defer b.Close()

	a.MarkDead("h3:1")
	b.SetOverride("h1:1/moved", "h2:1")
	av, bv := a.Membership(), b.Membership()
	if av.Epoch != 2 || bv.Epoch != 2 {
		t.Fatalf("divergence setup: epochs %d, %d, want 2, 2", av.Epoch, bv.Epoch)
	}

	if !a.AdoptMembership(bv) {
		t.Fatal("a did not merge b's divergent equal-epoch view")
	}
	if !b.AdoptMembership(av) {
		t.Fatal("b did not merge a's divergent equal-epoch view")
	}

	am, bm := a.Membership(), b.Membership()
	if am.Epoch != 3 || bm.Epoch != 3 {
		t.Errorf("merged epochs %d, %d, want 3, 3", am.Epoch, bm.Epoch)
	}
	if !viewsEqual(am, bm) {
		t.Fatalf("merged views differ:\n a: %+v\n b: %+v", am, bm)
	}
	if a.Owner("h1:1/moved") != "h2:1" || b.Owner("h1:1/moved") != "h2:1" {
		t.Error("override lost in merge")
	}
	for _, addr := range a.Ring().Live() {
		if addr == "h3:1" {
			t.Error("dead mark lost in merge")
		}
	}
	// Re-offering the already-merged content changes nothing more.
	if a.AdoptMembership(bm) {
		t.Error("adopted an equal-epoch identical view")
	}
}

// TestNodeRevive: a dead member returns to placement with an epoch
// bump; revives of live or unknown members are no-ops.
func TestNodeRevive(t *testing.T) {
	n := newTestNode("h1:1", "h2:1", "h3:1")
	defer n.Close()
	if n.Revive("h2:1") {
		t.Error("Revive of a live member should be a no-op")
	}
	n.MarkDead("h2:1")
	if !n.Revive("h2:1") {
		t.Fatal("Revive(h2:1) = false")
	}
	if n.Revive("nope:1") {
		t.Error("Revive of an unknown member should be a no-op")
	}
	if e := n.Epoch(); e != 3 {
		t.Errorf("epoch after death+revival = %d, want 3", e)
	}
	found := false
	for _, addr := range n.Ring().Live() {
		if addr == "h2:1" {
			found = true
		}
	}
	if !found {
		t.Error("revived member not back on the ring")
	}
}

// TestNodeRejoinHandshake: probePeers revives a reachable dead-marked
// member, but only after pushing it the view in which it is still dead
// so the rejoining node demotes before placement trusts it again.
func TestNodeRejoinHandshake(t *testing.T) {
	var mu sync.Mutex
	var pushes []protocol.Membership
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_, msg, err := protocol.ReadFrame(conn)
			if err != nil {
				conn.Close()
				continue
			}
			switch m := msg.(type) {
			case *protocol.RingGet:
				_ = protocol.WriteFrame(conn, 1, &protocol.RingReply{Ms: protocol.Membership{Epoch: 1}})
			case *protocol.RingPush:
				mu.Lock()
				pushes = append(pushes, m.Ms)
				mu.Unlock()
				_ = protocol.WriteFrame(conn, 1, &protocol.Ack{})
			}
			conn.Close()
		}
	}()

	peer := ln.Addr().String()
	n := NewNode(Options{Self: "self:1", Peers: []string{peer}, DialTimeout: time.Second})
	defer n.Close()
	n.MarkDead(peer)
	n.probePeers()

	if e := n.Epoch(); e != 3 {
		t.Errorf("epoch after rejoin = %d, want 3 (death + revival)", e)
	}
	live := false
	for _, addr := range n.Ring().Live() {
		if addr == peer {
			live = true
		}
	}
	if !live {
		t.Fatal("reachable dead member was not revived")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(pushes) == 0 {
		t.Fatal("no membership pushed to the rejoining member")
	}
	first := pushes[0]
	deadInFirst := false
	for _, m := range first.Members {
		if m.Addr == peer && m.Dead {
			deadInFirst = true
		}
	}
	if !deadInFirst {
		t.Errorf("first push must carry the still-dead view; got %+v", first)
	}
}

// TestNodeHeartbeatMarksDead: the probe loop declares an unreachable
// peer dead after FailureThreshold consecutive failures.
func TestNodeHeartbeatMarksDead(t *testing.T) {
	n := NewNode(Options{
		Self:             "self:1",
		Peers:            []string{"gone:1"},
		Heartbeat:        5 * time.Millisecond,
		FailureThreshold: 2,
		DialTimeout:      50 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			return nil, net.ErrClosed
		},
	})
	n.Start()
	defer n.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.Epoch() > 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.Epoch() == 1 {
		t.Fatal("heartbeat never marked the unreachable peer dead")
	}
	for _, addr := range n.Ring().Live() {
		if addr == "gone:1" {
			t.Error("unreachable peer still live")
		}
	}
}

// TestAdvertiseAddr: a wildcard bind advertises the self host (or
// loopback when self has none) with the bound port; anything else is
// advertised as bound.
func TestAdvertiseAddr(t *testing.T) {
	for _, tc := range []struct{ bound, self, want string }{
		{"10.0.0.5:9090", "host1:7777", "10.0.0.5:9090"},
		{"metrics.local:9090", "host1:7777", "metrics.local:9090"},
		{":9090", "host1:7777", "host1:9090"},
		{"0.0.0.0:9090", "host1:7777", "host1:9090"},
		{"[::]:9090", "host1:7777", "host1:9090"},
		{":9090", ":7777", "127.0.0.1:9090"},
		{"0.0.0.0:9090", "", "127.0.0.1:9090"},
		{"not-an-addr", "host1:7777", "not-an-addr"},
	} {
		if got := AdvertiseAddr(tc.bound, tc.self); got != tc.want {
			t.Errorf("AdvertiseAddr(%q, %q) = %q, want %q", tc.bound, tc.self, got, tc.want)
		}
	}
}

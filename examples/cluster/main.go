// Command cluster runs a three-node InterWeave cluster inside one
// process and walks the full DESIGN.md §7 story end to end:
// consistent-hash placement, transparent redirect routing, replica
// diff streaming, primary failover in the middle of a write, and live
// segment migration. Each server sits behind a fault-injection proxy
// (internal/faultnet) whose address is the node's cluster identity,
// so "kill the primary" is one proxy.Close() — the machine vanishes
// mid-connection exactly as a crashed host would.
//
// Run it self-contained:
//
//	go run ./examples/cluster
//	make cluster-demo
//
// The same topology can be built out of real processes with iwserver's
// cluster flags (DESIGN.md §7); this example keeps everything
// in one binary so the failure injection is deterministic.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"interweave"
	"interweave/internal/cluster"
	"interweave/internal/faultnet"
	"interweave/internal/mem"
	"interweave/internal/obs"
)

// node is one cluster member: a server listening on a private
// address, fronted by a faultnet proxy whose address is the identity
// peers and clients dial.
type node struct {
	srv   *interweave.Server
	ring  *cluster.Node
	proxy *faultnet.Proxy
	addr  string
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nodes, err := startCluster(3, 1)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			n.ring.Close()
			_ = n.srv.Close()
			_ = n.proxy.Close()
		}
	}()
	for i, n := range nodes {
		fmt.Printf("node %d up on %s\n", i, n.addr)
	}

	// The writer names every segment after node 0 — the "home" server
	// embedded in a segment URL — but the consistent-hash ring spreads
	// ownership across all three members. The trace hook prints each
	// redirect and reroute as the client follows them.
	w, err := interweave.NewClient(interweave.Options{
		Name: "writer",
		// Retry fast enough to ride out the ~3 missed heartbeats the
		// survivors need before they declare the dead node dead.
		MaxRetries:      10,
		RetryBackoff:    5 * time.Millisecond,
		RetryMaxBackoff: 50 * time.Millisecond,
		Trace: func(e obs.Event) {
			if e.Name == "redirect" || e.Name == "reroute" {
				fmt.Printf("  client %s %s (%s)\n", e.Name, e.Seg, e.RPC)
			}
		},
	})
	if err != nil {
		return err
	}
	defer w.Close()
	// Seed the membership so the client can reroute even if the first
	// server it talks to is the one that dies.
	if err := w.RefreshRing(nodes[0].addr); err != nil {
		return err
	}

	fmt.Println("\n-- placement: four segments named after node 0, owned ring-wide --")
	segs := make([]string, 4)
	blocks := make([]mem.Addr, 4)
	for i := range segs {
		segs[i] = fmt.Sprintf("%s/demo%d", nodes[0].addr, i)
		h, err := w.Open(segs[i])
		if err != nil {
			return err
		}
		if err := w.WLock(h); err != nil {
			return err
		}
		blk, err := w.Alloc(h, interweave.Int32(), 1, "v")
		if err != nil {
			return err
		}
		blocks[i] = blk.Addr
		if err := w.Heap().WriteI32(blk.Addr, int32(100+i)); err != nil {
			return err
		}
		if err := w.WUnlock(h); err != nil {
			return err
		}
		fmt.Printf("  %s -> owner %s\n", segs[i], nodes[0].ring.Owner(segs[i]))
	}

	// Pick a victim segment whose owner is not node 0, so a survivor
	// is left holding the membership when the owner dies.
	victim := -1
	for i, s := range segs {
		if nodes[0].ring.Owner(s) != nodes[0].addr {
			victim = i
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("ring placed every segment on node 0 (expected a spread)")
	}
	seg := segs[victim]
	owner := nodeIndex(nodes, nodes[0].ring.Owner(seg))

	fmt.Printf("\n-- failover: kill node %d (owner of %s) mid-write --\n", owner, seg)
	h, err := w.Open(seg)
	if err != nil {
		return err
	}
	if err := w.WLock(h); err != nil {
		return err
	}
	if err := w.Heap().WriteI32(blocks[victim], 999); err != nil {
		return err
	}
	_ = nodes[owner].proxy.Close() // the machine is gone
	if err := w.WUnlock(h); err != nil {
		return err
	}
	// The victim's owner is never node 0 (we picked it that way), so
	// node 0 is always a survivor to observe the cluster through.
	survivor := nodes[0]
	newOwner := survivor.ring.Owner(seg)
	fmt.Printf("  release survived; segment now at version %d, owner %s (epoch %d)\n",
		h.Version(), newOwner, survivor.ring.Epoch())

	// Migrate another segment to a live node that does not own it, and
	// prove the data moved by reading through a fresh client that knows
	// nothing but the (stale) home address in the segment name.
	other := (victim + 1) % len(segs)
	var target *node
	for i, n := range nodes {
		if i != owner && n.addr != survivor.ring.Owner(segs[other]) {
			target = n
			break
		}
	}
	if target != nil {
		fmt.Printf("\n-- migrate %s to %s --\n", segs[other], target.addr)
		if err := w.Migrate(segs[other], target.addr); err != nil {
			return err
		}
		fmt.Printf("  owner now %s (epoch %d)\n", survivor.ring.Owner(segs[other]), survivor.ring.Epoch())
	}

	fmt.Println("\n-- fresh reader resolves every segment through redirects --")
	r, err := interweave.NewClient(interweave.Options{Name: "reader"})
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.RefreshRing(survivor.addr); err != nil {
		return err
	}
	for i, s := range segs {
		want := int32(100 + i)
		if i == victim {
			want = 999
		}
		rh, err := r.Open(s)
		if err != nil {
			return err
		}
		if err := r.RLock(rh); err != nil {
			return err
		}
		blk, ok := rh.Mem().BlockByName("v")
		if !ok {
			return fmt.Errorf("block %q missing from %s", "v", s)
		}
		got, err := r.Heap().ReadI32(blk.Addr)
		if err != nil {
			return err
		}
		if err := r.RUnlock(rh); err != nil {
			return err
		}
		status := "ok"
		if got != want {
			status = fmt.Sprintf("MISMATCH want %d", want)
		}
		fmt.Printf("  %s = %d (%s)\n", s, got, status)
	}
	fmt.Println("\ncluster demo done")
	return nil
}

// startCluster brings up n nodes with r replicas per segment, each a
// server behind a faultnet proxy, every member knowing the full peer
// set so the epoch-1 views agree.
func startCluster(n, r int) ([]*node, error) {
	nodes := make([]*node, n)
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		p, err := faultnet.NewProxy(ln.Addr().String(), faultnet.NewSchedule())
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		nodes[i] = &node{proxy: p, addr: p.Addr()}
		addrs[i] = p.Addr()
	}
	for i, nd := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nd.ring = cluster.NewNode(cluster.Options{
			Self:             nd.addr,
			Peers:            peers,
			Replicas:         r,
			Heartbeat:        10 * time.Millisecond,
			FailureThreshold: 3,
			DialTimeout:      time.Second,
		})
		srv, err := interweave.NewServer(interweave.ServerOptions{Cluster: nd.ring})
		if err != nil {
			return nil, err
		}
		nd.srv = srv
		go func(ln net.Listener) { _ = srv.Serve(ln) }(listeners[i])
		nd.ring.Start()
	}
	return nodes, nil
}

// nodeIndex maps a member address back to its index.
func nodeIndex(nodes []*node, addr string) int {
	for i, n := range nodes {
		if n.addr == addr {
			return i
		}
	}
	return -1
}

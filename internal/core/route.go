package core

import (
	"errors"
	"fmt"

	"interweave/internal/cluster"
	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Cluster-aware request routing (DESIGN.md §7). Segment names embed a
// "home" server address, but in cluster mode the consistent-hash ring
// may place the segment on any member. A non-owning server answers
// with a Redirect carrying the current membership; the client follows
// it transparently, caches the learned route per segment, and adopts
// the membership so later failures can be rerouted without a server
// telling it where to go.

// Errors surfaced by cluster routing.
var (
	// ErrRedirectLoop reports a redirect chain that did not converge
	// on an owner within the hop budget (or pointed straight back at
	// the server that issued it).
	ErrRedirectLoop = errors.New("core: redirect loop")
	// ErrBadRedirect reports a redirect naming an owner that is not a
	// live member of the cluster membership it carried — a server bug
	// or a URL/membership mismatch the client refuses to chase.
	ErrBadRedirect = errors.New("core: redirect to address outside cluster membership")
	// ErrUnavailable reports that the segment's server (after any
	// rerouting) could not be reached.
	ErrUnavailable = errors.New("core: server unavailable")
)

// maxRedirectHops bounds one logical operation's redirect chain. With
// epoch-monotonic membership adoption, servers sharing an epoch agree
// on every owner, so a chain only grows past one hop when it crosses
// an epoch bump; four hops is far beyond any reachable configuration
// churn and exists purely to turn a routing bug into a clean error.
const maxRedirectHops = 4

// addrFor resolves the server address for a segment: a cached route
// learned from redirects wins over the address embedded in the name.
// Caller holds c.mu.
func (c *Client) addrFor(segName string) (string, error) {
	if a, ok := c.routes[segName]; ok {
		return a, nil
	}
	return serverAddrOf(segName)
}

// adoptMembership installs a cluster membership if it is newer than
// the cached one (epoch-monotonic: stale gossip can never roll the
// client's view backwards). Caller holds c.mu.
func (c *Client) adoptMembership(ms protocol.Membership) {
	if c.ms != nil && ms.Epoch <= c.ms.Epoch {
		return
	}
	cp := ms.Clone()
	c.ms = &cp
	c.ring = cluster.BuildRing(cp)
}

// followRedirect processes one Redirect reply: validate the named
// owner against the carried membership, guard against loops, adopt
// the membership, and cache the new route. from is the server the
// redirect came from — which may differ from the cached route when
// the cache moved under an open connection (e.g. a Migrate updated
// it while the segment still talked to the old owner). hops counts
// the chain across the caller's whole retry loop. Caller holds c.mu.
func (c *Client) followRedirect(segName, from string, red *protocol.Redirect, hops *int) error {
	*hops++
	if c.ins != nil {
		c.ins.redirects.Inc()
	}
	c.trace(obs.Event{Name: "redirect", Seg: segName, RPC: from + "->" + red.Owner})
	if *hops > maxRedirectHops {
		return fmt.Errorf("%w: %q not owned after %d hops", ErrRedirectLoop, segName, maxRedirectHops)
	}
	if !memberAlive(red.Ms, red.Owner) {
		return fmt.Errorf("%w: %q redirected to %q", ErrBadRedirect, segName, red.Owner)
	}
	if red.Owner == from {
		return fmt.Errorf("%w: %s redirected %q to itself", ErrRedirectLoop, from, segName)
	}
	if c.ms != nil && red.Ms.Epoch < c.ms.Epoch {
		// The redirecting server's view is older than ours. Trust our
		// own ring when it disagrees; the hop bound still terminates
		// the pathological case of every view being wrong.
		if own := c.ring.Owner(segName); own != "" && own != from {
			c.routes[segName] = own
			return nil
		}
	}
	c.adoptMembership(red.Ms)
	c.routes[segName] = red.Owner
	return nil
}

// memberAlive reports whether addr is a live member of ms.
func memberAlive(ms protocol.Membership, addr string) bool {
	for _, m := range ms.Members {
		if m.Addr == addr {
			return !m.Dead
		}
	}
	return false
}

// rerouteSeg repoints a segment's route after a failure reaching its
// current server: it polls the other cluster members for a newer
// membership and recomputes the owner from the resulting ring. A
// no-op for clients that never learned a membership (single-server
// deployments). Reports whether the route changed. Caller holds c.mu.
func (c *Client) rerouteSeg(segName string) bool {
	if c.ms == nil {
		return false
	}
	failed, err := c.addrFor(segName)
	if err != nil {
		return false
	}
	c.refreshMembership(failed)
	if c.ring == nil {
		return false
	}
	owner := c.ring.Owner(segName)
	if owner == "" || owner == failed {
		return false
	}
	c.routes[segName] = owner
	if c.ins != nil {
		c.ins.reroutes.Inc()
	}
	c.trace(obs.Event{Name: "reroute", Seg: segName, RPC: failed + "->" + owner})
	return true
}

// refreshMembership asks other live members (skipping the failed one)
// for the current membership, adopting the first answer. The ring a
// survivor returns after failure detection has the dead node marked
// and the epoch bumped, which is exactly what rerouteSeg needs.
// Caller holds c.mu.
func (c *Client) refreshMembership(skip string) {
	for _, m := range c.ms.Members {
		if !m.Dead && m.Addr != skip && c.fetchRing(m.Addr) == nil {
			return
		}
	}
}

// RefreshRing fetches the cluster membership from the server at addr
// and adopts it if newer than the cached view. Clients normally learn
// the membership from the first Redirect they follow; RefreshRing
// seeds it explicitly, which lets a client whose first server is also
// the owner of everything it opens survive that server's death.
// Calling it against a non-clustered server returns the server's
// error.
func (c *Client) RefreshRing(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fetchRing(addr)
}

// fetchRing is the one RingGet-and-adopt: it asks the server at addr
// for its membership, in one attempt, and adopts the answer if newer
// than the cached view. Caller holds c.mu; the dial inside connTo
// releases it.
func (c *Client) fetchRing(addr string) error {
	sc, err := c.connTo(addr)
	if err != nil {
		return err
	}
	var have uint64
	if c.ms != nil {
		have = c.ms.Epoch
	}
	reply, err := c.rpc(sc, &protocol.RingGet{HaveEpoch: have}, nil, 0)
	if err != nil {
		return err
	}
	rr, ok := reply.(*protocol.RingReply)
	if !ok {
		return fmt.Errorf("core: unexpected reply %T to ring fetch", reply)
	}
	c.adoptMembership(rr.Ms)
	return nil
}

// Migrate asks the cluster to move segName to the server at target.
// The request routes to the segment's current owner like any other
// segment RPC; the owner drains in-flight writers behind a write-lock
// barrier, ships a snapshot to the target, and pins the new owner in
// the membership (DESIGN.md §7.4). Against a non-clustered server the
// server's error is returned.
func (c *Client) Migrate(segName, target string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.tracer.Start("client.Migrate")
	defer sp.End()
	reply, err := c.call(segName, nil, &protocol.Migrate{Seg: segName, Target: target}, sp)
	if err != nil {
		sp.Error(err)
		return fmt.Errorf("core: migrating %q: %w", segName, err)
	}
	if _, ok := reply.(*protocol.Ack); !ok {
		return fmt.Errorf("core: unexpected reply %T to migrate", reply)
	}
	c.routes[segName] = target
	return nil
}

// Forward issues a raw protocol message against the server currently
// routed for segName, with the client's full routing stack behind it:
// the redirect-learned route (or the URL's home server) picks the
// target, Redirect replies are followed and cached, transport failures
// of retryable RPCs are retried with backoff, and reroutes consult the
// ring. The reply is returned as-is; server-reported errors come back
// as *protocol.ErrorReply in the error chain.
//
// This is the proxy tier's upstream primitive (DESIGN.md §11): a proxy
// relays downstream WriteLock/WriteUnlock/TxCommit frames verbatim and
// follows its mirrors with Subscribe, without materialising core
// segment state for them. Note the retry semantics are the same as a
// direct client's: WriteUnlock and TxCommit get at most one send per
// call.
func (c *Client) Forward(segName string, m protocol.Message) (protocol.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, errClientClosed
	}
	return c.call(segName, nil, m, nil)
}

// SeedRoute pins the route for segName to addr, as if a redirect had
// taught it. A proxy uses this to aim a segment at its configured
// upstream — which may be another proxy, not the owner embedded in the
// segment URL — before the first Forward; later redirects and reroutes
// overwrite it normally.
func (c *Client) SeedRoute(segName, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.routes[segName] = addr
}

// RouteTo reports the cached route for segName, or "" when none is
// cached (the next request would fall back to the segment URL's home
// server). Lets a proxy detect that rerouting abandoned its seeded
// upstream and decide whether to re-seed.
func (c *Client) RouteTo(segName string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routes[segName]
}

// ClusterEpoch returns the epoch of the cached cluster membership, or
// zero when the client has never seen one.
func (c *Client) ClusterEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ms == nil {
		return 0
	}
	return c.ms.Epoch
}

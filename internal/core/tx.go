package core

import (
	"errors"
	"fmt"
	"sort"

	"interweave/internal/diff"
	"interweave/internal/protocol"
)

// Transactions (the paper's Section 6 work-in-progress, single-server
// case): a process write-locks several segments, modifies them, and
// commits all of the changes atomically — other clients observe
// either every segment's new version or none of them.

// ErrTxServers reports a transaction spanning more than one server.
var ErrTxServers = errors.New("core: transaction segments live on different servers")

// TxLock acquires write locks on all the given segments in a
// canonical (name-sorted) order, so concurrent transactions over
// overlapping segment sets cannot deadlock.
func (c *Client) TxLock(hs ...*Segment) error {
	if len(hs) == 0 {
		return errors.New("core: empty transaction")
	}
	sorted := append([]*Segment(nil), hs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].s.name < sorted[j].s.name })
	for i, h := range sorted {
		if err := c.WLock(h); err != nil {
			for j := i - 1; j >= 0; j-- {
				_ = c.WUnlock(sorted[j])
			}
			return err
		}
	}
	return nil
}

// TxCommit collects each write-locked segment's diff and publishes
// them in one atomic server operation, then releases the locks. Each
// part is collected and settled exactly as a WUnlock is. On a commit
// failure no segment advances, the locks are released, and every part
// abandons its local modifications: the parts' cached copies reset and
// are refetched in full on the next lock.
func (c *Client) TxCommit(hs ...*Segment) error {
	sp := c.tracer.Start("client.TxCommit")
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(hs) == 0 {
		return errors.New("core: empty transaction")
	}
	first := hs[0].s
	for i, h := range hs {
		if !h.s.writer {
			return fmt.Errorf("%w: write (TxCommit %q)", ErrNotLocked, h.s.name)
		}
		if h.s.conn != first.conn {
			return fmt.Errorf("%w: %q vs %q", ErrTxServers, first.name, h.s.name)
		}
		// A segment collected twice would overwrite its first part's
		// runs (segment.runBuf).
		for _, prev := range hs[:i] {
			if prev.s == h.s {
				return fmt.Errorf("core: segment %q appears twice in transaction", h.s.name)
			}
		}
	}
	msg := &protocol.TxCommit{Parts: make([]protocol.WriteUnlock, len(hs))}
	stats := make([]diff.Stats, len(hs))
	for i, h := range hs {
		part, st, err := c.collectRelease(h.s, sp)
		if err != nil {
			sp.Error(err)
			return err
		}
		msg.Parts[i], stats[i] = *part, st
	}

	reply, err := c.call(first.name, first, msg, sp)
	tr, ok := reply.(*protocol.TxReply)
	if err != nil {
		err = fmt.Errorf("core: transaction commit: %w", err)
	} else if !ok || len(tr.Versions) != len(hs) {
		err = fmt.Errorf("core: unexpected reply %T to transaction", reply)
	}
	for i, h := range hs {
		var version uint32
		if err == nil {
			version = tr.Versions[i]
		}
		c.endRelease(h.s, stats[i], version, err)
	}
	sp.Error(err)
	return err
}

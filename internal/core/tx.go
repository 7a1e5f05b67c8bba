package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"interweave/internal/diff"
	"interweave/internal/protocol"
	"interweave/internal/wire"
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
// them in one atomic server operation, then releases the locks. On a
// commit failure no segment advances and the locks are released; the
// local modifications remain in the caller's cache (at the old
// version) and are discarded on the next update.
func (c *Client) TxCommit(hs ...*Segment) error {
	sp := c.tracer.Start("client.TxCommit")
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(hs) == 0 {
		return errors.New("core: empty transaction")
	}
	first := hs[0].s
	msg := &protocol.TxCommit{Parts: make([]protocol.WriteUnlock, len(hs))}
	collected := make([]*wire.SegmentDiff, len(hs))
	stats := make([]diff.Stats, len(hs))
	for i, h := range hs {
		s := h.s
		if !s.writer {
			return fmt.Errorf("%w: write (TxCommit %q)", ErrNotLocked, s.name)
		}
		if s.conn != first.conn {
			return fmt.Errorf("%w: %q vs %q", ErrTxServers, first.name, s.name)
		}
		d, err := diff.CollectSegment(s.m, diff.CollectOptions{
			NoDiff:  s.noDiff,
			Freed:   s.freed,
			Stats:   &stats[i],
			Swizzle: c.swizzler(),
		})
		if err != nil {
			return fmt.Errorf("core: collecting diff of %q: %w", s.name, err)
		}
		collected[i] = d
		if c.ins != nil {
			c.ins.diffBytes.Add(uint64(stats[i].Bytes))
			c.ins.diffUnitsSent.Add(uint64(stats[i].Units))
			c.ins.diffScanned.Add(uint64(stats[i].ScannedBytes))
		}
		attachDescDefs(s, d)
		s.wseq++
		part := protocol.WriteUnlock{Seg: s.name, WriterID: c.writerID, Seq: s.wseq}
		if !d.Empty() {
			part.Diff = d
		}
		msg.Parts[i] = part
	}

	reply, err := c.callSeg(first, msg, sp)
	if err != nil {
		// The commit failed as a unit; release local locks so the
		// caller can recover (retry after a fresh TxLock).
		if errCode(err) == protocol.CodeNotReplicated {
			err = fmt.Errorf("%w: %w", ErrNotReplicated, err)
		}
		for _, h := range hs {
			h.s.releaseWrite(c)
		}
		sp.Error(err)
		return fmt.Errorf("core: transaction commit: %w", err)
	}
	tr, ok := reply.(*protocol.TxReply)
	if !ok || len(tr.Versions) != len(hs) {
		for _, h := range hs {
			h.s.releaseWrite(c)
		}
		return fmt.Errorf("core: unexpected reply %T to transaction", reply)
	}
	now := time.Now()
	for i, h := range hs {
		s := h.s
		s.lastCollect = stats[i]
		s.version = tr.Versions[i]
		s.state.Version = tr.Versions[i]
		s.state.FetchedAt = now
		s.state.Invalidated = false
		s.freed = nil
		s.m.DropTwins()
		s.m.Unprotect()
		s.updateNoDiff(c, stats[i].Units)
		s.releaseWrite(c)
	}
	return nil
}

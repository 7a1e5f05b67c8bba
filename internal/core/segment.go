package core

import (
	"errors"
	"fmt"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/diff"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/swizzle"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// Errors returned by lock and allocation operations.
var (
	// ErrNotLocked reports an operation that requires a lock the
	// caller does not hold.
	ErrNotLocked = errors.New("core: segment is not locked in the required mode")
	// ErrNoSuchType reports a diff referencing an unregistered type
	// descriptor.
	ErrNoSuchType = errors.New("core: unregistered type descriptor")
	// ErrWriteConflict reports a write release abandoned because
	// another client committed while this client was disconnected
	// mid-release. The local modifications are dropped and the cached
	// copy is refetched in full on the next lock acquisition.
	ErrWriteConflict = errors.New("core: write release lost a conflict during reconnect")
	// ErrNotReplicated reports a write release the primary applied but
	// could not replicate to every placed replica; under the cluster's
	// replicate-before-acknowledge contract the release is reported
	// failed rather than acknowledged with durability it does not
	// have. The write is visible at the primary and re-syncs to the
	// replicas with the next successful release.
	ErrNotReplicated = errors.New("core: write release not replicated to all replicas")
)

// No-diff mode (Section 3.3): hotReleasesToNoDiff consecutive write
// critical sections that each modify at least the noDiffOn fraction of
// a segment's units switch it to whole-segment transmission.
const (
	hotReleasesToNoDiff = 2
	noDiffOn            = 0.75
)

// segment is the client-side state of one cached segment.
type segment struct {
	name string
	m    *mem.SegMem
	conn *serverConn

	version  uint32
	policy   coherence.Policy
	state    coherence.State
	adaptive coherence.Adaptive

	// Local reader-writer gate among this process's goroutines.
	readers      int
	writer       bool
	writeWaiters int

	// Outgoing bookkeeping.
	// wseq numbers this client's write releases of the segment;
	// together with the client's writerID it keys the server's
	// at-most-once dedup of retried releases.
	wseq          uint32
	freed         []uint32
	nextLocalDesc uint32
	descForType   map[*types.Type]uint32
	descBytes     map[uint32][]byte
	// Incoming descriptor registry, keyed by server-global serial.
	layoutByDesc map[uint32]*types.Layout

	// No-diff mode state (Section 3.3).
	noDiff      bool
	noDiffCount int
	hotReleases int

	// LastCollect reports the most recent diff collection, for
	// statistics and the benchmark harness.
	lastCollect diff.Stats
}

// Segment is an opaque handle to an open segment, the IW_handle_t of
// the paper's API.
type Segment struct {
	c *Client
	s *segment
}

// Name returns the segment's URL.
func (h *Segment) Name() string { return h.s.name }

// Version returns the cached segment version.
func (h *Segment) Version() uint32 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.s.version
}

// Mem exposes the segment's local memory image (block lookups by name
// or serial). Use it only under a lock.
func (h *Segment) Mem() *mem.SegMem { return h.s.m }

// LastCollectStats returns statistics from the segment's most recent
// diff collection.
func (h *Segment) LastCollectStats() diff.Stats {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.s.lastCollect
}

// NoDiffMode reports whether the segment currently transmits whole
// blocks instead of diffing.
func (h *Segment) NoDiffMode() bool {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.s.noDiff
}

// Evict drops the segment's cached copy: its subsegments are
// unmapped, any subscription is cancelled, and the handle becomes
// unusable. A later Open re-fetches from the server. Eviction
// requires that no locks are held and — because other cached
// segments may hold swizzled pointers into this one — is refused
// while any other cached segment exists (the paper's library never
// relocates or unmaps live data for the same reason).
func (c *Client) Evict(h *Segment) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := h.s
	if s.writer || s.readers > 0 {
		return fmt.Errorf("core: evicting %q while locked", s.name)
	}
	for name := range c.segs {
		if name != s.name {
			return fmt.Errorf("core: cannot evict %q: segment %q may hold pointers into it", s.name, name)
		}
	}
	if s.state.Subscribed {
		_, _ = c.rpc(s.conn, &protocol.Unsubscribe{Seg: s.name}, nil, 0)
	}
	if err := c.heap.DropSegment(s.name); err != nil {
		return err
	}
	delete(c.segs, s.name)
	return nil
}

// Open opens the named segment — "host:port/path" — creating it at
// its server if it does not exist (IW_open_segment). The local copy
// is reserved (blocks get addresses) but no data travels until the
// first lock acquisition.
func (c *Client) Open(name string) (*Segment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.openShell(name, true)
	if err != nil {
		return nil, err
	}
	return &Segment{c: c, s: s}, nil
}

// openShell fetches or creates the segment's local shell. Caller
// holds c.mu.
func (c *Client) openShell(name string, create bool) (*segment, error) {
	if s, ok := c.segs[name]; ok {
		return s, nil
	}
	sp := c.tracer.Start("client.Open")
	defer sp.End()
	reply, err := c.call(name, nil, &protocol.OpenSegment{Name: name, Create: create}, sp)
	if err != nil {
		return nil, fmt.Errorf("core: opening %q: %w", name, err)
	}
	or, ok := reply.(*protocol.OpenReply)
	if !ok {
		return nil, fmt.Errorf("core: unexpected reply %T to open", reply)
	}
	// The open may have raced with another goroutine's shell fetch.
	if s, ok := c.segs[name]; ok {
		return s, nil
	}
	sm, err := c.heap.NewSegment(name)
	if err != nil {
		return nil, err
	}
	s := &segment{
		name:          name,
		m:             sm,
		policy:        c.opts.DefaultPolicy,
		nextLocalDesc: 1,
		descForType:   make(map[*types.Type]uint32),
		descBytes:     make(map[uint32][]byte),
		layoutByDesc:  make(map[uint32]*types.Layout),
	}
	c.segs[name] = s
	if or.Dir != nil {
		if err := c.applyIncoming(s, or.Dir, false); err != nil {
			return nil, fmt.Errorf("core: applying directory of %q: %w", name, err)
		}
	}
	return s, nil
}

// refreshDir re-fetches the block directory, materializing blocks
// created since the shell was opened. Caller holds c.mu.
func (c *Client) refreshDir(s *segment) error {
	reply, err := c.call(s.name, s, &protocol.OpenSegment{Name: s.name, Create: false}, nil)
	if err != nil {
		return err
	}
	or, ok := reply.(*protocol.OpenReply)
	if !ok {
		return fmt.Errorf("core: unexpected reply %T to open", reply)
	}
	if or.Dir == nil {
		return nil
	}
	return c.applyIncoming(s, or.Dir, false)
}

// registerIncomingDescs decodes and caches descriptors carried by a
// diff. Caller holds c.mu.
func (c *Client) registerIncomingDescs(s *segment, d *wire.SegmentDiff) error {
	for _, dd := range d.Descs {
		if _, ok := s.layoutByDesc[dd.Serial]; ok {
			continue
		}
		t, err := types.Unmarshal(dd.Bytes)
		if err != nil {
			return fmt.Errorf("core: descriptor %d: %w", dd.Serial, err)
		}
		l, err := c.layouts.Of(t, c.prof)
		if err != nil {
			return fmt.Errorf("core: layout for descriptor %d: %w", dd.Serial, err)
		}
		s.layoutByDesc[dd.Serial] = l
	}
	return nil
}

// applyIncoming applies a server diff (or directory) to the local
// copy. When advance is true the cached version advances to
// d.Version. Caller holds c.mu.
func (c *Client) applyIncoming(s *segment, d *wire.SegmentDiff, advance bool) error {
	if err := c.registerIncomingDescs(s, d); err != nil {
		return err
	}
	// The bulk unswizzler resolves the vast majority of MIPs from
	// its block cache; the slow path handles MIPs into segments (or
	// blocks) we have not seen yet, refreshing directories as
	// needed.
	uw := swizzle.NewUnswizzler(func(name string) (*mem.SegMem, error) {
		if seg, ok := c.segs[name]; ok {
			return seg.m, nil
		}
		seg, err := c.openShell(name, false)
		if err != nil {
			return nil, err
		}
		return seg.m, nil
	})
	var applyStart time.Time
	if c.ins != nil {
		applyStart = time.Now()
	}
	res, err := diff.ApplySegment(s.m, d, diff.ApplyOptions{
		Resolve: func(mip string) (mem.Addr, error) {
			if a, err := uw.Addr(mip); err == nil {
				return a, nil
			}
			return c.resolveMIP(mip)
		},
		LayoutFor: func(serial uint32) (*types.Layout, error) {
			l, ok := s.layoutByDesc[serial]
			if !ok {
				return nil, fmt.Errorf("%w: serial %d", ErrNoSuchType, serial)
			}
			return l, nil
		},
	})
	if err != nil {
		return err
	}
	if c.ins != nil {
		c.ins.diffApply.ObserveSince(applyStart)
		c.ins.applyUnits.Add(uint64(res.UnitsApplied))
	}
	if advance {
		s.version = d.Version
		s.state.Version = d.Version
		s.state.FetchedAt = time.Now()
		s.state.Invalidated = false
	}
	return nil
}

// applyTraced is applyIncoming (advancing the version) wrapped in a
// "client.diff_apply" child span when tracing is on. Caller holds
// c.mu.
func (c *Client) applyTraced(s *segment, d *wire.SegmentDiff, sp *obs.Span) error {
	asp := sp.Child("client.diff_apply")
	err := c.applyIncoming(s, d, true)
	if asp != nil {
		asp.Attr("seg", s.name)
		asp.AttrInt("version", int64(d.Version))
		asp.Error(err)
		asp.End()
	}
	return err
}

// resolveMIP turns a MIP into a local address, reserving the target
// segment if it is not yet cached. Caller holds c.mu.
func (c *Client) resolveMIP(mipStr string) (mem.Addr, error) {
	m, err := swizzle.Parse(mipStr)
	if err != nil {
		return 0, err
	}
	if m.IsNil() {
		return 0, nil
	}
	s, ok := c.segs[m.Segment]
	if !ok {
		s, err = c.openShell(m.Segment, false)
		if err != nil {
			return 0, fmt.Errorf("core: resolving %q: %w", mipStr, err)
		}
	}
	addr, err := swizzle.AddrOfMIP(s.m, m)
	if err == nil {
		return addr, nil
	}
	// The MIP may reference a block newer than our shell; refresh
	// the directory once and retry.
	if rerr := c.refreshDir(s); rerr != nil {
		return 0, fmt.Errorf("core: resolving %q: %w", mipStr, rerr)
	}
	return swizzle.AddrOfMIP(s.m, m)
}

// MIPToPtr converts a machine-independent pointer into a local
// address, reserving space for the target segment if needed
// (IW_mip_to_ptr).
func (c *Client) MIPToPtr(mip string) (mem.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resolveMIP(mip)
}

// PtrToMIP converts a local pointer into its machine-independent form
// (IW_ptr_to_mip).
func (c *Client) PtrToMIP(addr mem.Addr) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := swizzle.PtrToMIP(c.heap, addr)
	if err != nil {
		return "", err
	}
	return m.String(), nil
}

// SetPolicy changes the segment's coherence policy; the bound may be
// adjusted dynamically, as the paper specifies.
func (c *Client) SetPolicy(h *Segment, p coherence.Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := h.s
	s.policy = p
	if !s.state.Subscribed || s.conn.Closed() {
		// Nothing to re-point; ensureFresh drops a dead subscription.
		return nil
	}
	if _, err := c.rpc(s.conn, &protocol.Subscribe{Seg: s.name, HaveVersion: s.version, Policy: p}, nil, 0); err != nil {
		s.state.Subscribed = false
		return err
	}
	return nil
}

// RLock acquires a read lock (IW_rl_acquire): it blocks out local
// writers and brings the cached copy up to date if the coherence
// policy requires.
func (c *Client) RLock(h *Segment) error {
	s := h.s
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	sp := c.tracer.Start("client.ReadLock")
	sp.Attr("seg", s.name)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	for s.writer || s.writeWaiters > 0 {
		c.cond.Wait()
	}
	if err := c.ensureFresh(s, sp); err != nil {
		sp.Error(err)
		return err
	}
	s.readers++
	if c.ins != nil {
		c.ins.lockWaitRead.ObserveSince(start)
	}
	return nil
}

// RUnlock releases a read lock (IW_rl_release).
func (c *Client) RUnlock(h *Segment) error {
	s := h.s
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.readers == 0 {
		return fmt.Errorf("%w: read", ErrNotLocked)
	}
	s.readers--
	if s.readers == 0 {
		c.cond.Broadcast()
	}
	return nil
}

// ensureFresh implements the read-lock freshness protocol: grant
// locally when the policy allows, otherwise poll the server and apply
// whatever diff comes back. The span, when non-nil, parents the RPC
// attempt and diff-apply child spans. Caller holds c.mu.
func (c *Client) ensureFresh(s *segment, sp *obs.Span) error {
	now := time.Now()
	if s.state.Subscribed && s.conn.Closed() {
		// The server holding our subscription is gone; notifications
		// can no longer arrive, so local freshness cannot be trusted.
		s.state.Subscribed = false
	}
	c.notifiedMu.Lock()
	if _, ok := c.notified[s.name]; ok {
		delete(c.notified, s.name)
		s.state.Invalidated = true
	}
	c.notifiedMu.Unlock()
	if s.policy.LocallyFresh(s.state, now) {
		return nil
	}
	wasInvalidated := s.state.Invalidated
	policy := s.policy
	if s.version == 0 {
		// "When a process first locks a shared segment, the library
		// obtains a copy from the segment's server" — relaxed bounds
		// apply only to subsequent acquisitions.
		policy = coherence.Full()
	}
	reply, err := c.call(s.name, s, &protocol.ReadLock{Seg: s.name, HaveVersion: s.version, Policy: policy}, sp)
	if err != nil {
		if isTransport(err) && s.version > 0 && s.policy.Model != coherence.ModelFull {
			// Graceful degradation: relaxed coherence already tolerates
			// bounded staleness, so with the server unreachable a
			// Delta/Temporal/Diff reader keeps serving its valid cached
			// version instead of failing (paper Section 2's rationale
			// for recently-coherent data).
			s.state.FetchedAt = now
			s.state.Invalidated = false
			c.staleReads.Add(1)
			if c.ins != nil {
				c.ins.degradedReads.Inc()
			}
			c.trace(obs.Event{Name: "read.degraded", Seg: s.name, Err: err.Error()})
			return nil
		}
		return fmt.Errorf("core: read lock on %q: %w", s.name, err)
	}
	lr, ok := reply.(*protocol.LockReply)
	if !ok {
		return fmt.Errorf("core: unexpected reply %T to read lock", reply)
	}
	updated := false
	if !lr.Fresh && lr.Diff != nil {
		if err := c.applyTraced(s, lr.Diff, sp); err != nil {
			return err
		}
		updated = true
	}
	if c.ins != nil {
		if updated {
			c.ins.versionUpdate.Inc()
		} else {
			c.ins.versionFresh.Inc()
		}
	}
	if !updated {
		// The server says we are recent enough.
		s.state.FetchedAt = now
		s.state.Invalidated = false
		if s.state.Version == 0 {
			s.state.Version = s.version
		}
	}
	c.adapt(s, updated, wasInvalidated, sp)
	return nil
}

// adapt runs the adaptive polling/notification protocol after a
// server round trip. Temporal coherence relies purely on the local
// clock and never subscribes. The Subscribe/Unsubscribe go, in one
// attempt, to the connection the round trip just used — the one that
// holds (or will hold) the subscription. Caller holds c.mu.
func (c *Client) adapt(s *segment, updated, wasInvalidated bool, sp *obs.Span) {
	if s.policy.Model == coherence.ModelTemporal {
		return
	}
	if s.state.Subscribed {
		if s.adaptive.RecordNotified(wasInvalidated) {
			// Too many invalidations: notifications are pure
			// overhead, go back to polling.
			if _, err := c.rpc(s.conn, &protocol.Unsubscribe{Seg: s.name}, sp, 0); err == nil {
				s.state.Subscribed = false
			}
		}
		return
	}
	if s.adaptive.RecordPoll(updated) {
		reply, err := c.rpc(s.conn, &protocol.Subscribe{Seg: s.name, HaveVersion: s.version, Policy: s.policy}, sp, 0)
		if _, redirected := reply.(*protocol.Redirect); err == nil && !redirected {
			s.state.Subscribed = true
			s.state.Invalidated = false
		}
	}
}

// WLock acquires the segment's exclusive write lock (IW_wl_acquire):
// it waits out local readers and writers, obtains the server-side
// write lock, brings the copy up to date, and write-protects the
// local pages so modifications are tracked.
func (c *Client) WLock(h *Segment) error {
	s := h.s
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	sp := c.tracer.Start("client.WriteLock")
	sp.Attr("seg", s.name)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	s.writeWaiters++
	for s.writer || s.readers > 0 {
		c.cond.Wait()
	}
	s.writeWaiters--
	s.writer = true
	reply, err := c.call(s.name, s, &protocol.WriteLock{Seg: s.name, HaveVersion: s.version, Policy: s.policy}, sp)
	if err == nil {
		if lr, ok := reply.(*protocol.LockReply); ok {
			if !lr.Fresh && lr.Diff != nil {
				err = c.applyTraced(s, lr.Diff, sp)
			}
		} else {
			err = fmt.Errorf("core: unexpected reply %T to write lock", reply)
		}
	}
	if err != nil {
		s.writer = false
		c.cond.Broadcast()
		sp.Error(err)
		return fmt.Errorf("core: write lock on %q: %w", s.name, err)
	}
	if !s.noDiff {
		s.m.WriteProtect()
	}
	if c.ins != nil {
		c.ins.lockWaitWrite.ObserveSince(start)
	}
	return nil
}

// WUnlock releases the write lock (IW_wl_release): local changes are
// gathered into a machine-independent diff — twin comparison plus
// translation, or whole blocks in no-diff mode — and shipped to the
// server, which assigns the new segment version.
func (c *Client) WUnlock(h *Segment) error {
	s := h.s
	sp := c.tracer.Start("client.WriteUnlock")
	sp.Attr("seg", s.name)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.writer {
		err := fmt.Errorf("%w: write", ErrNotLocked)
		sp.Error(err)
		return err
	}
	var st diff.Stats
	var collectStart time.Time
	if c.ins != nil {
		collectStart = time.Now()
	}
	csp := sp.Child("client.diff_collect")
	d, err := diff.CollectSegment(s.m, diff.CollectOptions{
		NoDiff:  s.noDiff,
		Freed:   s.freed,
		Stats:   &st,
		Swizzle: c.swizzler(),
	})
	if csp != nil {
		csp.AttrInt("bytes", int64(st.Bytes))
		csp.AttrInt("units", int64(st.Units))
		csp.Error(err)
		csp.End()
	}
	if err != nil {
		// Leave the lock held: the caller may retry after fixing the
		// problem (e.g. an unswizzlable private pointer).
		sp.Error(err)
		return fmt.Errorf("core: collecting diff of %q: %w", s.name, err)
	}
	s.lastCollect = st
	if c.ins != nil {
		c.ins.diffCollect.ObserveSince(collectStart)
		c.ins.diffSize.Observe(float64(st.Bytes))
		c.ins.diffBytes.Add(uint64(st.Bytes))
		c.ins.diffUnitsSent.Add(uint64(st.Units))
		c.ins.diffScanned.Add(uint64(st.ScannedBytes))
		total := 0
		s.m.Blocks(func(b *mem.Block) bool {
			total += b.PrimCount()
			return true
		})
		c.ins.diffUnitsFull.Add(uint64(total))
		if s.noDiff {
			c.ins.noDiffReleases.Inc()
		}
	}
	attachDescDefs(s, d)
	var payload *wire.SegmentDiff
	if !d.Empty() {
		payload = d
	}
	s.wseq++
	msg := &protocol.WriteUnlock{Seg: s.name, Diff: payload, WriterID: c.writerID, Seq: s.wseq}
	reply, err := c.call(s.name, s, msg, sp)
	if err != nil && isTransport(err) {
		// The connection died with the release in flight: the server
		// may or may not have applied it. Resolve the ambiguity.
		reply, err = c.recoverWUnlock(s, msg, sp)
	} else if code := errCode(err); code == protocol.CodeNotOwner || code == protocol.CodeLockState {
		// CodeNotOwner: the release raced an ownership change and the
		// old owner fenced it without committing cluster-wide. The
		// Resume probe inside the recovery loop is redirected to the new
		// owner (the fenced server adopted the newer view before
		// replying), which holds every acknowledged version — so the
		// identical release is re-driven there.
		// CodeLockState: the connection was already known dead, so
		// call re-dialed (rerouting to a promoted owner when the old
		// one is gone) and the release arrived on a fresh session that
		// holds no lock. Nothing was applied; the same probe decides
		// between re-acquiring and a lost race.
		reply, err = c.recoverWUnlock(s, msg, sp)
	}
	if err != nil {
		s.releaseWrite(c)
		sp.Error(err)
		return fmt.Errorf("core: write unlock on %q: %w", s.name, err)
	}
	vr, ok := reply.(*protocol.VersionReply)
	if !ok {
		s.releaseWrite(c)
		err := fmt.Errorf("core: unexpected reply %T to write unlock", reply)
		sp.Error(err)
		return err
	}
	s.version = vr.Version
	s.state.Version = vr.Version
	s.state.FetchedAt = time.Now()
	s.state.Invalidated = false
	s.freed = nil
	s.m.DropTwins()
	s.m.Unprotect()
	s.updateNoDiff(c, st.Units)
	s.releaseWrite(c)
	return nil
}

func (s *segment) releaseWrite(c *Client) {
	s.writer = false
	c.cond.Broadcast()
}

// recoverWUnlock resolves an ambiguous write release: the connection
// died after the request may have reached the server. A Resume probe
// asks whether (WriterID, Seq) was applied; if it was, the recorded
// version is adopted and nothing is resent. If it was not and no
// other writer committed meanwhile, the write lock is re-acquired on
// the fresh session and the identical release resent — the server's
// dedup table makes the pair at-most-once even if the retry races a
// late-arriving original. If another writer did commit (the server
// released our lock with the dead session), the diff was computed
// against a version that no longer exists and the release is
// abandoned with ErrWriteConflict. The span, when non-nil, parents a
// "client.recover" child span covering the whole probe/resend loop.
// Caller holds c.mu and the local write lock.
func (c *Client) recoverWUnlock(s *segment, m *protocol.WriteUnlock, sp *obs.Span) (reply protocol.Message, err error) {
	c.trace(obs.Event{Name: "wunlock.recover", Seg: s.name, RPC: "WriteUnlock"})
	rsp := sp.Child("client.recover")
	rsp.Attr("seg", s.name)
	defer func() {
		rsp.Error(err)
		rsp.End()
	}()
	base := s.version
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 && !c.sleepRetry(attempt-1) {
			return nil, errClientClosed
		}
		reply, err := c.call(s.name, s, &protocol.Resume{Seg: s.name, WriterID: m.WriterID, Seq: m.Seq}, rsp)
		if err != nil {
			lastErr = err
			if isTransport(err) {
				continue
			}
			return nil, err
		}
		rr, ok := reply.(*protocol.ResumeReply)
		if !ok {
			return nil, fmt.Errorf("core: unexpected reply %T to resume", reply)
		}
		if rr.Applied {
			c.trace(obs.Event{Name: "wunlock.recover-applied", Seg: s.name, Attempt: attempt})
			rsp.Attr("outcome", "already-applied")
			return &protocol.VersionReply{Version: rr.AppliedVersion}, nil
		}
		if rr.CurrentVersion != base {
			return nil, c.conflict(s)
		}
		// Not applied and nobody else wrote: take the lock again on
		// the new session and resend the identical release.
		lreply, err := c.call(s.name, s, &protocol.WriteLock{Seg: s.name, HaveVersion: base, Policy: s.policy}, rsp)
		if err != nil {
			lastErr = err
			if isTransport(err) {
				continue
			}
			return nil, err
		}
		lr, ok := lreply.(*protocol.LockReply)
		if !ok {
			return nil, fmt.Errorf("core: unexpected reply %T to write lock", lreply)
		}
		if !lr.Fresh {
			// The version moved between probe and grant. We now hold
			// the server lock — surrender it untouched before failing.
			_, _ = c.call(s.name, s, &protocol.WriteUnlock{Seg: s.name}, rsp)
			return nil, c.conflict(s)
		}
		c.trace(obs.Event{Name: "wunlock.resent", Seg: s.name, Attempt: attempt})
		rsp.Attr("outcome", "resent")
		reply, err = c.call(s.name, s, m, rsp)
		if err == nil || !isTransport(err) {
			return reply, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: release recovery gave up: %w", lastErr)
}

// conflict abandons uncommitted local modifications after a lost
// write race and resets the cache so the next lock refetches a full
// copy.
func (c *Client) conflict(s *segment) error {
	if c.ins != nil {
		c.ins.writeConflicts.Inc()
	}
	c.trace(obs.Event{Name: "wunlock.conflict", Seg: s.name})
	c.resetSegCache(s)
	return ErrWriteConflict
}

// resetSegCache invalidates the segment's cached copy: version 0
// forces the next lock acquisition through the first-lock path, which
// fetches the entire segment and overwrites abandoned local
// modifications. Blocks allocated locally but never committed remain
// mapped (other segments may hold pointers at them) but are unknown
// to the server.
func (c *Client) resetSegCache(s *segment) {
	s.version = 0
	s.state = coherence.State{}
	s.m.DropTwins()
	s.m.Unprotect()
	s.freed = nil
	s.noDiff = false
	s.hotReleases = 0
}

// updateNoDiff adjusts the no-diff mode after a release: a client
// that repeatedly modifies most of the data switches to whole-segment
// transmission, and periodically switches back to diffing to capture
// changes in application behaviour (Section 3.3).
func (s *segment) updateNoDiff(c *Client, unitsSent int) {
	total := 0
	s.m.Blocks(func(b *mem.Block) bool {
		total += b.PrimCount()
		return true
	})
	if total == 0 {
		return
	}
	if s.noDiff {
		s.noDiffCount++
		if s.noDiffCount%c.opts.NoDiffResample == 0 {
			s.noDiff = false // re-sample with diffing next section
			s.hotReleases = 0
		}
		return
	}
	if float64(unitsSent) >= noDiffOn*float64(total) {
		s.hotReleases++
		if s.hotReleases >= hotReleasesToNoDiff {
			s.noDiff = true
			s.noDiffCount = 0
		}
	} else {
		s.hotReleases = 0
	}
}

// attachDescDefs prepends definitions for every client-local type
// descriptor the diff's new blocks reference.
func attachDescDefs(s *segment, d *wire.SegmentDiff) {
	seen := make(map[uint32]bool)
	for _, nb := range d.News {
		if seen[nb.DescSerial] {
			continue
		}
		if b, ok := s.descBytes[nb.DescSerial]; ok {
			seen[nb.DescSerial] = true
			d.Descs = append(d.Descs, wire.DescDef{Serial: nb.DescSerial, Bytes: b})
		}
	}
}

// swizzler translates local pointers during diff collection. A fresh
// Swizzler per collection keeps its block cache inside one write
// critical section, where no frees can invalidate it.
func (c *Client) swizzler() diff.SwizzleFunc {
	return swizzle.NewSwizzler(c.heap).MIPString
}

// Alloc allocates a block of count elements of type t in the segment
// (IW_malloc). The caller must hold the write lock.
func (c *Client) Alloc(h *Segment, t *types.Type, count int, name string) (*mem.Block, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := h.s
	if !s.writer {
		return nil, fmt.Errorf("%w: write (Alloc)", ErrNotLocked)
	}
	l, err := c.layouts.Of(t, c.prof)
	if err != nil {
		return nil, err
	}
	serial, ok := s.descForType[t]
	if !ok {
		b, err := types.Marshal(t)
		if err != nil {
			return nil, err
		}
		serial = s.nextLocalDesc
		s.nextLocalDesc++
		s.descForType[t] = serial
		s.descBytes[serial] = b
	}
	blk, err := s.m.Alloc(l, count, name)
	if err != nil {
		return nil, err
	}
	blk.DescSerial = serial
	return blk, nil
}

// Free releases a block (IW_free). The caller must hold the write
// lock.
func (c *Client) Free(h *Segment, b *mem.Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := h.s
	if !s.writer {
		return fmt.Errorf("%w: write (Free)", ErrNotLocked)
	}
	wasPending := b.Pending
	serial := b.Serial
	if err := s.m.Free(b); err != nil {
		return err
	}
	if !wasPending {
		// The server knows this block; tell it on release. Blocks
		// created and freed within one critical section never leave
		// the client.
		s.freed = append(s.freed, serial)
	}
	return nil
}

package server

import (
	"errors"
	"fmt"

	"interweave/internal/cluster"
	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Cluster-mode serving (DESIGN.md §7). With Options.Cluster set, this
// server is one node of a sharded, replicated cluster:
//
//   - segment RPCs for segments the ring places elsewhere are answered
//     with a Redirect carrying the full membership (clusterRedirect);
//   - every committed write streams to the segment's replicas before
//     the client sees the acknowledgement, with the at-most-once table
//     mirrored alongside the diff (runReplication);
//   - an epoch bump that makes this node a segment's owner triggers
//     Pull catch-up from the surviving holders (promotion), and one
//     that takes a segment away triggers demotion — subscribers are
//     notified and the local copy reset, so no session keeps reading
//     state the cluster no longer routes here (demoteSegLocked);
//   - Migrate moves a segment under the write-lock barrier and pins
//     the new owner with a membership override.
//
// The invariant everything rests on: a write release is acknowledged
// to the client only after EVERY placed replica holds both its diff
// and its (WriterID, Seq, Version) record; a release that cannot
// reach that state is answered with CodeNotReplicated instead of an
// acknowledgement. A promoted replica therefore answers Resume probes
// exactly as the dead primary would have, and the client's existing
// recovery machinery works unchanged.
//
// The replication stream is epoch-fenced: every Replicate frame
// carries the sender's epoch and address, and a replica whose view is
// at least as new rejects frames from a node it does not place as the
// segment's owner, answering Fenced with its own membership. The
// deposed primary adopts that view (demoting itself) and fails the
// release with CodeNotOwner, which the client recovers by re-routing
// and re-driving the write against the new owner. Two primaries can
// therefore never both get writes acknowledged for the same segment.

// Cluster metric names, documented in OBSERVABILITY.md.
const (
	cmRedirects  = "iw_cluster_redirects_served_total"
	cmReplicate  = "iw_cluster_replicate_total"
	cmReplLag    = "iw_cluster_replication_lag_versions"
	cmPromotions = "iw_cluster_promotions_total"
	cmDemotions  = "iw_cluster_demotions_total"
	cmFenced     = "iw_cluster_writes_fenced_total"
	cmMigrations = "iw_cluster_migrations_total"
	cmPulls      = "iw_cluster_pulls_total"
)

// clusterInstruments holds the server's cluster-mode metric handles;
// nil disables them.
type clusterInstruments struct {
	redirects  *obs.Counter
	replOK     *obs.Counter
	replNack   *obs.Counter
	replErr    *obs.Counter
	replLag    *obs.Gauge
	promotions *obs.Counter
	demotions  *obs.Counter
	fenced     *obs.Counter
	migrations *obs.Counter
	pulls      *obs.Counter
}

func newClusterInstruments(reg *obs.Registry) *clusterInstruments {
	replHelp := "Replicate frames sent to replicas, by outcome (ok, nack = version mismatch answered with catch-up, error = transport failure)."
	return &clusterInstruments{
		redirects: reg.Counter(cmRedirects,
			"Segment RPCs answered with a Redirect because the ring places the segment elsewhere."),
		replOK:   reg.Counter(cmReplicate, replHelp, obs.L("result", "ok")),
		replNack: reg.Counter(cmReplicate, replHelp, obs.L("result", "nack")),
		replErr:  reg.Counter(cmReplicate, replHelp, obs.L("result", "error")),
		replLag: reg.Gauge(cmReplLag,
			"Versions the slowest responding replica trailed the primary by after the latest fan-out (0 = fully acked)."),
		promotions: reg.Counter(cmPromotions,
			"Locally held segments this node became the owner of through an epoch change."),
		demotions: reg.Counter(cmDemotions,
			"Locally held segments this node lost ownership of: subscribers notified, local copy reset."),
		fenced: reg.Counter(cmFenced,
			"Write releases refused because a replica's newer view fenced this node off the segment."),
		migrations: reg.Counter(cmMigrations,
			"Segments this node migrated away to another owner."),
		pulls: reg.Counter(cmPulls,
			"Pull catch-up probes issued during promotions."),
	}
}

// segOf names the segment a client-facing RPC addresses, or "" for
// messages that are not subject to redirect routing.
func segOf(msg protocol.Message) string {
	switch m := msg.(type) {
	case *protocol.OpenSegment:
		return m.Name
	case *protocol.ReadLock:
		return m.Seg
	case *protocol.WriteLock:
		return m.Seg
	case *protocol.WriteUnlock:
		return m.Seg
	case *protocol.Resume:
		return m.Seg
	case *protocol.Subscribe:
		return m.Seg
	case *protocol.Unsubscribe:
		return m.Seg
	case *protocol.Migrate:
		return m.Seg
	}
	return ""
}

// redirectFor returns the Redirect reply for a segment this node does
// not own, or nil when the node owns it (or is not clustered). An
// empty ring (no live members — can only be a misconfiguration)
// redirects nowhere and lets the request proceed locally.
func (s *Server) redirectFor(seg string) protocol.Message {
	if s.cluster == nil || seg == "" {
		return nil
	}
	owner := s.cluster.Owner(seg)
	if owner == "" || owner == s.cluster.Self() {
		return nil
	}
	if s.cins != nil {
		s.cins.redirects.Inc()
	}
	return &protocol.Redirect{Seg: seg, Owner: owner, Ms: s.cluster.Membership()}
}

// clusterRedirect applies redirect routing to one request. TxCommit
// is special: it is redirected only when every part shares a single
// remote owner; parts split across owners are refused, since the
// single-server atomic commit cannot span nodes.
func (sess *clientSession) clusterRedirect(msg protocol.Message) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return nil
	}
	if tx, ok := msg.(*protocol.TxCommit); ok {
		owner := ""
		for i := range tx.Parts {
			o := s.cluster.Owner(tx.Parts[i].Seg)
			if o == "" {
				return nil
			}
			if owner == "" {
				owner = o
			} else if o != owner {
				return errReply(protocol.CodeNotOwner,
					"transaction parts map to different owners (%s, %s); transactions cannot span cluster nodes", owner, o)
			}
		}
		if owner == "" || owner == s.cluster.Self() {
			return nil
		}
		if s.cins != nil {
			s.cins.redirects.Inc()
		}
		return &protocol.Redirect{Seg: tx.Parts[0].Seg, Owner: owner, Ms: s.cluster.Membership()}
	}
	return s.redirectFor(segOf(msg))
}

func (sess *clientSession) handleRingGet(*protocol.RingGet) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return errReply(protocol.CodeBadRequest, "not in cluster mode")
	}
	return &protocol.RingReply{Ms: s.cluster.Membership()}
}

func (sess *clientSession) handleRingPush(m *protocol.RingPush) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return errReply(protocol.CodeBadRequest, "not in cluster mode")
	}
	s.cluster.AdoptMembership(m.Ms)
	return &protocol.Ack{}
}

// appliedFromEntries rebuilds the at-most-once table from its wire
// form.
func appliedFromEntries(entries []protocol.AppliedEntry) map[string]appliedWrite {
	out := make(map[string]appliedWrite, len(entries))
	for _, e := range entries {
		out[e.WriterID] = appliedWrite{seq: e.Seq, version: e.Version}
	}
	return out
}

// entriesFromApplied is the inverse of appliedFromEntries.
func entriesFromApplied(applied map[string]appliedWrite) []protocol.AppliedEntry {
	out := make([]protocol.AppliedEntry, 0, len(applied))
	for id, ap := range applied {
		out = append(out, protocol.AppliedEntry{WriterID: id, Seq: ap.seq, Version: ap.version})
	}
	return out
}

// handleReplicate applies one primary→replica stream message through
// applyRecord: an incremental diff stamped at the primary's version, or
// a full image snapshot applied by replacement. A version mismatch is
// answered with a non-acked reply carrying the replica's version, which
// the primary follows with a catch-up stream from it.
//
// The stream is fenced first: a sender that this node's view — when
// at least as new as the sender's — does not place as the segment's
// owner is refused with Fenced and this node's membership, never
// applied. Migration snapshots pass the fence because the source is
// still the owner until the SetOverride commit. A sender with a
// strictly newer epoch is trusted: it knows a view this node has not
// seen yet, and the gossip riding on the reply path converges us.
func (sess *clientSession) handleReplicate(m *protocol.Replicate) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return errReply(protocol.CodeBadRequest, "not in cluster mode")
	}
	if m.From != "" && m.Epoch <= s.cluster.Epoch() && s.cluster.Owner(m.Seg) != m.From {
		return &protocol.ReplicateReply{Fenced: true, Ms: s.cluster.Membership()}
	}
	rr, fail := s.applyRecord(m)
	if fail != nil {
		return fail
	}
	return rr
}

// handlePull answers a promotion catch-up probe with this node's
// version of the segment and a diff covering everything past the
// requester's version.
func (sess *clientSession) handlePull(m *protocol.Pull) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return errReply(protocol.CodeBadRequest, "not in cluster mode")
	}
	st, ok := s.reg.get(m.Seg)
	if !ok {
		return &protocol.PullReply{}
	}
	s.lockSeg(st)
	defer st.mu.Unlock()
	// A promotion may pull from a replica whose copy is evicted:
	// fault it in before answering, so the reply carries real state.
	if err := s.ensureResident(st); err != nil {
		return errReply(protocol.CodeInternal, "pull fault-in: %v", err)
	}
	reply := &protocol.PullReply{Version: st.seg.Version, Applied: entriesFromApplied(st.applied)}
	if st.seg.Version > m.HaveVersion {
		d, err := st.seg.CollectDiff(m.HaveVersion)
		if err != nil {
			return errReply(protocol.CodeInternal, "pull collect: %v", err)
		}
		reply.Diff = d
	}
	return reply
}

// replicationJob is one flush's fan-out: the batch's frame, built by
// the flusher under the segment lock, and the replicas the ring places
// the segment on. One job serves a flusher for its whole run.
type replicationJob struct {
	st    *segState
	rep   *protocol.Replicate
	addrs []string
	// ahead names the replicas a catch-up pushed past the batch it
	// served, and to which version (see catchUpReplica); the next batch
	// skips a replica that already holds its end version.
	ahead map[string]uint32
}

// errWriteFenced marks a release refused because a replica's newer
// membership view no longer places this node as the segment's owner.
var errWriteFenced = errors.New("ownership moved during the release")

// runReplication streams one flushed batch to every replica and
// returns nil only when every one of them acked it. Called by the
// segment's flusher WITHOUT the segment's mutex; the write lock was
// handed off when the batch's releases were enqueued, so later
// releases may already be applied on top of the batch (they wait for
// the next flush). A replica that reports a version mismatch gets one
// catch-up diff collected from its version; one that fences the
// stream deposes this primary on the spot — its view is adopted
// (demoting the segment) and errWriteFenced is returned; one that
// cannot be reached or will not ack fails the batch, because an
// acknowledgement the client can trust requires every placed replica
// to hold the diff (DESIGN.md §7.3). The failed diff is not rolled
// back locally: the next successful fan-out's catch-up path re-covers
// it, and the clients were told their releases failed.
func (s *Server) runReplication(job *replicationJob) error {
	seg, version := job.rep.Seg, job.rep.Version
	maxLag := int64(0)
	var firstErr error
	for _, addr := range job.addrs {
		if v, ok := job.ahead[addr]; ok {
			delete(job.ahead, addr)
			if v >= version {
				if s.cins != nil {
					s.cins.replOK.Inc()
				}
				continue
			}
		}
		// A copy per replica: replicateTo stamps routing fields, and the
		// journal's window holds job.rep itself.
		frame := *job.rep
		rr, err := s.replicateTo(addr, &frame)
		if err != nil {
			if s.cins != nil {
				s.cins.replErr.Inc()
			}
			s.logf("replicate %s to %s: %v", seg, addr, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", addr, err)
			}
			continue
		}
		if rr.Fenced {
			return s.deposedBy(seg, addr, "replicate", rr)
		}
		if !rr.Acked {
			// The replica is on a different version (it may be fresh,
			// or have missed an earlier fan-out): send one catch-up
			// diff from its version.
			if s.cins != nil {
				s.cins.replNack.Inc()
			}
			rr, err = s.catchUpReplica(addr, job, rr.Version)
			if err != nil {
				if s.cins != nil {
					s.cins.replErr.Inc()
				}
				s.logf("replicate catch-up %s to %s: %v", seg, addr, err)
				if firstErr == nil {
					firstErr = fmt.Errorf("replica %s: %w", addr, err)
				}
				continue
			}
			if rr.Fenced {
				return s.deposedBy(seg, addr, "catch-up", rr)
			}
		}
		if rr.Acked {
			if s.cins != nil {
				s.cins.replOK.Inc()
			}
		} else if firstErr == nil {
			firstErr = fmt.Errorf("replica %s did not ack (at version %d, want %d)", addr, rr.Version, version)
		}
		if lag := int64(version) - int64(rr.Version); lag > maxLag {
			maxLag = lag
		}
	}
	if s.cins != nil {
		s.cins.replLag.Set(maxLag)
	}
	return firstErr
}

// deposedBy handles a replica fencing this node off seg: its newer
// view is adopted on the spot (demoting the segment) and the stream
// that was fenced — "replicate", "catch-up" or "migrate" — fails with
// errWriteFenced.
func (s *Server) deposedBy(seg, addr, stream string, rr *protocol.ReplicateReply) error {
	if s.cins != nil {
		s.cins.fenced.Inc()
	}
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "cluster.fence", Seg: seg, N: int64(rr.Ms.Epoch), Err: stream + " fenced by " + addr})
	}
	s.logf("%s %s to %s: fenced at epoch %d; adopting replica's view", stream, seg, addr, rr.Ms.Epoch)
	s.cluster.AdoptMembership(rr.Ms)
	return errWriteFenced
}

// replicateTo sends one Replicate frame to a replica, stamping it with
// this node's identity and epoch so the replica can fence it.
func (s *Server) replicateTo(addr string, m *protocol.Replicate) (*protocol.ReplicateReply, error) {
	m.Epoch = s.cluster.Epoch()
	m.From = s.cluster.Self()
	reply, err := s.cluster.Call(addr, m)
	if err != nil {
		return nil, err
	}
	rr, ok := reply.(*protocol.ReplicateReply)
	if !ok {
		return nil, errReply(protocol.CodeInternal, "replica answered Replicate with %T", reply)
	}
	return rr, nil
}

// catchUpReplica brings a replica that NACKed the batch's frame up to
// date by streaming it the segment from its version (streamFrom). When
// the stream overshoots the batch — later releases were applied after
// the handoff — job.ahead remembers how far, for the next batch. A
// replica already at or beyond the version being committed — without
// having acked it — means some other node is assigning versions to this
// segment; that is a failed release, never an ack, or the client would
// be told a write is durable that the other primary's history will
// overwrite.
func (s *Server) catchUpReplica(addr string, job *replicationJob, replicaVer uint32) (*protocol.ReplicateReply, error) {
	if replicaVer >= job.rep.Version {
		return nil, fmt.Errorf("replica at version %d >= committed %d without acking: divergent primaries", replicaVer, job.rep.Version)
	}
	recs, err := s.streamFrom(job.st, replicaVer, job.rep.Version)
	if err != nil {
		return nil, err
	}
	var rr *protocol.ReplicateReply
	for _, rec := range recs {
		if rr, err = s.replicateTo(addr, rec); err != nil || rr.Fenced || !rr.Acked {
			return rr, err
		}
	}
	if end := recs[len(recs)-1].Version; end > job.rep.Version {
		if job.ahead == nil {
			job.ahead = make(map[string]uint32)
		}
		job.ahead[addr] = end
	}
	return rr, nil
}

// onEpochChange reacts to a membership change. For every locally held
// segment whose owner the new ring says is this node but the previous
// ring said was someone else, this node was just promoted — it pulls
// catch-up state from every surviving holder so it resumes from the
// highest acknowledged version in the cluster. The reverse transition
// is a demotion: segments the previous ring placed here but the new
// one places elsewhere are reset and their subscribers notified, so no
// client keeps satisfying reads from a copy the cluster has routed
// away (see demoteSegLocked). Runs on the goroutine that advanced the
// epoch (heartbeat, gossip handler, or MarkDead caller), never holding
// any lock across peer calls. The demotion sweep walks the registry
// snapshot in ascending segment-name order — the global ordering rule
// (DESIGN.md §8) — taking one segment lock at a time.
func (s *Server) onEpochChange(ms protocol.Membership) {
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "cluster.epoch", N: int64(ms.Epoch)})
	}
	newRing := s.cluster.Ring()
	self := s.cluster.Self()

	s.mu.Lock()
	prevRing := s.lastRing
	s.lastRing = newRing
	s.mu.Unlock()

	var promoted []string
	var notifications []func()
	for _, st := range s.reg.snapshot() {
		wasOwner := prevRing != nil && prevRing.Owner(st.name) == self
		isOwner := newRing.Owner(st.name) == self
		switch {
		case isOwner && !wasOwner:
			promoted = append(promoted, st.name)
		case wasOwner && !isOwner:
			s.lockSeg(st)
			notes := s.demoteSegLocked(st)
			st.mu.Unlock()
			notifications = append(notifications, notes...)
			if s.cins != nil {
				s.cins.demotions.Inc()
			}
			if s.flight != nil {
				s.flight.Record(obs.Event{Name: "cluster.demote", Seg: st.name, N: int64(len(notes))})
			}
		}
	}

	for _, n := range notifications {
		n()
	}
	for _, seg := range promoted {
		if s.cins != nil {
			s.cins.promotions.Inc()
		}
		if s.flight != nil {
			s.flight.Record(obs.Event{Name: "cluster.promote", Seg: seg, N: int64(ms.Epoch)})
		}
		s.promoteSegment(seg, newRing, self)
	}
}

// demoteSegLocked strips a segment this node no longer owns: every
// subscriber gets an unconditional Notify — their next access
// round-trips, receives the Redirect, and re-validates at the new
// owner — and the local copy, subscription table, and at-most-once
// table are reset. The reset is what makes a deposed primary safe: a
// locally applied but fenced (never replicated) write is discarded
// rather than left to collide with the new owner's version sequence,
// and every *acknowledged* version is recoverable because all placed
// replicas hold it. The lock queue is left alone — queued writers
// drain through the barrier, re-check ownership, and are redirected.
// Called with the segment's lock held; returns the notification sends
// to perform once it is released.
func (s *Server) demoteSegLocked(st *segState) []func() {
	var out []func()
	// An evicted stub demotes like anything else: the journal reset
	// below is what matters, plus a fresh empty image replacing it.
	name, ver := st.name, st.residentVersionLocked()
	st.subs.Each(func(target *clientSession) {
		out = append(out, func() {
			// Shed-on-overload is safe here too: a shed subscriber is
			// evicted and re-validates on reconnect, which is exactly
			// what this Notify would have made it do.
			target.Notify(&protocol.Notify{Seg: name, Version: ver})
		})
	})
	st.subs = Subscriptions[*clientSession]{}
	st.seg = NewSegment(name)
	st.evictedVer = 0
	st.applied = make(map[string]appliedWrite)
	if s.journal != nil {
		// The journal must not outlive the reset: a restart would
		// otherwise resurrect state the cluster routed away. The file
		// removal runs under the segment mutex — demotion is rare, and
		// the on-disk reset must be atomic with the in-memory one.
		if l, err := s.journal.Segment(name); err == nil {
			if rerr := l.Reset(); rerr != nil {
				s.logf("journal reset %s: %v", name, rerr)
			}
		}
	}
	s.logf("demoted %s at version %d (ownership moved)", name, ver)
	return out
}

// promoteSegment pulls seg's state from every other live node and
// adopts the highest version seen, making this node's copy at least as
// new as anything a client was acknowledged against.
func (s *Server) promoteSegment(seg string, ring *cluster.Ring, self string) {
	for _, addr := range ring.Live() {
		if addr == self {
			continue
		}
		if s.cins != nil {
			s.cins.pulls.Inc()
		}
		haveVer := uint32(0)
		if st, ok := s.reg.get(seg); ok {
			s.lockSeg(st)
			// The stub's version answers the probe without faulting
			// the image in; only an actual catch-up apply needs it.
			haveVer = st.residentVersionLocked()
			st.mu.Unlock()
		}
		reply, err := s.cluster.Call(addr, &protocol.Pull{Seg: seg, HaveVersion: haveVer})
		if err != nil {
			s.logf("promotion pull %s from %s: %v", seg, addr, err)
			continue
		}
		pr, ok := reply.(*protocol.PullReply)
		if !ok || pr.Version <= haveVer || pr.Diff == nil {
			continue
		}
		// The pulled catch-up is the record that carries this copy from
		// haveVer to the peer's version, applied and journaled like any
		// replica frame.
		rr, fail := s.applyRecord(&protocol.Replicate{
			Seg:         seg,
			PrevVersion: haveVer,
			Version:     pr.Version,
			Diff:        pr.Diff,
			Applied:     pr.Applied,
		})
		switch {
		case fail != nil:
			s.logf("promotion apply %s from %s: %s", seg, addr, fail.Text)
		case !rr.Acked:
			s.logf("promotion apply %s from %s: local copy moved to version %d during the pull", seg, addr, rr.Version)
		default:
			s.logf("promoted %s to version %d (from %s)", seg, pr.Version, addr)
		}
	}
}

// handleMigrate moves a segment this node owns to the named target:
// it takes the segment's write lock (the barrier — in-flight writers
// drain first, queued ones re-check ownership after), ships a full
// snapshot to the target, pins the new owner with a membership
// override, and gossips the bumped epoch. The dispatch-level redirect
// has already routed this request to the owner.
func (sess *clientSession) handleMigrate(m *protocol.Migrate) protocol.Message {
	s := sess.srv
	if s.cluster == nil {
		return errReply(protocol.CodeBadRequest, "not in cluster mode")
	}
	if m.Target == s.cluster.Self() {
		return &protocol.Ack{} // already here
	}
	live := false
	for _, addr := range s.cluster.Ring().Live() {
		if addr == m.Target {
			live = true
			break
		}
	}
	if !live {
		return errReply(protocol.CodeBadRequest, "migration target %q is not a live member", m.Target)
	}

	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	s.lockSeg(st)
	if st.writer == sess {
		st.mu.Unlock()
		return errReply(protocol.CodeLockState, "cannot migrate while holding the write lock")
	}
	// Write-lock barrier: queue like any writer, with direct handoff.
	if fail := sess.acquireWriter(st, nil); fail != nil {
		return fail
	}
	// The barrier covers the commit pipeline too: releases that handed
	// the lock off may still be on their way to the journal and the
	// replicas, and the snapshot must not overtake them.
	for len(st.pending) > 0 || st.flushing {
		st.flushDone.Wait()
	}
	if err := s.ensureResident(st); err != nil {
		releaseWriter(st, sess)
		st.mu.Unlock()
		return errReply(protocol.CodeInternal, "migrate fault-in: %v", err)
	}
	raw := st.seg.encode()
	applied := entriesFromApplied(st.applied)
	version := st.seg.Version
	st.mu.Unlock()

	// Ship the snapshot while the barrier holds writers off.
	rr, rerr := s.replicateTo(m.Target, &protocol.Replicate{
		Seg:     m.Seg,
		Version: version,
		Raw:     raw,
		Applied: applied,
	})
	if rerr == nil && rr.Fenced {
		// The target's newer view says this node no longer owns the
		// segment; adopt it (demoting locally) and fail the migration.
		rerr = s.deposedBy(m.Seg, m.Target, "migrate", rr)
	}
	if rerr != nil || !rr.Acked {
		s.lockSeg(st)
		releaseWriter(st, sess)
		st.mu.Unlock()
		if rerr == nil {
			rerr = errReply(protocol.CodeInternal, "target did not ack snapshot")
		}
		return errReply(protocol.CodeInternal, "migrating %q to %s: %v", m.Seg, m.Target, rerr)
	}

	// Commit: pin the new owner, bump the epoch, gossip. From here on,
	// the dispatch redirect answers every client RPC for this segment,
	// and the queued writers re-check ownership when the barrier lifts.
	s.cluster.SetOverride(m.Seg, m.Target)
	if s.cins != nil {
		s.cins.migrations.Inc()
	}
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "cluster.migrate", Seg: m.Seg, N: int64(version)})
	}
	s.logf("migrated %s to %s at version %d", m.Seg, m.Target, version)

	s.lockSeg(st)
	releaseWriter(st, sess)
	st.mu.Unlock()
	return &protocol.Ack{}
}

package server

import (
	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Transaction support — the paper's Section 6 names transactions as
// work in progress; this implements the single-server case. A
// TxCommit atomically publishes the diffs of several segments the
// session holds write locks on: either every segment advances to its
// new version, or none does.
//
// Atomicity is achieved by staging: each diff is applied to a clone
// of its segment (via the segment image codec); only when every part
// succeeds are the clones swapped in and subscribers notified. The
// clone cost is proportional to segment size, which is acceptable for
// an operation whose purpose is crossing a consistency boundary, and
// keeps the commit path trivially correct.
//
// Locking: the handler takes every part's segment lock in ascending
// name order (the global ordering rule, DESIGN.md §8), snapshots the
// wire images under the locks, then drops them for the expensive
// decode+apply staging — the session's write locks keep the version
// sequence frozen meanwhile. The locks are retaken (same order) to
// swap the clones in.

func (sess *clientSession) handleTxCommit(m *protocol.TxCommit, sp *obs.Span) protocol.Message {
	s := sess.srv

	if len(m.Parts) == 0 {
		return errReply(protocol.CodeBadRequest, "empty transaction")
	}
	seen := make(map[string]bool, len(m.Parts))
	states := make([]*segState, len(m.Parts))
	for i := range m.Parts {
		name := m.Parts[i].Seg
		if seen[name] {
			return errReply(protocol.CodeBadRequest, "segment %q appears twice in transaction", name)
		}
		seen[name] = true
		st, err := s.getSeg(name, false)
		if err != nil {
			return errReply(protocol.CodeNoSegment, "%v", err)
		}
		states[i] = st
	}

	// A failed transaction is an abort: the session's write locks on
	// the named segments are released, mirroring the client library,
	// which releases its local locks when a commit fails.
	// releaseWriter is a no-op on segments this session does not hold.
	ordered := s.lockSegsOrdered(states)
	abortLocked := func(reply *protocol.ErrorReply) protocol.Message {
		for _, st := range states {
			releaseWriter(st, sess)
		}
		unlockSegs(ordered)
		return reply
	}

	// Snapshot phase (locks held): verify lock ownership and capture
	// each part's wire image for out-of-lock staging.
	type partSnap struct {
		img      []byte   // encoded segment, nil when the part's diff is empty
		base     *Segment // the segment the image was taken from
		prevVer  uint32
		cacheCap int
	}
	snaps := make([]partSnap, len(m.Parts))
	for i, st := range states {
		if st.writer != sess {
			return abortLocked(errReply(protocol.CodeLockState, "write lock on %q not held", m.Parts[i].Seg))
		}
		// The held write locks fence eviction, so the parts are
		// resident; this call is defensive and stamps the LRU clock.
		if err := s.ensureResident(st); err != nil {
			return abortLocked(errReply(protocol.CodeInternal, "%v", err))
		}
		snaps[i] = partSnap{base: st.seg, prevVer: st.seg.Version, cacheCap: st.seg.cacheCap}
		if m.Parts[i].Diff != nil && !m.Parts[i].Diff.Empty() {
			snaps[i].img = st.seg.encode()
		}
	}
	unlockSegs(ordered)

	// Stage (no segment locks): apply every diff to a clone decoded
	// from the snapshot image. The write locks this session holds
	// guarantee no other writer advances the segments meanwhile.
	type staged struct {
		clone    *Segment
		version  uint32
		modified int
	}
	asp := sp.Child("server.diff_apply")
	if asp != nil {
		asp.AttrInt("parts", int64(len(m.Parts)))
		defer asp.End()
	}
	relockAbort := func(reply *protocol.ErrorReply) protocol.Message {
		s.lockSegsOrdered(states)
		return abortLocked(reply)
	}
	stage := make([]staged, len(m.Parts))
	for i := range m.Parts {
		if snaps[i].img == nil {
			stage[i] = staged{clone: nil, version: snaps[i].prevVer}
			continue
		}
		clone, err := decodeSegment(snaps[i].img)
		if err != nil {
			return relockAbort(errReply(protocol.CodeInternal, "staging %q: %v", m.Parts[i].Seg, err))
		}
		clone.SetDiffCacheCap(snaps[i].cacheCap)
		// Every part's runs alias the one transaction frame; the part
		// keeps a copy of its own bytes for the cache and the journal.
		m.Parts[i].Diff = ownedCopy(m.Parts[i].Diff)
		newVer, modified, err := clone.ApplyDiff(m.Parts[i].Diff)
		if err != nil {
			return relockAbort(errReply(protocol.CodeBadRequest, "transaction part %q: %v", m.Parts[i].Seg, err))
		}
		stage[i] = staged{clone: clone, version: newVer, modified: modified}
	}

	// Commit: retake the locks (same order) and, in one critical
	// section per part, swap the clone in, gather notifications, enqueue
	// the part on its segment's commit pipeline and hand the write lock
	// off (commit.go). A part therefore joins whatever batch its
	// segment's flusher takes next — behind any release still in
	// flight, never overlapping it — and the reply waits for every
	// part's flush, preserving the journal- and replicate-before-
	// acknowledge invariants of the single-segment release. The parts'
	// journals are per-segment files, so they are not one atomic
	// cross-segment unit; a crash between them recovers a
	// commit the client was never acknowledged for, which its per-part
	// Resume recovery already handles.
	s.lockSegsOrdered(states)
	for i, st := range states {
		// The write lock froze the version sequence, but an epoch
		// change may have demoted the segment (resetting its state and
		// lock queue) while the locks were down. Committing a clone of
		// pre-demotion state would clobber it — fence instead.
		if st.seg != snaps[i].base || st.writer != sess {
			return abortLocked(errReply(protocol.CodeNotOwner,
				"transaction part %q fenced: segment reassigned during commit", m.Parts[i].Seg))
		}
	}
	reply := &protocol.TxReply{Versions: make([]uint32, len(m.Parts))}
	var flushes []*pendingRelease
	var leads []*segState
	for i := range m.Parts {
		st := states[i]
		if wid := m.Parts[i].WriterID; wid != "" {
			st.applied[wid] = appliedWrite{seq: m.Parts[i].Seq, version: stage[i].version}
		}
		reply.Versions[i] = stage[i].version
		if stage[i].clone == nil {
			releaseWriter(st, sess)
			continue
		}
		st.seg = stage[i].clone
		if s.ins != nil {
			s.ins.applyUnits.Add(uint64(stage[i].modified))
		}
		pr := &pendingRelease{
			prevVer:       snaps[i].prevVer,
			version:       stage[i].version,
			diff:          m.Parts[i].Diff,
			notifications: updateSubscribers(st, sess, stage[i].version, stage[i].modified),
			sp:            sp,
		}
		if enqueueRelease(st, sess, pr) {
			leads = append(leads, st)
		}
		flushes = append(flushes, pr)
	}
	unlockSegs(ordered)
	for _, st := range leads {
		s.flush(st)
	}
	// Every part settles before the reply; the first failure, in part
	// order, is the one reported: the parts committed locally but at
	// least one could not be made durable, so the commit is reported
	// failed rather than acknowledged.
	var fail *protocol.ErrorReply
	for _, pr := range flushes {
		if f := pr.wait(); f != nil && fail == nil {
			fail = f
		}
	}
	if fail != nil {
		return fail
	}
	return reply
}

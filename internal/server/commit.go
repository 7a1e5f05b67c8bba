package server

import (
	"errors"
	"fmt"
	"os"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// Commit pipeline (DESIGN.md §10): the one path by which a committed
// version range becomes durable and visible. Every WriteUnlock and
// every TxCommit part is checked (checkPart) and committed (commitPart)
// in one critical section under the segment lock: a version-advancing
// one applies its diff, records its at-most-once entry, enqueues one
// pendingRelease and hands the write lock to the next queued writer
// IMMEDIATELY; the request then waits for the segment's flusher. One
// flusher per segment drains the pending batch: because apply+enqueue
// is atomic under the segment mutex, the pending entries cover exactly
// prev0..seg.Version, so the flusher commits them as one unit — one
// journal record, one Replicate frame per replica, one notification
// fan-out — and wakes every waiter with the batch's outcome.
//
// The flusher picks its strategy from the batch it finds. A batch of
// one (the uncontended case) journals and replicates the writer's own
// diff as is; a larger batch is merged by a single CollectDiff(prev0)
// over the cached per-release diffs (mergeCachedDiffs). A server with
// neither a journal nor replicas builds no frame at all and only runs
// the notifications.
//
// The replicate-before-acknowledge and journal-before-acknowledge
// invariants (DESIGN.md §7, §9) hold because no client sees a reply
// until the flush covering its version is on disk and on every placed
// replica. What the handoff buys is only WHEN the next writer may
// start working — before the previous release's fan-out completes —
// which is what creates a batch under contention.

// maxPendingReleases bounds how many releases may sit in one segment's
// pending batch; a release finding the batch full waits (on the write
// lock it still holds) until the flusher takes a batch, which
// backpressures writers instead of growing the batch without bound.
// A transaction part may overfill the batch by one: it cannot wait on
// one segment while holding the locks of the others.
const maxPendingReleases = 64

// pendingRelease is one applied-but-not-yet-flushed write release.
type pendingRelease struct {
	prevVer uint32
	version uint32
	// diff is the writer's own diff as applyChecked left it (descriptor
	// serials remapped to the segment's): what a batch of one journals
	// and replicates.
	diff *wire.SegmentDiff
	// pushes are what this release's subscription-table pass found the
	// subscribers owed (Subscriptions.Advance): the flusher sends them
	// under a "server.notify_fanout" child of sp, the request's span.
	pushes []Push[*clientSession]
	sp     *obs.Span
	// done is closed by the flusher once the covering flush finished;
	// fail is valid after that, nil when the release is durable.
	done chan struct{}
	fail *protocol.ErrorReply
}

// checkPart checks one release of st — a WriteUnlock, or one part of
// a TxCommit — before anything is committed: the session holds the
// write lock, the segment is resident, and the diff, unless empty,
// passes checkDiff. It returns what checkDiff resolved for the apply,
// or the error reply a refused release owes. Called with st.mu held;
// it changes no segment state.
func (sess *clientSession) checkPart(st *segState, part *protocol.WriteUnlock) (map[uint32]*descLayout, *protocol.ErrorReply) {
	if st.writer != sess {
		return nil, errReply(protocol.CodeLockState, "write lock on %q not held", part.Seg)
	}
	// The writer fence means the image cannot have been evicted since
	// WriteLock faulted it in; this call is defensive and stamps
	// lastTouch for the eviction LRU clock.
	if err := sess.srv.ensureResident(st); err != nil {
		return nil, errReply(protocol.CodeInternal, "%v", err)
	}
	if part.Diff == nil || part.Diff.Empty() {
		return nil, nil
	}
	descs, err := st.seg.checkDiff(part.Diff)
	if err != nil {
		return nil, errReply(protocol.CodeBadRequest, "applying diff to %q: %v", part.Seg, err)
	}
	return descs, nil
}

// commitPart commits one release checkPart passed, in the same
// critical section: it applies the diff, records the at-most-once
// entry and gathers the notifications, then puts the release on st's
// pending batch and hands sess's write lock off — or, for an empty
// release, which advances nothing and so has nothing to make durable
// or visible, only hands the lock off. pending therefore always covers
// a contiguous version range ending at seg.Version. It returns the
// version the release leaves the segment at, the pending release to
// wait for (nil when empty), and whether the caller became the
// segment's flusher and must call flush once it has dropped st.mu.
// Called with st.mu held.
func (sess *clientSession) commitPart(st *segState, part *protocol.WriteUnlock, descs map[uint32]*descLayout, sp *obs.Span) (uint32, *pendingRelease, bool) {
	s := sess.srv
	version := st.seg.Version
	if part.Diff == nil || part.Diff.Empty() {
		if part.WriterID != "" {
			st.applied[part.WriterID] = appliedWrite{seq: part.Seq, version: version}
		}
		releaseWriter(st, sess)
		return version, nil, false
	}
	version++
	var start time.Time
	if s.ins != nil {
		start = time.Now()
	}
	asp := sp.Child("server.diff_apply")
	modified := st.seg.applyChecked(part.Diff, descs, version)
	if asp != nil {
		asp.AttrInt("units", int64(modified))
		asp.End()
	}
	if s.ins != nil {
		s.ins.applySec.ObserveSince(start)
		s.ins.applyUnits.Add(uint64(modified))
	}
	if part.WriterID != "" {
		st.applied[part.WriterID] = appliedWrite{seq: part.Seq, version: version}
	}
	pr := &pendingRelease{prevVer: version - 1, version: version, diff: part.Diff, sp: sp, done: make(chan struct{})}
	pr.pushes = st.subs.Advance(st.seg, sess, pr.prevVer, part.Diff, modified)
	st.pending = append(st.pending, pr)
	releaseWriter(st, sess)
	lead := !st.flushing
	st.flushing = true
	return version, pr, lead
}

// wait blocks until the flush covering pr finished and returns the
// error reply its request owes the client, nil when the release is
// durable.
func (pr *pendingRelease) wait() *protocol.ErrorReply {
	<-pr.done
	return pr.fail
}

// flush is the segment's flusher, entered by the request
// commitPart told to lead. At most one runs per segment (the
// st.flushing flag), so journal records and Replicate frames stay
// version-ordered and never overlap. The first batch — the one holding
// the leader's own release — is committed on the leader's goroutine,
// so an uncontended release costs no goroutine and a transaction's
// parts flush back to back; whatever queued up meanwhile is drained on
// a goroutine of its own, so the leader's reply does not wait on other
// writers' flushes.
func (s *Server) flush(st *segState) {
	job := replicationJob{st: st}
	if !s.flushBatch(&job) {
		return
	}
	// A copy for the goroutine, so the uncontended path's job stays on
	// the leader's stack.
	rest := job
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if s.flight != nil {
			defer s.flight.DumpOnPanic(os.Stderr, "commit flusher "+st.name)
		}
		for s.flushBatch(&rest) {
		}
	}()
}

// flushBatch takes the segment's whole pending batch — non-empty, as
// the flusher only runs while releases are pending — and commits it as
// one unit. It reports whether more releases queued up meanwhile; when
// none did it has given the flusher role up (st.flushing cleared).
func (s *Server) flushBatch(job *replicationJob) (more bool) {
	st := job.st
	// Only this flusher appends to the primary's log, so whether it has
	// outgrown its bound can be asked before taking the segment lock.
	outgrown := s.journalOutgrown(st.name)
	s.lockSeg(st)
	batch := st.pending
	st.pending = nil
	// The batch is off the queue: wake writers blocked on its bound.
	st.flushDone.Broadcast()
	st.gcFlushes++
	st.gcReleases += uint64(len(batch))
	var jerr, replErr error
	job.rep, job.addrs = nil, nil
	if endVer := batch[len(batch)-1].version; st.seg.Version != endVer {
		// The segment state was replaced under us — demotion reset it
		// (ownership moved). The batch was applied locally but never
		// made durable; fail it as fenced, so clients recover via Resume
		// at the new owner (DESIGN.md §7.1).
		replErr = fmt.Errorf("%w: segment state replaced during flush (at %d, batch end %d)",
			errWriteFenced, st.seg.Version, endVer)
	} else {
		job.rep, job.addrs, jerr = s.batchFrameLocked(st, batch)
	}
	// With pending just emptied the image sits exactly on a batch
	// boundary — the only place a compaction base may be cut
	// (compactJournalSeg) — so an outgrown log is folded from here.
	var base []byte
	var baseVer uint32
	if outgrown {
		base, baseVer = st.encodeBaseLocked()
	}
	st.mu.Unlock()

	// Durability, outside the segment mutex: one journal record and one
	// Replicate fan-out for the whole batch.
	if job.rep != nil {
		if jerr = s.journalAppend(st, job.rep); jerr == nil && len(job.addrs) > 0 {
			replErr = s.runReplication(job)
		}
	}
	s.completeBatch(st, batch, jerr, replErr)
	// Installed while this goroutine still holds the flushing flag, so
	// a base cut at a newer boundary cannot overtake it.
	if base != nil {
		if err := s.installJournalBase(st.name, baseVer, base); err != nil {
			s.logf("journal compact %s: %v", st.name, err)
		}
	}

	s.lockSeg(st)
	more = len(st.pending) > 0
	if !more {
		st.flushing = false
		// Wake anyone waiting the pipeline out (handleMigrate).
		st.flushDone.Broadcast()
	}
	st.mu.Unlock()
	return more
}

// batchFrameLocked builds the Replicate frame standing in for a whole
// batch and names the replicas it must reach; a nil frame means the
// server has no durability sink for this segment. Called with st.mu
// held, right after the batch was taken, so seg.Version is the batch's
// end version.
func (s *Server) batchFrameLocked(st *segState, batch []*pendingRelease) (rep *protocol.Replicate, addrs []string, err error) {
	if s.cluster != nil {
		addrs = s.cluster.ReplicasOf(st.name)
	}
	if s.journal == nil && len(addrs) == 0 {
		return nil, nil, nil
	}
	prev0 := batch[0].prevVer
	d := batch[0].diff
	if len(batch) > 1 {
		if d, err = st.seg.CollectDiff(prev0); err != nil {
			return nil, nil, fmt.Errorf("collecting batch diff: %w", err)
		}
		if d == nil {
			return nil, nil, fmt.Errorf("collecting batch diff %d..%d: empty", prev0, st.seg.Version)
		}
	}
	return &protocol.Replicate{
		Seg:         st.name,
		PrevVersion: prev0,
		Version:     st.seg.Version,
		Diff:        d,
		Applied:     entriesFromApplied(st.applied),
	}, addrs, nil
}

// completeBatch counts a finished flush, runs the batch's notification
// fan-out and wakes its waiters with the one reply the outcome maps to:
// a journal failure is CodeInternal, an epoch fence CodeNotOwner, any
// other replication failure CodeNotReplicated. The diff stays applied
// either way — the client was told the release failed and its retries
// are deduped by (WriterID, Seq). Running after journal and
// replication on the one flusher, the fan-out sends records in order.
func (s *Server) completeBatch(st *segState, batch []*pendingRelease, jerr, replErr error) {
	var fail *protocol.ErrorReply
	switch {
	case jerr != nil:
		fail = errReply(protocol.CodeInternal, "release of %q not journaled: %v", st.name, jerr)
	case errors.Is(replErr, errWriteFenced):
		fail = errReply(protocol.CodeNotOwner, "release of %q fenced: %v", st.name, replErr)
	case replErr != nil:
		fail = errReply(protocol.CodeNotReplicated, "release of %q not replicated: %v", st.name, replErr)
	}
	if s.ins != nil {
		s.ins.groupCommits.Inc()
		s.ins.groupCommitted.Add(uint64(len(batch)))
	}
	if s.flight != nil {
		ev := obs.Event{Name: "groupcommit.flush", Seg: st.name, N: int64(len(batch))}
		if fail != nil {
			ev.Err = fail.Text
		}
		s.flight.Record(ev)
	}
	for _, pr := range batch {
		if len(pr.pushes) == 0 {
			continue
		}
		if s.ins != nil {
			s.ins.notifications.Add(uint64(len(pr.pushes)))
		}
		nsp := pr.sp.Child("server.notify_fanout")
		if nsp != nil {
			nsp.AttrInt("subscribers", int64(len(pr.pushes)))
		}
		for _, push := range pr.pushes {
			msg := push.Msg
			if fail != nil {
				// A fenced release may yet be renumbered: a follower is
				// told only the version, and catches up.
				msg = &protocol.Notify{Seg: st.name, Version: pr.version}
			}
			// Never blocks: a slow consumer is shed, not buffered
			// (DESIGN.md §10).
			push.To.Notify(msg)
		}
		nsp.End()
	}
	for _, pr := range batch {
		pr.fail = fail
		close(pr.done)
	}
}

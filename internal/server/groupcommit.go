package server

import (
	"errors"
	"fmt"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Group commit (DESIGN.md §10, Options.GroupCommit). The expensive
// part of a write release is not applying the diff — it is the
// durability fan-out behind it: the journal append and the
// replicate-before-acknowledge round trip. With group commit enabled,
// a release applies its diff, records its at-most-once entry, and
// hands the write lock to the next queued writer IMMEDIATELY; the
// release then joins the segment's pending batch and waits. One
// flusher per segment drains the batch: because apply+enqueue is
// atomic under the segment mutex, the pending entries cover exactly
// prev0..seg.Version, so a single CollectDiff(prev0) — which merges
// the cached per-release diffs (PR 5's mergeCachedDiffs) — yields one
// merged diff standing in for the whole batch. The flusher writes one
// journal record, streams one Replicate frame, and runs one
// notification fan-out for N releases, then wakes all N waiters.
//
// The replicate-before-acknowledge invariant is preserved: no client
// sees a VersionReply until the flush covering its version is on disk
// and on every placed replica. What changes is only WHEN the next
// writer may start working — before the previous release's fan-out
// completes — which is what creates the batch.

// DefaultGroupCommitMax bounds how many releases may sit in one
// segment's pending batch; a release finding the batch full waits
// (on the write lock it still holds) until the flusher takes a
// batch, which backpressures writers instead of growing the batch
// without bound.
const DefaultGroupCommitMax = 64

// pendingRelease is one applied-but-not-yet-flushed write release.
type pendingRelease struct {
	prevVer uint32
	version uint32
	// notifications are the subscriber sends this release's
	// updateSubscribers pass produced; the flusher runs them (the
	// notified flag already dedups within a batch).
	notifications []func()
	// done is closed by the flusher once the covering flush finished;
	// jerr/replErr are valid after that.
	done    chan struct{}
	jerr    error
	replErr error
}

// finishReleaseGrouped completes a non-empty write release in group
// mode. Called from handleWriteUnlock with st.mu held and the diff
// already applied; always unlocks st.mu. The caller's session still
// formally holds the write lock — it is handed off here, before the
// flush, which is what lets the next writer overlap with this
// release's durability fan-out.
func (sess *clientSession) finishReleaseGrouped(st *segState, seg string, prevVer, version uint32, notifications []func()) protocol.Message {
	s := sess.srv
	pr := &pendingRelease{
		prevVer:       prevVer,
		version:       version,
		notifications: notifications,
		done:          make(chan struct{}),
	}
	st.pending = append(st.pending, pr)
	lead := !st.flushing
	if lead {
		st.flushing = true
	}
	releaseWriter(st, sess)
	st.mu.Unlock()
	if lead {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if s.flight != nil {
				defer s.flight.DumpOnPanic(s.crashw, "group-commit flusher "+st.name)
			}
			s.runGroupFlush(st)
		}()
	}
	<-pr.done
	if pr.jerr != nil {
		return errReply(protocol.CodeInternal, "release of %q not journaled: %v", seg, pr.jerr)
	}
	if pr.replErr != nil {
		if isFenced(pr.replErr) {
			return errReply(protocol.CodeNotOwner, "release of %q fenced: %v", seg, pr.replErr)
		}
		return errReply(protocol.CodeNotReplicated, "release of %q not replicated: %v", seg, pr.replErr)
	}
	return &protocol.VersionReply{Version: version}
}

// runGroupFlush is the segment's flusher: it repeatedly takes the
// whole pending batch and commits it as one unit, exiting (and
// clearing st.flushing) when the batch comes up empty. At most one
// flusher runs per segment (the st.flushing flag), so journal records
// and Replicate frames stay version-ordered.
func (s *Server) runGroupFlush(st *segState) {
	for {
		s.lockSeg(st)
		batch := st.pending
		st.pending = nil
		if len(batch) == 0 {
			st.flushing = false
			st.flushDone.Broadcast()
			st.mu.Unlock()
			return
		}
		// The batch is off the queue: wake writers blocked on the
		// batch bound, and anyone draining (drainGroupCommit re-checks
		// flushing, which is still true).
		st.flushDone.Broadcast()
		st.gcFlushes++
		st.gcReleases += uint64(len(batch))
		prev0 := batch[0].prevVer
		endVer := batch[len(batch)-1].version
		var jerr, replErr error
		var rep *protocol.Replicate
		var job *replicationJob
		if st.seg.Version != endVer {
			// The segment state was replaced under us — demotion reset
			// it (ownership moved). The batch was applied locally but
			// never made durable; fail it exactly like a fenced
			// single release, so clients recover via Resume at the new
			// owner (DESIGN.md §7.1).
			replErr = fmt.Errorf("%w: segment state replaced during group flush (at %d, batch end %d)",
				errWriteFenced, st.seg.Version, endVer)
		} else {
			d, derr := st.seg.CollectDiff(prev0)
			switch {
			case derr != nil:
				jerr = fmt.Errorf("collecting batch diff: %w", derr)
			case d == nil:
				jerr = fmt.Errorf("collecting batch diff %d..%d: empty", prev0, endVer)
			default:
				rep = &protocol.Replicate{
					Seg:         st.name,
					PrevVersion: prev0,
					Version:     endVer,
					Diff:        d,
					Applied:     entriesFromApplied(st.applied),
				}
				job = s.replicationJob(st, st.name, prev0, endVer, d)
			}
		}
		st.mu.Unlock()

		// Durability, outside the segment mutex: one journal record
		// and one Replicate fan-out for the whole batch.
		if jerr == nil && replErr == nil && s.journal != nil && rep != nil {
			jerr = s.journalAppend(st, rep)
			if jerr == nil {
				s.maybeCompactJournal(st)
			}
		}
		if jerr == nil && replErr == nil && job != nil {
			replErr = s.runReplication(job)
		}

		if s.ins != nil {
			s.ins.groupCommits.Inc()
			s.ins.groupCommitted.Add(uint64(len(batch)))
		}
		if s.flight != nil {
			ev := obs.Event{Name: "groupcommit.flush", Seg: st.name, N: int64(len(batch))}
			if jerr != nil {
				ev.Err = jerr.Error()
			} else if replErr != nil {
				ev.Err = replErr.Error()
			}
			s.flight.Record(ev)
		}
		var notes []func()
		for _, pr := range batch {
			notes = append(notes, pr.notifications...)
		}
		if s.ins != nil && len(notes) > 0 {
			s.ins.notifications.Add(uint64(len(notes)))
		}
		for _, n := range notes {
			n()
		}
		for _, pr := range batch {
			pr.jerr, pr.replErr = jerr, replErr
			close(pr.done)
		}
	}
}

// waitGroupCommitRoom blocks (releasing st.mu via the condition
// variable) until the pending batch has room. Called with st.mu held,
// before the release applies its diff; returns with st.mu held. The
// caller must re-verify it still holds the write lock — a session
// teardown may have stripped it while the mutex was released.
func (s *Server) waitGroupCommitRoom(st *segState) {
	for len(st.pending) >= s.groupCommitMax {
		st.flushDone.Wait()
	}
}

// drainGroupCommit waits until st has no pending or in-flight group
// flush. Transaction commits call this per involved segment before
// snapshotting: a TxCommit bumps versions without joining the batch,
// and an interleaved flush would otherwise journal and replicate
// overlapping version ranges out of order. The tx session holds the
// write locks, so nothing can enqueue new batch entries after the
// drain.
func (s *Server) drainGroupCommit(st *segState) {
	s.lockSeg(st)
	for len(st.pending) > 0 || st.flushing {
		st.flushDone.Wait()
	}
	st.mu.Unlock()
}

// isFenced reports whether a replication error is an epoch fence
// (ownership moved mid-flush).
func isFenced(err error) bool {
	return errors.Is(err, errWriteFenced)
}

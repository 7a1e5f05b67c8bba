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
// Atomicity comes from checking before committing: the handler takes
// every part's segment lock in ascending name order (the global
// ordering rule, DESIGN.md §8) and, holding all of them, first checks
// every part (checkPart: lock held, segment resident, diff valid), and
// only then commits every part in place (commitPart, the routine a
// WriteUnlock takes too). A diff that passes checkDiff cannot fail to
// apply, so a transaction either fails before any segment changed or
// commits every part; nothing is dropped mid-commit, so no demotion or
// migration can slip in between.
//
// Each part joins its segment's commit pipeline like a release, and the
// reply waits for every part's flush. The parts journal into their own
// per-segment files, so they are not one atomic cross-segment unit on
// disk: a crash between them recovers some parts and not others. The
// client does not resume a transaction; it resets the parts' cached
// copies and refetches them on the next lock.

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
		// Every part's runs alias the one transaction frame; the part
		// keeps a copy of its own bytes for the cache and the journal,
		// made before any segment lock is taken.
		if d := m.Parts[i].Diff; d != nil && !d.Empty() {
			m.Parts[i].Diff = ownedCopy(d)
		}
	}

	ordered := s.lockSegsOrdered(states)
	descs := make([]map[uint32]*descLayout, len(m.Parts))
	for i, st := range states {
		d, fail := sess.checkPart(st, &m.Parts[i])
		if fail != nil {
			// A failed transaction is an abort: the session's write
			// locks on the named segments are released, mirroring the
			// client library, which releases its local locks when a
			// commit fails. releaseWriter is a no-op on segments this
			// session does not hold.
			for _, st := range states {
				releaseWriter(st, sess)
			}
			unlockSegs(ordered)
			return fail
		}
		descs[i] = d
	}
	reply := &protocol.TxReply{Versions: make([]uint32, len(m.Parts))}
	var flushes []*pendingRelease
	var leads []*segState
	for i, st := range states {
		version, pr, lead := sess.commitPart(st, &m.Parts[i], descs[i], sp)
		reply.Versions[i] = version
		if pr != nil {
			flushes = append(flushes, pr)
		}
		if lead {
			leads = append(leads, st)
		}
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

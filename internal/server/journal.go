package server

import (
	"fmt"
	"time"

	"interweave/internal/journal"
	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Journal mode (DESIGN.md §9). With Options.JournalDir set, the
// server's durability is log-structured: every committed release is
// appended to the segment's journal — as a persisted Replicate frame,
// the same message replication carries — before the client sees the
// acknowledgement, and recovery is checkpoint base + log replay. The
// journal's window doubles as the cluster catch-up source: a replica
// that NACKs a fan-out is re-fed the journaled frames covering its
// gap instead of a collected diff (see catchUpFromJournal).
//
// Lock discipline: the primary's appends run on the segment's single
// flusher without the segment mutex (one flusher, so record order
// matches version order — commit.go); the replica apply path and
// promotion append under the segment mutex, whose serialization is
// the only ordering guarantee those paths have. Compaction encodes
// under the segment mutex and writes files outside it.

// DefaultJournalCompactBytes is the per-segment log size that
// triggers compaction when Options.JournalCompactBytes is zero.
const DefaultJournalCompactBytes = 4 << 20

// openJournal opens the journal store and restores every segment it
// holds: decode the checkpoint base, then replay the log tail.
func (s *Server) openJournal() error {
	compact := s.opts.JournalCompactBytes
	if compact == 0 {
		compact = DefaultJournalCompactBytes
	}
	store, err := journal.Open(s.opts.JournalDir, journal.Options{
		CompactBytes: compact,
		Logf:         s.opts.Logf,
	})
	if err != nil {
		return err
	}
	s.journal = store
	for _, name := range store.Segments() {
		if err := s.restoreJournalSeg(name); err != nil {
			return err
		}
	}
	return nil
}

// restoreJournalSeg rebuilds one segment: base (when present) plus an
// in-order replay of the journaled Replicate frames past the base's
// version. The journal store already truncated any torn tail; replay
// of what remains must succeed, or the journal is corrupt in a way
// CRC cannot explain and the restore fails loudly.
func (s *Server) restoreJournalSeg(name string) error {
	l, err := s.journal.Segment(name)
	if err != nil {
		return err
	}
	seg := NewSegment(name)
	applied := make(map[string]appliedWrite)
	if base, ok, err := l.Base(); err != nil {
		return err
	} else if ok {
		payload, err := openCheckpoint(base)
		if err != nil {
			return fmt.Errorf("server: journal base for %q: %w", name, err)
		}
		seg, applied, err = decodeCheckpointPayload(payload)
		if err != nil {
			return fmt.Errorf("server: journal base for %q: %w", name, err)
		}
		if seg.Name != name {
			return fmt.Errorf("server: journal base for %q holds segment %q", name, seg.Name)
		}
	}
	for _, rep := range l.Window(0) {
		if rep.Seg != name {
			return fmt.Errorf("server: journal for %q holds record for %q", name, rep.Seg)
		}
		if rep.Diff == nil || rep.Version <= seg.Version {
			continue // already covered by the base (or a no-op record)
		}
		if _, err := seg.ApplyReplicatedDiff(rep.Diff, rep.Version); err != nil {
			return fmt.Errorf("server: replaying journal of %q at version %d: %w", name, rep.Version, err)
		}
		applied = appliedFromEntries(rep.Applied)
		if s.ins != nil {
			s.ins.journalReplayStartup.Inc()
		}
	}
	if l.DroppedTail() {
		if s.ins != nil {
			s.ins.journalTruncatedTail.Inc()
		}
		s.logf("journal %s: dropped torn tail; recovered to version %d", name, seg.Version)
	}
	s.reg.getOrCreate(name, func(string) *segState { return s.adoptSegState(seg, applied) })
	return nil
}

// journalAppend persists one committed write as a Replicate record.
// It must run before the client (or the primary, on the replica path)
// sees the acknowledgement; an error fails the release. It never
// takes the segment mutex — callers choose whether to hold it (see
// the lock discipline note above).
func (s *Server) journalAppend(st *segState, rep *protocol.Replicate) error {
	if s.journal == nil {
		return nil
	}
	l, err := s.journal.Segment(st.name)
	if err != nil {
		return err
	}
	var start time.Time
	if s.ins != nil {
		start = time.Now()
	}
	if err := l.Append(rep); err != nil {
		return err
	}
	if s.ins != nil {
		s.ins.journalAppends.Inc()
		s.ins.journalAppendSec.ObserveSince(start)
	}
	return nil
}

// journalOutgrown reports whether the named segment's log has outgrown
// the compaction threshold.
func (s *Server) journalOutgrown(name string) bool {
	if s.journal == nil {
		return false
	}
	l, err := s.journal.Segment(name)
	return err == nil && l.NeedsCompaction()
}

// maybeCompactJournal compacts the segment's journal when its log has
// outgrown the threshold — the replica apply path's trigger; a primary
// compacts from its flusher (commit.go). Called without the segment
// mutex (it takes it to encode). Compaction failure is logged, not
// fatal: the log keeps its records and the next trigger retries.
func (s *Server) maybeCompactJournal(st *segState) {
	if !s.journalOutgrown(st.name) {
		return
	}
	if err := s.compactJournalSeg(st); err != nil {
		s.logf("journal compact %s: %v", st.name, err)
	}
}

// encodeBaseLocked encodes the segment image plus at-most-once table —
// a checkpoint base — and names the version it captures. Called with
// st.mu held and the image resident.
func (st *segState) encodeBaseLocked() ([]byte, uint32) {
	return appendApplied(st.seg.encode(), st.applied), st.seg.Version
}

// installJournalBase seals an encoded base and folds the named
// segment's journal into it, dropping the records it covers. Called
// without the segment mutex.
func (s *Server) installJournalBase(name string, ver uint32, buf []byte) error {
	l, err := s.journal.Segment(name)
	if err != nil {
		return err
	}
	if err := l.Compact(ver, sealCheckpoint(buf)); err != nil {
		return err
	}
	if s.ins != nil {
		s.ins.journalCompactions.Inc()
	}
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "journal.compact", Seg: name, N: int64(ver)})
	}
	return nil
}

// compactJournalSeg folds one segment's journal into a fresh
// checkpoint base (encoded under the segment mutex, written outside
// it) and truncates its log. Called without the segment mutex.
func (s *Server) compactJournalSeg(st *segState) error {
	s.lockSeg(st)
	if st.seg == nil || len(st.pending) > 0 {
		// Evicted: the eviction already forced a compaction, so the
		// base + tail on disk capture the state exactly and there is
		// nothing to fold. Releases pending: the image is past the last
		// journaled batch, and a base cut here would fall inside the
		// version range of the record the flusher appends next, which
		// replay could then not apply; the flusher folds an outgrown log
		// itself at its next batch boundary.
		st.mu.Unlock()
		return nil
	}
	buf, ver := st.encodeBaseLocked()
	st.mu.Unlock()
	return s.installJournalBase(st.name, ver, buf)
}

// CompactJournal compacts every segment's journal into a fresh base,
// the journal-mode equivalent of a full checkpoint pass; Checkpoint,
// the periodic loop, and Close delegate here. It is exported so
// operators and tests can force a compaction point.
func (s *Server) CompactJournal() error {
	if s.journal == nil {
		return nil
	}
	if s.ins != nil {
		start := time.Now()
		defer func() { s.ins.ckptSec.ObserveSince(start) }()
	}
	for _, st := range s.reg.snapshot() {
		if err := s.compactJournalSeg(st); err != nil {
			if s.ins != nil {
				s.ins.ckptErrors.Inc()
			}
			return err
		}
	}
	return nil
}

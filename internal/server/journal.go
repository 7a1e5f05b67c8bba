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
// acknowledgement, and recovery is sealed base + log replay
// (loadSegment). The journal's window doubles as the cluster catch-up
// source: a replica that NACKs a fan-out is re-fed the journaled frames
// covering its gap instead of a collected diff (see streamFrom).
//
// Compaction folds a segment's log into a fresh base on three
// triggers: the log outgrowing JournalCompactBytes (checked by the
// flusher and by the replica apply path), eviction, and a full pass
// (CompactJournal, which Close runs).
//
// Lock discipline: the primary's appends run on the segment's single
// flusher without the segment mutex (one flusher, so record order
// matches version order — commit.go); the replica apply path, which
// promotion shares, appends under the segment mutex, whose
// serialization is the only ordering guarantee it has. Compaction
// encodes under the segment mutex and writes files outside it.

// DefaultJournalCompactBytes is the per-segment log size that
// triggers compaction when Options.JournalCompactBytes is zero.
const DefaultJournalCompactBytes = 4 << 20

// openJournal opens the journal store and restores every segment it
// holds through loadJournaled.
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
		seg, applied, replayed, err := s.loadJournaled(name)
		if err != nil {
			return err
		}
		if s.ins != nil {
			s.ins.journalReplayStartup.Add(uint64(replayed))
		}
		if l, err := store.Segment(name); err == nil && l.DroppedTail() {
			if s.ins != nil {
				s.ins.journalTruncatedTail.Inc()
			}
			s.logf("journal %s: dropped torn tail; recovered to version %d", name, seg.Version)
		}
		s.reg.getOrCreate(name, func(string) *segState { return s.adoptSegState(seg, applied) })
	}
	return nil
}

// loadJournaled rebuilds one segment from its journal — the sealed base
// plus the log's records — through loadSegment, for startup restore and
// eviction fault-in alike. The store already truncated any torn tail;
// what remains must load, or the journal is corrupt in a way CRC cannot
// explain and the caller fails loudly.
func (s *Server) loadJournaled(name string) (*Segment, map[string]appliedWrite, int, error) {
	l, err := s.journal.Segment(name)
	if err != nil {
		return nil, nil, 0, err
	}
	base, _, err := l.Base()
	if err != nil {
		return nil, nil, 0, err
	}
	seg, applied, replayed, err := loadSegment(name, base, l.Window(0))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: journal: %w", err)
	}
	return seg, applied, replayed, nil
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
// a journal base — and names the version it captures. Called with
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
	if err := l.Compact(ver, sealBase(buf)); err != nil {
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

// compactJournalSeg folds one segment's journal into a fresh base
// (encoded under the segment mutex, written outside
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

// CompactJournal compacts every segment's journal into a fresh base —
// a full compaction pass, which Close runs too. It is exported so
// operators and tests can force a compaction point.
func (s *Server) CompactJournal() error {
	if s.journal == nil {
		return nil
	}
	if s.ins != nil {
		start := time.Now()
		defer func() { s.ins.compactPassSec.ObserveSince(start) }()
	}
	for _, st := range s.reg.snapshot() {
		if err := s.compactJournalSeg(st); err != nil {
			if s.ins != nil {
				s.ins.compactPassErrors.Inc()
			}
			return err
		}
	}
	return nil
}

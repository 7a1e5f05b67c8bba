package server

import (
	"fmt"
	"sort"
	"time"

	"interweave/internal/obs"
)

// Cold-segment eviction (DESIGN.md §12). With Options.MaxResidentBytes
// or Options.EvictIdleAge set on a journal-mode server, a background
// sweep drops the in-memory image (Segment and its diff cache) of idle
// segments so one server can address more state than RAM. Eviction
// first forces a journal compaction, so the on-disk base + (empty)
// tail capture the segment exactly; what stays behind is a stub — the
// segState with seg == nil, evictedVer recording the version, and the
// in-memory applied-writer table. The next touch faults the image back
// in through the same base + tail replay recovery uses, transparently
// to clients, replicas, and proxies.
//
// Fencing: a segment is evictable only while it has no writer, no
// queued waiters, no releases pending in the commit pipeline, and no
// flush in flight (evictableLocked). Those fences are re-checked after the
// compaction along with pointer identity and version equality, so a
// write, replica frame, promotion, or demotion that slips between the
// compaction and the drop aborts the eviction. Subscribers survive
// eviction untouched: notify fan-out only runs on write paths, which
// fault the segment in first.

// DefaultEvictInterval is the eviction sweep cadence when
// Options.EvictInterval is zero.
const DefaultEvictInterval = time.Second

// residentVersionLocked returns the segment's current version whether
// or not its image is resident. Called with st.mu held.
func (st *segState) residentVersionLocked() uint32 {
	if st.seg != nil {
		return st.seg.Version
	}
	return st.evictedVer
}

// evictableLocked reports whether the segment could be dropped right
// now: image resident and no in-flight work fencing it. Called with
// st.mu held.
func (st *segState) evictableLocked() bool {
	return st.seg != nil && st.writer == nil && len(st.waiters) == 0 &&
		len(st.pending) == 0 && !st.flushing
}

// ensureResident stamps the segment's LRU clock and, when the image
// has been evicted, faults it back in from the journal through the
// same loadJournaled startup restore uses, then verifies the recovered
// version matches the stub. Called with st.mu held — the file reads run
// under the segment's own lock (only touches to this segment block, the
// same exception the replica apply path makes for journal appends).
// The in-memory applied table is authoritative across eviction and is
// left untouched.
func (s *Server) ensureResident(st *segState) error {
	st.lastTouch.Store(time.Now().UnixNano())
	if st.seg != nil {
		return nil
	}
	if s.journal == nil {
		return fmt.Errorf("server: segment %q evicted without a journal", st.name)
	}
	var start time.Time
	if s.ins != nil {
		start = time.Now()
	}
	seg, _, _, err := s.loadJournaled(st.name)
	if err != nil {
		return fmt.Errorf("fault-in: %w", err)
	}
	if seg.Version != st.evictedVer {
		// The journal does not reproduce the state the stub recorded;
		// serving it would hand clients a version they never saw.
		return fmt.Errorf("server: fault-in of %q recovered version %d, stub recorded %d",
			st.name, seg.Version, st.evictedVer)
	}
	st.seg = seg
	st.evictedVer = 0
	if s.ins != nil {
		s.ins.segFaults.Inc()
		s.ins.segFaultSec.ObserveSince(start)
	}
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "segment.fault", Seg: st.name, N: int64(seg.Version)})
	}
	return nil
}

// EvictSegment force-evicts one segment's in-memory image, reporting
// whether it was dropped. It fails (returning false) when the server
// has no journal, the segment does not exist or is already evicted,
// in-flight work fences it, or the compaction cannot complete.
// Exported for tests and operational tooling; the background sweep
// uses the same path.
func (s *Server) EvictSegment(name string) bool {
	st, ok := s.reg.get(name)
	if !ok {
		return false
	}
	return s.evictSeg(st)
}

// evictSeg drops one segment's image: check the fences, force a
// compaction so base + tail capture the state exactly, then re-check
// and drop. The compaction runs outside the segment mutex (standard
// compaction discipline), so the re-check guards pointer identity and
// version equality — any interleaved write, replica frame, promotion,
// or demotion aborts the eviction.
func (s *Server) evictSeg(st *segState) bool {
	if s.journal == nil {
		return false
	}
	s.lockSeg(st)
	if !st.evictableLocked() {
		st.mu.Unlock()
		return false
	}
	seg := st.seg
	ver := seg.Version
	st.mu.Unlock()

	if err := s.compactJournalSeg(st); err != nil {
		s.logf("evict %s: compact: %v", st.name, err)
		return false
	}

	s.lockSeg(st)
	defer st.mu.Unlock()
	if st.seg != seg || st.seg.Version != ver || !st.evictableLocked() {
		// Something touched the segment while the compaction ran: it
		// is not idle after all, keep it resident. (The compaction
		// encoded a version ≥ ver either way, so the journal stays
		// self-consistent.)
		return false
	}
	st.seg = nil
	st.evictedVer = ver
	if s.ins != nil {
		s.ins.segEvictions.Inc()
	}
	if s.flight != nil {
		s.flight.Record(obs.Event{Name: "segment.evict", Seg: st.name, N: int64(ver)})
	}
	return true
}

// EvictPass runs one eviction sweep: segments untouched longer than
// EvictIdleAge are dropped regardless of budget, then, while the
// estimated resident footprint exceeds MaxResidentBytes, the
// least-recently-touched segments are dropped until it fits. Returns
// how many segments were evicted. Exported so tests and operators can
// drive the sweep without the background loop.
func (s *Server) EvictPass() int {
	if s.journal == nil || (s.opts.MaxResidentBytes <= 0 && s.opts.EvictIdleAge <= 0) {
		return 0
	}
	type candidate struct {
		st    *segState
		bytes int64
		touch int64
	}
	var cands []candidate
	var residentBytes int64
	for _, st := range s.reg.snapshot() {
		s.lockSeg(st)
		if st.seg != nil {
			c := candidate{st: st, bytes: st.seg.MemBytes(), touch: st.lastTouch.Load()}
			cands = append(cands, c)
			residentBytes += c.bytes
		}
		st.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].touch < cands[j].touch })
	now := time.Now()
	budget := s.opts.MaxResidentBytes
	idleAge := s.opts.EvictIdleAge
	evicted := 0
	for _, c := range cands {
		overBudget := budget > 0 && residentBytes > budget
		tooIdle := idleAge > 0 && now.Sub(time.Unix(0, c.touch)) >= idleAge
		if !overBudget && !tooIdle {
			// Candidates are ordered oldest touch first: everything
			// after this one is younger still, and the budget holds.
			break
		}
		if s.evictSeg(c.st) {
			evicted++
			residentBytes -= c.bytes
		}
	}
	return evicted
}

// evictLoop runs EvictPass on the configured cadence until Close.
func (s *Server) evictLoop() {
	defer s.wg.Done()
	every := s.opts.EvictInterval
	if every <= 0 {
		every = DefaultEvictInterval
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.EvictPass()
		}
	}
}

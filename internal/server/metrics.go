package server

import (
	"fmt"
	"strings"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Server-side metric names; OBSERVABILITY.md documents each one and
// maps it to its paper figure or DESIGN.md section.
const (
	smRPCSeconds        = "iw_server_rpc_seconds"
	smRPCErrors         = "iw_server_rpc_errors_total"
	smLockWait          = "iw_server_lock_wait_seconds"
	smSegLockContention = "iw_server_seg_lock_contention_total"
	smVersionChecks     = "iw_server_version_checks_total"
	smCollectSeconds    = "iw_server_diff_collect_seconds"
	smApplySeconds      = "iw_server_diff_apply_seconds"
	smDiffBytes         = "iw_server_diff_bytes_total"
	smDiffSize          = "iw_server_diff_size_bytes"
	smUnitsSent         = "iw_server_units_sent_total"
	smUnitsFull         = "iw_server_units_full_total"
	smApplyUnits        = "iw_server_apply_units_total"
	smNotifications     = "iw_server_notifications_total"
	smCheckpointSeconds = "iw_server_checkpoint_seconds"
	smCheckpointErrors  = "iw_server_checkpoint_errors_total"
	smSessions          = "iw_server_sessions"
	smProxySessions     = "iw_server_proxy_sessions"
	smConns             = "iw_server_conns"
	smSessionsOpened    = "iw_server_sessions_opened_total"
	smSessionsEvicted   = "iw_server_sessions_evicted_total"
	smSessionsRefused   = "iw_server_sessions_refused_total"
	smShed              = "iw_server_shed_total"
	smGroupCommits      = "iw_server_group_commits_total"
	smGroupCommitted    = "iw_server_group_commit_releases_total"
	smJournalAppends    = "iw_server_journal_appends_total"
	smJournalAppendSec  = "iw_server_journal_append_seconds"
	smJournalDiskBytes  = "iw_server_journal_disk_bytes"
	smUptime            = "iw_server_uptime_seconds"
	smJournalReplayed   = "iw_server_journal_replayed_total"
	smJournalCompacts   = "iw_server_journal_compactions_total"
	smJournalTruncated  = "iw_server_journal_truncated_tail_total"
	smSegVersion        = "iw_server_segment_version"
	smSegBlocks         = "iw_server_segment_blocks"
	smSegUnits          = "iw_server_segment_units"
	smSegSubscribers    = "iw_server_segment_subscribers"
	smSegWaiters        = "iw_server_segment_waiters"
	smSegCacheHits      = "iw_server_segment_cache_hits"
	smSegsResident      = "iw_server_segments_resident"
	smResidentBytes     = "iw_server_resident_bytes"
	smSegEvictions      = "iw_server_segment_evictions_total"
	smSegFaults         = "iw_server_segment_faults_total"
	smSegFaultSec       = "iw_server_segment_fault_seconds"
)

// serverInstruments holds the server's metric handles. nil disables
// instrumentation (no clocks, no atomics), mirroring the client.
type serverInstruments struct {
	reg *obs.Registry

	lockWait          *obs.Histogram
	segLockContention *obs.Counter
	versionFresh      *obs.Counter
	versionDiff       *obs.Counter
	collectSec        *obs.Histogram
	applySec          *obs.Histogram
	diffSize          *obs.Histogram
	diffBytes         *obs.Counter
	unitsSent         *obs.Counter
	unitsFull         *obs.Counter
	applyUnits        *obs.Counter
	notifications     *obs.Counter
	compactPassSec    *obs.Histogram
	compactPassErrors *obs.Counter
	sessions          *obs.Gauge
	proxySessions     *obs.Gauge
	conns             *obs.Gauge

	sessionsOpened  *obs.Counter
	sessionsEvicted *obs.Counter
	sessionsRefused *obs.Counter
	shed            *obs.Counter
	groupCommits    *obs.Counter
	groupCommitted  *obs.Counter

	journalAppends       *obs.Counter
	journalAppendSec     *obs.Histogram
	journalReplayStartup *obs.Counter
	journalReplayCatchup *obs.Counter
	journalCompactions   *obs.Counter
	journalTruncatedTail *obs.Counter

	segEvictions *obs.Counter
	segFaults    *obs.Counter
	segFaultSec  *obs.Histogram
}

func newServerInstruments(reg *obs.Registry) *serverInstruments {
	return &serverInstruments{
		reg: reg,
		lockWait: reg.Histogram(smLockWait,
			"Time a writer spent queued for a segment's write lock before the grant.",
			obs.DurationBuckets),
		segLockContention: reg.Counter(smSegLockContention,
			"Segment-mutex acquisitions that found the mutex held and had to block (DESIGN.md §8); a high rate against one segment means its handlers contend, not the server."),
		versionFresh: reg.Counter(smVersionChecks,
			"Lock-acquisition freshness checks, by outcome: the client was current (fresh) or needed a diff.",
			obs.L("result", "fresh")),
		versionDiff: reg.Counter(smVersionChecks,
			"Lock-acquisition freshness checks, by outcome: the client was current (fresh) or needed a diff.",
			obs.L("result", "diff")),
		collectSec: reg.Histogram(smCollectSeconds,
			"Server-side diff collection time per lock reply (Figure 5, sv collect).",
			obs.DurationBuckets),
		applySec: reg.Histogram(smApplySeconds,
			"Server-side diff application time per write release (Figure 5, sv apply).",
			obs.DurationBuckets),
		diffSize: reg.Histogram(smDiffSize,
			"Per-reply wire payload size of served diffs.",
			obs.SizeBuckets),
		diffBytes: reg.Counter(smDiffBytes,
			"Wire payload bytes of diff runs served to clients (Figure 7 bandwidth)."),
		unitsSent: reg.Counter(smUnitsSent,
			"Primitive units shipped in served diffs."),
		unitsFull: reg.Counter(smUnitsFull,
			"Primitive units a full transfer would have shipped per served diff; sent/full is the diffing savings."),
		applyUnits: reg.Counter(smApplyUnits,
			"Primitive units modified by applied write releases (subblock-rounded)."),
		notifications: reg.Counter(smNotifications,
			"Frames pushed to subscribers at release: Notify invalidations and the Replicate records pushed to proxy followers."),
		compactPassSec: reg.Histogram(smCheckpointSeconds,
			"Wall time of a full compaction pass (CompactJournal, Close) over every segment's journal.",
			obs.DurationBuckets),
		compactPassErrors: reg.Counter(smCheckpointErrors,
			"Full compaction passes that failed."),
		sessions: reg.Gauge(smSessions,
			"Currently open logical client sessions (a multiplexed connection carries many)."),
		proxySessions: reg.Gauge(smProxySessions,
			"Sessions introduced by ProxyHello (read fan-out proxies); exempt from MaxSessions admission."),
		conns: reg.Gauge(smConns,
			"Currently accepted TCP connections; sessions/conns is the multiplexing ratio."),
		sessionsOpened: reg.Counter(smSessionsOpened,
			"Logical sessions admitted since start."),
		sessionsEvicted: reg.Counter(smSessionsEvicted,
			"Logical sessions evicted by the server (slow consumers shed, stuck connections)."),
		sessionsRefused: reg.Counter(smSessionsRefused,
			"Session creations refused by admission control (Options.MaxSessions reached, CodeOverloaded)."),
		shed: reg.Counter(smShed,
			"Notifications shed because the subscriber's session queue bound or the connection queue was full; every shed evicts the subscriber (DESIGN.md §10)."),
		groupCommits: reg.Counter(smGroupCommits,
			"Commit-pipeline flushes: one journal append + Replicate + notification fan-out covering a batch of releases (every release is in one)."),
		groupCommitted: reg.Counter(smGroupCommitted,
			"Releases the commit pipeline's flushes covered; releases/flushes is the coalescing factor."),
		journalAppends: reg.Counter(smJournalAppends,
			"Replicate records appended to segment journals (one per committed write, before its acknowledgement)."),
		journalAppendSec: reg.Histogram(smJournalAppendSec,
			"Per-record journal append time, encode through write; the journal_append SLO objective watches this for disk stalls.",
			obs.DurationBuckets),
		journalReplayStartup: reg.Counter(smJournalReplayed,
			journalReplayHelp, obs.L("source", "startup")),
		journalReplayCatchup: reg.Counter(smJournalReplayed,
			journalReplayHelp, obs.L("source", "catchup")),
		journalCompactions: reg.Counter(smJournalCompacts,
			"Segment journals folded into a fresh base (log truncated)."),
		journalTruncatedTail: reg.Counter(smJournalTruncated,
			"Journal loads that found and dropped a torn or CRC-failing tail record."),
		segEvictions: reg.Counter(smSegEvictions,
			"Cold-segment evictions: in-memory images dropped after a forced compaction, leaving a journal-backed stub (DESIGN.md §12)."),
		segFaults: reg.Counter(smSegFaults,
			"Evicted segments faulted back in from the journal on a touch."),
		segFaultSec: reg.Histogram(smSegFaultSec,
			"Fault-in time per evicted segment: base decode plus tail replay.",
			obs.DurationBuckets),
	}
}

// journalReplayHelp documents both label values of the replay counter.
const journalReplayHelp = "Journal records replayed, by consumer: segment recovery at startup, or replica catch-up served from the journal window."

// rpcSeconds returns the handling-latency histogram for one RPC kind.
// Registry get-or-create is internally locked, so sessions may race
// here freely.
func (si *serverInstruments) rpcSeconds(rpc string) *obs.Histogram {
	return si.reg.Histogram(smRPCSeconds,
		"Request handling time by protocol message kind, including any lock queueing.",
		obs.DurationBuckets, obs.L("rpc", rpc))
}

// rpcErrors returns the error counter for one RPC kind.
func (si *serverInstruments) rpcErrors(rpc string) *obs.Counter {
	return si.reg.Counter(smRPCErrors,
		"Requests answered with an ErrorReply, by protocol message kind.",
		obs.L("rpc", rpc))
}

// reqName is the metric label for a protocol message: the type's
// short name, e.g. "WriteUnlock".
func reqName(m protocol.Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*protocol.")
}

// collectServerGauges emits the scrape-time gauges — server uptime
// plus the per-segment set — so no continuous bookkeeping is needed.
// It takes one segment lock at a time, in registry order; journal
// sizes are read outside the segment lock (the journal has its own).
func (s *Server) collectServerGauges(emit obs.GaugeEmit) {
	emit(smUptime, "Seconds since this server was constructed.", time.Since(s.start).Seconds())
	var residentSegs, residentBytes int64
	for _, st := range s.reg.snapshot() {
		s.lockSeg(st)
		l := obs.L("seg", st.name)
		emit(smSegVersion, "Current version of each segment.", float64(st.residentVersionLocked()), l)
		emit(smSegSubscribers, "Clients subscribed to each segment's notifications.", float64(st.subs.Len()), l)
		emit(smSegWaiters, "Writers queued for each segment's write lock.", float64(len(st.waiters)), l)
		// The block/unit/cache gauges describe the in-memory image and
		// are skipped for evicted segments rather than emitted as
		// misleading zeros; a scrape never faults a segment in.
		if st.seg != nil {
			residentSegs++
			residentBytes += st.seg.MemBytes()
			emit(smSegBlocks, "Blocks in each segment.", float64(st.seg.NumBlocks()), l)
			emit(smSegUnits, "Primitive units in each segment.", float64(st.seg.TotalUnits()), l)
			emit(smSegCacheHits, "Diff-cache hits served from each segment's cached diff window.", float64(st.seg.CacheHits()), l)
		}
		st.mu.Unlock()
		if s.journal != nil {
			if jl, err := s.journal.Segment(st.name); err == nil {
				emit(smJournalDiskBytes, "On-disk byte length of each segment's journal log (drops to ~0 after compaction).", float64(jl.Size()), l)
			}
		}
	}
	emit(smSegsResident, "Segments whose in-memory image is resident (not evicted to the journal).", float64(residentSegs))
	emit(smResidentBytes, "Estimated heap footprint of all resident segment images; the evictor keeps this under Options.MaxResidentBytes.", float64(residentBytes))
}

// SegmentDebug is one segment's entry in the /debug/segments JSON
// snapshot.
type SegmentDebug struct {
	Name           string `json:"name"`
	Version        uint32 `json:"version"`
	Blocks         int    `json:"blocks"`
	Units          int    `json:"units"`
	Descriptors    int    `json:"descriptors"`
	Subscribers    int    `json:"subscribers"`
	WriterHeld     bool   `json:"writer_held"`
	Waiters        int    `json:"waiters"`
	AppliedWriters int    `json:"applied_writers"`
	// Sessions counts the distinct sessions currently attached to the
	// segment: subscribers, queued writers, and the lock holder.
	Sessions int `json:"sessions"`
	// CacheHits is the segment's cumulative diff-cache hit count.
	CacheHits uint64 `json:"cache_hits"`
	// PendingReleases is the commit-pipeline batch currently waiting
	// for the segment's flusher.
	PendingReleases int `json:"pending_releases"`
	// GroupFlushes and GroupReleases are the segment's cumulative
	// commit-pipeline flush and flushed-release counts;
	// releases/flushes is the segment's coalescing factor.
	GroupFlushes  uint64 `json:"group_flushes"`
	GroupReleases uint64 `json:"group_releases"`
	// JournalBytes is the on-disk length of the segment's journal
	// log, zero when the server is not in journal mode.
	JournalBytes int64 `json:"journal_bytes"`
	// Resident reports whether the segment's in-memory image is
	// loaded; false means it was evicted to its journal and will
	// fault back in on the next touch (DESIGN.md §12).
	Resident bool `json:"resident"`
	// MemBytes is the estimated heap footprint of the resident image,
	// zero while evicted.
	MemBytes int64 `json:"mem_bytes"`
}

// DebugSegments snapshots per-segment state for the /debug/segments
// endpoint and for tests, sorted by segment name.
func (s *Server) DebugSegments() []SegmentDebug {
	sts := s.reg.snapshot()
	out := make([]SegmentDebug, 0, len(sts))
	for _, st := range sts {
		s.lockSeg(st)
		attached := make(map[*clientSession]struct{}, st.subs.Len()+len(st.waiters)+1)
		st.subs.Each(func(cl *clientSession) { attached[cl] = struct{}{} })
		for _, w := range st.waiters {
			attached[w.sess] = struct{}{}
		}
		if st.writer != nil {
			attached[st.writer] = struct{}{}
		}
		sd := SegmentDebug{
			Name:            st.name,
			Version:         st.residentVersionLocked(),
			Subscribers:     st.subs.Len(),
			WriterHeld:      st.writer != nil,
			Waiters:         len(st.waiters),
			AppliedWriters:  len(st.applied),
			Sessions:        len(attached),
			PendingReleases: len(st.pending),
			GroupFlushes:    st.gcFlushes,
			GroupReleases:   st.gcReleases,
			Resident:        st.seg != nil,
		}
		// Image-shape fields describe the resident copy; a debug
		// snapshot never faults a segment in.
		if st.seg != nil {
			sd.Blocks = st.seg.NumBlocks()
			sd.Units = st.seg.TotalUnits()
			sd.Descriptors = len(st.seg.DescSerials())
			sd.CacheHits = st.seg.CacheHits()
			sd.MemBytes = st.seg.MemBytes()
		}
		st.mu.Unlock()
		if s.journal != nil {
			if jl, err := s.journal.Segment(st.name); err == nil {
				sd.JournalBytes = jl.Size()
			}
		}
		out = append(out, sd)
	}
	return out
}

package core

import (
	"fmt"
	"strings"
	"time"

	"interweave/internal/obs"
	"interweave/internal/protocol"
)

// Client-side metric names, documented metric-by-metric in
// OBSERVABILITY.md. Every one maps to a paper figure or DESIGN.md
// section; the mapping is part of the contract and link-checked docs
// keep it honest.
const (
	mRPCLatency     = "iw_client_rpc_latency_seconds"
	mRPCRetries     = "iw_client_rpc_retries_total"
	mRPCErrors      = "iw_client_rpc_transport_errors_total"
	mLockWait       = "iw_client_lock_wait_seconds"
	mDiffCollect    = "iw_client_diff_collect_seconds"
	mDiffApply      = "iw_client_diff_apply_seconds"
	mDiffBytes      = "iw_client_diff_bytes_total"
	mDiffSize       = "iw_client_diff_size_bytes"
	mDiffUnitsSent  = "iw_client_diff_units_sent_total"
	mDiffScanned    = "iw_client_diff_scanned_bytes_total"
	mDiffUnitsFull  = "iw_client_diff_units_full_total"
	mApplyUnits     = "iw_client_apply_units_total"
	mDegradedReads  = "iw_client_degraded_reads_total"
	mWriteConflicts = "iw_client_write_conflicts_total"
	mDials          = "iw_client_dials_total"
	mNoDiffReleases = "iw_client_nodiff_releases_total"
	mVersionChecks  = "iw_client_version_checks_total"
	mRedirects      = "iw_client_redirects_total"
	mReroutes       = "iw_client_reroutes_total"
)

// clientInstruments holds every metric handle a Client updates. It is
// created once in NewClient when Options.Metrics is set; a nil
// *clientInstruments is the disabled state, and every instrumentation
// site is gated on that nil check so a metrics-less client takes no
// time.Now calls and no atomic traffic.
type clientInstruments struct {
	reg *obs.Registry

	// Per-RPC-kind families, filled lazily under Client.mu (all RPC
	// paths already hold it).
	rpcLatency map[string]*obs.Histogram
	rpcRetries map[string]*obs.Counter
	rpcErrors  map[string]*obs.Counter

	lockWaitRead  *obs.Histogram
	lockWaitWrite *obs.Histogram

	diffCollect   *obs.Histogram
	diffApply     *obs.Histogram
	diffSize      *obs.Histogram
	diffBytes     *obs.Counter
	diffUnitsSent *obs.Counter
	diffScanned   *obs.Counter
	diffUnitsFull *obs.Counter
	applyUnits    *obs.Counter

	degradedReads  *obs.Counter
	writeConflicts *obs.Counter
	dials          *obs.Counter
	noDiffReleases *obs.Counter
	versionFresh   *obs.Counter
	versionUpdate  *obs.Counter
	redirects      *obs.Counter
	reroutes       *obs.Counter
}

func newClientInstruments(reg *obs.Registry) *clientInstruments {
	return &clientInstruments{
		reg:        reg,
		rpcLatency: make(map[string]*obs.Histogram),
		rpcRetries: make(map[string]*obs.Counter),
		rpcErrors:  make(map[string]*obs.Counter),
		lockWaitRead: reg.Histogram(mLockWait,
			"Time to acquire a segment lock, local gate plus server round trip.",
			obs.DurationBuckets, obs.L("mode", "read")),
		lockWaitWrite: reg.Histogram(mLockWait,
			"Time to acquire a segment lock, local gate plus server round trip.",
			obs.DurationBuckets, obs.L("mode", "write")),
		diffCollect: reg.Histogram(mDiffCollect,
			"Wall time of diff collection at write-lock release (Figure 5, cl collect).",
			obs.DurationBuckets),
		diffApply: reg.Histogram(mDiffApply,
			"Wall time of applying an incoming diff to the cached copy (Figure 5, cl apply).",
			obs.DurationBuckets),
		diffSize: reg.Histogram(mDiffSize,
			"Per-release wire payload size of outgoing diffs.",
			obs.SizeBuckets),
		diffBytes: reg.Counter(mDiffBytes,
			"Wire payload bytes of outgoing diff runs (Figure 7 bandwidth)."),
		diffUnitsSent: reg.Counter(mDiffUnitsSent,
			"Primitive units shipped in outgoing diffs."),
		diffScanned: reg.Counter(mDiffScanned,
			"Bytes of modified pages compared against their twins at release (the store-hinted chunks)."),
		diffUnitsFull: reg.Counter(mDiffUnitsFull,
			"Primitive units a full transfer would have shipped at each release; sent/full is the diffing savings."),
		applyUnits: reg.Counter(mApplyUnits,
			"Primitive units written by incoming diff application."),
		degradedReads: reg.Counter(mDegradedReads,
			"Read locks granted from the cache because the server was unreachable under relaxed coherence."),
		writeConflicts: reg.Counter(mWriteConflicts,
			"Write releases abandoned after losing a conflict during reconnect."),
		dials: reg.Counter(mDials,
			"Server connections dialed, including reconnects after failures."),
		noDiffReleases: reg.Counter(mNoDiffReleases,
			"Write releases transmitted in no-diff (whole block) mode (Section 3.3)."),
		versionFresh: reg.Counter(mVersionChecks,
			"Read-lock freshness checks against the server, by outcome.",
			obs.L("result", "fresh")),
		versionUpdate: reg.Counter(mVersionChecks,
			"Read-lock freshness checks against the server, by outcome.",
			obs.L("result", "update")),
		redirects: reg.Counter(mRedirects,
			"Redirect replies followed to a segment's ring owner."),
		reroutes: reg.Counter(mReroutes,
			"Segment routes repointed at a new owner after failing to reach the old one."),
	}
}

// rpcName is the metric label for a protocol message: the type's
// short name, e.g. "ReadLock".
func rpcName(m protocol.Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*protocol.")
}

// latency returns the latency histogram for one RPC kind. Callers
// hold Client.mu, which also serializes the lazy map fill.
func (ci *clientInstruments) latency(rpc string) *obs.Histogram {
	h, ok := ci.rpcLatency[rpc]
	if !ok {
		h = ci.reg.Histogram(mRPCLatency,
			"Round-trip latency of client RPCs by protocol message kind.",
			obs.DurationBuckets, obs.L("rpc", rpc))
		ci.rpcLatency[rpc] = h
	}
	return h
}

// retries returns the retry counter for one RPC kind (caller holds
// Client.mu).
func (ci *clientInstruments) retries(rpc string) *obs.Counter {
	c, ok := ci.rpcRetries[rpc]
	if !ok {
		c = ci.reg.Counter(mRPCRetries,
			"Transport-failed RPC attempts that were retried after reconnect/backoff.",
			obs.L("rpc", rpc))
		ci.rpcRetries[rpc] = c
	}
	return c
}

// transportErrors returns the transport-error counter for one RPC
// kind (caller holds Client.mu).
func (ci *clientInstruments) transportErrors(rpc string) *obs.Counter {
	c, ok := ci.rpcErrors[rpc]
	if !ok {
		c = ci.reg.Counter(mRPCErrors,
			"RPC attempts that failed at the transport layer (connection death or timeout).",
			obs.L("rpc", rpc))
		ci.rpcErrors[rpc] = c
	}
	return c
}

// trace emits a structured event to the Options.Trace hook, if any,
// stamping the monotonic timestamp unless the emitter already did.
// The clock read happens only when a hook is installed.
func (c *Client) trace(ev obs.Event) {
	if c.traceFn != nil {
		if ev.At.IsZero() {
			ev.At = time.Now()
		}
		c.traceFn(ev)
	}
}

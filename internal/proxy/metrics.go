package proxy

import (
	"encoding/json"
	"net/http"
	"time"

	"interweave/internal/obs"
)

// Metric names (OBSERVABILITY.md). The fan-out ratio — how many
// downstream frames each upstream frame turned into —
// is pm_downstream_notifies / pm_upstream_notifies; the flagship
// scale property (primary fan-out grows with proxies, not readers) is
// asserted from the origin's iw_server_notifications_total against
// these.
const (
	pmReads              = "iw_proxy_reads_total"
	pmDegradedReads      = "iw_proxy_reads_degraded_total"
	pmSyncReads          = "iw_proxy_reads_sync_pull_total"
	pmPulls              = "iw_proxy_pulls_total"
	pmPullErrors         = "iw_proxy_pull_errors_total"
	pmForwardedWrites    = "iw_proxy_forwarded_writes_total"
	pmForwardErrors      = "iw_proxy_forward_errors_total"
	pmUpstreamNotifies   = "iw_proxy_upstream_notifies_total"
	pmDownstreamNotifies = "iw_proxy_downstream_notifies_total"
	pmSessions           = "iw_proxy_sessions"
	pmSessionsOpened     = "iw_proxy_sessions_opened_total"
	pmSessionsEvicted    = "iw_proxy_sessions_evicted_total"
	pmShed               = "iw_proxy_shed_total"
	pmMirrors            = "iw_proxy_mirrors"
	pmDegradedMirrors    = "iw_proxy_mirrors_degraded"
	pmLagVersions        = "iw_proxy_upstream_lag_versions"
	pmLagSeconds         = "iw_proxy_upstream_lag_seconds"
	pmUptime             = "iw_proxy_uptime_seconds"
)

// proxyInstruments holds the proxy's counter handles.
type proxyInstruments struct {
	reads              *obs.Counter
	degradedReads      *obs.Counter
	syncReads          *obs.Counter
	pulls              *obs.Counter
	pullErrors         *obs.Counter
	forwardedWrites    *obs.Counter
	forwardErrors      *obs.Counter
	upstreamNotifies   *obs.Counter
	downstreamNotifies *obs.Counter
	sessionsOpened     *obs.Counter
	sessionsEvicted    *obs.Counter
	shed               *obs.Counter
}

func newProxyInstruments(reg *obs.Registry) *proxyInstruments {
	return &proxyInstruments{
		reads: reg.Counter(pmReads,
			"Downstream ReadLock requests served from the mirror."),
		degradedReads: reg.Counter(pmDegradedReads,
			"Reads served from a stale mirror while the upstream was unreachable."),
		syncReads: reg.Counter(pmSyncReads,
			"Reads that exceeded the staleness bound and waited for the mirror to follow its upstream."),
		pulls: reg.Counter(pmPulls,
			"Follow round trips (follower Subscribe) against the upstream: open, maintenance, held-back reads and catch-ups."),
		pullErrors: reg.Counter(pmPullErrors,
			"Follow round trips that failed to reach the upstream."),
		forwardedWrites: reg.Counter(pmForwardedWrites,
			"Write-path requests (WriteLock/WriteUnlock/TxCommit/Resume) forwarded upstream."),
		forwardErrors: reg.Counter(pmForwardErrors,
			"Forwarded write-path requests that failed in transport (server-reported errors relay verbatim and are not counted)."),
		upstreamNotifies: reg.Counter(pmUpstreamNotifies,
			"Frames the upstream pushed for a mirror: one record (or Notify) per upstream version, regardless of reader count."),
		downstreamNotifies: reg.Counter(pmDownstreamNotifies,
			"Invalidation notifications fanned out to downstream subscribers."),
		sessionsOpened: reg.Counter(pmSessionsOpened,
			"Downstream sessions opened since start."),
		sessionsEvicted: reg.Counter(pmSessionsEvicted,
			"Downstream sessions torn down by the proxy for being slow consumers."),
		shed: reg.Counter(pmShed,
			"Downstream notifications dropped because a session's or connection's send queue was full; each shed evicts the session."),
	}
}

// collectGauges contributes the proxy's render-time gauges: session
// and mirror counts, and the worst-case upstream lag in versions and
// seconds across all mirrors.
func (p *Proxy) collectGauges(emit obs.GaugeEmit) {
	p.mu.Lock()
	sessions := p.sessions
	mirrors := make([]*mirror, 0, len(p.mirrors))
	for _, m := range p.mirrors {
		mirrors = append(mirrors, m)
	}
	p.mu.Unlock()
	now := time.Now()
	var maxLagV uint32
	var maxLagS float64
	degraded := 0
	for _, m := range mirrors {
		m.mu.Lock()
		if m.upstreamVer > m.seg.Version && m.upstreamVer-m.seg.Version > maxLagV {
			maxLagV = m.upstreamVer - m.seg.Version
		}
		if !m.lastSync.IsZero() {
			if age := now.Sub(m.lastSync).Seconds(); age > maxLagS {
				maxLagS = age
			}
		}
		if m.degraded {
			degraded++
		}
		m.mu.Unlock()
	}
	emit(pmSessions, "Live downstream sessions.", float64(sessions))
	emit(pmMirrors, "Segments mirrored from the upstream.", float64(len(mirrors)))
	emit(pmDegradedMirrors, "Mirrors whose upstream is currently unreachable.", float64(degraded))
	emit(pmLagVersions, "Worst mirror lag behind the newest upstream version heard.", float64(maxLagV))
	emit(pmLagSeconds, "Worst mirror age since last confirmed upstream sync.", maxLagS)
	emit(pmUptime, "Seconds since the proxy was constructed.", now.Sub(p.start).Seconds())
}

// Health statuses, mirroring the server's health plane vocabulary so
// fleet tooling treats proxies and servers uniformly.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// Health is the proxy's health verdict (same JSON shape as the
// server's /healthz document).
type Health struct {
	Status        string   `json:"status"`
	Reasons       []string `json:"reasons,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

// Health computes the proxy's verdict: degraded when any mirror's
// upstream is unreachable, ok otherwise. A degraded proxy still
// serves — that is the point — but operators should know.
func (p *Proxy) Health(now time.Time) Health {
	h := Health{Status: HealthOK, UptimeSeconds: now.Sub(p.start).Seconds()}
	p.mu.Lock()
	mirrors := make([]*mirror, 0, len(p.mirrors))
	for _, m := range p.mirrors {
		mirrors = append(mirrors, m)
	}
	p.mu.Unlock()
	for _, m := range mirrors {
		m.mu.Lock()
		if m.degraded {
			h.Status = HealthDegraded
			h.Reasons = append(h.Reasons, "upstream unreachable for "+m.name+" (serving stale)")
		}
		m.mu.Unlock()
	}
	return h
}

// HealthzHandler serves the health verdict as JSON. Degraded answers
// 200 — a degraded proxy is doing its job (serving stale reads while
// the upstream is away), not failing it.
func (p *Proxy) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := p.Health(time.Now())
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h)
	})
}

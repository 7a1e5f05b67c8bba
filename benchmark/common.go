package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"interweave/internal/arch"
	"interweave/internal/core"
	"interweave/internal/obs"
	"interweave/internal/server"
)

const pageSize = arch.PageSize

// runCtx is one run's parameters, as the command line gave them.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in the untraced run
	scratch string  // directory for journals; inside the checkout
	tag     string  // unique per run, names scratch subdirectories
}

func (c *runCtx) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// bench is one workload, set up and warm.
type bench interface {
	// measure runs the measured window and fills res.
	measure(ctx *runCtx, res *result) error
	// coldRead has a new client (after a server restart from the
	// journal, where the workload has one) read every segment once and
	// verify it, and returns how long the reads took.
	coldRead(ctx *runCtx) (time.Duration, error)
	// coldReaders is how many goroutines may call coldRead at once.
	coldReaders() int
	close() error
}

type workload struct {
	name  string
	setup func(ctx *runCtx) (bench, error)
}

var workloads = []workload{
	{"hetero_sparse", setupHetero(false)},
	{"hetero_bulk", setupHetero(true)},
	{"fanout_read", setupFanout(false)},
	{"proxy_read", setupFanout(true)},
	{"durable_write", setupDurable},
}

// base is what every workload has: the tier it runs against and, in
// traced runs, the raw-RPC probe beside it.
type base struct {
	tier tier
	pr   *probe

	// State of the registries and the probe at the start of the window.
	srvSnap, pxSnap obs.Snapshot
	probeMark       int64
	// staleness collects, in traced proxy_read runs, how many versions
	// behind the writer each proxied read was answered.
	staleMu   sync.Mutex
	staleness []float64
}

// start boots the tier: the origin, the proxy when the workload has
// one or the run is traced (the probe reads through it), and the probe.
func (b *base) start(ctx *runCtx, opts server.Options, withProxy bool) error {
	traced := ctx.tr != nil
	if err := b.tier.startServer(opts, traced); err != nil {
		return err
	}
	if withProxy || traced {
		if err := b.tier.startProxy(traced); err != nil {
			_ = b.tier.close()
			return err
		}
	}
	if traced {
		pr, err := startProbe(ctx.tr, &b.tier)
		if err != nil {
			_ = b.tier.close()
			return err
		}
		b.pr = pr
	}
	return nil
}

func (b *base) close() error {
	var first error
	if b.pr != nil {
		first = b.pr.close()
		b.pr = nil
	}
	if err := b.tier.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// released is what one write critical section left behind.
type released struct {
	at      time.Time // when the WUnlock call began
	noDiff  bool      // whether the client released in no-diff mode
	wunlock int32     // the core.wunlock span
}

// writeSection runs one write critical section on h — WLock, the
// caller's stores, WUnlock — with a span around each, under root.
func writeSection(tr *tracer, root int32, n int64, c *core.Client, h *core.Segment, store func() error) (released, error) {
	var rel released
	id := tr.begin("core.wlock", root, n)
	err := c.WLock(h)
	tr.end(id)
	if err != nil {
		return rel, err
	}
	id = tr.begin("mem.write", root, n)
	err = store()
	tr.end(id)
	if err != nil {
		_ = c.WUnlock(h)
		return rel, err
	}
	rel.noDiff = h.NoDiffMode()
	rel.at = time.Now()
	rel.wunlock = tr.begin("core.wunlock", root, n)
	err = c.WUnlock(h)
	tr.end(rel.wunlock)
	return rel, err
}

// markWindow snapshots the tier's registries at the start of the
// measured window, so layer counts cover the window only.
func (b *base) markWindow() {
	if b.pr == nil {
		return
	}
	b.srvSnap = b.tier.srvReg.Snapshot()
	b.pxSnap = b.tier.pxReg.Snapshot()
	b.probeMark = b.pr.n.Load()
}

// family sums a snapshot's counters and gauges of one metric family,
// across its label sets.
func family(s obs.Snapshot, name string) float64 {
	var sum float64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += float64(v)
		}
	}
	for k, v := range s.Gauges {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endWindow stops the probe and computes the server.* and proxy.*
// counts from the existing obs registries (passed via Options.Metrics
// in traced runs only), over the window, and the journal's compaction
// count. commits is how many releases the workload itself committed in
// the window.
func (b *base) endWindow(res *result, commits int) error {
	pr := b.pr
	b.pr = nil
	if err := pr.close(); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	srv, px := b.tier.srvReg.Snapshot(), b.tier.pxReg.Snapshot()
	delta := func(now, then obs.Snapshot, name string) float64 { return family(now, name) - family(then, name) }
	sd := func(name string) float64 { return delta(srv, b.srvSnap, name) }
	pd := func(name string) float64 { return delta(px, b.pxSnap, name) }

	// Every release in the window, the probe's included: one journal
	// append, notify pass and group-commit slot each.
	releases := float64(commits) + float64(pr.n.Load()-b.probeMark)
	// Above one where group commit's flush reads the cache as well.
	res.Layer["server.diffcache_hits_per_diff"] = ratio(sd("iw_server_segment_cache_hits"), sd(`iw_server_version_checks_total{result="diff"}`))
	res.Layer["server.notifies_per_commit"] = ratio(sd("iw_server_notifications_total"), releases)
	res.Layer["server.groupcommit_batch"] = ratio(sd("iw_server_group_commit_releases_total"), sd("iw_server_group_commits_total"))
	res.Layer["journal.compactions"] = sd("iw_server_journal_compactions_total")
	res.Layer["proxy.syncs_per_commit"] = ratio(pd("iw_proxy_pulls_total"), releases)
	res.Layer["proxy.degraded_reads"] = pd("iw_proxy_reads_degraded_total")
	stale := append(b.staleness, pr.staleness...)
	sort.Float64s(stale)
	res.Layer["proxy.stale_versions_p95"] = percentile(stale, 0.95)
	return nil
}

// runtimeMark is the process-wide runtime state at the window's start.
type runtimeMark struct {
	on bool
	ms runtime.MemStats
}

// startRuntime collects garbage left by set-up, so every window starts
// from a settled heap, and in traced runs marks the allocator state.
func startRuntime(ctx *runCtx) *runtimeMark {
	runtime.GC()
	m := &runtimeMark{on: ctx.tr != nil}
	if m.on {
		runtime.ReadMemStats(&m.ms)
	}
	return m
}

// fill reports allocation and collector cost over the window, per
// operation; process-wide, so servers, clients and generator together.
func (m *runtimeMark) fill(res *result, ops int) {
	if !m.on || ops == 0 {
		return
	}
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.Layer["runtime.alloc_bytes_op"] = float64(now.TotalAlloc-m.ms.TotalAlloc) / float64(ops)
	res.Layer["runtime.allocs_op"] = float64(now.Mallocs-m.ms.Mallocs) / float64(ops)
	res.Layer["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-m.ms.PauseTotalNs) / 1e6
	res.Layer["runtime.heap_live_mb"] = float64(now.HeapAlloc) / (1 << 20)
}

// replayRounds replays the sampled rounds through the hidden layers
// and turns the trace's span statistics into the per-layer times.
func replayRounds(ctx *runCtx, res *result, sh shape, wprof, rprof *arch.Profile, compactBytes int64, store storeFunc, recs []roundRec) error {
	jdir := filepath.Join(ctx.scratch, "replay-"+ctx.tag)
	r, err := newRig(ctx.tr, sh, wprof, rprof, segName("replay"), jdir, compactBytes, store)
	if err != nil {
		return err
	}
	// The replay phase is bounded like the window: with more rounds
	// sampled than fit, the earliest are replayed.
	deadline := time.Now().Add(ctx.window())
	for _, rec := range recs {
		if err := r.replay(rec); err != nil {
			return fmt.Errorf("replaying round %d: %w", rec.n, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return r.finish(res.Layer)
}

// spanMetrics maps per-layer time metrics to the span they are the
// mean self time of, in microseconds.
var spanMetrics = map[string]string{
	"mem.write_us":           "mem.write",
	"diff.collect_us":        "diff.collect",
	"diff.translate_us":      "diff.translate",
	"diff.apply_us":          "diff.apply",
	"wire.marshal_us":        "wire.marshal",
	"wire.unmarshal_us":      "wire.unmarshal",
	"protocol.frame_us":      "protocol.frame",
	"core.wlock_us":          "core.wlock",
	"core.wunlock_us":        "core.wunlock",
	"core.rlock_us":          "core.rlock",
	"server.readlock_rpc_us": "server.readlock_rpc",
	"server.commit_rpc_us":   "server.commit_rpc",
	"proxy.read_rpc_us":      "proxy.read_rpc",
	"journal.append_us":      "journal.append",
	"journal.compact_us":     "journal.compact",
	"journal.replay_us":      "journal.replay",
}

// fillSpanLayers sets every span-derived metric from the trace.
func fillSpanLayers(res *result, spans []span) {
	ls := layers(spans)
	for metric, name := range spanMetrics {
		if st := ls[name]; st != nil {
			res.Layer[metric] = st.MeanSelfUS
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

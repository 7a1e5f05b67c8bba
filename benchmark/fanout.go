package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/mem"
	"interweave/internal/protocol"
	"interweave/internal/server"
	"interweave/internal/wire"
)

// fanout_read and proxy_read: 2 000 multiplexed sessions of all five
// architecture profiles, a fifth of them subscribed, ride two TCP
// connections and read 16 small int32 segments, while one background
// writer commits every 10 ms and an auditing Sparc client checks each
// commit's contents. fanout_read attaches the sessions to the origin;
// proxy_read attaches them to one read fan-out proxy and makes 5 % of
// the scheduled operations a forwarded no-op write lock/unlock.
//
// Phase A (40 % of the window) is an open loop at a fixed rate, each
// read timed from the moment it was due; phase B (60 %) is a closed
// loop of the same two issuers at saturation, where the gated latency
// and throughput are taken.

const (
	fanSegments    = 16
	fanWords       = 1024
	fanSessions    = 2000
	fanCommitWords = 8
	fanCommitEvery = 10 * time.Millisecond
	fanWarmOps     = 1000 // per issuer, after every session's first read

	// openLoopRate is phase A's fixed rate, calibrated once to about
	// half of what phase B saturates at on the 2-core reference box
	// (see README); never adjusted per run.
	openLoopRate = 16000

	// openP95LimitMS is the latency limit on phase A's read p95.
	openP95LimitMS = 10.0

	// lateLimitMS marks a run invalid: a generator later than this at
	// p95 measured its own scheduling, not the system.
	lateLimitMS = 1.0
)

var (
	fanWriterProf  = arch.AMD64()
	fanAuditorProf = arch.Sparc()
)

// muxReader is one session plus the client state it stands for: the
// segment it reads and the version it holds. Each is driven by one
// issuer only.
type muxReader struct {
	s    *core.MuxSession
	seg  int
	have uint32
}

type fanout struct {
	base
	viaProxy bool
	seed     int64
	names    []string

	writer, auditor *core.Client
	wh, ah          []*core.Segment
	wim, aim        []*image
	committed       []atomic.Uint32 // newest released version per segment
	commits         atomic.Int64
	faults, twins   atomic.Uint64 // the writer heap's fault counters
	stopWriter      chan struct{}
	writerDone      chan struct{} // closed when writeLoop returns
	writerStarted   bool
	writerErr       error
	recs            []roundRec // sampled commits, for the replay
	recsOn          atomic.Bool
	tr              *tracer

	conns   [2]*core.MuxConn
	readers [2][]*muxReader // per issuer: the sessions on its connection
	writers [2][]*muxReader // proxy_read: the sessions that also write
	evicted atomic.Int64
}

func setupFanout(viaProxy bool) func(ctx *runCtx) (bench, error) {
	return func(ctx *runCtx) (bench, error) {
		f := &fanout{viaProxy: viaProxy, seed: ctx.seed, tr: ctx.tr,
			committed:  make([]atomic.Uint32, fanSegments),
			stopWriter: make(chan struct{}), writerDone: make(chan struct{})}
		if err := f.start(ctx, server.Options{}, viaProxy); err != nil {
			return nil, err
		}
		if err := f.open(); err != nil {
			_ = f.close()
			return nil, err
		}
		return f, nil
	}
}

func (f *fanout) open() error {
	var err error
	if f.writer, err = newClient("writer", fanWriterProf, &f.tier.origin); err != nil {
		return err
	}
	if f.auditor, err = newClient("auditor", fanAuditorProf, &f.tier.origin); err != nil {
		return err
	}
	for i := 0; i < fanSegments; i++ {
		name := segName(fmt.Sprintf("fan-%d", i))
		h, im, _, err := createSegment(f.writer, name, shape{words: fanWords})
		if err != nil {
			return err
		}
		f.names, f.wh, f.wim = append(f.names, name), append(f.wh, h), append(f.wim, im)
		f.committed[i].Store(h.Version())
		ah, err := f.auditor.Open(name)
		if err != nil {
			return err
		}
		if err := f.auditor.RLock(ah); err != nil {
			return err
		}
		aim, err := imageOf(ah.Mem())
		if uerr := f.auditor.RUnlock(ah); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
		f.ah, f.aim = append(f.ah, ah), append(f.aim, aim)
	}
	f.writerStarted = true
	go f.writeLoop()

	// Sessions: split over two connections, profiles in rotation.
	d := &f.tier.origin
	if f.viaProxy {
		d = &f.tier.proxy
	}
	profiles := arch.Profiles()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for j := range f.conns {
		mc, err := core.DialMux("", core.MuxOptions{
			Dial:       d.dial,
			RPCTimeout: rpcTimeout,
			OnEvict:    func(*core.MuxSession, string) { f.evicted.Add(1) },
		})
		if err != nil {
			return err
		}
		f.conns[j] = mc
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = f.openSessions(j, profiles)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openSessions opens issuer j's share of the sessions, gives each its
// first (whole-segment) read, and runs the issuer's warm-up traffic.
func (f *fanout) openSessions(j int, profiles []*arch.Profile) error {
	for i := j; i < fanSessions; i += 2 {
		s, err := f.conns[j].NewSession(fmt.Sprintf("reader-%d", i), profiles[i%len(profiles)].Name)
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		r := &muxReader{s: s, seg: (i / 2) % fanSegments}
		if i%5 == 0 {
			if _, err := s.Call(&protocol.Subscribe{Seg: f.names[r.seg], Policy: coherence.Full()}); err != nil {
				return fmt.Errorf("session %d subscribe: %w", i, err)
			}
		}
		if _, err := f.read(r); err != nil {
			return fmt.Errorf("session %d first read: %w", i, err)
		}
		f.readers[j] = append(f.readers[j], r)
		// One session in a hundred also writes, so the proxy's
		// per-session upstream forwarders are few and dialed in warm-up.
		if f.viaProxy && i%100 < 2 {
			if err := f.write(r); err != nil {
				return fmt.Errorf("session %d first write: %w", i, err)
			}
			f.writers[j] = append(f.writers[j], r)
		}
	}
	rng := rand.New(rand.NewSource(f.seed*2 + int64(j)))
	for k := 0; k < fanWarmOps; k++ {
		if _, _, err := f.op(j, rng); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// writeLoop is the background writer: every fanCommitEvery it commits
// fanCommitWords changed words to the next segment, each word holding
// the version the commit produces, and the auditor reads them back.
func (f *fanout) writeLoop() {
	defer close(f.writerDone)
	tick := time.NewTicker(fanCommitEvery)
	defer tick.Stop()
	for n := int64(1); ; n++ {
		select {
		case <-f.stopWriter:
			return
		case <-tick.C:
		}
		if err := f.commit(n); err != nil {
			f.writerErr = fmt.Errorf("commit %d: %w", n, err)
			return
		}
	}
}

func (f *fanout) commitStore(im *image, n int64) (int, int, error) {
	pos := wordPositions(mix64(f.seed, n), fanCommitWords, fanWords)
	return 4 * len(pos), len(pos), im.writeWords(pos, int32(n))
}

func (f *fanout) commit(n int64) error {
	tr := f.tr
	si := int(n % fanSegments)
	h := f.wh[si]
	root := tr.begin("commit", 0, n)
	defer tr.end(root)

	var want uint32
	pos := wordPositions(mix64(f.seed, n), fanCommitWords, fanWords)
	rel, err := writeSection(tr, root, n, f.writer, h, func() error {
		want = h.Version() + 1 // under the write lock: the version this release produces
		return f.wim[si].writeWords(pos, int32(want))
	})
	if err != nil {
		return err
	}
	if got := h.Version(); got != want {
		return fmt.Errorf("segment %d: release produced version %d, want %d", si, got, want)
	}
	f.committed[si].Store(want)
	f.commits.Add(1)
	st := f.writer.Heap().Stats()
	f.faults.Store(st.Faults)
	f.twins.Store(st.Twins)

	// Audit: another architecture must see exactly these words.
	ah := f.ah[si]
	rid := tr.begin("core.rlock", root, n)
	err = f.auditor.RLock(ah)
	tr.end(rid)
	if err != nil {
		return err
	}
	if got := ah.Version(); got != want {
		err = fmt.Errorf("segment %d: auditor holds version %d, want %d", si, got, want)
	}
	for _, w := range pos {
		v, rerr := f.aim[si].heap.ReadI32(f.aim[si].data.Addr + mem.Addr(4*w))
		if err == nil && (rerr != nil || v != int32(want)) {
			err = fmt.Errorf("segment %d word %d: auditor reads %d (%v), want %d", si, w, v, rerr, want)
		}
	}
	if uerr := f.auditor.RUnlock(ah); err == nil {
		err = uerr
	}
	if f.recsOn.Load() && n%replayEvery == 0 {
		f.recs = append(f.recs, roundRec{n: n, noDiff: rel.noDiff, round: root, wunlock: rel.wunlock, rlock: rid})
	}
	return err
}

// read is one session's ReadLock/ReadUnlock pair with its correctness
// gates: the held version never goes back, a diff's version is past
// the held one, no word of a diff is newer than the diff's version and
// one is exactly that new, and the answer is no staler than the tier
// allows. It returns when the lock reply arrived.
func (f *fanout) read(r *muxReader) (time.Time, error) {
	name := f.names[r.seg]
	newest := f.committed[r.seg].Load()
	reply, err := r.s.Call(&protocol.ReadLock{Seg: name, HaveVersion: r.have, Policy: coherence.Full()})
	done := time.Now()
	if err != nil {
		return done, err
	}
	lr, ok := reply.(*protocol.LockReply)
	switch {
	case !ok:
		return done, fmt.Errorf("read of %s: reply %T", name, reply)
	case lr.Diff != nil:
		if lr.Diff.Version <= r.have {
			return done, fmt.Errorf("read of %s: diff to version %d for a reader at %d", name, lr.Diff.Version, r.have)
		}
		if err := checkWords(lr.Diff); err != nil {
			return done, fmt.Errorf("read of %s: %w", name, err)
		}
		r.have = lr.Diff.Version
	case !lr.Fresh:
		return done, fmt.Errorf("read of %s: neither fresh nor a diff", name)
	}
	allowed := uint32(0) // Full coherence at the origin: nothing released before the read may be missing
	if f.viaProxy {
		allowed = proxyLag
	}
	if newest > r.have+allowed {
		return done, fmt.Errorf("read of %s: answered version %d, %d behind the writer (bound %d)", name, r.have, newest-r.have, allowed)
	}
	if f.viaProxy && f.recsOn.Load() {
		stale := 0.0
		if newest > r.have {
			stale = float64(newest - r.have)
		}
		f.staleMu.Lock()
		f.staleness = append(f.staleness, stale)
		f.staleMu.Unlock()
	}
	_, err = r.s.Call(&protocol.ReadUnlock{Seg: name})
	return done, err
}

// checkWords verifies an int32-array diff against what the writer
// stores: every commit writes the version it produces, so no word may
// exceed the diff's version, and past the creation version one word
// must equal it.
func checkWords(d *wire.SegmentDiff) error {
	var max uint32
	for _, bd := range d.Blocks {
		for _, run := range bd.Runs {
			if len(run.Data) != 4*int(run.Count) {
				return fmt.Errorf("run of %d units carries %d bytes", run.Count, len(run.Data))
			}
			for b := run.Data; len(b) > 0; b = b[4:] {
				if v := binary.BigEndian.Uint32(b); v > max {
					max = v
				}
			}
		}
	}
	if max > d.Version || (d.Version > 1 && max != d.Version) {
		return fmt.Errorf("diff to version %d holds newest word %d", d.Version, max)
	}
	return nil
}

// write is a no-op write lock/unlock pair, which a proxy forwards
// upstream; versions do not move.
func (f *fanout) write(r *muxReader) error {
	name := f.names[r.seg]
	if _, err := r.s.Call(&protocol.WriteLock{Seg: name, HaveVersion: r.have, Policy: coherence.Full()}); err != nil {
		return err
	}
	_, err := r.s.Call(&protocol.WriteUnlock{Seg: name})
	return err
}

// op issues issuer j's next scheduled operation and reports whether it
// was a read and, for a read, when its reply arrived.
func (f *fanout) op(j int, rng *rand.Rand) (isRead bool, done time.Time, err error) {
	if ws := f.writers[j]; len(ws) > 0 && rng.Intn(100) < 5 {
		return false, time.Time{}, f.write(ws[rng.Intn(len(ws))])
	}
	rs := f.readers[j]
	done, err = f.read(rs[rng.Intn(len(rs))])
	return true, done, err
}

// issued is what one issuer recorded over one phase.
type issued struct {
	reads     []sample
	late      []time.Duration // phase A: how long after the due time the timer woke an idle issuer
	behind    []time.Duration // phase A: how long after its due time each op started
	busy      time.Duration   // time spent inside operations
	attempted int64
	failed    int64
}

// spanEvery is the share of session operations a traced run records a
// span for; the commits, which the layer replay hangs under, are all
// recorded.
const spanEvery = 16

// issue runs issuer j's operation k, timing a read from from, and
// records the outcome.
func (f *fanout) issue(j int, k int64, rng *rand.Rand, start, from time.Time, out *issued) {
	var id int32
	if k%spanEvery == 0 {
		id = f.tr.begin("session_op", 0, 2*k+int64(j))
	}
	t0 := time.Now()
	isRead, done, err := f.op(j, rng)
	out.busy += time.Since(t0)
	if id != 0 {
		f.tr.end(id)
	}
	out.attempted++
	if err != nil {
		out.failed++
		fmt.Printf("# op failed: %v\n", err)
	} else if isRead {
		out.reads = append(out.reads, sample{at: from.Sub(start), lat: done.Sub(from)})
	}
}

// openLoop runs issuer j's half of phase A: operation k is due at
// start + (2k+j)/rate, whatever happened to the ones before it. A read
// whose issuer was still busy with the previous operation at its due
// time is timed from the due time, so the wait a slow system imposes
// on later requests counts; a read whose issuer was idle is timed from
// when it was sent, and how long after the due time the timer woke the
// issuer is the generator's lateness, reported on its own.
func (f *fanout) openLoop(j int, start time.Time, length time.Duration, out *issued) {
	rng := rand.New(rand.NewSource(f.seed*4 + int64(j)))
	step := 2 * time.Second / openLoopRate
	for k := int64(0); ; k++ {
		due := start.Add(step*time.Duration(k) + step/2*time.Duration(j))
		if due.Sub(start) >= length {
			return
		}
		from := due
		if time.Now().Before(due) {
			sleepUntil(due)
			from = time.Now()
			out.late = append(out.late, from.Sub(due))
		}
		out.behind = append(out.behind, time.Since(due))
		f.issue(j, k, rng, start, from, out)
	}
}

// closedLoop runs issuer j's half of phase B: the next operation
// starts when the last one's reply arrived.
func (f *fanout) closedLoop(j int, start time.Time, length time.Duration, out *issued) {
	rng := rand.New(rand.NewSource(f.seed*4 + 2 + int64(j)))
	for k := int64(1 << 40); ; k++ {
		now := time.Now()
		if now.Sub(start) >= length {
			return
		}
		f.issue(j, k, rng, start, now, out)
	}
}

// phase runs both issuers through one phase and merges what they
// recorded.
func (f *fanout) phase(length time.Duration, loop func(j int, start time.Time, length time.Duration, out *issued)) (issued, time.Duration) {
	var outs [2]issued
	var wg sync.WaitGroup
	start := time.Now()
	for j := range outs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			loop(j, start, length, &outs[j])
		}(j)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := outs[0]
	all.reads = append(all.reads, outs[1].reads...)
	all.late = append(all.late, outs[1].late...)
	all.behind = append(all.behind, outs[1].behind...)
	all.busy += outs[1].busy
	all.attempted += outs[1].attempted
	all.failed += outs[1].failed
	return all, elapsed
}

func (f *fanout) measure(ctx *runCtx, res *result) error {
	window := ctx.window()
	lenA := window * 4 / 10
	f.markWindow()
	f.recsOn.Store(ctx.tr != nil)
	commits0, faults0, twins0 := f.commits.Load(), f.faults.Load(), f.twins.Load()
	rt := startRuntime(ctx)
	a, _ := f.phase(lenA, f.openLoop)
	b, elapsedB := f.phase(window-lenA, f.closedLoop)
	rt.fill(res, len(a.reads)+len(b.reads))

	// The writer has done its part; what the segments hold now is what
	// the cold reads must find.
	close(f.stopWriter)
	<-f.writerDone
	commits := int(f.commits.Load() - commits0)
	res.Attempted = a.attempted + b.attempted + int64(commits)
	res.Failed = a.failed + b.failed + f.evicted.Load()
	if f.writerErr != nil {
		res.Attempted++
		res.Failed++
		fmt.Printf("# %s: writer: %v\n", res.Workload, f.writerErr)
	}
	if len(a.reads) == 0 || len(b.reads) == 0 {
		return fmt.Errorf("no read succeeded")
	}

	// The gated latencies and throughput come from phase B. Phase A's
	// latencies are printed, and compared with the latency limit, but
	// not gated: below saturation a read's time on this box is mostly
	// the kernel waking idle threads, and its p95 differs by 40 % from
	// one run of the same code to the next.
	ps := slicedPercentiles(b.reads, 0.50, 0.95)
	res.E2E["op_p50_ms"], res.E2E["op_p95_ms"] = ps[0], ps[1]
	res.E2E["ops_s"] = slicedRate(b.reads, elapsedB)
	res.Samples = len(b.reads)
	latencyDiag(res, "op", b.reads)
	ps = slicedPercentiles(a.reads, 0.50, 0.95)
	res.Diag["open_p50_ms"], res.Diag["open_p95_ms"] = ps[0], ps[1]
	latencyDiag(res, "open", a.reads)
	res.Diag["open_p95_limit_missed"] = 0
	if ps[1] > openP95LimitMS {
		res.Diag["open_p95_limit_missed"] = 1
	}
	res.Diag["open_loop_ops_s"] = float64(a.attempted) / lenA.Seconds()
	res.Diag["commits_s"] = float64(commits) / window.Seconds()

	// Open-loop hygiene: how late the timer woke the generator, and
	// whether operations were starting further and further behind
	// schedule when the phase ended.
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / 1e6
		}
		return out
	}
	behind := ms(a.behind)
	third := len(behind) / 3
	first, last := mean(behind[:third]), mean(behind[len(behind)-third:])
	res.Diag["backlog_growing"] = 0
	if last > 2*first && last > lateLimitMS {
		res.Diag["backlog_growing"] = 1
	}
	late := ms(a.late)
	sort.Float64s(late)
	lateP95 := percentile(late, 0.95)
	res.Diag["gen_late_p95_ms"] = lateP95
	res.Diag["busy_at_due_share"] = 1 - float64(len(late))/float64(len(behind))
	if lateP95 > lateLimitMS {
		res.Invalid = fmt.Sprintf("open-loop generator ran %.3f ms late at p95 (limit %g ms)", lateP95, lateLimitMS)
	}

	if ctx.tr == nil {
		return nil
	}
	res.opTime, res.writes = a.busy+b.busy, commits
	res.Layer["mem.page_faults"] = ratio(float64(f.faults.Load()-faults0), float64(commits))
	res.Layer["mem.twin_bytes"] = ratio(float64(f.twins.Load()-twins0)*pageSize, float64(commits))
	if err := f.endWindow(res, commits); err != nil {
		return err
	}
	return replayRounds(ctx, res, shape{words: fanWords}, fanWriterProf, fanAuditorProf, server.DefaultJournalCompactBytes, f.commitStore, f.recs)
}

// coldRead is a new client reading all 16 segments through the tier
// the sessions use.
func (f *fanout) coldRead(*runCtx) (time.Duration, error) {
	d := &f.tier.origin
	if f.viaProxy {
		d = &f.tier.proxy
	}
	c, err := newClient("cold", fanAuditorProf, d)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	handles := make([]*core.Segment, fanSegments)
	start := time.Now()
	for i, name := range f.names {
		if handles[i], err = c.Open(name); err != nil {
			return 0, err
		}
		if err = c.RLock(handles[i]); err != nil {
			return 0, err
		}
	}
	took := time.Since(start)
	want, got := make([]int32, fanWords), make([]int32, fanWords)
	for i, h := range handles {
		if v, newest := h.Version(), f.committed[i].Load(); v != newest {
			return 0, fmt.Errorf("cold read of %s: version %d, writer released %d", f.names[i], v, newest)
		}
		im, err := imageOf(h.Mem())
		if err == nil {
			err = im.readWords(got)
		}
		if err == nil {
			err = f.wim[i].readWords(want)
		}
		if err != nil {
			return 0, err
		}
		for w := range want {
			if got[w] != want[w] {
				return 0, fmt.Errorf("cold read of %s: word %d is %d, writer holds %d", f.names[i], w, got[w], want[w])
			}
		}
		if err := c.RUnlock(h); err != nil {
			return 0, err
		}
	}
	return took, nil
}

func (f *fanout) close() error {
	select {
	case <-f.stopWriter:
	default:
		close(f.stopWriter)
	}
	if f.writerStarted {
		<-f.writerDone
	}
	for _, mc := range f.conns {
		if mc != nil {
			_ = mc.Close()
		}
	}
	for _, c := range []*core.Client{f.writer, f.auditor} {
		if c != nil {
			_ = c.Close()
		}
	}
	return f.base.close()
}

func (f *fanout) coldReaders() int { return 2 }

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"interweave/internal/arch"
	"interweave/internal/core"
	"interweave/internal/server"
)

// durable_write: a journal-mode server with group commit holds 64
// segments of 4 096 int32; two closed-loop writers each change 64
// words per commit, on segments both pick from. Flush policy, as the
// code has it today: a journal append reaches the operating system's
// page cache before the release is acknowledged; nothing is fsynced.
// After the window the server is closed and reopened on the same
// directory, and a new client reads every segment and checks every
// acknowledged version and word.

const (
	durSegments    = 64
	durWords       = 4096
	durCommitWords = 64
	durWarmCommits = 100 // per writer
	// durCompactBytes makes a segment's journal fold into a fresh base
	// every few dozen commits, so that each segment goes through
	// several compaction cycles within the window.
	durCompactBytes = 32 << 10
	// durSpanEvery is the share of commits a traced run records spans
	// for and replays; at ten thousand commits a second, all of them
	// would make the trace the workload.
	durSpanEvery = 16
)

var (
	durWriterProf = arch.AMD64()
	durReaderProf = arch.MIPS64()
)

// shadow is the benchmark's own record of one segment: every word's
// newest acknowledged value, and the newest acknowledged version.
type shadow struct {
	mu      sync.Mutex
	version uint32
	words   [durWords]int32
	wordVer [durWords]uint32
}

// acked folds one acknowledged commit into the record. Commits to one
// segment are ordered by the server's write lock but reach here in
// either order, so each word keeps its newest version's value.
func (s *shadow) acked(version uint32, pos []int, value int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version > s.version {
		s.version = version
	}
	for _, w := range pos {
		if version > s.wordVer[w] {
			s.wordVer[w], s.words[w] = version, value
		}
	}
}

type durWriter struct {
	c   *core.Client
	h   []*core.Segment
	im  []*image
	n   int64 // commits done
	rng *rand.Rand
}

type durable struct {
	base
	seed    int64
	dir     string
	names   []string
	shadows []*shadow
	writers [2]*durWriter
}

func (d *durable) serverOptions() server.Options {
	return server.Options{JournalDir: d.dir, JournalCompactBytes: durCompactBytes, GroupCommit: true}
}

func setupDurable(ctx *runCtx) (bench, error) {
	d := &durable{seed: ctx.seed, dir: filepath.Join(ctx.scratch, "journal-"+ctx.tag)}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	if err := d.start(ctx, d.serverOptions(), false); err != nil {
		return nil, err
	}
	if err := d.open(); err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

func (d *durable) open() error {
	seeder, err := newClient("seeder", durWriterProf, &d.tier.origin)
	if err != nil {
		return err
	}
	defer seeder.Close()
	for i := 0; i < durSegments; i++ {
		name := segName(fmt.Sprintf("dur-%d", i))
		h, _, _, err := createSegment(seeder, name, shape{words: durWords})
		if err != nil {
			return err
		}
		d.names = append(d.names, name)
		d.shadows = append(d.shadows, &shadow{version: h.Version()})
	}
	for j := range d.writers {
		w := &durWriter{rng: rand.New(rand.NewSource(d.seed*2 + int64(j)))}
		if w.c, err = newClient(fmt.Sprintf("writer-%d", j), durWriterProf, &d.tier.origin); err != nil {
			return err
		}
		d.writers[j] = w
		for _, name := range d.names {
			h, err := w.c.Open(name)
			if err != nil {
				return err
			}
			// The first lock fetches the segment, after which its blocks
			// have addresses in this writer's heap.
			if err := w.c.RLock(h); err != nil {
				return err
			}
			im, err := imageOf(h.Mem())
			if uerr := w.c.RUnlock(h); err == nil {
				err = uerr
			}
			if err != nil {
				return err
			}
			w.h, w.im = append(w.h, h), append(w.im, im)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(d.writers))
	for j := range d.writers {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < durWarmCommits && errs[j] == nil; k++ {
				_, errs[j] = d.commit(nil, j, nil)
			}
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// commitStore is a commit's application work, shared with the replay:
// round number n encodes the writer in its lowest bit.
func (d *durable) commitStore(im *image, n int64) (int, int, error) {
	pos := wordPositions(mix64(d.seed, n), durCommitWords, durWords)
	return 4 * len(pos), len(pos), im.writeWords(pos, int32(n))
}

// commit runs writer j's next commit and returns how long the release
// — the WUnlock call — took. The commit is acknowledged when WUnlock
// returns; only then does it enter the shadow record.
func (d *durable) commit(tr *tracer, j int, recs *[]roundRec) (time.Duration, error) {
	w := d.writers[j]
	w.n++
	n := w.n*2 + int64(j)
	si := w.rng.Intn(durSegments)
	h := w.h[si]
	if w.n%durSpanEvery != 0 {
		tr, recs = nil, nil
	}
	root := tr.begin("commit", 0, n)
	defer tr.end(root)

	pos := wordPositions(mix64(d.seed, n), durCommitWords, durWords)
	rel, err := writeSection(tr, root, n, w.c, h, func() error { return w.im[si].writeWords(pos, int32(n)) })
	lat := time.Since(rel.at)
	if err != nil {
		return 0, err
	}
	d.shadows[si].acked(h.Version(), pos, int32(n))
	if recs != nil {
		*recs = append(*recs, roundRec{n: n, noDiff: rel.noDiff, round: root, wunlock: rel.wunlock})
	}
	return lat, nil
}

func (d *durable) measure(ctx *runCtx, res *result) error {
	window := ctx.window()
	type out struct {
		samples       []sample
		recs          []roundRec
		failed        int64
		faults, twins uint64
	}
	var outs [2]out
	d.markWindow()
	rt := startRuntime(ctx)
	var wg sync.WaitGroup
	start := time.Now()
	for j := range outs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			o := &outs[j]
			var recs *[]roundRec
			if ctx.tr != nil {
				recs = &o.recs
			}
			before := d.writers[j].c.Heap().Stats()
			for time.Since(start) < window {
				at := time.Since(start)
				lat, err := d.commit(ctx.tr, j, recs)
				if err != nil {
					o.failed++
					fmt.Printf("# %s: writer %d: %v\n", res.Workload, j, err)
					continue
				}
				o.samples = append(o.samples, sample{at: at, lat: lat})
			}
			after := d.writers[j].c.Heap().Stats()
			o.faults, o.twins = after.Faults-before.Faults, after.Twins-before.Twins
		}(j)
	}
	wg.Wait()
	elapsed := time.Since(start)
	samples := append(outs[0].samples, outs[1].samples...)
	rt.fill(res, len(samples))
	res.Failed = outs[0].failed + outs[1].failed
	res.Attempted = int64(len(samples)) + res.Failed
	if len(samples) == 0 {
		return fmt.Errorf("no commit succeeded")
	}
	ps := slicedPercentiles(samples, 0.50, 0.95)
	res.E2E["op_p50_ms"], res.E2E["op_p95_ms"] = ps[0], ps[1]
	res.E2E["ops_s"] = slicedRate(samples, elapsed)
	res.Samples = len(samples)
	latencyDiag(res, "op", samples)
	res.Diag["commits_per_segment"] = float64(len(samples)) / durSegments

	if ctx.tr == nil {
		return nil
	}
	res.opTime, res.writes = 2*elapsed, len(samples)
	commits := float64(len(samples))
	res.Layer["mem.page_faults"] = float64(outs[0].faults+outs[1].faults) / commits
	res.Layer["mem.twin_bytes"] = float64(outs[0].twins+outs[1].twins) * pageSize / commits
	if err := d.endWindow(res, len(samples)); err != nil {
		return err
	}
	recs := append(outs[0].recs, outs[1].recs...)
	return replayRounds(ctx, res, shape{words: durWords}, durWriterProf, durReaderProf, durCompactBytes, d.commitStore, recs)
}

// coldRead closes the server, reopens it on the same journal
// directory, and has two new clients read half of the segments each:
// the time from reopening until all 64 are served is the recovery
// time. Every acknowledged version and word must be there.
func (d *durable) coldRead(ctx *runCtx) (time.Duration, error) {
	for _, w := range d.writers {
		_ = w.c.Close() // their sessions die with the server anyway
	}
	if err := d.base.close(); err != nil {
		return 0, fmt.Errorf("closing the server: %w", err)
	}
	start := time.Now()
	if err := d.tier.startServer(d.serverOptions(), false); err != nil {
		return 0, fmt.Errorf("reopening the server: %w", err)
	}
	var wg sync.WaitGroup
	var clients [2]*core.Client
	var errs [2]error
	handles := make([]*core.Segment, durSegments)
	for j := range clients {
		c, err := newClient(fmt.Sprintf("recovered-%d", j), durReaderProf, &d.tier.origin)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[j] = c
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := j; i < durSegments && errs[j] == nil; i += len(clients) {
				if handles[i], errs[j] = c.Open(d.names[i]); errs[j] != nil {
					return
				}
				id := ctx.tr.begin("core.rlock", 0, int64(i))
				errs[j] = c.RLock(handles[i])
				ctx.tr.end(id)
			}
		}(j)
	}
	wg.Wait()
	took := time.Since(start)
	if err := errors.Join(errs[:]...); err != nil {
		return 0, err
	}
	got := make([]int32, durWords)
	for i, h := range handles {
		sh := d.shadows[i]
		if v := h.Version(); v != sh.version {
			return 0, fmt.Errorf("%s recovered at version %d, version %d was acknowledged", d.names[i], v, sh.version)
		}
		im, err := imageOf(h.Mem())
		if err == nil {
			err = im.readWords(got)
		}
		if err != nil {
			return 0, err
		}
		for w := range got {
			if got[w] != sh.words[w] {
				return 0, fmt.Errorf("%s word %d recovered as %d, %d was acknowledged at version %d",
					d.names[i], w, got[w], sh.words[w], sh.wordVer[w])
			}
		}
		if err := clients[i%len(clients)].RUnlock(h); err != nil {
			return 0, err
		}
	}
	return took, nil
}

// coldReaders: a recovery owns the journal directory.
func (d *durable) coldReaders() int { return 1 }

func (d *durable) close() error {
	for _, w := range d.writers {
		if w != nil && w.c != nil {
			_ = w.c.Close()
		}
	}
	err := d.base.close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

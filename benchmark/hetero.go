package main

import (
	"fmt"
	"time"

	"interweave/internal/arch"
	"interweave/internal/core"
	"interweave/internal/server"
	"interweave/internal/types"
)

// hetero_sparse and hetero_bulk: one x86 writer and one Sparc reader
// (other byte order, other float64 alignment) share a 1 MB segment of
// mix records under Full coherence, in a closed loop. One goroutine
// drives both clients in turn, so a round is strictly the writer's
// release followed by the reader's acquire — two issuers, two TCP
// connections, never both busy.

var (
	heteroWriterProf = arch.X86()
	heteroReaderProf = arch.Sparc()
)

const (
	heteroBytes = 1 << 20
	warmRounds  = 50
	// replayEvery is the share of rounds a traced run replays through
	// the hidden layers after the window: one in four keeps the replay
	// phase shorter than the window itself.
	replayEvery = 4
)

type hetero struct {
	base
	bulk   bool
	seed   int64
	sh     shape
	writer *core.Client
	reader *core.Client
	wh, rh *core.Segment
	wim    *image
	rim    *image
	sum    mixSum // what the segment holds after the last release
	n      int64  // rounds done
}

func setupHetero(bulk bool) func(ctx *runCtx) (bench, error) {
	return func(ctx *runCtx) (bench, error) {
		h := &hetero{bulk: bulk, seed: ctx.seed}
		l, err := types.Of(mixType, heteroWriterProf)
		if err != nil {
			return nil, err
		}
		h.sh = shape{records: heteroBytes / l.Size}
		if err := h.start(ctx, server.Options{}, false); err != nil {
			return nil, err
		}
		if err := h.open(); err != nil {
			_ = h.close()
			return nil, err
		}
		for i := 0; i < warmRounds; i++ {
			if _, err := h.round(nil, nil); err != nil {
				_ = h.close()
				return nil, fmt.Errorf("warm-up round %d: %w", i, err)
			}
		}
		return h, nil
	}
}

func (h *hetero) open() error {
	var err error
	name := segName("hetero")
	if h.writer, err = newClient("writer", heteroWriterProf, &h.tier.origin); err != nil {
		return err
	}
	if h.reader, err = newClient("reader", heteroReaderProf, &h.tier.origin); err != nil {
		return err
	}
	if h.wh, h.wim, h.sum, err = createSegment(h.writer, name, h.sh); err != nil {
		return err
	}
	if h.rh, err = h.reader.Open(name); err != nil {
		return err
	}
	if err = h.reader.RLock(h.rh); err != nil {
		return err
	}
	if h.rim, err = imageOf(h.rh.Mem()); err == nil {
		err = verifyMix(h.rim, h.sum, true)
	}
	if err != nil {
		_ = h.reader.RUnlock(h.rh)
		return err
	}
	return h.reader.RUnlock(h.rh)
}

func verifyMix(im *image, want mixSum, full bool) error {
	got, err := im.checksum(full)
	if err != nil {
		return err
	}
	if got.scalars != want.scalars || (full && got.rest != want.rest) {
		return fmt.Errorf("checksum mismatch: reader %x/%x, writer %x/%x", got.scalars, got.rest, want.scalars, want.rest)
	}
	return nil
}

// store is the round's application work, shared with the replay.
func (h *hetero) store(sum *mixSum) storeFunc {
	return func(im *image, n int64) (int, int, error) {
		if h.bulk {
			s, bytes, err := im.writeBulk(n)
			if sum != nil {
				*sum = s
			}
			return bytes, im.data.Count * 5, err
		}
		var scratch mixSum
		if sum == nil {
			sum = &scratch
		}
		bytes, err := im.writeSparse(n, mix64(h.seed, n), sum)
		return bytes, (im.data.Count + 3) / 4, err
	}
}

// roundOut is what one measured round produced.
type roundOut struct {
	lat   time.Duration // release call to verified acquire
	bytes int           // local-format bytes the writer modified
}

// round runs one closed-loop round. The clock runs from the writer's
// WUnlock call until the reader's RLock returns holding the new
// version; the checksum is verified after the clock stops. A failed
// verification is reported as an error. samples, when non-nil,
// receives the round for the post-window replay.
func (h *hetero) round(tr *tracer, samples *[]roundRec) (roundOut, error) {
	var out roundOut
	h.n++
	n := h.n
	root := tr.begin("round", 0, n)
	defer tr.end(root)

	rel, err := writeSection(tr, root, n, h.writer, h.wh, func() (err error) {
		out.bytes, _, err = h.store(&h.sum)(h.wim, n)
		return err
	})
	if err != nil {
		return out, err
	}
	want := h.wh.Version()
	rid := tr.begin("core.rlock", root, n)
	err = h.reader.RLock(h.rh)
	tr.end(rid)
	if err != nil {
		return out, err
	}
	got := h.rh.Version()
	out.lat = time.Since(rel.at)

	if got != want {
		err = fmt.Errorf("round %d: reader holds version %d, writer released %d", n, got, want)
	} else {
		err = verifyMix(h.rim, h.sum, h.bulk)
	}
	if uerr := h.reader.RUnlock(h.rh); err == nil {
		err = uerr
	}
	if samples != nil && n%replayEvery == 0 {
		*samples = append(*samples, roundRec{n: n, noDiff: rel.noDiff, round: root, wunlock: rel.wunlock, rlock: rid})
	}
	return out, err
}

func (h *hetero) measure(ctx *runCtx, res *result) error {
	window := ctx.window()
	var samples []sample
	var recs *[]roundRec
	if ctx.tr != nil {
		recs = new([]roundRec)
	}
	memBefore := h.writer.Heap().Stats()
	h.markWindow()
	rt := startRuntime(ctx)
	bytes := 0
	start := time.Now()
	for time.Since(start) < window {
		at := time.Since(start)
		out, err := h.round(ctx.tr, recs)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Printf("# %s: %v\n", res.Workload, err)
			continue
		}
		samples = append(samples, sample{at: at, lat: out.lat})
		bytes += out.bytes
	}
	elapsed := time.Since(start)
	rt.fill(res, len(samples))
	if len(samples) == 0 {
		return fmt.Errorf("no round succeeded")
	}

	ps := slicedPercentiles(samples, 0.50, 0.95)
	res.E2E["op_p50_ms"], res.E2E["op_p95_ms"] = ps[0], ps[1]
	res.E2E["ops_s"] = slicedRate(samples, elapsed)
	res.Samples = len(samples)
	res.Diag["sync_mb_s"] = float64(bytes) / (1 << 20) / elapsed.Seconds()
	latencyDiag(res, "op", samples)

	if ctx.tr == nil {
		return nil
	}
	res.opTime, res.writes = elapsed, len(samples)
	memAfter := h.writer.Heap().Stats()
	rounds := float64(len(samples))
	res.Layer["mem.page_faults"] = float64(memAfter.Faults-memBefore.Faults) / rounds
	res.Layer["mem.twin_bytes"] = float64(memAfter.Twins-memBefore.Twins) * pageSize / rounds
	if err := h.endWindow(res, len(samples)); err != nil {
		return err
	}
	return replayRounds(ctx, res, h.sh, heteroWriterProf, heteroReaderProf, server.DefaultJournalCompactBytes, h.store(nil), *recs)
}

// coldRead is a new Sparc client fetching the whole segment.
func (h *hetero) coldRead(*runCtx) (time.Duration, error) {
	c, err := newClient("cold", heteroReaderProf, &h.tier.origin)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	sh, err := c.Open(segName("hetero"))
	if err != nil {
		return 0, err
	}
	if err := c.RLock(sh); err != nil {
		return 0, err
	}
	d := time.Since(start)
	im, err := imageOf(sh.Mem())
	if err == nil {
		err = verifyMix(im, h.sum, true)
	}
	if uerr := c.RUnlock(sh); err == nil {
		err = uerr
	}
	return d, err
}

func (h *hetero) close() error {
	if h.writer != nil {
		_ = h.writer.Close()
	}
	if h.reader != nil {
		_ = h.reader.Close()
	}
	return h.base.close()
}

func (h *hetero) coldReaders() int { return 2 }

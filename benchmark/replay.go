package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"interweave/internal/arch"
	"interweave/internal/diff"
	"interweave/internal/journal"
	"interweave/internal/mem"
	"interweave/internal/protocol"
	"interweave/internal/swizzle"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// localSeg is a stand-alone segment copy — heap, segment memory and
// descriptor registry — with no client or server behind it. The layer
// replay and the raw-RPC probe build their diffs on these.
type localSeg struct {
	heap  *mem.Heap
	seg   *mem.SegMem
	descs map[uint32]*types.Layout
}

func newLocalSeg(prof *arch.Profile, name string) (*localSeg, error) {
	h, err := mem.NewHeap(prof)
	if err != nil {
		return nil, err
	}
	s, err := h.NewSegment(name)
	if err != nil {
		return nil, err
	}
	return &localSeg{heap: h, seg: s, descs: make(map[uint32]*types.Layout)}, nil
}

func (ls *localSeg) alloc(t *types.Type, count int, name string) error {
	l, err := types.Of(t, ls.heap.Profile())
	if err != nil {
		return err
	}
	b, err := ls.seg.Alloc(l, count, name)
	if err != nil {
		return err
	}
	b.DescSerial = uint32(len(ls.descs) + 1)
	ls.descs[b.DescSerial] = l
	return nil
}

// collect gathers the segment's pending changes, attaching the
// descriptor definitions of newly created blocks as the client library
// does before a release.
func (ls *localSeg) collect(opts diff.CollectOptions) (*wire.SegmentDiff, error) {
	opts.Swizzle = swizzle.NewSwizzler(ls.heap).MIPString
	d, err := diff.CollectSegment(ls.seg, opts)
	if err != nil {
		return nil, err
	}
	seen := make(map[uint32]bool)
	for _, nb := range d.News {
		if seen[nb.DescSerial] {
			continue
		}
		seen[nb.DescSerial] = true
		b, err := types.Marshal(ls.descs[nb.DescSerial].Type)
		if err != nil {
			return nil, err
		}
		d.Descs = append(d.Descs, wire.DescDef{Serial: nb.DescSerial, Bytes: b})
	}
	return d, nil
}

// apply applies a diff made by a localSeg of the same shape, laying
// new blocks out for this copy's architecture.
func (ls *localSeg) apply(d *wire.SegmentDiff) error {
	for _, dd := range d.Descs {
		t, err := types.Unmarshal(dd.Bytes)
		if err != nil {
			return err
		}
		l, err := types.Of(t, ls.heap.Profile())
		if err != nil {
			return err
		}
		ls.descs[dd.Serial] = l
	}
	uw := swizzle.NewUnswizzler(func(string) (*mem.SegMem, error) { return ls.seg, nil })
	_, err := diff.ApplySegment(ls.seg, d, diff.ApplyOptions{
		Resolve: uw.Addr,
		LayoutFor: func(serial uint32) (*types.Layout, error) {
			l, ok := ls.descs[serial]
			if !ok {
				return nil, fmt.Errorf("unknown descriptor %d", serial)
			}
			return l, nil
		},
	})
	return err
}

// shape says what a workload's segment holds: records > 0 is a mix
// segment of that many records (plus the pointer targets), otherwise
// an int32 array of words.
type shape struct {
	records int
	words   int
}

// build allocates the shape's blocks in a fresh local segment.
func (sh shape) build(prof *arch.Profile, name string) (*localSeg, *image, error) {
	ls, err := newLocalSeg(prof, name)
	if err != nil {
		return nil, nil, err
	}
	if sh.records > 0 {
		if err := ls.alloc(mixType, sh.records, blockData); err != nil {
			return nil, nil, err
		}
		if err := ls.alloc(types.Int32(), sh.records+1, blockTargets); err != nil {
			return nil, nil, err
		}
	} else {
		if err := ls.alloc(types.Int32(), sh.words, blockData); err != nil {
			return nil, nil, err
		}
	}
	im, err := imageOf(ls.seg)
	return ls, im, err
}

// storeFunc performs one round's stores on an image and reports the
// local bytes and primitive units it changed. The live writer and the
// replay call the same function with the same round number.
type storeFunc func(im *image, n int64) (bytes, units int, err error)

// roundRec is what the live path remembers of a sampled round, for
// the replay that follows the measured window.
type roundRec struct {
	n       int64 // round number: the store function's argument
	noDiff  bool  // the live client's mode for this release
	round   int32 // live span ids the replay spans hang under
	wunlock int32
	rlock   int32
}

// rig replays rounds through the layers the client library hides, on a
// local pair of segment copies: one in the writer's architecture, one
// in the reader's.
type rig struct {
	tr       *tracer
	name     string
	src, dst *localSeg
	srcIm    *image
	store    storeFunc
	version  uint32

	jdir   string
	jstore *journal.Store
	jlog   *journal.Log

	// Totals over the replayed rounds.
	rounds        int
	runs          int
	unitsSent     int
	unitsHandled  int // scanned (diffing) or transmitted (no-diff)
	unitsModified int
	wireBytes     int
	appBytes      int
	ptrs          int
	swizzleNS     int64
	journalBytes  int64
}

func newRig(tr *tracer, sh shape, wprof, rprof *arch.Profile, name, jdir string, compactBytes int64, store storeFunc) (*rig, error) {
	src, srcIm, err := sh.build(wprof, name)
	if err != nil {
		return nil, err
	}
	dst, err := newLocalSeg(rprof, name)
	if err != nil {
		return nil, err
	}
	if sh.records > 0 {
		if _, _, err := srcIm.writeBulk(0); err != nil {
			return nil, err
		}
	}
	created, err := src.collect(diff.CollectOptions{Version: 1})
	if err != nil {
		return nil, err
	}
	if err := dst.apply(created); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	jstore, err := journal.Open(jdir, journal.Options{CompactBytes: compactBytes})
	if err != nil {
		return nil, err
	}
	jlog, err := jstore.Segment(name)
	if err != nil {
		return nil, err
	}
	return &rig{tr: tr, name: name, src: src, dst: dst, srcIm: srcIm, store: store,
		version: 1, jdir: jdir, jstore: jstore, jlog: jlog}, nil
}

// timed runs f and records it as a replay span.
func (r *rig) timed(name string, parent int32, op int64, f func() error) (int32, time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	return r.tr.add(name, parent, op, start, d), d, err
}

// replay pushes one recorded round through mem stores, diff
// collection, swizzling, wire marshaling, protocol framing, diff
// application and the journal, recording one span per layer call.
func (r *rig) replay(rec roundRec) error {
	seg := r.src.seg
	if !rec.noDiff {
		seg.WriteProtect()
	}
	appBytes, units, err := r.store(r.srcIm, rec.n)
	if err != nil {
		return err
	}
	scanned := 0
	if !rec.noDiff {
		for _, mr := range seg.ModifiedRanges() {
			scanned += mr.NumPages
		}
		// Units on the twinned pages, taking the segment's units as
		// evenly spread over its pages.
		pages, total := 0, 0
		for ss := seg.FirstSubSeg(); ss != nil; ss = ss.Next {
			pages += ss.Pages()
		}
		seg.Blocks(func(b *mem.Block) bool { total += b.PrimCount(); return true })
		scanned = scanned * total / pages
	}

	// diff: collection; translation to wire format is its child.
	var st diff.Stats
	var d *wire.SegmentDiff
	cid, cdur, err := r.timed("diff.collect", rec.wunlock, rec.n, func() (err error) {
		d, err = r.src.collect(diff.CollectOptions{Version: r.version + 1, NoDiff: rec.noDiff, Stats: &st})
		return err
	})
	if err != nil {
		return err
	}
	translate := st.Translate
	if rec.noDiff {
		translate = cdur // whole blocks: no scan, all translation
	}
	r.tr.add("diff.translate", cid, rec.n, time.Now(), translate)
	seg.DropTwins()
	seg.Unprotect()

	// protocol: the release frame through an in-memory pipe; the
	// marshaling inside it is timed again on its own as the wire layer.
	var pipe bytes.Buffer
	msg := &protocol.WriteUnlock{Seg: r.name, Diff: d, WriterID: "replay", Seq: r.version}
	fid, _, err := r.timed("protocol.frame", rec.wunlock, rec.n, func() error {
		if err := protocol.WriteFrame(&pipe, 1, msg); err != nil {
			return err
		}
		_, _, err := protocol.ReadFrame(&pipe)
		return err
	})
	if err != nil {
		return err
	}
	var enc []byte
	if _, _, err := r.timed("wire.marshal", fid, rec.n, func() error {
		enc = d.Marshal(nil)
		return nil
	}); err != nil {
		return err
	}
	var dec *wire.SegmentDiff
	if _, _, err := r.timed("wire.unmarshal", fid, rec.n, func() (err error) {
		dec, err = wire.UnmarshalSegmentDiff(enc)
		return err
	}); err != nil {
		return err
	}

	// diff: application in the reader's architecture.
	if _, _, err := r.timed("diff.apply", rec.rlock, rec.n, func() error { return r.dst.apply(dec) }); err != nil {
		return err
	}

	// swizzle: a batch over pointers the segment holds, out to MIPs in
	// the writer's heap and back to addresses in the reader's.
	ptrs, err := r.srcIm.pointerAddrs(4)
	if err != nil {
		return err
	}
	mips := make([]string, len(ptrs))
	_, outDur, err := r.timed("swizzle.out", rec.round, rec.n, func() (err error) {
		sw := swizzle.NewSwizzler(r.src.heap)
		for i, p := range ptrs {
			if mips[i], err = sw.MIPString(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, inDur, err := r.timed("swizzle.in", rec.round, rec.n, func() error {
		uw := swizzle.NewUnswizzler(func(string) (*mem.SegMem, error) { return r.dst.seg, nil })
		for _, m := range mips {
			if _, err := uw.Addr(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// journal: the committed release as the server would persist it.
	before := r.jlog.Size()
	rep := &protocol.Replicate{Seg: r.name, PrevVersion: r.version, Version: r.version + 1, Diff: d}
	if _, _, err := r.timed("journal.append", rec.round, rec.n, func() error { return r.jlog.Append(rep) }); err != nil {
		return err
	}
	r.journalBytes += r.jlog.Size() - before
	r.version++
	if r.jlog.NeedsCompaction() {
		if err := r.compact(rec.round, rec.n); err != nil {
			return err
		}
	}

	r.rounds++
	r.runs += st.Runs
	if rec.noDiff {
		r.runs += len(d.Blocks)
		scanned = d.Units()
	}
	r.unitsSent += d.Units()
	r.unitsHandled += scanned
	r.unitsModified += units
	r.wireBytes += len(enc)
	r.appBytes += appBytes
	r.ptrs += 2 * len(ptrs)
	r.swizzleNS += int64(outDur + inDur)
	return nil
}

// compact folds the journal into a base, as the server does when a
// segment's log outgrows its threshold and when it closes. The base is
// the whole segment in wire form — the size of the server's checkpoint
// encoding, whose codec is private to it.
func (r *rig) compact(parent int32, op int64) error {
	full, err := r.src.collect(diff.CollectOptions{Version: r.version, NoDiff: true})
	if err != nil {
		return err
	}
	base := full.Marshal(nil)
	_, _, err = r.timed("journal.compact", parent, op, func() error { return r.jlog.Compact(r.version, base) })
	r.journalBytes += int64(len(base)) + r.jlog.Size()
	return err
}

// finish times the journal's restart scan over what the replay wrote,
// removes the scratch journal, and fills the replay-derived metrics.
func (r *rig) finish(layer map[string]float64) error {
	if r.rounds == 0 {
		return fmt.Errorf("no round was replayed")
	}
	// The restart scan parses whatever tail the last compaction left;
	// then the closing compaction, which every server shutdown pays.
	if err := r.jstore.Close(); err != nil {
		return err
	}
	if _, _, err := r.timed("journal.replay", 0, 0, func() (err error) {
		if r.jstore, err = journal.Open(r.jdir, journal.Options{}); err == nil {
			r.jlog, err = r.jstore.Segment(r.name)
		}
		return err
	}); err != nil {
		return err
	}
	if err := r.compact(0, 0); err != nil {
		return err
	}
	if err := r.jstore.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(r.jdir); err != nil {
		return err
	}
	n := float64(r.rounds)
	layer["diff.runs"] = float64(r.runs) / n
	layer["diff.units_sent"] = float64(r.unitsSent) / n
	if r.unitsHandled > 0 {
		// Of the units the layer scanned (diffing) or transmitted
		// (no-diff), the share the application had changed.
		share := float64(r.unitsModified) / float64(r.unitsHandled)
		if share > 1 {
			share = 1
		}
		layer["diff.useful_share"] = share
	}
	layer["wire.bytes_per_app_byte"] = float64(r.wireBytes) / float64(r.appBytes)
	layer["wire.bytes_round"] = float64(r.wireBytes) / n
	layer["swizzle.ns_per_ptr"] = float64(r.swizzleNS) / float64(r.ptrs)
	layer["journal.bytes_per_app_byte"] = float64(r.journalBytes) / float64(r.appBytes)
	return nil
}

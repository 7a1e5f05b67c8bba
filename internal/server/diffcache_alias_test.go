package server

// The diff cache holds the applied diffs themselves, whose run data
// aliases the frames they arrived in, and string and MIP cells are
// rewritten in place. This test drives a history through every path
// that could write into either — a later in-place rewrite of the same
// cells, a decoded copy of the image applying a diff of its own,
// eviction and fault-in — and requires the
// cached diffs, the merge over them and the faulted-in image to equal
// what an independent copy of the segment, fed its own copies of the
// same diffs, collects afresh.

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"interweave/internal/coherence"
	"interweave/internal/journal"
	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// mixRewrite is one run rewriting every unit of a mix block of n
// elements (int32, string[8], pointer): the ints, the strings and the
// MIPs all change with round, at fixed lengths.
func mixRewrite(n, round int) []byte {
	var data []byte
	for e := 0; e < n; e++ {
		data = wire.AppendU32(data, uint32(e+round))
		data = wire.AppendString(data, fmt.Sprintf("r%d-%03d", round%10, e))
		data = wire.AppendString(data, fmt.Sprintf("h/s#m#%03d", (e*3+round)%(3*n)))
	}
	return data
}

func TestDiffCacheAliasing(t *testing.T) {
	const n = 40 // elements; 120 units, 8 subblocks
	full := func(round int) *wire.SegmentDiff {
		return &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{
			{Start: 0, Count: 3 * n, Data: mixRewrite(n, round)},
		}}}}
	}
	creation := full(0)
	creation.Descs = []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}}
	creation.News = []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: n, Name: "m"}}

	// seg is the segment under test; shadow is an independent copy
	// without a diff cache, fed its own decoding of every diff.
	seg := NewSegment("h/s")
	seg.SetDiffCacheCap(2)
	shadow := NewSegment("h/s")
	shadow.SetDiffCacheCap(0)
	// applied[v] is the encoding of the diff that produced v, taken
	// right after it was applied: every cached diff must keep it.
	applied := make(map[uint32][]byte)
	checkCache := func(when string) {
		t.Helper()
		// The encoded-bytes accounting the cache used when it held
		// marshaled diffs.
		var encoded int64
		for v, d := range seg.diffCache {
			enc := d.Marshal(nil)
			if !bytes.Equal(enc, applied[v]) {
				t.Fatalf("%s: cached v%d diff no longer encodes as applied", when, v)
			}
			encoded += int64(len(enc))
			checkRetained(t, when, v, d)
		}
		if seg.cacheBytes != encoded {
			t.Fatalf("%s: cacheBytes %d, encoded cache holds %d", when, seg.cacheBytes, encoded)
		}
	}
	commit := func(d *wire.SegmentDiff) {
		t.Helper()
		payload := d.Marshal(nil) // what the frame carried; seg's copy aliases it
		mine, err := wire.UnmarshalSegmentDiff(payload)
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := wire.UnmarshalSegmentDiff(bytes.Clone(payload))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := seg.ApplyDiff(mine); err != nil {
			t.Fatal(err)
		}
		applied[seg.Version] = mine.Marshal(nil)
		if _, _, err := shadow.ApplyDiff(theirs); err != nil {
			t.Fatal(err)
		}
		checkCache(fmt.Sprintf("after v%d", seg.Version))
	}
	collectShadow := func(since uint32) []byte {
		t.Helper()
		d, err := shadow.collectFull(since)
		if err != nil {
			t.Fatal(err)
		}
		return d.Marshal(nil)
	}

	commit(creation)
	v0 := seg.Version
	commit(full(1)) // v1: the bulk rewrite
	v1 := seg.Version

	// The reader one version behind gets the cached diff itself.
	sent, err := seg.CollectDiff(v0)
	if err != nil {
		t.Fatal(err)
	}
	if sent != seg.diffCache[v1] {
		t.Fatal("CollectDiff one version behind did not return the cached diff")
	}
	sentBytes := sent.Marshal(nil)
	if want := collectShadow(v0); !bytes.Equal(sentBytes, want) {
		t.Fatalf("cached v%d diff differs from a fresh collection", v1)
	}

	// v2 rewrites the same cells at the same lengths: in place.
	blk := seg.Blocks()[0]
	slots := make([]*byte, len(blk.vars))
	for i, v := range blk.vars {
		slots[i] = &v[0]
	}
	commit(full(2))
	for i, v := range blk.vars {
		if &v[0] != slots[i] {
			t.Fatalf("var slot %d was reallocated by a same-length rewrite", i)
		}
	}

	// A decoded copy of the image (the form a migration snapshot
	// travels in) applies a diff of its own.
	clone, err := decodeSegment(seg.encode())
	if err != nil {
		t.Fatal(err)
	}
	clone.SetDiffCacheCap(2)
	if _, _, err := clone.ApplyDiff(full(3)); err != nil {
		t.Fatal(err)
	}

	// Evict and fault back in: the image is encoded from the cells.
	faulted, err := decodeSegment(seg.encode())
	if err != nil {
		t.Fatal(err)
	}

	checkCache("after staging and eviction")
	if got := seg.diffCache[v1].Marshal(nil); !bytes.Equal(got, sentBytes) {
		t.Errorf("cached v%d diff changed after later rewrites, staging and eviction", v1)
	}
	merged, ok := seg.mergeCachedDiffs(v0)
	if !ok {
		t.Fatal("v0→v2 not served from the cache")
	}
	want := collectShadow(v0)
	if got := merged.Marshal(nil); !bytes.Equal(got, want) {
		t.Errorf("merged v%d→v%d diff differs from a fresh collection", v0, seg.Version)
	}
	fresh, err := faulted.collectFull(v0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Marshal(nil); !bytes.Equal(got, want) {
		t.Error("faulted-in image collects differently from the independent copy")
	}
	if !bytes.Equal(segFingerprint(faulted), segFingerprint(shadow)) {
		t.Error("faulted-in image differs from the independent copy")
	}

	// One more release evicts v1 from the two-entry cache.
	commit(full(4))
	if _, ok := seg.diffCache[v1]; ok || len(seg.diffCache) != 2 {
		t.Errorf("cache holds %d entries, v%d still cached: %v", len(seg.diffCache), v1, ok)
	}
}

// runSpan returns how many bytes d's runs keep reachable: from the
// lowest run start to the furthest end of any run's backing capacity.
func runSpan(d *wire.SegmentDiff) int {
	var lo, hi uintptr
	for i := range d.Blocks {
		for _, r := range d.Blocks[i].Runs {
			if cap(r.Data) == 0 {
				continue
			}
			start := uintptr(unsafe.Pointer(unsafe.SliceData(r.Data)))
			if lo == 0 || start < lo {
				lo = start
			}
			hi = max(hi, start+uintptr(cap(r.Data)))
		}
	}
	return int(hi - lo)
}

// checkRetained requires the cached diff for v to keep reachable no
// more run bytes than MemBytes counts for it.
func checkRetained(t *testing.T, when string, v uint32, d *wire.SegmentDiff) {
	t.Helper()
	if span, n := runSpan(d), d.EncodedLen(); span > n {
		t.Errorf("%s: cached v%d diff retains %d run bytes, MemBytes counts %d", when, v, span, n)
	}
}

// checkCacheAccounting requires every cached diff of seg to retain no
// more than it is counted for, and the counts to add up.
func checkCacheAccounting(t *testing.T, when string, seg *Segment) {
	t.Helper()
	var encoded int64
	for v, d := range seg.diffCache {
		checkRetained(t, when, v, d)
		encoded += int64(d.EncodedLen())
	}
	if seg.cacheBytes != encoded {
		t.Errorf("%s: cacheBytes %d, cached diffs encode to %d", when, seg.cacheBytes, encoded)
	}
}

// TestDiffCacheOwnsSharedBuffers covers the diffs decoded from a
// buffer holding more than themselves: the parts of one transaction
// frame, and records replayed from a journal image. The cache must
// hold each part's and each record's own bytes, not the whole buffer.
func TestDiffCacheOwnsSharedBuffers(t *testing.T) {
	const n = 4096 // int32 units per block: 16 KiB of run data
	vals := func(round int) []uint32 {
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(i + round)
		}
		return v
	}

	t.Run("tx_parts", func(t *testing.T) {
		srv, addr := startTestServer(t, Options{})
		rc := dialRaw(t, addr)
		parts := []protocol.WriteUnlock{
			{Seg: "a", Diff: intCreateDiff(t, 1, vals(1)...)},
			{Seg: "b", Diff: intCreateDiff(t, 1, vals(2)...)},
		}
		for _, p := range parts {
			rc.call(&protocol.OpenSegment{Name: p.Seg, Create: true})
			rc.call(&protocol.WriteLock{Seg: p.Seg, Policy: coherence.Full()})
		}
		reply, _ := rc.call(&protocol.TxCommit{Parts: parts})
		if tr, ok := reply.(*protocol.TxReply); !ok || len(tr.Versions) != 2 {
			t.Fatalf("tx reply = %+v", reply)
		}
		for _, p := range parts {
			seg := srv.SegmentSnapshot(p.Seg)
			if len(seg.diffCache) != 1 {
				t.Fatalf("%s: %d cached diffs, want 1", p.Seg, len(seg.diffCache))
			}
			checkCacheAccounting(t, p.Seg, seg)
		}
	})

	t.Run("var_shrink", func(t *testing.T) {
		// A shorter string or MIP is written into the slot in place,
		// which keeps its larger capacity: varBytes counts capacity.
		seg := NewSegment("h/s")
		create := &wire.SegmentDiff{
			Descs:  []wire.DescDef{{Serial: 1, Bytes: mixDescBytes(t)}},
			News:   []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: 40, Name: "m"}},
			Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 120, Data: mixRewrite(40, 1)}}}},
		}
		var short []byte
		short = wire.AppendU32(short, 7)
		short = wire.AppendString(short, "r")
		short = wire.AppendString(short, "h/s#m")
		for _, d := range []*wire.SegmentDiff{create, runOf(1, 0, 3, short)} {
			if _, _, err := seg.ApplyDiff(d); err != nil {
				t.Fatal(err)
			}
			b := seg.Blocks()[0]
			held := 0
			for _, v := range b.vars {
				held += cap(v)
			}
			if b.varBytes != held {
				t.Errorf("v%d: varBytes %d, vars hold %d", seg.Version, b.varBytes, held)
			}
		}
	})

	t.Run("journal_replay", func(t *testing.T) {
		dir := t.TempDir()
		recs := []*protocol.Replicate{
			{Seg: "h/j", PrevVersion: 0, Version: 1, Diff: intCreateDiff(t, 1, vals(0)...)},
			{Seg: "h/j", PrevVersion: 1, Version: 2, Diff: runDiff(1, 0, vals(1)...)},
			{Seg: "h/j", PrevVersion: 2, Version: 3, Diff: runDiff(1, 0, vals(2)...)},
		}
		store, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := store.Segment("h/j")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopening reads the log image back; its records alias it.
		if store, err = journal.Open(dir, journal.Options{}); err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if l, err = store.Segment("h/j"); err != nil {
			t.Fatal(err)
		}
		seg, _, replayed, err := loadSegment("h/j", nil, l.Window(0))
		if err != nil || replayed != len(recs) {
			t.Fatalf("replayed %d records: %v", replayed, err)
		}
		if len(seg.diffCache) != len(recs) {
			t.Fatalf("%d cached diffs, want %d", len(seg.diffCache), len(recs))
		}
		checkCacheAccounting(t, "after replay", seg)
	})
}

// runOf is a diff of one run of count units at start of block serial.
func runOf(serial, start, count uint32, data []byte) *wire.SegmentDiff {
	return &wire.SegmentDiff{Blocks: []wire.BlockDiff{{Serial: serial, Runs: []wire.Run{
		{Start: start, Count: count, Data: data},
	}}}}
}

package server

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"interweave/internal/coherence"
	"interweave/internal/journal"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// findJournalFile returns the single file with the given suffix in
// dir, or "" when none exists.
func findJournalFile(t testing.TB, dir, suffix string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			return filepath.Join(dir, e.Name())
		}
	}
	return ""
}

// TestJournalRecoverAfterKill is the headline acceptance test: a
// server journaling to disk is "killed" (never Closed, so nothing is
// compacted or flushed beyond the per-release appends) after N acked
// releases, and a fresh server over the same directory recovers all N
// — data, version, and the at-most-once applied table.
func TestJournalRecoverAfterKill(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Options{JournalDir: dir, Metrics: reg})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "j/kill", Create: true})
	rc.call(&protocol.WriteLock{Seg: "j/kill", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "j/kill", Diff: intCreateDiff(t, 1, 1), WriterID: "w-j", Seq: 1})
	const n = 5
	for i := uint32(2); i <= n; i++ {
		rc.call(&protocol.WriteLock{Seg: "j/kill", Policy: coherence.Full()})
		reply, _ := rc.call(&protocol.WriteUnlock{Seg: "j/kill", Diff: runDiff(1, 0, i), WriterID: "w-j", Seq: i})
		if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != i {
			t.Fatalf("release %d = %+v", i, reply)
		}
	}
	if got := reg.Snapshot().Counters["iw_server_journal_appends_total"]; got != n {
		t.Errorf("journal appends = %d, want %d", got, n)
	}

	// No Close: the first server is abandoned mid-flight. Recovery
	// sees only what the per-release appends put on disk.
	reg2 := obs.NewRegistry()
	srv2, addr2 := startTestServer(t, Options{JournalDir: dir, Metrics: reg2})
	seg := srv2.SegmentSnapshot("j/kill")
	if seg == nil || seg.Version != n {
		t.Fatalf("recovered segment = %+v, want version %d", seg, n)
	}
	d, err := seg.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 1 || wire.NewReader(d.Blocks[0].Runs[0].Data).U32() != n {
		t.Fatalf("recovered data = %+v", d.Blocks)
	}
	if got := reg2.Snapshot().Counters[`iw_server_journal_replayed_total{source="startup"}`]; got != n {
		t.Errorf("startup replays = %d, want %d", got, n)
	}
	// The applied table came back with the data: a Resume for the last
	// acked release answers from the record, and its retry dedups.
	rc2 := dialRaw(t, addr2)
	reply, _ := rc2.call(&protocol.Resume{Seg: "j/kill", WriterID: "w-j", Seq: n})
	if rr, ok := reply.(*protocol.ResumeReply); !ok || !rr.Applied || rr.AppliedVersion != n {
		t.Fatalf("Resume after recovery = %+v", reply)
	}
	reply, _ = rc2.call(&protocol.WriteUnlock{Seg: "j/kill", Diff: runDiff(1, 0, n), WriterID: "w-j", Seq: n})
	if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != n {
		t.Fatalf("retried release after recovery = %+v", reply)
	}
	if got := srv2.SegmentSnapshot("j/kill").Version; got != n {
		t.Errorf("duplicate release advanced recovered segment to %d", got)
	}
}

// TestJournalCrashMatrix cuts the journal at every byte offset — the
// torn-write simulator — and restarts over each truncation: recovery
// must land exactly on the last fully-sealed record, incrementing the
// truncated-tail counter only when the cut tore a record.
func TestJournalCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	_, addr := startTestServer(t, Options{JournalDir: dir})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "m/seg", Create: true})
	rc.call(&protocol.WriteLock{Seg: "m/seg", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "m/seg", Diff: intCreateDiff(t, 1, 1, 1)})
	logPath := findJournalFile(t, dir, journal.LogSuffix)
	if logPath == "" {
		t.Fatal("no journal log on disk after an acked release")
	}
	// One record per release: the file size after each ack is a record
	// boundary, measured independently of the scanner under test.
	var boundaries []int64
	stat := func() {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, fi.Size())
	}
	stat()
	for i := uint32(2); i <= 4; i++ {
		rc.call(&protocol.WriteLock{Seg: "m/seg", Policy: coherence.Full()})
		rc.call(&protocol.WriteUnlock{Seg: "m/seg", Diff: runDiff(1, 0, i, i)})
		stat()
	}
	image, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(logPath)

	for cut := 0; cut <= len(image); cut++ {
		wantVer := uint32(0)
		atBoundary := cut == 0
		for i, b := range boundaries {
			if int64(cut) >= b {
				wantVer = uint32(i + 1)
			}
			if int64(cut) == b {
				atBoundary = true
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, name), image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		srv, err := New(Options{JournalDir: cdir, Metrics: reg})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		seg := srv.SegmentSnapshot("m/seg")
		if seg == nil || seg.Version != wantVer {
			t.Fatalf("cut %d/%d: recovered to %+v, want version %d", cut, len(image), seg, wantVer)
		}
		torn := reg.Snapshot().Counters["iw_server_journal_truncated_tail_total"]
		if atBoundary && torn != 0 {
			t.Fatalf("cut %d at a record boundary reported %d torn tails", cut, torn)
		}
		if !atBoundary && torn != 1 {
			t.Fatalf("cut %d inside a record reported %d torn tails, want 1", cut, torn)
		}
	}
}

// TestJournalRefusesHole: a journal whose base sits at version 1 and
// whose only record runs 2→3 is missing the record that produced
// version 2. Recovery must refuse it rather than apply the 2→3 diff on
// top of version 1 and serve a version-3 image whose contents never
// existed.
func TestJournalRefusesHole(t *testing.T) {
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := store.Segment("h/seg")
	if err != nil {
		t.Fatal(err)
	}
	seg := NewSegment("h/seg")
	if _, _, err := seg.ApplyDiff(intCreateDiff(t, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, sealBase(appendApplied(seg.encode(), nil))); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&protocol.Replicate{Seg: "h/seg", PrevVersion: 2, Version: 3, Diff: runDiff(1, 0, 3, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{JournalDir: dir})
	if err == nil {
		t.Fatalf("recovered across a journal hole to version %d", srv.SegmentSnapshot("h/seg").Version)
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Errorf("recovery error does not name the missing records: %v", err)
	}
}

// TestJournalPropertyReplay: for random release sequences with random
// compaction points interleaved, base + replay reconstructs a segment
// whose encoded bytes, version, and applied table are identical to the
// live server that was never restarted. A single descriptor keeps the
// encoding canonical (descriptor order is the one map-ordered part of
// the encoding).
func TestJournalPropertyReplay(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		srv, addr := startTestServer(t, Options{JournalDir: dir, JournalCompactBytes: -1})
		rc := dialRaw(t, addr)
		rc.call(&protocol.OpenSegment{Name: "q/seg", Create: true})
		releases := 1 + rng.Intn(8)
		for i := 0; i < releases; i++ {
			var diff *wire.SegmentDiff
			if i == 0 {
				diff = intsDiff(t, 1, 1, 4, "blk", rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32())
			} else {
				start := uint32(rng.Intn(4))
				vals := make([]uint32, 1+rng.Intn(4-int(start)))
				for j := range vals {
					vals[j] = rng.Uint32()
				}
				diff = runDiff(1, start, vals...)
			}
			rc.call(&protocol.WriteLock{Seg: "q/seg", Policy: coherence.Full()})
			reply, _ := rc.call(&protocol.WriteUnlock{Seg: "q/seg", Diff: diff, WriterID: "w-q", Seq: uint32(i + 1)})
			if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != uint32(i+1) {
				t.Errorf("seed %d: release %d = %+v", seed, i+1, reply)
				return false
			}
			if rng.Intn(3) == 0 {
				if err := srv.CompactJournal(); err != nil {
					t.Errorf("seed %d: compaction after release %d: %v", seed, i+1, err)
					return false
				}
			}
		}

		live, ok := srv.reg.get("q/seg")
		if !ok {
			t.Errorf("seed %d: live segment missing", seed)
			return false
		}
		srv.lockSeg(live)
		liveBytes := live.seg.encode()
		liveVer := live.seg.Version
		liveApplied := live.applied
		live.mu.Unlock()

		srv2, err := New(Options{JournalDir: dir})
		if err != nil {
			t.Errorf("seed %d: recovery: %v", seed, err)
			return false
		}
		rest, ok := srv2.reg.get("q/seg")
		if !ok {
			t.Errorf("seed %d: recovered segment missing", seed)
			return false
		}
		if rest.seg.Version != liveVer {
			t.Errorf("seed %d: recovered version %d, live %d", seed, rest.seg.Version, liveVer)
			return false
		}
		if !reflect.DeepEqual(rest.seg.encode(), liveBytes) {
			t.Errorf("seed %d: recovered segment encoding differs from live server", seed)
			return false
		}
		if !reflect.DeepEqual(rest.applied, liveApplied) {
			t.Errorf("seed %d: recovered applied table %+v, live %+v", seed, rest.applied, liveApplied)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestJournalCloseCompacts: Close folds the log into a fresh base, so
// a clean shutdown recovers entirely from the base with zero replays.
func TestJournalCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startTestServer(t, Options{JournalDir: dir})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "j/close", Create: true})
	rc.call(&protocol.WriteLock{Seg: "j/close", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "j/close", Diff: intCreateDiff(t, 1, 9)})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if base := findJournalFile(t, dir, journal.BaseSuffix); base == "" {
		t.Fatal("no base written on Close")
	}
	if logPath := findJournalFile(t, dir, journal.LogSuffix); logPath != "" {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 0 {
			t.Errorf("log holds %d bytes after Close; compaction should have emptied it", fi.Size())
		}
	}
	reg := obs.NewRegistry()
	srv2, err := New(Options{JournalDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if seg := srv2.SegmentSnapshot("j/close"); seg == nil || seg.Version != 1 {
		t.Fatalf("recovered from base = %+v", seg)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`iw_server_journal_replayed_total{source="startup"}`]; got != 0 {
		t.Errorf("%d records replayed after a clean Close, want 0 (base covers all)", got)
	}
}

// TestJournalSizeTriggeredCompaction: a tiny threshold compacts from
// the commit pipeline itself, no periodic loop involved — the flusher
// folds the log at the first batch boundary after it outgrew the
// threshold, here the second release's, before that release replies.
func TestJournalSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Options{JournalDir: dir, JournalCompactBytes: 1, Metrics: reg})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "j/size", Create: true})
	rc.call(&protocol.WriteLock{Seg: "j/size", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "j/size", Diff: intCreateDiff(t, 1, 1)})
	rc.call(&protocol.WriteLock{Seg: "j/size", HaveVersion: 1, Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "j/size", Diff: runDiff(1, 0, 2)})
	if reg.Snapshot().Counters["iw_server_journal_compactions_total"] == 0 {
		t.Error("the release after the log outgrew the threshold did not compact")
	}
	if findJournalFile(t, dir, journal.BaseSuffix) == "" {
		t.Error("no base on disk after size-triggered compaction")
	}
}

// BenchmarkRecovery measures startup replay: New() over a journal of
// 200 small committed releases (no base, worst case for replay).
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	l, err := store.Segment("bench/rec")
	if err != nil {
		b.Fatal(err)
	}
	descBytes, err := types.Marshal(types.Int32())
	if err != nil {
		b.Fatal(err)
	}
	const releases = 200
	for v := uint32(1); v <= releases; v++ {
		diff := &wire.SegmentDiff{
			Blocks: []wire.BlockDiff{{Serial: 1, Runs: []wire.Run{{Start: 0, Count: 1, Data: wire.AppendU32(nil, v)}}}},
		}
		if v == 1 {
			diff.Descs = []wire.DescDef{{Serial: 1, Bytes: descBytes}}
			diff.News = []wire.NewBlock{{Serial: 1, DescSerial: 1, Count: 1}}
		}
		err := l.Append(&protocol.Replicate{
			Seg:         "bench/rec",
			PrevVersion: v - 1,
			Version:     v,
			Diff:        diff,
			Applied:     []protocol.AppliedEntry{{WriterID: "w", Seq: v, Version: v}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(Options{JournalDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if seg := srv.SegmentSnapshot("bench/rec"); seg == nil || seg.Version != releases {
			b.Fatalf("recovered to %+v", seg)
		}
	}
}

// TestGroupCommitOnRecoveredSegment: a segment recovered at startup
// must take a release through the commit pipeline like a fresh one.
// Recovery used to build its segState by hand, without the flush
// condition variable the flusher broadcasts on, so the first write to
// a recovered segment panicked the server.
func TestGroupCommitOnRecoveredSegment(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts func(dir string) Options
	}{
		{"journal", func(dir string) Options { return Options{JournalDir: dir} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, addr := startTestServer(t, mode.opts(dir))
			seedSeg(t, addr, "gc/recovered", 8)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			_, addr = startTestServer(t, mode.opts(dir))
			rc := dialRaw(t, addr)
			if reply, _ := rc.call(&protocol.WriteLock{Seg: "gc/recovered", HaveVersion: 1, Policy: coherence.Full()}); reply == nil {
				t.Fatal("write lock on the recovered segment failed")
			}
			reply, _ := rc.call(&protocol.WriteUnlock{Seg: "gc/recovered", Diff: runDiff(1, 0, 7)})
			if vr, ok := reply.(*protocol.VersionReply); !ok || vr.Version != 2 {
				t.Fatalf("release on the recovered segment = %+v, want version 2", reply)
			}
		})
	}
}

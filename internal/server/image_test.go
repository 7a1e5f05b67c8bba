package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interweave/internal/coherence"
	"interweave/internal/journal"
	"interweave/internal/protocol"
)

func TestCheckpointToDirAndRestore(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startTestServer(t, Options{JournalDir: dir})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "alpha/one", Create: true})
	rc.call(&protocol.WriteLock{Seg: "alpha/one", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "alpha/one", Diff: intCreateDiff(t, 1, 5, 6, 7)})
	rc.call(&protocol.OpenSegment{Name: "beta/two", Create: true})

	if err := srv.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), journal.BaseSuffix) {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("compaction produced %d bases, want 2", files)
	}

	// A fresh server instance restores both segments.
	srv2, err := New(Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	names := srv2.SegmentNames()
	if len(names) != 2 {
		t.Fatalf("restored %d segments: %v", len(names), names)
	}
	seg := srv2.SegmentSnapshot("alpha/one")
	if seg == nil || seg.Version != 1 || seg.NumBlocks() != 1 {
		t.Fatalf("restored segment = %+v", seg)
	}
	d, err := seg.CollectDiff(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Blocks) != 1 || d.Blocks[0].Runs[0].Count != 3 {
		t.Fatalf("restored data = %+v", d.Blocks)
	}
}

func TestRestoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.SegmentNames()) != 0 {
		t.Error("foreign files produced segments")
	}
}

func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef"+journal.BaseSuffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{JournalDir: dir}); err == nil {
		t.Error("corrupt journal base accepted")
	}
}

func TestCloseCheckpointsFinalState(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSegment("c/final"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.SegmentNames(); len(got) != 1 || got[0] != "c/final" {
		t.Errorf("after close, restored = %v", got)
	}
	// Double close is a no-op.
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateSegmentDuplicates(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSegment("x/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSegment("x/y"); err == nil {
		t.Error("duplicate CreateSegment succeeded")
	}
	if srv.SegmentSnapshot("nope") != nil {
		t.Error("SegmentSnapshot of missing segment non-nil")
	}
	if srv.Addr() != nil {
		t.Error("Addr non-nil before Serve")
	}
}

// makeBaseFile produces one sealed journal base with real content
// (descriptors, a block, an applied-writer entry) and returns its name
// and bytes.
func makeBaseFile(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	srv, addr := startTestServer(t, Options{JournalDir: dir})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "c/seg", Create: true})
	rc.call(&protocol.WriteLock{Seg: "c/seg", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "c/seg", Diff: intCreateDiff(t, 1, 5, 6, 7), WriterID: "w-ckpt", Seq: 3})
	if err := srv.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	path := findJournalFile(t, dir, journal.BaseSuffix)
	if path == "" {
		t.Fatal("no journal base written")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(path), b
}

// restoreFrom attempts a restore from a journal directory holding only
// a base with the given contents.
func restoreFrom(t *testing.T, name string, data []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{JournalDir: dir})
	return err
}

// TestRestoreRejectsTruncation restores every prefix of a valid base:
// each must fail with an error, never panic, never succeed with
// partial state.
func TestRestoreRejectsTruncation(t *testing.T) {
	name, data := makeBaseFile(t)
	for cut := 0; cut < len(data); cut++ {
		if err := restoreFrom(t, name, data[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes restored successfully", cut, len(data))
		}
	}
}

// TestRestoreRejectsBitFlips flips one bit at every byte position:
// the CRC-32 trailer guarantees each is detected.
func TestRestoreRejectsBitFlips(t *testing.T) {
	name, data := makeBaseFile(t)
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := restoreFrom(t, name, bad); err == nil {
			t.Fatalf("bit flip at byte %d restored successfully", i)
		}
	}
}

// TestRestoreRejectsWrongMagic re-seals a payload with a bogus magic
// so the CRC passes and the failure comes from the decoder, with a
// descriptive message.
func TestRestoreRejectsWrongMagic(t *testing.T) {
	name, data := makeBaseFile(t)
	payload := append([]byte(nil), data[:len(data)-4]...)
	copy(payload, []byte("NOPE"))
	err := restoreFrom(t, name, sealBase(payload))
	if err == nil {
		t.Fatal("wrong-magic base restored successfully")
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Errorf("error does not mention the magic: %v", err)
	}
}

// TestRestoreRejectsTrailingBytes re-seals a payload with one byte
// appended, so the CRC passes and the decoder must notice the excess.
func TestRestoreRejectsTrailingBytes(t *testing.T) {
	name, data := makeBaseFile(t)
	payload := append(append([]byte(nil), data[:len(data)-4]...), 0)
	err := restoreFrom(t, name, sealBase(payload))
	if err == nil {
		t.Fatal("base with trailing bytes restored successfully")
	}
	if !strings.Contains(err.Error(), "trailing") {
		t.Errorf("error does not mention the trailing bytes: %v", err)
	}
}

// TestRestorePersistsAppliedTable proves release dedup survives a
// server restart: a retried WriteUnlock whose original was applied
// (and compacted into the base) before the crash is answered from the
// restored record instead of applied twice.
func TestRestorePersistsAppliedTable(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startTestServer(t, Options{JournalDir: dir})
	rc := dialRaw(t, addr)
	rc.call(&protocol.OpenSegment{Name: "c/dedup", Create: true})
	rc.call(&protocol.WriteLock{Seg: "c/dedup", Policy: coherence.Full()})
	rc.call(&protocol.WriteUnlock{Seg: "c/dedup", Diff: intCreateDiff(t, 1, 5), WriterID: "w-a", Seq: 7})
	if err := srv.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startTestServer(t, Options{JournalDir: dir})
	rc2 := dialRaw(t, addr2)
	reply, _ := rc2.call(&protocol.Resume{Seg: "c/dedup", WriterID: "w-a", Seq: 7})
	rr, ok := reply.(*protocol.ResumeReply)
	if !ok || !rr.Applied || rr.AppliedVersion != 1 {
		t.Fatalf("Resume after restart = %+v", reply)
	}
	reply, _ = rc2.call(&protocol.WriteUnlock{Seg: "c/dedup", Diff: intCreateDiff(t, 1, 5), WriterID: "w-a", Seq: 7})
	vr, ok := reply.(*protocol.VersionReply)
	if !ok || vr.Version != 1 {
		t.Fatalf("retried release after restart = %+v", reply)
	}
	if seg := srv2.SegmentSnapshot("c/dedup"); seg == nil || seg.Version != 1 {
		t.Errorf("duplicate release advanced the segment: %+v", seg)
	}
}

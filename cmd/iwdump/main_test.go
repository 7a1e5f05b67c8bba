package main

import (
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"interweave"
	"interweave/internal/journal"
)

// makeJournal runs a client against a journal-mode server: one release
// allocates a 5-record block, then the journal is compacted into a base
// at version 1 and tail more releases each allocate one block, landing
// only in the log. The server is left running — a clean Close would
// compact the tail away — and the directory is returned.
func makeJournal(t *testing.T, tail int) string {
	t.Helper()
	dir := t.TempDir()
	srv, err := interweave.NewServer(interweave.ServerOptions{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := interweave.NewClient(interweave.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Open(ln.Addr().String() + "/dumpme")
	if err != nil {
		t.Fatal(err)
	}
	st, err := interweave.StructOf("rec",
		interweave.Field{Name: "k", Type: interweave.Int32()},
		interweave.Field{Name: "v", Type: interweave.Float64()},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= tail; i++ {
		if err := c.WLock(h); err != nil {
			t.Fatal(err)
		}
		typ, n, name := st, 5, "records"
		if i > 0 {
			typ, n, name = interweave.Int32(), 1, fmt.Sprintf("more%d", i)
		}
		if _, err := c.Alloc(h, typ, n, name); err != nil {
			t.Fatal(err)
		}
		if err := c.WUnlock(h); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := srv.CompactJournal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// dump runs iwdump on target and returns its output.
func dump(t *testing.T, target string) string {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{target}, f); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestDumpDirectory(t *testing.T) {
	out := dump(t, makeJournal(t, 0))
	for _, want := range []string{"/dumpme", "records", "rec{k int32; v float64}", "version 1,"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output missing %q:\n%s", want, out)
		}
	}
}

// TestDumpJournalTail: acknowledged releases still in the log tail are
// part of the segment — the dump shows the version a restart would
// recover, not the base's — and dumping never writes to the directory:
// a torn tail record stays on disk for the server that owns it.
func TestDumpJournalTail(t *testing.T) {
	dir := makeJournal(t, 2)
	logPath := ""
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), journal.LogSuffix) {
			logPath = filepath.Join(dir, e.Name())
		}
	}
	if logPath == "" {
		t.Fatal("no journal log after the tail releases")
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	out := dump(t, dir)
	for _, want := range []string{"version 3,", "2 log records", "more1", "more2", "torn"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output missing %q:\n%s", want, out)
		}
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("dumping changed the log from %d to %d bytes", len(before), len(after))
	}
}

func TestDumpErrors(t *testing.T) {
	if err := run([]string{}, os.Stdout); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"/nonexistent"}, os.Stdout); err == nil {
		t.Error("missing path accepted")
	}
	empty := t.TempDir()
	if err := run([]string{empty}, os.Stdout); err == nil {
		t.Error("empty directory accepted")
	}
	bad := filepath.Join(empty, hex.EncodeToString([]byte("x/seg"))+journal.BaseSuffix)
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, os.Stdout); err == nil {
		t.Error("corrupt file accepted")
	}
}

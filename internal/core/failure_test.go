package core

import (
	"net"
	"testing"
	"time"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/types"
)

// TestServerRestartFromCheckpoint kills a server after a clean Close,
// restarts it from disk on the same address, and verifies that (a) an
// existing client transparently reconnects and its cached state stays
// valid, and (b) a fresh client sees all data — the paper's "partial
// protection against server failure".
func TestServerRestartFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv1, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = srv1.Serve(ln) }()
	segName := addr + "/durable"

	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	b, err := c.Alloc(h, types.Int32(), 8, "a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Heap().WriteI32(b.Addr+mem.Addr(4*i), int32(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}

	// Close compacts the journal; restart from the same directory and
	// address.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	// The existing client reconnects on its next lock; its cached
	// copy is version-valid, so no data travels.
	if err := c.RLock(h); err != nil {
		t.Fatalf("read lock after restart: %v", err)
	}
	if v, _ := c.Heap().ReadI32(b.Addr + 4); v != 1 {
		t.Errorf("cached value = %d", v)
	}
	if err := c.RUnlock(h); err != nil {
		t.Fatal(err)
	}
	// And it can write again.
	if err := c.WLock(h); err != nil {
		t.Fatalf("write lock after restart: %v", err)
	}
	if err := c.Heap().WriteI32(b.Addr, 777); err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}

	// A fresh client sees the persisted data plus the new write.
	c2 := newTestClient(t, arch.Sparc(), "c2")
	h2, err := c2.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RLock(h2); err != nil {
		t.Fatal(err)
	}
	b2, ok := h2.Mem().BlockByName("a")
	if !ok {
		t.Fatal("block a missing after restart")
	}
	if v, _ := c2.Heap().ReadI32(b2.Addr); v != 777 {
		t.Errorf("fresh client sees %d, want 777", v)
	}
	if v, _ := c2.Heap().ReadI32(b2.Addr + 12); v != 9 {
		t.Errorf("persisted value = %d, want 9", v)
	}
	if err := c2.RUnlock(h2); err != nil {
		t.Fatal(err)
	}
}

// TestServerGoneFails verifies clean errors when no server comes
// back.
func TestServerGoneFails(t *testing.T) {
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	segName := ln.Addr().String() + "/gone"

	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.RLock(h); err == nil {
		_ = c.RUnlock(h)
		t.Error("read lock against a dead server succeeded")
	}
}

// TestSubscriptionDroppedOnReconnect: after a server restart the old
// subscription is gone; the client must not trust local freshness.
func TestSubscriptionDroppedOnReconnect(t *testing.T) {
	dir := t.TempDir()
	srv1, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = srv1.Serve(ln) }()
	segName := addr + "/sub"

	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(hw, types.Int32(), 4, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hw); err != nil {
		t.Fatal(err)
	}

	r := newTestClient(t, arch.AMD64(), "r")
	hr, err := r.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the adaptive protocol into notification mode.
	for i := 0; i < 5; i++ {
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	subscribed := hr.s.state.Subscribed
	r.mu.Unlock()
	if !subscribed {
		t.Fatal("setup: reader did not subscribe")
	}

	// Restart the server; both clients reconnect lazily.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	// Writer updates through the new server.
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(blk.Addr, 31337); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hw); err != nil {
		t.Fatal(err)
	}

	// The reader's subscription died with the old server; its next
	// read lock must poll and fetch the new version rather than trust
	// the stale "no notification arrived" state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		rb, _ := hr.Mem().BlockByName("a")
		v, _ := r.Heap().ReadI32(rb.Addr)
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
		if v == 31337 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader stuck at stale value %d", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLayoutForCacheLocality verifies the paper's data-layout
// optimization: when a segment is cached for the first time, blocks
// that were modified in the same write critical section (same
// version) are placed contiguously.
func TestLayoutForCacheLocality(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/locality"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	// Three critical sections, three blocks each.
	var groups [][]uint32
	for g := 0; g < 3; g++ {
		if err := w.WLock(hw); err != nil {
			t.Fatal(err)
		}
		var serials []uint32
		for i := 0; i < 3; i++ {
			b, err := w.Alloc(hw, types.Int32(), 32, "")
			if err != nil {
				t.Fatal(err)
			}
			serials = append(serials, b.Serial)
		}
		if err := w.WUnlock(hw); err != nil {
			t.Fatal(err)
		}
		groups = append(groups, serials)
	}

	r := newTestClient(t, arch.AMD64(), "r")
	hr, err := r.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}()
	// Every block of version group g must precede every block of
	// group g+1 in the reader's address space.
	var maxPrev mem.Addr
	for g, serials := range groups {
		var lo, hi mem.Addr
		for i, serial := range serials {
			b, ok := hr.Mem().BlockBySerial(serial)
			if !ok {
				t.Fatalf("block %d missing", serial)
			}
			if i == 0 || b.Addr < lo {
				lo = b.Addr
			}
			if b.End() > hi {
				hi = b.End()
			}
		}
		if lo < maxPrev {
			t.Errorf("group %d starts at %#x, before previous group's end %#x",
				g, uint64(lo), uint64(maxPrev))
		}
		maxPrev = hi
	}
}

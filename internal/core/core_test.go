package core

import (
	"net"
	"testing"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/types"
)

// startServer launches an InterWeave server on a loopback port and
// returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

func newTestClient(t *testing.T, prof *arch.Profile, name string) *Client {
	t.Helper()
	c, err := NewClient(Options{Profile: prof, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// nodeType builds the paper's node_t.
func nodeType(t *testing.T) *types.Type {
	t.Helper()
	n := types.NewStruct("node_t")
	next, err := types.PointerTo(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetFields(
		types.Field{Name: "key", Type: types.Int32()},
		types.Field{Name: "next", Type: next},
	); err != nil {
		t.Fatal(err)
	}
	return n
}

// list is a tiny typed view over the Figure 1 linked list.
type list struct {
	c    *Client
	h    *Segment
	node *types.Layout
}

func newList(t *testing.T, c *Client, h *Segment, nt *types.Type) *list {
	t.Helper()
	l, err := types.Of(nt, c.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return &list{c: c, h: h, node: l}
}

func (l *list) keyAddr(n mem.Addr) mem.Addr {
	f, _ := l.node.Field("key")
	return n + mem.Addr(f.ByteOff)
}

func (l *list) nextAddr(n mem.Addr) mem.Addr {
	f, _ := l.node.Field("next")
	return n + mem.Addr(f.ByteOff)
}

// insert prepends a key after the header node, as list_insert does.
func (l *list) insert(t *testing.T, head mem.Addr, nt *types.Type, key int32) {
	t.Helper()
	if err := l.c.WLock(l.h); err != nil {
		t.Fatal(err)
	}
	blk, err := l.c.Alloc(l.h, nt, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	h := l.c.Heap()
	if err := h.WriteI32(l.keyAddr(blk.Addr), key); err != nil {
		t.Fatal(err)
	}
	first, err := h.ReadPtr(l.nextAddr(head))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WritePtr(l.nextAddr(blk.Addr), first); err != nil {
		t.Fatal(err)
	}
	if err := h.WritePtr(l.nextAddr(head), blk.Addr); err != nil {
		t.Fatal(err)
	}
	if err := l.c.WUnlock(l.h); err != nil {
		t.Fatal(err)
	}
}

// keys walks the list under a read lock.
func (l *list) keys(t *testing.T, head mem.Addr) []int32 {
	t.Helper()
	if err := l.c.RLock(l.h); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.c.RUnlock(l.h); err != nil {
			t.Fatal(err)
		}
	}()
	var out []int32
	h := l.c.Heap()
	p, err := h.ReadPtr(l.nextAddr(head))
	if err != nil {
		t.Fatal(err)
	}
	for p != 0 {
		k, err := h.ReadI32(l.keyAddr(p))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, k)
		p, err = h.ReadPtr(l.nextAddr(p))
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSharedLinkedListHeterogeneous reproduces the paper's Figure 1
// program: one client builds a shared linked list, another — on a
// different simulated architecture — maps it through a MIP and
// searches it.
func TestSharedLinkedListHeterogeneous(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/list"
	nt := nodeType(t)

	// Writer on big-endian 32-bit.
	cw := newTestClient(t, arch.Sparc(), "writer")
	hw, err := cw.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	// Create the unused header node.
	if err := cw.WLock(hw); err != nil {
		t.Fatal(err)
	}
	headBlk, err := cw.Alloc(hw, nt, 1, "head")
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WUnlock(hw); err != nil {
		t.Fatal(err)
	}
	lw := newList(t, cw, hw, nt)
	for _, k := range []int32{10, 20, 30} {
		lw.insert(t, headBlk.Addr, nt, k)
	}
	if got := lw.keys(t, headBlk.Addr); len(got) != 3 || got[0] != 30 || got[2] != 10 {
		t.Fatalf("writer's list = %v", got)
	}

	// Reader on little-endian 64-bit, bootstrapping via MIP.
	cr := newTestClient(t, arch.Alpha(), "reader")
	headAddr, err := cr.MIPToPtr(segName + "#head")
	if err != nil {
		t.Fatal(err)
	}
	hr := openExisting(t, cr, segName)
	lr := newList(t, cr, hr, nt)
	got := lr.keys(t, headAddr)
	if len(got) != 3 || got[0] != 30 || got[1] != 20 || got[2] != 10 {
		t.Fatalf("reader's list = %v", got)
	}

	// Reader inserts; writer observes.
	lr.insert(t, headAddr, nt, 40)
	if got := lw.keys(t, headBlk.Addr); len(got) != 4 || got[0] != 40 {
		t.Fatalf("writer after reader insert = %v", got)
	}
}

func openExisting(t *testing.T, c *Client, name string) *Segment {
	t.Helper()
	h, err := c.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLockDiscipline(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(addr + "/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc(h, types.Int32(), 1, ""); err == nil {
		t.Error("Alloc without write lock succeeded")
	}
	if err := c.WUnlock(h); err == nil {
		t.Error("WUnlock without lock succeeded")
	}
	if err := c.RUnlock(h); err == nil {
		t.Error("RUnlock without lock succeeded")
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	b, err := c.Alloc(h, types.Int32(), 4, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(h, b); err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	// Block created and freed in one critical section never reached
	// the server.
	if got := h.Version(); got != 0 {
		t.Errorf("version = %d after no-op section, want 0", got)
	}
}

func TestWriteLockMutualExclusion(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/ctr"
	c1 := newTestClient(t, arch.AMD64(), "c1")
	c2 := newTestClient(t, arch.X86(), "c2")
	h1, err := c1.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.WLock(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Alloc(h1, types.Int32(), 1, "ctr"); err != nil {
		t.Fatal(err)
	}
	if err := c1.WUnlock(h1); err != nil {
		t.Fatal(err)
	}
	h2, err := c2.Open(segName)
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved increments from both clients; the total must be
	// exact if write locks serialize.
	const perClient = 25
	incr := func(c *Client, h *Segment) error {
		if err := c.WLock(h); err != nil {
			return err
		}
		blk, _ := h.Mem().BlockByName("ctr")
		v, err := c.Heap().ReadI32(blk.Addr)
		if err != nil {
			return err
		}
		if err := c.Heap().WriteI32(blk.Addr, v+1); err != nil {
			return err
		}
		return c.WUnlock(h)
	}
	errs := make(chan error, 2)
	for _, pair := range []struct {
		c *Client
		h *Segment
	}{{c1, h1}, {c2, h2}} {
		pair := pair
		go func() {
			for i := 0; i < perClient; i++ {
				if err := incr(pair.c, pair.h); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.RLock(h1); err != nil {
		t.Fatal(err)
	}
	blk, _ := h1.Mem().BlockByName("ctr")
	v, err := c1.Heap().ReadI32(blk.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RUnlock(h1); err != nil {
		t.Fatal(err)
	}
	if v != 2*perClient {
		t.Errorf("counter = %d, want %d", v, 2*perClient)
	}
}

func TestDeltaCoherenceSkipsUpdates(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/d"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hw, types.Int32(), 16, "a"); err != nil {
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
	if err := r.SetPolicy(hr, coherence.Delta(2)); err != nil {
		t.Fatal(err)
	}
	// First read: fetch v1.
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 1 {
		t.Fatalf("reader at v%d, want 1", hr.Version())
	}
	// Writer advances to v3: staleness 2, still within Delta(2).
	writeOnce := func() {
		t.Helper()
		if err := w.WLock(hw); err != nil {
			t.Fatal(err)
		}
		blk, _ := hw.Mem().BlockByName("a")
		if err := w.Heap().WriteI32(blk.Addr, int32(hw.Version())); err != nil {
			t.Fatal(err)
		}
		if err := w.WUnlock(hw); err != nil {
			t.Fatal(err)
		}
	}
	writeOnce() // v2
	writeOnce() // v3
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 1 {
		t.Errorf("reader updated at staleness 2 under Delta(2): v%d", hr.Version())
	}
	writeOnce() // v4: staleness 3 > 2
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 4 {
		t.Errorf("reader at v%d after bound exceeded, want 4", hr.Version())
	}
}

func TestTemporalCoherenceAvoidsCommunication(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/t"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hw, types.Int32(), 4, "a"); err != nil {
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
	if err := r.SetPolicy(hr, coherence.Temporal(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	// Writer advances; reader within its window must not update.
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, _ := hw.Mem().BlockByName("a")
	if err := w.Heap().WriteI32(blk.Addr, 9); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}
	if hr.Version() != 1 {
		t.Errorf("temporal reader at v%d inside window, want 1", hr.Version())
	}
}

// invalidated reports whether a server push has invalidated h's cached
// copy: recorded by the connection's read loop, or already folded into
// the segment's state by a lock.
func invalidated(c *Client, h *Segment) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notifiedMu.Lock()
	_, pending := c.notified[h.s.name]
	c.notifiedMu.Unlock()
	return pending || h.s.state.Invalidated
}

func TestAdaptiveNotification(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/n"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hw, types.Int32(), 4, "a"); err != nil {
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
	// Poll repeatedly with no updates: the adaptive protocol must
	// switch to notifications.
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
		t.Fatal("reader did not subscribe after repeated fresh polls")
	}
	// A write must invalidate the reader asynchronously.
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, _ := hw.Mem().BlockByName("a")
	if err := w.Heap().WriteI32(blk.Addr, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		inv := invalidated(r, hr)
		if inv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("notification never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Next read lock fetches the new version.
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 2 {
		t.Errorf("reader at v%d after invalidation, want 2", hr.Version())
	}
}

func TestNoDiffModeSwitching(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(addr + "/nd")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	blk, err := c.Alloc(h, types.Int32(), n, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	writeAll := func() {
		t.Helper()
		if err := c.WLock(h); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.Heap().WriteI32(blk.Addr+mem.Addr(4*i), int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WUnlock(h); err != nil {
			t.Fatal(err)
		}
	}
	if h.NoDiffMode() {
		t.Fatal("fresh segment already in no-diff mode")
	}
	writeAll()
	writeAll()
	if !h.NoDiffMode() {
		t.Fatal("segment did not switch to no-diff after hot releases")
	}
	// In no-diff mode, releases take no page faults.
	c.Heap().ResetStats()
	writeAll()
	if f := c.Heap().Stats().Faults; f != 0 {
		t.Errorf("no-diff section took %d faults", f)
	}
}

func TestFreePropagatesBetweenClients(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/f"
	c1 := newTestClient(t, arch.AMD64(), "c1")
	h1, err := c1.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.WLock(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Alloc(h1, types.Int32(), 4, "a"); err != nil {
		t.Fatal(err)
	}
	b2, err := c1.Alloc(h1, types.Int32(), 4, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.WUnlock(h1); err != nil {
		t.Fatal(err)
	}

	c2 := newTestClient(t, arch.Sparc(), "c2")
	h2, err := c2.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RLock(h2); err != nil {
		t.Fatal(err)
	}
	if err := c2.RUnlock(h2); err != nil {
		t.Fatal(err)
	}
	if h2.Mem().NumBlocks() != 2 {
		t.Fatalf("c2 blocks = %d", h2.Mem().NumBlocks())
	}

	if err := c1.WLock(h1); err != nil {
		t.Fatal(err)
	}
	if err := c1.Free(h1, b2); err != nil {
		t.Fatal(err)
	}
	if err := c1.WUnlock(h1); err != nil {
		t.Fatal(err)
	}

	if err := c2.RLock(h2); err != nil {
		t.Fatal(err)
	}
	if err := c2.RUnlock(h2); err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.Mem().BlockByName("b"); ok {
		t.Error("freed block still cached at c2")
	}
}

func TestCrossSegmentPointers(t *testing.T) {
	addr := startServer(t)
	segA := addr + "/a"
	segB := addr + "/b"
	pi, err := types.PointerTo(types.Int32())
	if err != nil {
		t.Fatal(err)
	}

	w := newTestClient(t, arch.AMD64(), "w")
	ha, err := w.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := w.Open(segB)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hb); err != nil {
		t.Fatal(err)
	}
	target, err := w.Alloc(hb, types.Int32(), 1, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(target.Addr, 1234); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hb); err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(ha); err != nil {
		t.Fatal(err)
	}
	pblk, err := w.Alloc(ha, pi, 1, "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WritePtr(pblk.Addr, target.Addr); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(ha); err != nil {
		t.Fatal(err)
	}

	// A second client opens only segment A; following the pointer
	// reserves segment B automatically, and locking B fetches the
	// data.
	r := newTestClient(t, arch.Sparc(), "r")
	hra, err := r.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hra); err != nil {
		t.Fatal(err)
	}
	pb, ok := hra.Mem().BlockByName("p")
	if !ok {
		t.Fatal("pointer block missing")
	}
	tgt, err := r.Heap().ReadPtr(pb.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hra); err != nil {
		t.Fatal(err)
	}
	if tgt == 0 {
		t.Fatal("cross-segment pointer is nil")
	}
	// The target segment was reserved as a shell; lock it to fetch.
	hrb := openExisting(t, r, segB)
	if err := r.RLock(hrb); err != nil {
		t.Fatal(err)
	}
	v, err := r.Heap().ReadI32(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hrb); err != nil {
		t.Fatal(err)
	}
	if v != 1234 {
		t.Errorf("cross-segment value = %d, want 1234", v)
	}
}

func TestOpenNonexistentViaMIPFails(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	if _, err := c.MIPToPtr(addr + "/nosuch#head"); err == nil {
		t.Error("MIP into nonexistent segment resolved")
	}
}

func TestPtrToMIPPublicAPI(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(addr + "/m")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	b, err := c.Alloc(h, types.Int32(), 8, "arr")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	mip, err := c.PtrToMIP(b.Addr + 12)
	if err != nil {
		t.Fatal(err)
	}
	want := addr + "/m#arr#3"
	if mip != want {
		t.Errorf("PtrToMIP = %q, want %q", mip, want)
	}
	back, err := c.MIPToPtr(mip)
	if err != nil {
		t.Fatal(err)
	}
	if back != b.Addr+12 {
		t.Errorf("roundtrip = %#x, want %#x", uint64(back), uint64(b.Addr+12))
	}
	if s, err := c.PtrToMIP(0); err != nil || s != "" {
		t.Errorf("PtrToMIP(0) = %q, %v", s, err)
	}
}

// TestCloseDoesNotWaitForParkedCall: Close must not wait for a call in
// flight. B's WLock is parked at the server behind A's writer; closing
// B returns at once and fails that WLock instead of waiting for A to
// let go.
func TestCloseDoesNotWaitForParkedCall(t *testing.T) {
	srv, addr := startChaosServer(t)
	a := newTestClient(t, arch.AMD64(), "a")
	b := newTestClient(t, arch.AMD64(), "b")
	name := addr + "/close"
	ha, err := a.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WLock(ha); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(ha, types.Int32(), 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := a.WUnlock(ha); err != nil {
		t.Fatal(err)
	}
	hb, err := b.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WLock(ha); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.WUnlock(ha) }()

	parked := make(chan error, 1)
	go func() { parked <- b.WLock(hb) }()
	for deadline := time.Now().Add(5 * time.Second); srv.DebugSegments()[0].Waiters == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("B's WriteLock never queued at the server")
		}
	}

	closed := make(chan struct{})
	go func() { _ = b.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close waited for the parked WLock")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked WLock succeeded on a closed client")
		}
	case <-time.After(time.Second):
		t.Fatal("parked WLock did not fail after Close")
	}
}

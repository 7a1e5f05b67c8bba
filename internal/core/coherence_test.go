package core

import (
	"testing"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/mem"
	"interweave/internal/types"
)

// TestDiffBasedCoherence verifies the client-visible semantics of
// diff-based coherence: updates are skipped until the cumulative
// fraction of modified primitive data units exceeds the bound.
func TestDiffBasedCoherence(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/diffpol"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	const units = 1000
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(hw, types.Int32(), units, "a")
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
	// Tolerate 10% of the segment being stale.
	if err := r.SetPolicy(hr, coherence.Diff(10)); err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hr); err != nil { // first fetch
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 1 {
		t.Fatalf("reader at v%d", hr.Version())
	}

	// Modify ~3% of the units (two subblocks' worth).
	writeSome := func(start, count int) {
		t.Helper()
		if err := w.WLock(hw); err != nil {
			t.Fatal(err)
		}
		for i := start; i < start+count; i++ {
			if err := w.Heap().WriteI32(blk.Addr+mem.Addr(4*i), int32(i)+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WUnlock(hw); err != nil {
			t.Fatal(err)
		}
	}
	writeSome(0, 30) // 3% < 10%
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 1 {
		t.Errorf("reader updated below the diff bound: v%d", hr.Version())
	}
	// Another 10% pushes the cumulative fraction past the bound
	// (conservative subblock accounting rounds up, which is allowed).
	writeSome(100, 100)
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 3 {
		t.Errorf("reader at v%d after bound exceeded, want 3", hr.Version())
	}
}

// TestPolicyDynamicallyTightened checks that tightening the bound at
// runtime (the paper: "x can be specified dynamically by the
// process") takes effect on the next acquisition.
func TestPolicyDynamicallyTightened(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/dyn"
	w := newTestClient(t, arch.AMD64(), "w")
	hw, err := w.Open(segName)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(hw); err != nil {
		t.Fatal(err)
	}
	blk, err := w.Alloc(hw, types.Int32(), 8, "a")
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
	if err := r.SetPolicy(hr, coherence.Delta(10)); err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	// Advance the segment twice; Delta(10) stays stale. (The values
	// must actually change: writing back an identical value produces
	// an empty diff and no new version.)
	for i := 0; i < 2; i++ {
		if err := w.WLock(hw); err != nil {
			t.Fatal(err)
		}
		if err := w.Heap().WriteI32(blk.Addr, int32(i)+5); err != nil {
			t.Fatal(err)
		}
		if err := w.WUnlock(hw); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 1 {
		t.Fatalf("loose policy fetched: v%d", hr.Version())
	}
	// Tighten to Full: the very next read lock must update.
	if err := r.SetPolicy(hr, coherence.Full()); err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hr); err != nil {
		t.Fatal(err)
	}
	if err := r.RUnlock(hr); err != nil {
		t.Fatal(err)
	}
	if hr.Version() != 3 {
		t.Errorf("tightened policy did not update: v%d", hr.Version())
	}
}

// TestAdaptiveUnsubscribe drives a subscribed reader through repeated
// invalidations: notifications are pure overhead for a client that is
// stale at every acquisition, so the adaptive protocol must fall back
// to polling.
func TestAdaptiveUnsubscribe(t *testing.T) {
	addr := startServer(t)
	segName := addr + "/unsub"
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
	// Reach notification mode.
	for i := 0; i < 5; i++ {
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	if !hr.s.state.Subscribed {
		r.mu.Unlock()
		t.Fatal("setup: not subscribed")
	}
	r.mu.Unlock()

	// Repeatedly: writer invalidates, reader waits for the
	// notification and read-locks while invalidated.
	for round := 0; round < 4; round++ {
		if err := w.WLock(hw); err != nil {
			t.Fatal(err)
		}
		if err := w.Heap().WriteI32(blk.Addr, int32(100+round)); err != nil {
			t.Fatal(err)
		}
		if err := w.WUnlock(hw); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			inv := invalidated(r, hr)
			r.mu.Lock()
			subscribed := hr.s.state.Subscribed
			r.mu.Unlock()
			if inv || !subscribed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("notification never arrived")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := r.RLock(hr); err != nil {
			t.Fatal(err)
		}
		if err := r.RUnlock(hr); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	stillSubscribed := hr.s.state.Subscribed
	r.mu.Unlock()
	if stillSubscribed {
		t.Error("reader still subscribed after repeated invalidations")
	}
}

// TestNoDiffResamplesBack verifies the periodic fallback: a segment
// in no-diff mode re-samples with diffing and, when the application
// stops modifying most of the data, stays in diffing mode.
func TestNoDiffResamplesBack(t *testing.T) {
	addr := startServer(t)
	c, err := NewClient(Options{Profile: arch.AMD64(), Name: "c", NoDiffResample: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	h, err := c.Open(addr + "/rs")
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
	writeAll := func(seed int) {
		t.Helper()
		if err := c.WLock(h); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := c.Heap().WriteI32(blk.Addr+mem.Addr(4*i), int32(i+seed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WUnlock(h); err != nil {
			t.Fatal(err)
		}
	}
	writeOne := func(seed int) {
		t.Helper()
		if err := c.WLock(h); err != nil {
			t.Fatal(err)
		}
		if err := c.Heap().WriteI32(blk.Addr, int32(seed)); err != nil {
			t.Fatal(err)
		}
		if err := c.WUnlock(h); err != nil {
			t.Fatal(err)
		}
	}
	writeAll(1)
	writeAll(2)
	if !h.NoDiffMode() {
		t.Fatal("did not enter no-diff mode")
	}
	// Behaviour changes to sparse writes; within NoDiffResample
	// critical sections the segment re-samples and leaves no-diff
	// mode.
	for i := 0; i < 4 && h.NoDiffMode(); i++ {
		writeOne(10 + i)
	}
	if h.NoDiffMode() {
		t.Fatal("never re-sampled out of no-diff mode")
	}
	// And sparse updates now travel as small diffs again.
	writeOne(99)
	if st := h.LastCollectStats(); st.Units > 64 {
		t.Errorf("sparse update sent %d units", st.Units)
	}
}

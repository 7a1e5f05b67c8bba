package core

import (
	"sync"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/types"
)

// TestTxCommitAtomicVisibility commits two segments transactionally
// and verifies a concurrent reader, re-reading in a tight loop, only
// ever observes consistent (both-or-neither) states across the
// invariant "a.counter == b.counter".
func TestTxCommitAtomicVisibility(t *testing.T) {
	addr := startServer(t)
	segA, segB := addr+"/txa", addr+"/txb"

	w := newTestClient(t, arch.AMD64(), "w")
	ha, err := w.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := w.Open(segB)
	if err != nil {
		t.Fatal(err)
	}
	// Initialize both counters to zero, transactionally.
	if err := w.TxLock(ha, hb); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(ha, types.Int32(), 1, "ctr"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hb, types.Int32(), 1, "ctr"); err != nil {
		t.Fatal(err)
	}
	if err := w.TxCommit(ha, hb); err != nil {
		t.Fatal(err)
	}

	r := newTestClient(t, arch.Sparc(), "r")
	ra, err := r.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := r.Open(segB)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	violations := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Read both segments under read locks; versions observed
			// must satisfy va == vb (the writer bumps them in
			// lockstep).
			if err := r.RLock(ra); err != nil {
				return
			}
			va := ra.Version()
			if err := r.RUnlock(ra); err != nil {
				return
			}
			if err := r.RLock(rb); err != nil {
				return
			}
			vb := rb.Version()
			if err := r.RUnlock(rb); err != nil {
				return
			}
			// Because B is read after A, B may be newer, never
			// older by more than the in-flight commit; with atomic
			// commits va <= vb+0 is guaranteed as both move
			// together: vb >= va-0 means vb >= va is not strictly
			// required, but vb may lag va only if a commit landed
			// between the reads — in which case vb < va by exactly
			// the commits in flight. What atomicity rules out is a
			// *lasting* skew; we detect one by re-checking.
			if vb < va {
				if err := r.RLock(rb); err != nil {
					return
				}
				vb2 := rb.Version()
				if err := r.RUnlock(rb); err != nil {
					return
				}
				if vb2 < va {
					select {
					case violations <- "segment B lastingly behind A after atomic commit":
					default:
					}
					return
				}
			}
		}
	}()

	wca, _ := ha.Mem().BlockByName("ctr")
	wcb, _ := hb.Mem().BlockByName("ctr")
	for i := 0; i < rounds; i++ {
		if err := w.TxLock(ha, hb); err != nil {
			t.Fatal(err)
		}
		if err := w.Heap().WriteI32(wca.Addr, int32(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := w.Heap().WriteI32(wcb.Addr, int32(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := w.TxCommit(ha, hb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case v := <-violations:
		t.Fatal(v)
	default:
	}

	// Final values agree everywhere.
	if err := r.RLock(ra); err != nil {
		t.Fatal(err)
	}
	ba, _ := ra.Mem().BlockByName("ctr")
	va, _ := r.Heap().ReadI32(ba.Addr)
	if err := r.RUnlock(ra); err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(rb); err != nil {
		t.Fatal(err)
	}
	bb, _ := rb.Mem().BlockByName("ctr")
	vb, _ := r.Heap().ReadI32(bb.Addr)
	if err := r.RUnlock(rb); err != nil {
		t.Fatal(err)
	}
	if va != rounds || vb != rounds {
		t.Errorf("final counters = %d, %d; want %d", va, vb, rounds)
	}
}

// TestTxCommitRollsBackOnFailure injects a failing part and checks
// that no segment advanced.
func TestTxCommitRollsBackOnFailure(t *testing.T) {
	addr := startServer(t)
	reg := obs.NewRegistry()
	w, err := NewClient(Options{Profile: arch.AMD64(), Name: "w", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	ha, err := w.Open(addr + "/ra")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := w.Open(addr + "/rb")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.TxLock(ha, hb); err != nil {
		t.Fatal(err)
	}
	blkA, err := w.Alloc(ha, types.Int32(), 4, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hb, types.Int32(), 4, "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.TxCommit(ha, hb); err != nil {
		t.Fatal(err)
	}
	// Each part is collected as a release is, metrics included.
	if n := reg.Snapshot().Histograms["iw_client_diff_collect_seconds"].Count; n != 2 {
		t.Errorf("iw_client_diff_collect_seconds count = %d after a two-part commit, want 2", n)
	}
	va, vb := ha.Version(), hb.Version()

	// Corrupt one part: write into segment B's block under lock,
	// then sabotage the collected diff by freeing a block the server
	// knows and re-using its serial... Simpler: send a raw duplicate
	// segment in the parts list via the same client is prevented
	// client-side, so instead commit with a stale lock state:
	// unlock B behind the transaction's back and commit both.
	if err := w.TxLock(ha, hb); err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(blkA.Addr, 99); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(hb); err != nil { // releases B's server lock
		t.Fatal(err)
	}
	if err := w.TxCommit(ha, hb); err == nil {
		t.Fatal("commit with a released lock succeeded")
	}
	// Neither segment advanced beyond B's plain unlock.
	r := newTestClient(t, arch.AMD64(), "r")
	hra, err := r.Open(addr + "/ra")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hra); err != nil {
		t.Fatal(err)
	}
	ba, _ := hra.Mem().BlockByName("a")
	v, _ := r.Heap().ReadI32(ba.Addr)
	if err := r.RUnlock(hra); err != nil {
		t.Fatal(err)
	}
	if v == 99 {
		t.Error("failed transaction leaked segment A's write")
	}
	if hra.Version() != va {
		t.Errorf("segment A at v%d, want v%d", hra.Version(), va)
	}
	_ = vb
}

// TestTxCommitRefusedAbandonsChanges: a commit refused after its send
// abandons the transaction's local changes, as a refused WUnlock does.
// The connection drops after TxLock, so the commit arrives on a fresh
// session that holds no lock and is refused; an empty write section
// that follows must not publish the abandoned write.
func TestTxCommitRefusedAbandonsChanges(t *testing.T) {
	addr := startServer(t)
	w := newTestClient(t, arch.AMD64(), "w")
	ha, err := w.Open(addr + "/aa")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := w.Open(addr + "/ab")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.TxLock(ha, hb); err != nil {
		t.Fatal(err)
	}
	blkA, err := w.Alloc(ha, types.Int32(), 4, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Alloc(hb, types.Int32(), 4, "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.TxCommit(ha, hb); err != nil {
		t.Fatal(err)
	}

	if err := w.TxLock(ha, hb); err != nil {
		t.Fatal(err)
	}
	if err := w.Heap().WriteI32(blkA.Addr, 99); err != nil {
		t.Fatal(err)
	}
	ha.s.conn.Close()
	if err := w.TxCommit(ha, hb); errCode(err) != protocol.CodeLockState {
		t.Fatalf("commit on a session holding no locks = %v, want CodeLockState", err)
	}
	if err := w.WLock(ha); err != nil {
		t.Fatal(err)
	}
	if err := w.WUnlock(ha); err != nil {
		t.Fatal(err)
	}

	r := newTestClient(t, arch.AMD64(), "r")
	hra, err := r.Open(addr + "/aa")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RLock(hra); err != nil {
		t.Fatal(err)
	}
	ba, _ := hra.Mem().BlockByName("a")
	v, _ := r.Heap().ReadI32(ba.Addr)
	if err := r.RUnlock(hra); err != nil {
		t.Fatal(err)
	}
	if v == 99 {
		t.Errorf("a refused commit's write was published at v%d", hra.Version())
	}
}

// TestTxCommitMetricsParity: a transaction part counts in the no-diff
// release counter exactly as a WUnlock does. Two full rewrites put a
// segment in no-diff mode; its next release, WUnlock or tx part, is
// counted.
func TestTxCommitMetricsParity(t *testing.T) {
	addr := startServer(t)
	reg := obs.NewRegistry()
	c, err := NewClient(Options{Profile: arch.AMD64(), Name: "m", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	noDiff := func() uint64 { return counterSum(reg.Snapshot(), "iw_client_nodiff_releases_total") }
	var hs []*Segment
	for _, name := range []string{"/pa", "/pb", "/pc"} {
		h, err := c.Open(addr + name)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	ha, hb, hc := hs[0], hs[1], hs[2]

	// Each round rewrites every unit of a and c (creating them first),
	// through a transaction over a and b and through WUnlock on c.
	var blkA, blkC mem.Addr
	for round := 0; round < 3; round++ {
		if err := c.TxLock(ha, hb); err != nil {
			t.Fatal(err)
		}
		if err := c.WLock(hc); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			a, err := c.Alloc(ha, types.Int32(), 4, "a")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Alloc(hb, types.Int32(), 4, "b"); err != nil {
				t.Fatal(err)
			}
			cb, err := c.Alloc(hc, types.Int32(), 4, "c")
			if err != nil {
				t.Fatal(err)
			}
			blkA, blkC = a.Addr, cb.Addr
		}
		for i := 0; i < 4; i++ {
			for _, base := range []mem.Addr{blkA, blkC} {
				if err := c.Heap().WriteI32(base+mem.Addr(4*i), int32(10*round+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.TxCommit(ha, hb); err != nil {
			t.Fatal(err)
		}
		if err := c.WUnlock(hc); err != nil {
			t.Fatal(err)
		}
	}
	if !ha.NoDiffMode() || !hc.NoDiffMode() || hb.NoDiffMode() {
		t.Fatalf("no-diff modes a=%v b=%v c=%v, want true false true", ha.NoDiffMode(), hb.NoDiffMode(), hc.NoDiffMode())
	}
	// Round 2 released a and c in no-diff mode: one tx part, one WUnlock.
	if n := noDiff(); n != 2 {
		t.Errorf("iw_client_nodiff_releases_total = %d, want 2 (the tx part and the WUnlock)", n)
	}
}

// TestTxLockOrderingPreventsDeadlock runs two clients transacting
// over the same two segments in opposite argument orders.
func TestTxLockOrderingPreventsDeadlock(t *testing.T) {
	addr := startServer(t)
	segA, segB := addr+"/da", addr+"/db"
	setupC := newTestClient(t, arch.AMD64(), "setup")
	sa, err := setupC.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := setupC.Open(segB)
	if err != nil {
		t.Fatal(err)
	}
	if err := setupC.TxLock(sa, sb); err != nil {
		t.Fatal(err)
	}
	if _, err := setupC.Alloc(sa, types.Int32(), 1, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := setupC.Alloc(sb, types.Int32(), 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := setupC.TxCommit(sa, sb); err != nil {
		t.Fatal(err)
	}

	run := func(name string, flip bool) error {
		c, err := NewClient(Options{Profile: arch.AMD64(), Name: name})
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		ha, err := c.Open(segA)
		if err != nil {
			return err
		}
		hb, err := c.Open(segB)
		if err != nil {
			return err
		}
		first, second := ha, hb
		if flip {
			first, second = hb, ha
		}
		for i := 0; i < 10; i++ {
			if err := c.TxLock(first, second); err != nil {
				return err
			}
			for _, h := range []*Segment{ha, hb} {
				blk, _ := h.Mem().BlockByName("x")
				v, err := c.Heap().ReadI32(blk.Addr)
				if err != nil {
					return err
				}
				if err := c.Heap().WriteI32(blk.Addr, v+1); err != nil {
					return err
				}
			}
			if err := c.TxCommit(first, second); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- run("c1", false) }()
	go func() { errs <- run("c2", true) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Both counters saw all 20 increments.
	if err := setupC.RLock(sa); err != nil {
		t.Fatal(err)
	}
	blk, _ := sa.Mem().BlockByName("x")
	v, _ := setupC.Heap().ReadI32(blk.Addr)
	if err := setupC.RUnlock(sa); err != nil {
		t.Fatal(err)
	}
	if v != 20 {
		t.Errorf("counter = %d, want 20", v)
	}
}

// TestTxErrors covers the client-side validation.
func TestTxErrors(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(addr + "/e")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.TxCommit(); err == nil {
		t.Error("empty commit accepted")
	}
	if err := c.TxLock(); err == nil {
		t.Error("empty lock accepted")
	}
	if err := c.TxCommit(h); err == nil {
		t.Error("commit without lock accepted")
	}
}

// TestWUnlockRetryAfterSwizzleFailure exercises the documented
// recovery path: a write section containing a pointer to private
// (non-shared) memory fails to collect; the lock stays held so the
// application can repair the pointer and release again.
func TestWUnlockRetryAfterSwizzleFailure(t *testing.T) {
	addr := startServer(t)
	c := newTestClient(t, arch.AMD64(), "c")
	h, err := c.Open(addr + "/sw")
	if err != nil {
		t.Fatal(err)
	}
	pi, err := types.PointerTo(types.Int32())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	pblk, err := c.Alloc(h, pi, 1, "p")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := c.Alloc(h, types.Int32(), 1, "t")
	if err != nil {
		t.Fatal(err)
	}
	// A pointer into the guard gap between subsegments: not shared.
	if err := c.Heap().WritePtr(pblk.Addr, pblk.Sub.End()+64); err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err == nil {
		t.Fatal("release with an unswizzlable pointer succeeded")
	}
	// The lock is still held: repair and retry.
	if err := c.Heap().WritePtr(pblk.Addr, tgt.Addr); err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	if h.Version() != 1 {
		t.Errorf("version = %d, want 1", h.Version())
	}
}

// TestTxBankTransferConservation runs two clients making concurrent
// transactional transfers between accounts split across two segments
// while a reader repeatedly checks conservation of the total on
// version-consistent snapshots.
func TestTxBankTransferConservation(t *testing.T) {
	addr := startServer(t)
	segA, segB := addr+"/bankA", addr+"/bankB"
	const initial = 1000

	boot := newTestClient(t, arch.AMD64(), "boot")
	ba, err := boot.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := boot.Open(segB)
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.TxLock(ba, bb); err != nil {
		t.Fatal(err)
	}
	accA, err := boot.Alloc(ba, types.Int64(), 1, "acct")
	if err != nil {
		t.Fatal(err)
	}
	accB, err := boot.Alloc(bb, types.Int64(), 1, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Heap().WriteI64(accA.Addr, initial); err != nil {
		t.Fatal(err)
	}
	if err := boot.Heap().WriteI64(accB.Addr, initial); err != nil {
		t.Fatal(err)
	}
	if err := boot.TxCommit(ba, bb); err != nil {
		t.Fatal(err)
	}

	transfer := func(name string, amount int64, rounds int) error {
		c, err := NewClient(Options{Profile: arch.AMD64(), Name: name})
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		ha, err := c.Open(segA)
		if err != nil {
			return err
		}
		hb, err := c.Open(segB)
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			if err := c.TxLock(ha, hb); err != nil {
				return err
			}
			blkA, _ := ha.Mem().BlockByName("acct")
			blkB, _ := hb.Mem().BlockByName("acct")
			va, err := c.Heap().ReadI64(blkA.Addr)
			if err != nil {
				return err
			}
			vb, err := c.Heap().ReadI64(blkB.Addr)
			if err != nil {
				return err
			}
			if err := c.Heap().WriteI64(blkA.Addr, va-amount); err != nil {
				return err
			}
			if err := c.Heap().WriteI64(blkB.Addr, vb+amount); err != nil {
				return err
			}
			if err := c.TxCommit(ha, hb); err != nil {
				return err
			}
		}
		return nil
	}

	done := make(chan error, 2)
	go func() { done <- transfer("t1", 7, 15) }()
	go func() { done <- transfer("t2", -3, 15) }()

	// Reader: conservation on version-matched snapshots.
	reader := newTestClient(t, arch.Sparc(), "r")
	ra, err := reader.Open(segA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := reader.Open(segB)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	for finished := 0; finished < 2; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished++
		default:
			if err := reader.RLock(ra); err != nil {
				t.Fatal(err)
			}
			va := ra.Version()
			blkA, _ := ra.Mem().BlockByName("acct")
			sumA, _ := reader.Heap().ReadI64(blkA.Addr)
			if err := reader.RUnlock(ra); err != nil {
				t.Fatal(err)
			}
			if err := reader.RLock(rb); err != nil {
				t.Fatal(err)
			}
			vb := rb.Version()
			blkB, _ := rb.Mem().BlockByName("acct")
			sumB, _ := reader.Heap().ReadI64(blkB.Addr)
			if err := reader.RUnlock(rb); err != nil {
				t.Fatal(err)
			}
			// Transactions move both segments' versions in lockstep,
			// so equal versions identify one atomic snapshot.
			if va == vb {
				checks++
				if sumA+sumB != 2*initial {
					t.Fatalf("conservation violated at v%d: %d + %d != %d",
						va, sumA, sumB, 2*initial)
				}
			}
		}
	}
	if checks == 0 {
		t.Log("no version-matched snapshots observed (timing); invariant vacuous this run")
	}
	// Final state conserves the total.
	if err := reader.RLock(ra); err != nil {
		t.Fatal(err)
	}
	blkA, _ := ra.Mem().BlockByName("acct")
	sumA, _ := reader.Heap().ReadI64(blkA.Addr)
	if err := reader.RUnlock(ra); err != nil {
		t.Fatal(err)
	}
	if err := reader.RLock(rb); err != nil {
		t.Fatal(err)
	}
	blkB, _ := rb.Mem().BlockByName("acct")
	sumB, _ := reader.Heap().ReadI64(blkB.Addr)
	if err := reader.RUnlock(rb); err != nil {
		t.Fatal(err)
	}
	if sumA+sumB != 2*initial {
		t.Fatalf("final conservation violated: %d + %d", sumA, sumB)
	}
	if sumA != initial-15*7+15*3 {
		t.Errorf("account A = %d, want %d", sumA, initial-15*7+15*3)
	}
}

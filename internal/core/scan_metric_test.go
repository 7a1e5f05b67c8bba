package core

import (
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/types"
)

// TestDiffScannedBytesMetric checks that /metrics shows what a release
// compared against twins: a one-word store to a 16 KiB array costs one
// 64-byte chunk, not the 4 KiB page it faulted.
func TestDiffScannedBytesMetric(t *testing.T) {
	addr := startServer(t)
	reg := obs.NewRegistry()
	c, err := NewClient(Options{Profile: arch.AMD64(), Name: "scan", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	h, err := c.Open(addr + "/scan")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	b, err := c.Alloc(h, types.Int32(), 4096, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	scanned := func() uint64 { return counterSum(reg.Snapshot(), "iw_client_diff_scanned_bytes_total") }
	if n := scanned(); n != 0 {
		t.Errorf("creating release scanned %d bytes, want 0", n)
	}
	if err := c.WLock(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Heap().WriteI32(b.Addr+400, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.WUnlock(h); err != nil {
		t.Fatal(err)
	}
	if n := scanned(); n != mem.ChunkBytes {
		t.Errorf("one-word release scanned %d bytes, want %d", n, mem.ChunkBytes)
	}
}

package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/protocol"
	"interweave/internal/types"
)

// Each segment collects its releases into one reused run buffer
// (segment.runBuf). These tests release through it the sizes that
// make it grow, shrink and fill up again, and a release resent after
// its connection died, and check what the other side receives.

// recType is the record the tests release: a fixed-width value, a
// string and an eight-byte value, so x86 and Sparc layouts differ.
func recType(t *testing.T) *types.Type {
	t.Helper()
	s16, err := types.StringOf(16)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := types.StructOf("rec",
		types.Field{Name: "i", Type: types.Int32()},
		types.Field{Name: "s", Type: s16},
		types.Field{Name: "d", Type: types.Float64()},
	)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// rec is the value of one record.
type rec struct {
	i int32
	s string
	d float64
}

func recValue(seed, e int) rec {
	return rec{i: int32(seed*1000003 + e), s: fmt.Sprintf("%07d-%06d", seed, e), d: float64(seed) + float64(e)/8}
}

// recField returns the address of a field of element e of block b.
func recField(t *testing.T, b *mem.Block, e int, name string) mem.Addr {
	t.Helper()
	f, ok := b.Layout.Field(name)
	if !ok {
		t.Fatalf("no field %s", name)
	}
	return b.Addr + mem.Addr(e*b.Layout.Size+f.ByteOff)
}

// recSeg is a segment of records open at a writer and a reader, with
// the values the reader must see.
type recSeg struct {
	w, r   *Segment
	name   string
	blk    *mem.Block
	values []rec
}

// newRecSeg creates a segment of n records at the writer (released as
// version 1) and opens it at the reader.
func newRecSeg(t *testing.T, w, r *Client, name string, n int) *recSeg {
	t.Helper()
	rs := &recSeg{name: name, values: make([]rec, n)}
	var err error
	if rs.w, err = w.Open(name); err != nil {
		t.Fatal(err)
	}
	if err := w.WLock(rs.w); err != nil {
		t.Fatal(err)
	}
	if rs.blk, err = w.Alloc(rs.w, recType(t), n, "recs"); err != nil {
		t.Fatal(err)
	}
	rs.write(t, w, 1, 1)
	if err := w.WUnlock(rs.w); err != nil {
		t.Fatal(err)
	}
	if rs.r, err = r.Open(name); err != nil {
		t.Fatal(err)
	}
	return rs
}

// write stores seed's value into every record whose index is a
// multiple of every. The caller holds the write lock.
func (rs *recSeg) write(t *testing.T, w *Client, seed, every int) {
	t.Helper()
	heap := w.Heap()
	for e := 0; e < len(rs.values); e += every {
		v := recValue(seed, e)
		if err := heap.WriteI32(recField(t, rs.blk, e, "i"), v.i); err != nil {
			t.Fatal(err)
		}
		if err := heap.WriteCString(recField(t, rs.blk, e, "s"), 16, v.s); err != nil {
			t.Fatal(err)
		}
		if err := heap.WriteF64(recField(t, rs.blk, e, "d"), v.d); err != nil {
			t.Fatal(err)
		}
		rs.values[e] = v
	}
}

// verify read-locks the segment at the reader and requires the
// writer's version and every record's value.
func (rs *recSeg) verify(t *testing.T, r *Client, step string) {
	t.Helper()
	if err := r.RLock(rs.r); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.RUnlock(rs.r); err != nil {
			t.Fatal(err)
		}
	}()
	if got, want := rs.r.Version(), rs.w.Version(); got != want {
		t.Fatalf("%s: reader holds version %d, writer released %d", step, got, want)
	}
	b, ok := rs.r.Mem().BlockByName("recs")
	if !ok {
		t.Fatalf("%s: reader has no records", step)
	}
	heap := r.Heap()
	for e, want := range rs.values {
		var got rec
		var err error
		if got.i, err = heap.ReadI32(recField(t, b, e, "i")); err != nil {
			t.Fatal(err)
		}
		if got.s, err = heap.ReadCString(recField(t, b, e, "s"), 16); err != nil {
			t.Fatal(err)
		}
		if got.d, err = heap.ReadF64(recField(t, b, e, "d")); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: record %d = %+v at the reader, want %+v", step, e, got, want)
		}
	}
}

// TestReleaseReusesRunBuffer releases about 1 MB, then eight words,
// then about 1 MB again, then a two-segment transaction, from an x86
// writer to a Sparc reader; the reader checks every version. The big
// releases share one buffer: the second fits in what the first grew.
func TestReleaseReusesRunBuffer(t *testing.T) {
	addr := startServer(t)
	w := newTestClient(t, arch.X86(), "w")
	r := newTestClient(t, arch.Sparc(), "r")
	l, err := types.Of(recType(t), arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	a := newRecSeg(t, w, r, addr+"/a", (1<<20)/l.Size)
	a.verify(t, r, "1 MB create")
	grown := a.w.s.runBuf.Cap()
	if grown == 0 {
		t.Fatal("the release kept no run buffer")
	}

	if err := w.WLock(a.w); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		v := recValue(2, e*997)
		if err := w.Heap().WriteI32(recField(t, a.blk, e*997, "i"), v.i); err != nil {
			t.Fatal(err)
		}
		a.values[e*997].i = v.i
	}
	if err := w.WUnlock(a.w); err != nil {
		t.Fatal(err)
	}
	a.verify(t, r, "8 words")

	if err := w.WLock(a.w); err != nil {
		t.Fatal(err)
	}
	a.write(t, w, 3, 1)
	if err := w.WUnlock(a.w); err != nil {
		t.Fatal(err)
	}
	a.verify(t, r, "1 MB rewrite")
	if got := a.w.s.runBuf.Cap(); got != grown {
		t.Errorf("rewriting 1 MB moved the run buffer from %d to %d bytes of capacity", grown, got)
	}

	b := newRecSeg(t, w, r, addr+"/b", 1000)
	if err := w.TxLock(a.w, b.w); err != nil {
		t.Fatal(err)
	}
	a.write(t, w, 4, 3)
	b.write(t, w, 4, 2)
	if err := w.TxCommit(a.w, a.w); err == nil {
		t.Fatal("a transaction naming one segment twice was accepted")
	}
	if err := w.TxCommit(a.w, b.w); err != nil {
		t.Fatal(err)
	}
	a.verify(t, r, "transaction part a")
	b.verify(t, r, "transaction part b")
}

// frameTap is a client connection that keeps a copy of every
// WriteUnlock frame it writes and, when armed, swallows the next one
// and closes the connection, as a network losing the request after
// the client sent it would.
type frameTap struct {
	net.Conn
	log *tapLog
}

type tapLog struct {
	mu      sync.Mutex
	armed   bool
	unlocks [][]byte // WriteUnlock payloads, frame header stripped
}

func (c *frameTap) Write(p []byte) (int, error) {
	if typ := p[8]; protocol.MsgType(typ&^0xc0) == protocol.TypeWriteUnlock {
		hdr := 9
		if typ&0x40 != 0 {
			hdr += 4 // session id
		}
		if typ&0x80 != 0 {
			hdr += 16 // trace context
		}
		c.log.mu.Lock()
		c.log.unlocks = append(c.log.unlocks, bytes.Clone(p[hdr:]))
		drop := c.log.armed
		c.log.armed = false
		c.log.mu.Unlock()
		if drop {
			_ = c.Conn.Close()
			return len(p), nil
		}
	}
	return c.Conn.Write(p)
}

// TestWUnlockResendIsIdentical loses a 1 MB release after it was
// sent: the recovery finds it unapplied and resends it, and the resent
// frame must carry exactly the bytes of the lost one — the run buffer
// they alias is not reused before the release is over.
func TestWUnlockResendIsIdentical(t *testing.T) {
	addr := startServer(t)
	var tap tapLog
	opts := fastRetry("w")
	opts.Profile = arch.X86()
	opts.Dial = func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &frameTap{Conn: c, log: &tap}, nil
	}
	w := newChaosClient(t, opts)
	r := newTestClient(t, arch.Sparc(), "r")
	l, err := types.Of(recType(t), arch.X86())
	if err != nil {
		t.Fatal(err)
	}
	a := newRecSeg(t, w, r, addr+"/resend", (1<<20)/l.Size)

	if err := w.WLock(a.w); err != nil {
		t.Fatal(err)
	}
	a.write(t, w, 2, 1)
	tap.mu.Lock()
	tap.unlocks, tap.armed = nil, true
	tap.mu.Unlock()
	if err := w.WUnlock(a.w); err != nil {
		t.Fatalf("release after a lost request: %v", err)
	}
	tap.mu.Lock()
	sent := tap.unlocks
	tap.mu.Unlock()
	if len(sent) != 2 {
		t.Fatalf("%d WriteUnlock frames sent, want the lost one and its resend", len(sent))
	}
	if !bytes.Equal(sent[0], sent[1]) {
		t.Fatalf("the resent release differs from the lost one (%d vs %d bytes)", len(sent[1]), len(sent[0]))
	}
	if len(sent[0]) < 1<<20 {
		t.Fatalf("the release carried %d bytes, want a whole rewrite of about 1 MB", len(sent[0]))
	}
	a.verify(t, r, "resent release")
}

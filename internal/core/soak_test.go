package core

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/server"
	"interweave/internal/types"
)

// TestSoakChurn is a longer randomized end-to-end run: several
// heterogeneous clients churn several segments (allocs, frees, scalar
// and string writes, policy changes), with a journaled server's
// restart in the middle. After every round, a Full-coherence observer
// must agree with a shadow model maintained alongside the writes.
func TestSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	dir := t.TempDir()
	srv, err := server.New(server.Options{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = srv.Serve(ln) }()

	str16, err := types.StringOf(16)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := types.StructOf("rec",
		types.Field{Name: "n", Type: types.Int64()},
		types.Field{Name: "s", Type: str16},
	)
	if err != nil {
		t.Fatal(err)
	}

	const segments = 3
	segNames := make([]string, segments)
	for i := range segNames {
		segNames[i] = fmt.Sprintf("%s/soak%d", addr, i)
	}

	// Shadow model: segment -> block name -> (n, s).
	type recVal struct {
		n int64
		s string
	}
	shadow := make([]map[string]recVal, segments)
	for i := range shadow {
		shadow[i] = make(map[string]recVal)
	}

	profiles := arch.Profiles()
	rng := rand.New(rand.NewSource(77))
	writers := make([]*Client, 3)
	handles := make([][]*Segment, len(writers))
	for w := range writers {
		writers[w] = newTestClient(t, profiles[w%len(profiles)], fmt.Sprintf("w%d", w))
		handles[w] = make([]*Segment, segments)
		for s := range segNames {
			h, err := writers[w].Open(segNames[s])
			if err != nil {
				t.Fatal(err)
			}
			handles[w][s] = h
		}
	}

	verify := func(round int) {
		t.Helper()
		obs := newTestClient(t, profiles[rng.Intn(len(profiles))], "obs")
		defer func() { _ = obs.Close() }()
		for si, name := range segNames {
			h, err := obs.Open(name)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := obs.RLock(h); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			count := 0
			h.Mem().Blocks(func(b *mem.Block) bool {
				count++
				want, ok := shadow[si][b.Name]
				if !ok {
					t.Errorf("round %d: unexpected block %q in %s", round, b.Name, name)
					return false
				}
				lay := b.Layout
				fn, _ := lay.Field("n")
				fs, _ := lay.Field("s")
				n, err := obs.Heap().ReadI64(b.Addr + mem.Addr(fn.ByteOff))
				if err != nil {
					t.Error(err)
					return false
				}
				s, err := obs.Heap().ReadCString(b.Addr+mem.Addr(fs.ByteOff), 16)
				if err != nil {
					t.Error(err)
					return false
				}
				if n != want.n || s != want.s {
					t.Errorf("round %d: %s/%s = (%d,%q), want (%d,%q)",
						round, name, b.Name, n, s, want.n, want.s)
				}
				return true
			})
			if count != len(shadow[si]) {
				t.Errorf("round %d: %s has %d blocks, shadow has %d", round, name, count, len(shadow[si]))
			}
			if err := obs.RUnlock(h); err != nil {
				t.Fatal(err)
			}
		}
	}

	nextID := 0
	for round := 0; round < 12; round++ {
		// A random writer mutates a random segment.
		w := rng.Intn(len(writers))
		si := rng.Intn(segments)
		c, h := writers[w], handles[w][si]
		if err := c.WLock(h); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for op := 0; op < 1+rng.Intn(4); op++ {
			switch {
			case len(shadow[si]) == 0 || rng.Intn(3) == 0: // alloc
				name := fmt.Sprintf("r%d", nextID)
				nextID++
				blk, err := c.Alloc(h, rec, 1, name)
				if err != nil {
					t.Fatal(err)
				}
				val := recVal{n: rng.Int63(), s: fmt.Sprintf("v%d", rng.Intn(1e6))}
				lay := blk.Layout
				fn, _ := lay.Field("n")
				fs, _ := lay.Field("s")
				if err := c.Heap().WriteI64(blk.Addr+mem.Addr(fn.ByteOff), val.n); err != nil {
					t.Fatal(err)
				}
				if err := c.Heap().WriteCString(blk.Addr+mem.Addr(fs.ByteOff), 16, val.s); err != nil {
					t.Fatal(err)
				}
				shadow[si][name] = val
			case rng.Intn(4) == 0: // free
				for name := range shadow[si] {
					blk, ok := h.Mem().BlockByName(name)
					if !ok {
						t.Fatalf("round %d: writer missing block %q", round, name)
					}
					if err := c.Free(h, blk); err != nil {
						t.Fatal(err)
					}
					delete(shadow[si], name)
					break
				}
			default: // overwrite
				for name := range shadow[si] {
					blk, ok := h.Mem().BlockByName(name)
					if !ok {
						t.Fatalf("round %d: writer missing block %q", round, name)
					}
					val := recVal{n: rng.Int63(), s: fmt.Sprintf("u%d", rng.Intn(1e6))}
					lay := blk.Layout
					fn, _ := lay.Field("n")
					fs, _ := lay.Field("s")
					if err := c.Heap().WriteI64(blk.Addr+mem.Addr(fn.ByteOff), val.n); err != nil {
						t.Fatal(err)
					}
					if err := c.Heap().WriteCString(blk.Addr+mem.Addr(fs.ByteOff), 16, val.s); err != nil {
						t.Fatal(err)
					}
					shadow[si][name] = val
					break
				}
			}
		}
		if err := c.WUnlock(h); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		verify(round)

		// Mid-run server restart from the journal.
		if round == 5 {
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err = server.New(server.Options{JournalDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ln, err = net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

package diff

// Sparse releases: one scalar field changed in every few records of a
// 1 MB block of Figure 4's mix, the shape of the benchmark's
// hetero_sparse workload. Each changed field is a one-unit run, so
// what a run costs besides its unit — finding its block, its size and
// its step — is most of what collection costs.

import (
	"testing"
	"time"

	"interweave/internal/arch"
	"interweave/internal/mem"
	"interweave/internal/types"
)

// sparseRig is an x86 writer holding a 1 MB mix block, and a Sparc
// reader holding a copy of it.
type sparseRig struct {
	w, r  *client
	data  *mem.Block
	offI  mem.Addr
	round int
}

func newSparseRig(t testing.TB) *sparseRig {
	t.Helper()
	var mix fig4Mix
	for _, m := range fig4Mixes(t) {
		if m.name == "mix" {
			mix = m
		}
	}
	l, err := types.Of(mix.typ, arch.X86())
	mustOK(t, err)
	w := newMixRig(t, arch.X86(), mix, "h/sparse", (1<<20)/l.Size, 0)
	s := &sparseRig{w: w.c, r: newClient(t, arch.Sparc(), "h/sparse"), data: w.blocks[0]}
	f, _ := l.Field("i")
	s.offI = mem.Addr(f.ByteOff)
	transfer(t, s.w, s.r, CollectOptions{Version: 1})
	return s
}

// write opens a write section and changes field i of every every-th
// record, starting at a record that moves from round to round.
func (s *sparseRig) write(t testing.TB, every int) {
	s.round++
	s.w.seg.WriteProtect()
	size := s.data.Layout.Size
	for e := s.round % every; e < s.data.Count; e += every {
		mustOK(t, s.w.heap.WriteI32(s.data.Addr+mem.Addr(e*size)+s.offI, int32(e*7+s.round)))
	}
}

// done closes the write section.
func (s *sparseRig) done() {
	s.w.seg.DropTwins()
	s.w.seg.Unprotect()
}

// TestCollectRunBufSparseAllocs requires a warm diffed collection
// through a run buffer not to allocate more as its runs grow: the
// scan's intervals and the run headers are reused along with the run
// data.
func TestCollectRunBufSparseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newSparseRig(t)
	for _, every := range []int{4, 1} {
		s.write(t, every)
		var buf RunBuf
		opts := CollectOptions{Swizzle: s.w.swizzler(), RunBuf: &buf}
		d, err := CollectSegment(s.w.seg, opts)
		mustOK(t, err)
		if runs, want := countRuns(d), s.data.Count/every; runs < want || d.Units() != runs {
			t.Fatalf("every %d: %d runs of %d units, want %d one-unit runs", every, runs, d.Units(), want)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := CollectSegment(s.w.seg, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("every %d: %v allocations per warm collection of %d runs, want at most 8", every, allocs, countRuns(d))
		}
		s.done()
	}
}

// BenchmarkSparseRelease collects a sparse release on the x86 writer
// and applies it on the Sparc reader, reporting each side's time per
// release.
func BenchmarkSparseRelease(b *testing.B) {
	s := newSparseRig(b)
	var buf RunBuf
	opts := CollectOptions{Swizzle: s.w.swizzler(), RunBuf: &buf}
	aopts := ApplyOptions{Resolve: s.r.resolver(b), LayoutFor: s.r.layoutFor(b)}
	var collect, apply time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.write(b, 4)
		start := time.Now()
		d, err := CollectSegment(s.w.seg, opts)
		mustOK(b, err)
		mid := time.Now()
		_, err = ApplySegment(s.r.seg, d, aopts)
		mustOK(b, err)
		apply += time.Since(mid)
		collect += mid.Sub(start)
		s.done()
	}
	b.ReportMetric(float64(collect.Nanoseconds())/float64(b.N), "collect-ns/op")
	b.ReportMetric(float64(apply.Nanoseconds())/float64(b.N), "apply-ns/op")
}

package server

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/protocol"
)

// subsSeg returns a segment at version 1 holding one block of 100
// ints, so unit counts and percentages read directly.
func subsSeg(t *testing.T) *Segment {
	t.Helper()
	seg := NewSegment("subs/s")
	if _, _, err := seg.ApplyDiff(intsDiff(t, 1, 1, 100, "blk")); err != nil {
		t.Fatal(err)
	}
	return seg
}

// write commits one release rewriting n units of the block and
// advances the table the way its owner would: writer is the releasing
// subscriber (server style) or "" (proxy style: the version came from
// an upstream record). It returns the subscribers owed a Notify,
// sorted.
func write(t *testing.T, tab *Subscriptions[string], seg *Segment, writer string, n int) []string {
	t.Helper()
	d := runDiff(1, 0, make([]uint32, n)...)
	ver, modified, err := seg.ApplyDiff(d)
	if err != nil {
		t.Fatal(err)
	}
	var owed []string
	for _, p := range tab.Advance(seg, writer, ver-1, d, modified) {
		if n, ok := p.Msg.(*protocol.Notify); !ok || n.Seg != seg.Name || n.Version != ver {
			t.Fatalf("%s owed %#v, want a Notify for v%d", p.To, p.Msg, ver)
		}
		owed = append(owed, p.To)
	}
	sort.Strings(owed)
	return owed
}

// notified reports whether a Subscribe call owed a Notify at once; it
// panics on anything else owed, which no test here expects.
func notified(owed protocol.Message, err error) bool {
	if err != nil {
		panic(err)
	}
	switch owed.(type) {
	case nil:
		return false
	case *protocol.Notify:
		return true
	}
	panic(fmt.Sprintf("subscriber owed %T, want a Notify", owed))
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSubscriptionsFanout drives one table per style through the four
// coherence models: who is owed a Notify after each release, that
// nobody is told twice before locking again, and that a lock (Collect
// when stale, Rearm when served from cache) re-arms the subscriber.
func TestSubscriptionsFanout(t *testing.T) {
	policies := map[string]coherence.Policy{
		"full":     coherence.Full(),
		"delta":    coherence.Delta(2),
		"temporal": coherence.Temporal(time.Hour),
		"diff":     coherence.Diff(50),
	}
	for _, style := range []struct {
		name   string
		writer string // the subscriber whose releases advance the segment
	}{
		{"server: writer excluded", "full"},
		{"proxy: no writer", ""},
	} {
		t.Run(style.name, func(t *testing.T) {
			seg := subsSeg(t)
			var tab Subscriptions[string]
			for name, p := range policies {
				if notified(tab.Subscribe(seg, name, p, seg.Version, false)) {
					t.Errorf("%s subscribing at the current version is owed a Notify", name)
				}
			}
			// others is every subscriber but the writer.
			others := func(names ...string) []string {
				var out []string
				for _, n := range names {
					if n != style.writer {
						out = append(out, n)
					}
				}
				sort.Strings(out)
				return out
			}

			// v2, 10 units: one version behind is too many for Full and
			// Temporal (a Temporal subscriber asked to hear), within
			// Delta(2), and 10% < Diff(50).
			if got, want := write(t, &tab, seg, style.writer, 10), others("full", "temporal"); !equal(got, want) {
				t.Errorf("v2 owed %v, want %v", got, want)
			}
			// v3, 10 more: the told ones are not told again; Delta is
			// two behind (still within), Diff at 20%.
			if got := write(t, &tab, seg, style.writer, 10); len(got) != 0 {
				t.Errorf("v3 owed %v, want nobody", got)
			}
			// v4, 40 more: Delta is three behind, Diff at 60%.
			if got, want := write(t, &tab, seg, style.writer, 40), []string{"delta", "diff"}; !equal(got, want) {
				t.Errorf("v4 owed %v, want %v", got, want)
			}
			// v5: everyone has been told once; nobody is told again.
			if got := write(t, &tab, seg, style.writer, 100); len(got) != 0 {
				t.Errorf("v5 owed %v, want nobody", got)
			}

			// Locking re-arms. Delta locks at v1: stale, collects the
			// diff to v5, and is then owed nothing until three more
			// versions pass.
			if !tab.Stale(seg, "delta", 1, policies["delta"]) {
				t.Fatal("delta four versions behind reported fresh")
			}
			if d, err := tab.Collect(seg, "delta", 1); err != nil || d == nil || d.Version != 5 {
				t.Fatalf("collect for delta = %+v, %v", d, err)
			}
			if tab.Stale(seg, "delta", 5, policies["delta"]) {
				t.Error("delta stale right after collecting")
			}
			for v := 6; v <= 7; v++ {
				if got := write(t, &tab, seg, style.writer, 1); len(got) != 0 {
					t.Errorf("v%d owed %v, want nobody", v, got)
				}
			}
			if got, want := write(t, &tab, seg, style.writer, 1), []string{"delta"}; !equal(got, want) {
				t.Errorf("v8 owed %v, want %v", got, want)
			}
			// Told once — until a lock served from the cache re-arms it.
			if got := write(t, &tab, seg, style.writer, 1); len(got) != 0 {
				t.Errorf("v9 owed %v, want nobody", got)
			}
			tab.Rearm("delta")
			if got, want := write(t, &tab, seg, style.writer, 1), []string{"delta"}; !equal(got, want) {
				t.Errorf("v10 owed %v, want %v", got, want)
			}

			// The writer's own record, where there is one, tracks its
			// releases: it was never told and is fresh at the head.
			if style.writer != "" && tab.Stale(seg, style.writer, seg.Version, policies[style.writer]) {
				t.Error("the writer is stale at its own version")
			}
			// A non-subscriber is judged by its lock alone.
			if !tab.Stale(seg, "stranger", 1, coherence.Full()) || tab.Stale(seg, "stranger", seg.Version, coherence.Full()) {
				t.Error("non-subscriber freshness wrong")
			}

			tab.Unsubscribe("delta")
			if tab.Len() != 3 {
				t.Errorf("len after unsubscribe = %d, want 3", tab.Len())
			}
		})
	}
}

// TestSubscribeAlreadyBehind: a subscriber that registers holding a
// version its policy already rules out is owed a Notify at once — it
// would otherwise trust its copy until the next write — and is not
// told a second time by that write; one still within its bound is
// owed nothing until a release carries it over.
func TestSubscribeAlreadyBehind(t *testing.T) {
	seg := subsSeg(t)
	var tab Subscriptions[string]
	write(t, &tab, seg, "", 10) // v2, 10% of the units
	for _, c := range []struct {
		name   string
		policy coherence.Policy
		owed   bool
	}{
		{"full", coherence.Full(), true},
		{"temporal", coherence.Temporal(time.Hour), true},
		{"delta", coherence.Delta(2), false},
		{"diff", coherence.Diff(50), false},
	} {
		if got := notified(tab.Subscribe(seg, c.name, c.policy, 1, false)); got != c.owed {
			t.Errorf("%s subscribing one version behind: owed = %v, want %v", c.name, got, c.owed)
		}
	}
	// v3 and v4 rewrite 30 more units each: 70% modified since v1 and
	// three versions behind carry Diff and Delta over; Full and
	// Temporal were told at Subscribe and are not told again.
	if got := write(t, &tab, seg, "", 30); len(got) != 0 {
		t.Errorf("v3 owed %v, want nobody", got)
	}
	if got, want := write(t, &tab, seg, "", 30), []string{"delta", "diff"}; !equal(got, want) {
		t.Errorf("v4 owed %v, want %v", got, want)
	}
	// Subscribing three versions behind is past Delta(2) at once; Diff
	// is judged by the exact count (the releases overlap: 30-odd units
	// differ from v1, not the 70 the per-release counter summed).
	if !notified(tab.Subscribe(seg, "late-delta", coherence.Delta(2), 1, false)) {
		t.Error("delta subscriber three versions behind owed nothing at Subscribe")
	}
	if notified(tab.Subscribe(seg, "late-diff", coherence.Diff(50), 1, false)) || !notified(tab.Subscribe(seg, "late-diff", coherence.Diff(20), 1, false)) {
		t.Error("diff subscriber at Subscribe not judged by the units modified since its version")
	}
}

// TestSubscriptionsFollower: a follower is owed every version as a
// record carrying the release's own diff, whatever its policy and
// whether or not it locked in between; and one subscribing behind is
// owed one catch-up record from its version.
func TestSubscriptionsFollower(t *testing.T) {
	seg := subsSeg(t)
	var tab Subscriptions[string]
	if owed, err := tab.Subscribe(seg, "mirror", coherence.Delta(100), seg.Version, true); owed != nil || err != nil {
		t.Fatalf("follower subscribing at the current version owed %#v, %v", owed, err)
	}
	notified(tab.Subscribe(seg, "reader", coherence.Full(), seg.Version, false))
	for i := 0; i < 3; i++ {
		d := runDiff(1, 0, make([]uint32, 1)...)
		ver, modified, err := seg.ApplyDiff(d)
		if err != nil {
			t.Fatal(err)
		}
		var rec *protocol.Replicate
		for _, p := range tab.Advance(seg, "", ver-1, d, modified) {
			if p.To == "mirror" {
				rec, _ = p.Msg.(*protocol.Replicate)
			}
		}
		if rec == nil || rec.Seg != seg.Name || rec.PrevVersion != ver-1 || rec.Version != ver || rec.Diff != d {
			t.Fatalf("v%d: follower owed %#v, want the record of the release's own diff", ver, rec)
		}
	}
	owed, err := tab.Subscribe(seg, "late", coherence.Full(), 2, true)
	rec, ok := owed.(*protocol.Replicate)
	if err != nil || !ok || rec.PrevVersion != 2 || rec.Version != seg.Version || rec.Diff == nil {
		t.Fatalf("follower subscribing at v2 of v%d owed %#v, %v; want one catch-up record", seg.Version, owed, err)
	}
}

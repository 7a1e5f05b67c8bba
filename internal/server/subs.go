package server

import (
	"interweave/internal/coherence"
	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// Subscriptions is one segment copy's subscription table — the
// paper's per-client coherence record: which readers asked for
// invalidations, under which policy, and what each is known to hold.
// It answers the two questions relaxed coherence asks, the same way
// wherever the copy lives: at lock time, does this reader need an
// update (Stale, Collect); at subscribe and release time, what is each
// subscriber owed (Subscribe, Advance) — a follower (a proxy mirror,
// DESIGN.md §11) every version as a record, anyone else at most one
// Notify. K names a subscriber — the origin server keys by client
// session, a proxy by downstream session over its mirror.
//
// The zero value is an empty table. It is not synchronized: the lock
// guarding the segment copy guards its table.
type Subscriptions[K comparable] struct {
	m map[K]*subscription
}

type subscription struct {
	policy coherence.Policy
	// follower marks a proxy mirror; the fields below are unused then.
	follower bool
	// haveVersion is the version the subscriber is known to hold;
	// unitsSince counts the units modified past it (Diff coherence).
	haveVersion uint32
	unitsSince  int
	// notified is set once a Notify is owed and cleared by the
	// subscriber's next lock, so a subscriber is told at most once
	// that it is stale.
	notified bool
}

// Push is one frame a subscriber is owed: a *protocol.Replicate for a
// follower, a *protocol.Notify for anyone else.
type Push[K comparable] struct {
	To  K
	Msg protocol.Message
}

// Subscribe registers k as holding haveVersion of seg under policy (a
// follower when follower is set), replacing any earlier record, and
// returns what k is owed at once, if anything: a follower behind seg a
// catch-up record from haveVersion; anyone else already behind its
// policy's bound (Advance's test) a Notify, or it would hear nothing
// until the next write. seg may be nil when the caller knows
// haveVersion is the copy's current version.
func (t *Subscriptions[K]) Subscribe(seg *Segment, k K, policy coherence.Policy, haveVersion uint32, follower bool) (protocol.Message, error) {
	if t.m == nil {
		t.m = make(map[K]*subscription)
	}
	sub := &subscription{policy: policy, follower: follower, haveVersion: haveVersion}
	t.m[k] = sub
	if seg == nil || haveVersion >= seg.Version {
		return nil, nil
	}
	if follower {
		d, err := seg.CollectDiff(haveVersion)
		if err != nil || d == nil {
			return nil, err
		}
		return &protocol.Replicate{Seg: seg.Name, PrevVersion: haveVersion, Version: seg.Version, Diff: d}, nil
	}
	sub.unitsSince = seg.UnitsModifiedSince(haveVersion)
	if sub.notified = policy.ShouldUpdate(haveVersion, seg.Version, sub.unitsSince, seg.TotalUnits()); !sub.notified {
		return nil, nil
	}
	return &protocol.Notify{Seg: seg.Name, Version: seg.Version}, nil
}

// Unsubscribe drops k's subscription, if any.
func (t *Subscriptions[K]) Unsubscribe(k K) { delete(t.m, k) }

// Len returns the number of subscribers.
func (t *Subscriptions[K]) Len() int { return len(t.m) }

// Each calls fn for every subscriber.
func (t *Subscriptions[K]) Each(fn func(K)) {
	for k := range t.m {
		fn(k)
	}
}

// Stale reports whether reader k, holding haveVer of seg, needs an
// update under policy — if so it is owed a Collect.
func (t *Subscriptions[K]) Stale(seg *Segment, k K, haveVer uint32, policy coherence.Policy) bool {
	sub := t.m[k]
	unitsModified := 0
	if policy.Model == coherence.ModelDiff {
		if sub != nil && sub.haveVersion == haveVer {
			unitsModified = sub.unitsSince
		} else {
			unitsModified = seg.UnitsModifiedSince(haveVer)
		}
	}
	return policy.ShouldUpdate(haveVer, seg.Version, unitsModified, seg.TotalUnits())
}

// Rearm records that reader k was served from its cache: its
// subscription, if any, is owed a Notify again once it goes stale.
func (t *Subscriptions[K]) Rearm(k K) {
	if sub := t.m[k]; sub != nil {
		sub.notified = false
	}
}

// Collect builds the update that brings stale reader k from haveVer to
// seg's current version and records k as now holding it. A nil diff
// means there was nothing to send: the reader is fresh after all.
func (t *Subscriptions[K]) Collect(seg *Segment, k K, haveVer uint32) (*wire.SegmentDiff, error) {
	d, err := seg.CollectDiff(haveVer)
	if sub := t.m[k]; sub != nil && d != nil {
		sub.haveVersion = seg.Version
		sub.unitsSince = 0
		sub.notified = false
	}
	return d, err
}

// Advance records that seg reached its current version from prevVer by
// the diff d, a write that modified the given number of units, and
// returns what the subscribers are owed: every follower a record
// carrying d, every other subscriber its policy now finds stale a
// Notify. writer is the subscriber whose release produced the version:
// its copy is the new version by construction, so it is recorded
// current instead. Where no subscriber is the writer — a proxy's mirror
// advances by its upstream's records — pass the zero K.
func (t *Subscriptions[K]) Advance(seg *Segment, writer K, prevVer uint32, d *wire.SegmentDiff, modified int) []Push[K] {
	var owed []Push[K]
	for k, sub := range t.m {
		switch {
		case k == writer:
			sub.haveVersion = seg.Version
			sub.unitsSince = 0
			sub.notified = false
		case sub.follower:
			owed = append(owed, Push[K]{k, &protocol.Replicate{Seg: seg.Name, PrevVersion: prevVer, Version: seg.Version, Diff: d}})
		default:
			sub.unitsSince += modified
			if !sub.notified && sub.policy.ShouldUpdate(sub.haveVersion, seg.Version, sub.unitsSince, seg.TotalUnits()) {
				sub.notified = true
				owed = append(owed, Push[K]{k, &protocol.Notify{Seg: seg.Name, Version: seg.Version}})
			}
		}
	}
	return owed
}

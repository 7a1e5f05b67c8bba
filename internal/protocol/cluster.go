// This file holds the cluster frames: the messages internal/cluster
// and the server's sharded-serving mode exchange — membership/epoch
// gossip, redirect routing, primary→replica diff streaming, promotion
// catch-up, and segment migration. Like the trace-context flag, the
// additions are version-tolerant by construction: none of these types
// is ever sent unless cluster mode is configured on both ends, so
// classic single-server deployments produce byte-identical traffic.

package protocol

import (
	"interweave/internal/wire"
)

// Cluster message types, continuing the MsgType space.
const (
	// TypeRedirect answers a segment RPC sent to a non-owner: the
	// requester should retry against Owner.
	TypeRedirect MsgType = iota + 19
	// TypeRingGet asks a node for its membership view.
	TypeRingGet
	// TypeRingReply answers RingGet with the current Membership.
	TypeRingReply
	// TypeRingPush offers a membership view to a peer (gossip); the
	// peer adopts it when the epoch is higher and replies Ack.
	TypeRingPush
	// TypeReplicate streams one committed diff (or a full state
	// snapshot) from a segment's primary to a replica.
	TypeReplicate
	// TypeReplicateReply acknowledges a Replicate with the replica's
	// resulting version.
	TypeReplicateReply
	// TypeMigrate moves a segment to a named target node under a
	// write-lock barrier.
	TypeMigrate
	// TypePull asks a peer for its replica state of a segment above a
	// version (promotion catch-up).
	TypePull
	// TypePullReply answers Pull.
	TypePullReply
)

// CodeNotOwner is the error code a cluster node reports when asked to
// mutate cluster state it cannot (e.g. Migrate for a segment it does
// not own and cannot route), and the code a fenced primary reports
// when a write release raced an ownership change: the write was not
// committed cluster-wide and the client must re-route and re-drive it.
const CodeNotOwner uint16 = 6

// CodeNotReplicated is the error code a primary reports when a write
// release could not be acknowledged by every placed replica. The write
// is not durable under the replicate-before-acknowledge contract and
// the client must treat the release as failed.
const CodeNotReplicated uint16 = 7

// Member is one cluster node in a Membership. Addr doubles as the
// node's identity: it is the address clients dial and the string
// hashed onto the ring.
type Member struct {
	// Addr is the node's host:port.
	Addr string
	// Dead marks a node excluded from placement after failover.
	Dead bool
	// MetricsAddr is the node's observability address (its /metrics,
	// /debug/slo, and /debug/segments HTTP surface), advertised
	// through gossip so fleet tools (tools/iwtop) can discover every
	// node's scrape endpoint from any one member. Empty when the node
	// runs without -metrics-addr.
	MetricsAddr string
	// Proxy marks a read fan-out proxy (DESIGN.md §11): a member that
	// participates in gossip so the fleet can see it, but contributes
	// no hash-ring placement points — it owns no segments and is
	// skipped by BuildRing exactly like a dead member.
	Proxy bool
}

// Override pins one segment to an owner outside hash placement — the
// result of a Migrate.
type Override struct {
	// Seg is the full segment URL.
	Seg string
	// Addr is the owning node.
	Addr string
}

// Membership is a cluster's versioned view of itself: which nodes
// exist, which are dead, the placement parameters, and any per-segment
// ownership overrides. Views are totally ordered by Epoch; every
// change (failover, migration) bumps it.
type Membership struct {
	// Epoch orders membership views; higher wins.
	Epoch uint64
	// Replicas is R, the number of successor nodes each segment is
	// replicated to.
	Replicas uint8
	// VNodes is the virtual-node count per member on the hash ring.
	VNodes uint16
	// Members lists every node, dead or alive, in join order.
	Members []Member
	// Overrides lists migrated segments and their pinned owners.
	Overrides []Override
}

// Live returns the addresses of the non-dead members, in order.
func (ms *Membership) Live() []string {
	out := make([]string, 0, len(ms.Members))
	for _, m := range ms.Members {
		if !m.Dead {
			out = append(out, m.Addr)
		}
	}
	return out
}

// Clone deep-copies the membership.
func (ms Membership) Clone() Membership {
	cp := ms
	cp.Members = append([]Member(nil), ms.Members...)
	cp.Overrides = append([]Override(nil), ms.Overrides...)
	return cp
}

// AppliedEntry mirrors one writer's at-most-once record — the
// (WriterID, Seq) → Version triple the server remembers per segment —
// so a promoted replica answers Resume probes exactly like the primary
// it replaces.
type AppliedEntry struct {
	// WriterID identifies the writing client instance.
	WriterID string
	// Seq is the writer's release sequence number.
	Seq uint32
	// Version is the segment version the release produced.
	Version uint32
}

// Redirect answers a segment RPC sent to a node that does not own the
// segment. It carries the full membership so one hop teaches the
// client the whole ring.
type Redirect struct {
	// Seg echoes the segment the request named.
	Seg string
	// Owner is the node the requester should retry against.
	Owner string
	// Ms is the answering node's membership view.
	Ms Membership
}

// RingGet asks a node for its membership view. HaveEpoch is advisory
// (diagnostics); the reply always carries the current view.
type RingGet struct {
	// HaveEpoch is the requester's cached epoch.
	HaveEpoch uint64
}

// RingReply answers RingGet.
type RingReply struct {
	// Ms is the node's current membership view.
	Ms Membership
}

// RingPush offers a membership view to a peer, which adopts it when
// the epoch is higher than its own. The reply is Ack.
type RingPush struct {
	// Ms is the pushed membership view.
	Ms Membership
}

// Replicate streams one committed write from a segment's primary to a
// replica. Exactly one of Diff and Raw is set: Diff is the wire-format
// diff producing Version on top of PrevVersion; Raw is a full
// segment-image snapshot (migration and bootstrap), applied
// by replacement. Epoch and From fence the stream: a replica rejects
// frames from a node its own (equally new or newer) membership view
// does not place as the segment's owner, so a deposed primary cannot
// keep committing writes after a failover it has not yet heard about.
type Replicate struct {
	// Seg is the segment URL.
	Seg string
	// Epoch is the sender's membership epoch when it sent the frame.
	Epoch uint64
	// From is the sender's node address (its ring identity).
	From string
	// PrevVersion is the version the diff applies on top of.
	PrevVersion uint32
	// Version is the version the diff (or snapshot) produces.
	Version uint32
	// Diff is the committed wire-format diff, when incremental.
	Diff *wire.SegmentDiff
	// Raw is the encoded segment image, when a snapshot.
	Raw []byte
	// Applied is the primary's full at-most-once table for the
	// segment, mirrored so promotion preserves release dedup.
	Applied []AppliedEntry
}

// ReplicateReply acknowledges a Replicate. Acked reports whether the
// replica applied it; when false, Version is the replica's current
// version so the primary can send a catch-up diff. Fenced means the
// replica's membership view no longer places the sender as the
// segment's owner: the frame was discarded and Ms carries the
// replica's view so the deposed primary can adopt it and demote.
type ReplicateReply struct {
	// Acked reports a successful apply.
	Acked bool
	// Fenced reports that the sender is not the owner under the
	// replica's view; Ms is that view.
	Fenced bool
	// Version is the replica's version after (or instead of) the
	// apply.
	Version uint32
	// Ms is the replica's membership view, set when Fenced.
	Ms Membership
}

// Migrate asks a segment's owner to move it to Target under a
// write-lock barrier. The reply is Ack once the ownership override is
// installed and gossiped.
type Migrate struct {
	// Seg is the segment URL.
	Seg string
	// Target is the node to move the segment to.
	Target string
}

// Pull asks a peer for its replica state of a segment above
// HaveVersion — the promotion catch-up probe, by which a new owner
// adopts the highest acked version any surviving replica holds.
type Pull struct {
	// Seg is the segment URL.
	Seg string
	// HaveVersion is the requester's current version.
	HaveVersion uint32
}

// PullReply answers Pull with the peer's version and, when it is ahead
// of HaveVersion, a diff bringing the requester up to date plus the
// peer's at-most-once table.
type PullReply struct {
	// Version is the peer's version of the segment (0 = not held).
	Version uint32
	// Diff brings the requester from HaveVersion to Version; nil when
	// the peer is not ahead.
	Diff *wire.SegmentDiff
	// Applied is the peer's at-most-once table for the segment.
	Applied []AppliedEntry
}

// Type implementations.

func (*Redirect) Type() MsgType       { return TypeRedirect }
func (*RingGet) Type() MsgType        { return TypeRingGet }
func (*RingReply) Type() MsgType      { return TypeRingReply }
func (*RingPush) Type() MsgType       { return TypeRingPush }
func (*Replicate) Type() MsgType      { return TypeReplicate }
func (*ReplicateReply) Type() MsgType { return TypeReplicateReply }
func (*Migrate) Type() MsgType        { return TypeMigrate }
func (*Pull) Type() MsgType           { return TypePull }
func (*PullReply) Type() MsgType      { return TypePullReply }

func appendMembership(buf []byte, ms Membership) []byte {
	buf = wire.AppendU64(buf, ms.Epoch)
	buf = wire.AppendU8(buf, ms.Replicas)
	buf = wire.AppendU16(buf, ms.VNodes)
	buf = wire.AppendU16(buf, uint16(len(ms.Members)))
	for _, m := range ms.Members {
		buf = wire.AppendString(buf, m.Addr)
		// The member flag byte: bit 0 = dead, bit 1 = a MetricsAddr
		// string follows, bit 2 = proxy role. Cluster frames only flow
		// between identically-configured cluster nodes, and decoders
		// treat the byte as a bit set, so each advertisement extends
		// the frame without a format break.
		var flags uint8
		if m.Dead {
			flags |= 1
		}
		if m.MetricsAddr != "" {
			flags |= 2
		}
		if m.Proxy {
			flags |= 4
		}
		buf = wire.AppendU8(buf, flags)
		if m.MetricsAddr != "" {
			buf = wire.AppendString(buf, m.MetricsAddr)
		}
	}
	buf = wire.AppendU16(buf, uint16(len(ms.Overrides)))
	for _, o := range ms.Overrides {
		buf = wire.AppendString(buf, o.Seg)
		buf = wire.AppendString(buf, o.Addr)
	}
	return buf
}

func readMembership(r *wire.Reader) (Membership, error) {
	var ms Membership
	ms.Epoch = r.U64()
	ms.Replicas = r.U8()
	ms.VNodes = r.U16()
	n := r.U16()
	if r.Err() != nil {
		return ms, r.Err()
	}
	ms.Members = make([]Member, n)
	for i := range ms.Members {
		ms.Members[i].Addr = r.Str()
		flags := r.U8()
		ms.Members[i].Dead = flags&1 != 0
		if flags&2 != 0 {
			ms.Members[i].MetricsAddr = r.Str()
		}
		ms.Members[i].Proxy = flags&4 != 0
	}
	no := r.U16()
	if r.Err() != nil {
		return ms, r.Err()
	}
	ms.Overrides = make([]Override, no)
	for i := range ms.Overrides {
		ms.Overrides[i].Seg = r.Str()
		ms.Overrides[i].Addr = r.Str()
	}
	return ms, r.Err()
}

func appendApplied(buf []byte, entries []AppliedEntry) []byte {
	buf = wire.AppendU16(buf, uint16(len(entries)))
	for _, e := range entries {
		buf = wire.AppendString(buf, e.WriterID)
		buf = wire.AppendU32(buf, e.Seq)
		buf = wire.AppendU32(buf, e.Version)
	}
	return buf
}

// appliedLen is the encoded size of an at-most-once table.
func appliedLen(entries []AppliedEntry) int {
	n := 2
	for _, e := range entries {
		n += 4 + len(e.WriterID) + 4 + 4
	}
	return n
}

func readApplied(r *wire.Reader) ([]AppliedEntry, error) {
	n := r.U16()
	if r.Err() != nil {
		return nil, r.Err()
	}
	entries := make([]AppliedEntry, n)
	for i := range entries {
		entries[i].WriterID = r.Str()
		entries[i].Seq = r.U32()
		entries[i].Version = r.U32()
	}
	return entries, r.Err()
}

func (m *Redirect) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendString(buf, m.Owner)
	return appendMembership(buf, m.Ms)
}

func (m *Redirect) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.Owner = r.Str()
	var err error
	m.Ms, err = readMembership(r)
	return err
}

func (m *RingGet) encode(buf []byte) []byte { return wire.AppendU64(buf, m.HaveEpoch) }

func (m *RingGet) decode(r *wire.Reader) error {
	m.HaveEpoch = r.U64()
	return r.Err()
}

func (m *RingReply) encode(buf []byte) []byte { return appendMembership(buf, m.Ms) }

func (m *RingReply) decode(r *wire.Reader) error {
	var err error
	m.Ms, err = readMembership(r)
	return err
}

func (m *RingPush) encode(buf []byte) []byte { return appendMembership(buf, m.Ms) }

func (m *RingPush) decode(r *wire.Reader) error {
	var err error
	m.Ms, err = readMembership(r)
	return err
}

func (m *Replicate) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendU64(buf, m.Epoch)
	buf = wire.AppendString(buf, m.From)
	buf = wire.AppendU32(buf, m.PrevVersion)
	buf = wire.AppendU32(buf, m.Version)
	buf = appendDiff(buf, m.Diff, 4+len(m.Raw)+appliedLen(m.Applied))
	buf = wire.AppendBytes(buf, m.Raw)
	return appendApplied(buf, m.Applied)
}

func (m *Replicate) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.Epoch = r.U64()
	m.From = r.Str()
	m.PrevVersion = r.U32()
	m.Version = r.U32()
	var err error
	m.Diff, err = readDiff(r)
	if err != nil {
		return err
	}
	m.Raw = r.Bytes()
	if len(m.Raw) == 0 {
		// "Raw present" is signalled by content, not by a non-nil empty
		// slice the reader may hand back for a zero length.
		m.Raw = nil
	}
	m.Applied, err = readApplied(r)
	return err
}

func (m *ReplicateReply) encode(buf []byte) []byte {
	var flags uint8
	if m.Acked {
		flags |= 1
	}
	if m.Fenced {
		flags |= 2
	}
	buf = wire.AppendU8(buf, flags)
	buf = wire.AppendU32(buf, m.Version)
	return appendMembership(buf, m.Ms)
}

func (m *ReplicateReply) decode(r *wire.Reader) error {
	flags := r.U8()
	m.Acked = flags&1 != 0
	m.Fenced = flags&2 != 0
	m.Version = r.U32()
	var err error
	m.Ms, err = readMembership(r)
	return err
}

func (m *Migrate) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	return wire.AppendString(buf, m.Target)
}

func (m *Migrate) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.Target = r.Str()
	return r.Err()
}

func (m *Pull) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	return wire.AppendU32(buf, m.HaveVersion)
}

func (m *Pull) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.HaveVersion = r.U32()
	return r.Err()
}

func (m *PullReply) encode(buf []byte) []byte {
	buf = wire.AppendU32(buf, m.Version)
	buf = appendDiff(buf, m.Diff, appliedLen(m.Applied))
	return appendApplied(buf, m.Applied)
}

func (m *PullReply) decode(r *wire.Reader) error {
	m.Version = r.U32()
	var err error
	m.Diff, err = readDiff(r)
	if err != nil {
		return err
	}
	m.Applied, err = readApplied(r)
	return err
}

// newClusterMessage allocates the concrete type for a cluster frame
// type byte, or nil for non-cluster types.
func newClusterMessage(t MsgType) Message {
	switch t {
	case TypeRedirect:
		return &Redirect{}
	case TypeRingGet:
		return &RingGet{}
	case TypeRingReply:
		return &RingReply{}
	case TypeRingPush:
		return &RingPush{}
	case TypeReplicate:
		return &Replicate{}
	case TypeReplicateReply:
		return &ReplicateReply{}
	case TypeMigrate:
		return &Migrate{}
	case TypePull:
		return &Pull{}
	case TypePullReply:
		return &PullReply{}
	default:
		return nil
	}
}

// The array length below asserts at compile time that the cluster
// type block sits directly after the classic block, so the two const
// groups cannot drift apart silently.
var _ [1]struct{} = [TypeRedirect - TypeResumeReply]struct{}{}

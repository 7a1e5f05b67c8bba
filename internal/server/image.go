package server

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"time"

	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// Segment image and state transfer (DESIGN.md §9). A segment has one
// stored form, its wire-format image: descriptors and blocks in
// blk_version_list order (so a loaded segment retains the
// version-locality of its data), with per-subblock version arrays
// intact. The journal base seals that image together with the
// segment's applied-writer table (so release dedup survives a restart)
// under a CRC-32 trailer that makes any on-disk corruption detectable;
// a migration snapshot ships the bare image as a Replicate frame's Raw
// field.
//
// Every way a segment's state moves is an image at some version v plus
// the ordered Replicate records (v, v′] past it, and is implemented
// once per direction:
//
//   - loadSegment rebuilds a segment from a sealed base and a record
//     list: startup restore, eviction fault-in and cmd/iwdump;
//   - Server.applyRecord applies one received record to a live segment
//     and persists it: the replica stream, catch-up, migration
//     snapshots and promotion pulls;
//   - Server.streamFrom produces the records that carry a copy from
//     version v: the replica catch-up sender.
//
// Both receivers advance an image by a record in one place,
// Segment.advance.

const imageMagic = 0x4957434B // "IWCK"

// sealBase appends a CRC-32 (IEEE) of an encoded base — image plus
// applied-writer table; truncations and bit flips anywhere in the file
// then fail recovery loudly instead of resurrecting silently wrong
// data.
func sealBase(payload []byte) []byte {
	return wire.AppendU32(payload, crc32.ChecksumIEEE(payload))
}

// decodeBase verifies a sealed base and rebuilds the segment and
// applied-writer table it holds.
func decodeBase(data []byte) (*Segment, map[string]appliedWrite, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("base truncated to %d bytes", len(data))
	}
	payload := data[:len(data)-4]
	want := wire.NewReader(data[len(data)-4:]).U32()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("base checksum mismatch (have %08x, want %08x): file corrupted or truncated", got, want)
	}
	r := wire.NewReader(payload)
	seg, err := decodeSegmentReader(r)
	if err != nil {
		return nil, nil, err
	}
	na := r.U32()
	if r.Err() != nil || na > 1<<20 {
		return nil, nil, fmt.Errorf("bad applied-writer count")
	}
	applied := make(map[string]appliedWrite, na)
	for i := uint32(0); i < na; i++ {
		id := r.Str()
		seq := r.U32()
		ver := r.U32()
		if r.Err() != nil {
			return nil, nil, fmt.Errorf("applied-writer entry %d: %w", i, r.Err())
		}
		applied[id] = appliedWrite{seq: seq, version: ver}
	}
	if r.Remaining() != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes in base", r.Remaining())
	}
	return seg, applied, nil
}

// appendApplied serializes the applied-writer table in sorted order,
// so identical state produces identical base bytes.
func appendApplied(buf []byte, applied map[string]appliedWrite) []byte {
	buf = wire.AppendU32(buf, uint32(len(applied)))
	ids := make([]string, 0, len(applied))
	for id := range applied {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		buf = wire.AppendString(buf, id)
		buf = wire.AppendU32(buf, applied[id].seq)
		buf = wire.AppendU32(buf, applied[id].version)
	}
	return buf
}

// loadSegment rebuilds the named segment and its applied-writer table
// from a sealed base (nil when none was written yet) and the records
// journaled after it, and reports how many records it replayed.
// Records the base already covers are skipped; one that starts past the
// image's version means records are missing, and the load fails rather
// than recover to a version whose contents never existed.
func loadSegment(name string, base []byte, recs []*protocol.Replicate) (*Segment, map[string]appliedWrite, int, error) {
	seg, applied := NewSegment(name), make(map[string]appliedWrite)
	if base != nil {
		var err error
		if seg, applied, err = decodeBase(base); err != nil {
			return nil, nil, 0, fmt.Errorf("base of %q: %w", name, err)
		}
		if seg.Name != name {
			return nil, nil, 0, fmt.Errorf("base of %q holds segment %q", name, seg.Name)
		}
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Seg != name {
			return nil, nil, 0, fmt.Errorf("journal of %q holds a record for %q", name, rec.Seg)
		}
		if rec.Diff != nil && rec.Version > seg.Version {
			// The record's runs alias the journal image it was read
			// from, or belong to a record the log's window still holds:
			// replay a copy that owns its bytes, as the cache keeps it.
			own := *rec
			own.Diff = ownedCopy(rec.Diff)
			rec = &own
		}
		advanced, err := seg.advance(rec)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("replaying %q at version %d: %w", name, rec.Version, err)
		}
		if advanced {
			applied = appliedFromEntries(rec.Applied)
			replayed++
		}
	}
	return seg, applied, replayed, nil
}

// LoadSegment rebuilds a segment from a sealed journal base (nil for
// none) and the records journaled after it, exactly as a server
// restart does; cmd/iwdump uses it to inspect a journal directory
// off-line.
func LoadSegment(name string, base []byte, recs []*protocol.Replicate) (*Segment, error) {
	seg, _, _, err := loadSegment(name, base, recs)
	return seg, err
}

// advance applies one record's diff at the version the record carries
// and reports whether the image moved. A record without a diff, or one
// the image already covers, is skipped; one whose range starts past the
// image's version cannot be applied — the records between are missing.
func (s *Segment) advance(rec *protocol.Replicate) (bool, error) {
	if rec.Diff == nil || rec.Version <= s.Version {
		return false, nil
	}
	if rec.PrevVersion > s.Version {
		return false, fmt.Errorf("record %d→%d starts past version %d: the records between are missing",
			rec.PrevVersion, rec.Version, s.Version)
	}
	if _, err := s.ApplyReplicatedDiff(rec.Diff, rec.Version); err != nil {
		return false, err
	}
	return true, nil
}

// applyRecord applies one received state-transfer record to its
// segment and persists it. A Raw record replaces the image whatever its
// prior state (an evicted stub included) and is installed as the
// journal base: it supersedes everything journaled so far, so a restart
// recovers the adopted state rather than replaying a history it
// replaced. A diff record must start at the segment's version —
// otherwise the reply is a NACK carrying that version, which the sender
// answers by streaming from it — and is journaled before the reply.
//
// Lock discipline (DESIGN.md §8): a snapshot is decoded before the
// segment mutex is taken and installed as the base after it is dropped,
// both being proportional to segment size; a diff record's journal
// append runs under it, because there is no logical write lock on this
// path and the mutex is the only thing ordering records with applies.
func (s *Server) applyRecord(m *protocol.Replicate) (*protocol.ReplicateReply, *protocol.ErrorReply) {
	var img *Segment
	if len(m.Raw) > 0 {
		var err error
		if img, err = decodeSegment(m.Raw); err != nil {
			return nil, errReply(protocol.CodeBadRequest, "replicate snapshot: %v", err)
		}
		if img.Name != m.Seg {
			return nil, errReply(protocol.CodeBadRequest, "snapshot is of %q, not %q", img.Name, m.Seg)
		}
	}
	st, err := s.getSeg(m.Seg, true)
	if err != nil {
		return nil, errReply(protocol.CodeInternal, "%v", err)
	}
	s.lockSeg(st)
	if img != nil {
		st.seg = img
		st.evictedVer = 0
		st.lastTouch.Store(time.Now().UnixNano())
		st.applied = appliedFromEntries(m.Applied)
		st.mu.Unlock()
		if s.journal != nil {
			base := appendApplied(slices.Clone(m.Raw), appliedFromEntries(m.Applied))
			if err := s.installJournalBase(st.name, img.Version, base); err != nil {
				return nil, errReply(protocol.CodeInternal, "replicate snapshot journal: %v", err)
			}
		}
		return &protocol.ReplicateReply{Acked: true, Version: img.Version}, nil
	}
	if err := s.ensureResident(st); err != nil {
		st.mu.Unlock()
		return nil, errReply(protocol.CodeInternal, "replicate fault-in: %v", err)
	}
	if st.seg.Version != m.PrevVersion {
		ver := st.seg.Version
		st.mu.Unlock()
		return &protocol.ReplicateReply{Acked: false, Version: ver}, nil
	}
	advanced, err := st.seg.advance(m)
	if err != nil {
		st.mu.Unlock()
		return nil, errReply(protocol.CodeBadRequest, "replicate apply: %v", err)
	}
	st.applied = appliedFromEntries(m.Applied)
	if advanced {
		if err := s.journalAppend(st, m); err != nil {
			st.mu.Unlock()
			return nil, errReply(protocol.CodeInternal, "replicate journal: %v", err)
		}
	}
	ver := st.seg.Version
	st.mu.Unlock()
	s.maybeCompactJournal(st)
	return &protocol.ReplicateReply{Acked: true, Version: ver}, nil
}

// streamFrom returns the records that carry a copy of st from version
// from to at least version to. When the journal window chains
// contiguously over that range they are its persisted records, re-sent
// verbatim, so the receiver's journal gets the exact record stream this
// node holds; otherwise it is one diff collected from `from`, stamped
// with the version and at-most-once table it actually reaches — the
// write lock was handed off before the flush, so the segment may
// already be past `to`, and a promoted receiver holding data its Resume
// answers deny would break the replication invariant.
func (s *Server) streamFrom(st *segState, from, to uint32) ([]*protocol.Replicate, error) {
	if s.journal != nil {
		if l, err := s.journal.Segment(st.name); err == nil {
			cur := from
			var chain []*protocol.Replicate
			for _, rec := range l.Window(from) {
				if rec.PrevVersion != cur || rec.Diff == nil {
					break // a gap: a base swallowed part of the range
				}
				chain = append(chain, rec)
				if cur = rec.Version; cur >= to {
					if s.ins != nil {
						s.ins.journalReplayCatchup.Add(uint64(len(chain)))
					}
					return chain, nil
				}
			}
		}
	}
	s.lockSeg(st)
	// The flushing flag fences eviction; this call is defensive.
	if err := s.ensureResident(st); err != nil {
		st.mu.Unlock()
		return nil, err
	}
	d, err := st.seg.CollectDiff(from)
	rec := &protocol.Replicate{
		Seg:         st.name,
		PrevVersion: from,
		Version:     st.seg.Version,
		Diff:        d,
		Applied:     entriesFromApplied(st.applied),
	}
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if rec.Version < to {
		return nil, fmt.Errorf("%w: segment state replaced during catch-up (at %d, want %d)",
			errWriteFenced, rec.Version, to)
	}
	return []*protocol.Replicate{rec}, nil
}

// encode serializes the segment image. Descriptors go out in serial
// order, so equal segments encode to equal bytes.
func (s *Segment) encode() []byte {
	buf := wire.AppendU32(nil, imageMagic)
	buf = wire.AppendString(buf, s.Name)
	buf = wire.AppendU32(buf, s.Version)
	buf = wire.AppendU32(buf, s.nextDesc)
	buf = wire.AppendU32(buf, uint32(len(s.descs)))
	for _, serial := range s.DescSerials() {
		buf = wire.AppendU32(buf, serial)
		buf = wire.AppendBytes(buf, s.descs[serial])
	}
	buf = wire.AppendU32(buf, uint32(len(s.freedLog)))
	for _, fe := range s.freedLog {
		buf = wire.AppendU32(buf, fe.version)
		buf = wire.AppendU32(buf, fe.serial)
	}
	// Blocks in version-list order.
	var blks []*Blk
	for e := s.head.next; e != s.tail; e = e.next {
		if e.blk != nil {
			blks = append(blks, e.blk)
		}
	}
	buf = wire.AppendU32(buf, uint32(len(blks)))
	for _, b := range blks {
		buf = wire.AppendU32(buf, b.Serial)
		buf = wire.AppendString(buf, b.Name)
		buf = wire.AppendU32(buf, b.DescSerial)
		buf = wire.AppendU32(buf, uint32(b.Count))
		buf = wire.AppendU32(buf, b.createdVer)
		buf = wire.AppendU32(buf, b.version)
		for _, sv := range b.subVer {
			buf = wire.AppendU32(buf, sv)
		}
		buf = b.appendUnits(buf, 0, b.Units())
	}
	return buf
}

// decodeSegment rebuilds a segment from its bare encoding (no applied
// table, no CRC), the form migration snapshots travel in.
func decodeSegment(data []byte) (*Segment, error) {
	r := wire.NewReader(data)
	s, err := decodeSegmentReader(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes in segment image", r.Remaining())
	}
	return s, nil
}

// decodeSegmentReader rebuilds a segment from its encoding, including
// the blk_version_list and marker tree, leaving any trailing reader
// content untouched.
func decodeSegmentReader(r *wire.Reader) (*Segment, error) {
	if r.U32() != imageMagic {
		return nil, fmt.Errorf("bad segment image magic")
	}
	s := NewSegment(r.Str())
	s.Version = r.U32()
	s.nextDesc = r.U32()
	nd := r.U32()
	if r.Err() != nil || nd > 1<<20 {
		return nil, fmt.Errorf("bad descriptor count")
	}
	for i, prev := uint32(0), uint32(0); i < nd; i++ {
		serial := r.U32()
		b := r.Bytes()
		if r.Err() != nil {
			return nil, r.Err()
		}
		// encode writes descriptors in serial order.
		if i > 0 && serial <= prev {
			return nil, fmt.Errorf("descriptor %d out of serial order", serial)
		}
		prev = serial
		l, err := parseLayout(b)
		if err != nil {
			return nil, fmt.Errorf("descriptor %d: %w", serial, err)
		}
		s.addDesc(serial, b, l)
	}
	nf := r.U32()
	if r.Err() != nil || nf > 1<<24 || int(nf) > r.Remaining()/8 {
		return nil, fmt.Errorf("bad freed-log count")
	}
	for i := uint32(0); i < nf; i++ {
		s.freedLog = append(s.freedLog, freedEntry{version: r.U32(), serial: r.U32()})
	}
	nb := r.U32()
	if r.Err() != nil || nb > 1<<24 {
		return nil, fmt.Errorf("bad block count")
	}
	lastMarker := uint32(0)
	for i := uint32(0); i < nb; i++ {
		serial, name, desc := r.U32(), r.Str(), r.U32()
		count, createdVer, version := int(r.U32()), r.U32(), r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		l, ok := s.layouts[desc]
		if !ok {
			return nil, fmt.Errorf("block %d references unknown descriptor %d", serial, desc)
		}
		_, dupSerial := s.blocks.Get(serial)
		_, dupName := s.byName[name]
		if dupSerial || (name != "" && dupName) {
			return nil, fmt.Errorf("block %d repeats a serial or a name", serial)
		}
		if count <= 0 || count > maxBlockUnits/l.wire.PrimCount {
			return nil, fmt.Errorf("block %d count %d out of range", serial, count)
		}
		// Its subblock versions and fixed-width units must be present
		// before they are allocated.
		units := l.wire.PrimCount * count
		if (units+SubblockUnits-1)/SubblockUnits*4+l.offset(units) > r.Remaining() {
			return nil, fmt.Errorf("block %d data: %w", serial, wire.ErrTruncated)
		}
		b := newBlk(serial, name, desc, count, l)
		b.createdVer, b.version = createdVer, version
		for j := range b.subVer {
			b.subVer[j] = r.U32()
		}
		n, err := l.scan(r.Rest(), 0, units)
		if err != nil {
			return nil, fmt.Errorf("block %d data: %w", b.Serial, err)
		}
		b.store(r.Take(n), 0, units)
		// Rebuild the version list with markers.
		if b.version != lastMarker {
			m := &listElem{marker: b.version}
			s.pushBack(m)
			s.markers.Put(b.version, m)
			lastMarker = b.version
		}
		s.addBlock(b)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

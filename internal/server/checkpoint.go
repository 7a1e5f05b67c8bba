package server

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"interweave/internal/types"
	"interweave/internal/wire"
)

// Checkpointing: as partial protection against server failure,
// InterWeave periodically checkpoints segments and their metadata to
// persistent storage (paper Section 2.2). A checkpoint file holds one
// segment: its descriptors and its blocks in blk_version_list order
// (so a restored segment retains the version-locality of its data),
// with per-subblock version arrays intact, followed by the segment's
// applied-writer table (so release dedup survives a restart) and a
// CRC-32 trailer that makes any on-disk corruption detectable.

const ckptMagic = 0x4957434B // "IWCK"

const ckptSuffix = ".iwseg"

// Checkpoint writes every segment to opts.CheckpointDir atomically
// (write to a temp file, then rename). In journal mode it instead
// compacts every segment's journal into a fresh checkpoint base.
func (s *Server) Checkpoint() error {
	if s.journal != nil {
		return s.CompactJournal()
	}
	dir := s.opts.CheckpointDir
	if dir == "" {
		return nil
	}
	if s.ins != nil {
		start := time.Now()
		defer func() { s.ins.ckptSec.ObserveSince(start) }()
	}
	err := s.checkpoint(dir)
	if err != nil && s.ins != nil {
		s.ins.ckptErrors.Inc()
	}
	return err
}

// checkpoint does the actual pass, split out so Checkpoint can record
// timing and failures around it.
func (s *Server) checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	// One segment at a time: encode under that segment's lock, write
	// the file with no lock held (snapshot-then-send, DESIGN.md §8).
	// Each file is internally consistent — sealed with its applied
	// table at one version — but the pass is not a global atomic
	// snapshot across segments; per-segment consistency is all restore
	// relies on, since files decode independently.
	for _, st := range s.reg.snapshot() {
		s.lockSeg(st)
		buf := st.seg.encode()
		buf = appendApplied(buf, st.applied)
		st.mu.Unlock()
		data := sealCheckpoint(buf)
		file := filepath.Join(dir, hex.EncodeToString([]byte(st.name))+ckptSuffix)
		tmp := file + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return fmt.Errorf("server: writing checkpoint %s: %w", tmp, err)
		}
		if err := os.Rename(tmp, file); err != nil {
			return fmt.Errorf("server: publishing checkpoint: %w", err)
		}
	}
	return nil
}

// restore loads every checkpoint file in opts.CheckpointDir.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.opts.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("server: reading checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ckptSuffix) {
			s.logf("checkpoint dir: skipping unrelated entry %s", e.Name())
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.opts.CheckpointDir, e.Name()))
		if err != nil {
			return fmt.Errorf("server: reading checkpoint %s: %w", e.Name(), err)
		}
		payload, err := openCheckpoint(data)
		if err != nil {
			return fmt.Errorf("server: checkpoint %s: %w", e.Name(), err)
		}
		seg, applied, err := decodeCheckpointPayload(payload)
		if err != nil {
			return fmt.Errorf("server: checkpoint %s: %w", e.Name(), err)
		}
		s.reg.getOrCreate(seg.Name, func(string) *segState { return s.adoptSegState(seg, applied) })
	}
	return nil
}

// sealCheckpoint appends a CRC-32 (IEEE) of the payload; truncations
// and bit flips anywhere in the file then fail restore loudly instead
// of resurrecting silently wrong data.
func sealCheckpoint(payload []byte) []byte {
	return wire.AppendU32(payload, crc32.ChecksumIEEE(payload))
}

// openCheckpoint verifies and strips the CRC trailer.
func openCheckpoint(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("checkpoint truncated to %d bytes", len(data))
	}
	payload := data[:len(data)-4]
	want := wire.NewReader(data[len(data)-4:]).U32()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checkpoint checksum mismatch (have %08x, want %08x): file corrupted or truncated", got, want)
	}
	return payload, nil
}

// appendApplied serializes the applied-writer table in sorted order,
// so identical state produces identical checkpoint bytes.
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

// decodeCheckpointPayload rebuilds a segment and its applied-writer
// table from a checkpoint payload (CRC already stripped).
func decodeCheckpointPayload(data []byte) (*Segment, map[string]appliedWrite, error) {
	r := wire.NewReader(data)
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
		return nil, nil, fmt.Errorf("%d trailing bytes in checkpoint", r.Remaining())
	}
	return seg, applied, nil
}

// DecodeCheckpoint decodes one checkpoint file's contents; tools like
// cmd/iwdump use it to inspect a server's persistent state off-line.
func DecodeCheckpoint(data []byte) (*Segment, error) {
	payload, err := openCheckpoint(data)
	if err != nil {
		return nil, err
	}
	seg, _, err := decodeCheckpointPayload(payload)
	return seg, err
}

// CheckpointFileSuffix is the filename suffix of segment checkpoint
// files; the rest of the name is the hex-encoded segment name.
const CheckpointFileSuffix = ckptSuffix

// encode serializes the segment.
func (s *Segment) encode() []byte {
	buf := wire.AppendU32(nil, ckptMagic)
	buf = wire.AppendString(buf, s.Name)
	buf = wire.AppendU32(buf, s.Version)
	buf = wire.AppendU32(buf, s.nextDesc)
	buf = wire.AppendU32(buf, uint32(len(s.descs)))
	for serial, b := range s.descs {
		buf = wire.AppendU32(buf, serial)
		buf = wire.AppendBytes(buf, b)
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
// table, no CRC), the form tx staging clones travel in.
func decodeSegment(data []byte) (*Segment, error) {
	r := wire.NewReader(data)
	s, err := decodeSegmentReader(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes in checkpoint", r.Remaining())
	}
	return s, nil
}

// decodeSegmentReader rebuilds a segment from its encoding, including
// the blk_version_list and marker tree, leaving any trailing reader
// content untouched.
func decodeSegmentReader(r *wire.Reader) (*Segment, error) {
	if r.U32() != ckptMagic {
		return nil, fmt.Errorf("bad checkpoint magic")
	}
	s := NewSegment(r.Str())
	s.Version = r.U32()
	s.nextDesc = r.U32()
	nd := r.U32()
	if r.Err() != nil || nd > 1<<20 {
		return nil, fmt.Errorf("bad descriptor count")
	}
	for i := uint32(0); i < nd; i++ {
		serial := r.U32()
		b := r.Bytes()
		if r.Err() != nil {
			return nil, r.Err()
		}
		t, err := types.Unmarshal(b)
		if err != nil {
			return nil, fmt.Errorf("descriptor %d: %w", serial, err)
		}
		walk, err := types.WireWalk(t)
		if err != nil {
			return nil, err
		}
		kinds := types.UnitKinds(walk)
		caps := make([]int, 0, len(kinds))
		for _, ws := range walk {
			for j := 0; j < ws.Count; j++ {
				caps = append(caps, ws.Cap)
			}
		}
		cp := make([]byte, len(b))
		copy(cp, b)
		s.descs[serial] = cp
		s.descKinds[serial] = kinds
		s.descCaps[serial] = caps
		s.descSteps[serial] = walk
		s.descIndex[string(cp)] = serial
	}
	nf := r.U32()
	if r.Err() != nil || nf > 1<<24 {
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
		b := &Blk{
			Serial:     r.U32(),
			Name:       r.Str(),
			DescSerial: r.U32(),
		}
		b.Count = int(r.U32())
		b.createdVer = r.U32()
		b.version = r.U32()
		if r.Err() != nil {
			return nil, r.Err()
		}
		kinds, ok := s.descKinds[b.DescSerial]
		if !ok {
			return nil, fmt.Errorf("block %d references unknown descriptor %d", b.Serial, b.DescSerial)
		}
		if b.Count <= 0 || b.Count > 1<<28 {
			return nil, fmt.Errorf("block %d count %d out of range", b.Serial, b.Count)
		}
		b.kinds = kinds
		b.caps = s.descCaps[b.DescSerial]
		b.steps = s.descSteps[b.DescSerial]
		units := len(kinds) * b.Count
		b.subVer = make([]uint32, (units+SubblockUnits-1)/SubblockUnits)
		for j := range b.subVer {
			b.subVer[j] = r.U32()
		}
		b.initWireGeometry()
		b.cells = make([]uint64, units)
		if err := b.readUnits(r); err != nil {
			return nil, fmt.Errorf("block %d data: %w", b.Serial, err)
		}
		// Rebuild the version list with markers.
		if b.version != lastMarker {
			m := &listElem{marker: b.version}
			s.pushBack(m)
			s.markers.Put(b.version, m)
			lastMarker = b.version
		}
		b.elem = &listElem{blk: b}
		s.pushBack(b.elem)
		s.blocks.Put(b.Serial, b)
		if b.Name != "" {
			s.byName[b.Name] = b.Serial
		}
		s.totalUnits += units
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// readUnits decodes all of the block's units from r in place, the
// inverse of appendUnits, without touching the subblock versions.
func (b *Blk) readUnits(r *wire.Reader) error {
	err := b.forKindRuns(0, b.Units(), func(k types.Kind, _, u, n int) error {
		switch k {
		case types.KindChar:
			for i := u; i < u+n; i++ {
				b.cells[i] = uint64(r.U8())
			}
		case types.KindInt16:
			for i := u; i < u+n; i++ {
				b.cells[i] = uint64(r.U16())
			}
		case types.KindInt32, types.KindFloat32:
			for i := u; i < u+n; i++ {
				b.cells[i] = uint64(r.U32())
			}
		case types.KindInt64, types.KindFloat64:
			for i := u; i < u+n; i++ {
				b.cells[i] = r.U64()
			}
		case types.KindString, types.KindPointer:
			for i := u; i < u+n; i++ {
				data := r.Bytes()
				if r.Err() != nil {
					return r.Err()
				}
				b.setVar(i, data)
			}
		default:
			return fmt.Errorf("unit %d has invalid kind", u)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return r.Err()
}

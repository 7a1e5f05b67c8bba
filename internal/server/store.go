// Package server implements the InterWeave server: it maintains the
// master copy of every segment it manages, tracks modifications at
// subblock granularity, builds wire-format diffs for lagging clients,
// arbitrates write locks, pushes coherence notifications, and
// journals segments to persistent storage (paper Section 3.2).
//
// To avoid an extra level of translation the server stores both data
// and type descriptors in wire format: a block's data is its units'
// wire encoding, except that each variable-size item — a string or a
// MIP — is stored separately and its unit holds a fixed 4-byte slot
// indexing it, the arrangement the paper describes for avoiding data
// relocation. That arrangement is the descriptor's wire layout
// (types.WireOf), laid out by the clients' layout code and walked by
// the same cursor (types.UnitIter). So a release copies the
// fixed-width runs of its units into place and a read copies them out;
// only strings and MIPs are handled one by one.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"interweave/internal/rbtree"
	"interweave/internal/types"
	"interweave/internal/wire"
)

// SubblockUnits is the modification-tracking granularity: the server
// divides large blocks into subblocks of 16 primitive data units and
// keeps a version number per subblock (Section 3.2; the paper's
// "artifact of subblocks" is visible in Figure 5 between ratios 1 and
// 16).
const SubblockUnits = 16

// defaultDiffCache is how many recent per-version diffs a segment
// caches for forwarding.
const defaultDiffCache = 8

// Blk is the server-side image of one block, stored in wire format.
type Blk struct {
	Serial     uint32
	Name       string
	DescSerial uint32
	Count      int // elements
	// descLayout is the geometry of the block's descriptor, shared
	// with every block of it.
	*descLayout
	// data holds the block's units in wire format, each string or MIP
	// unit a 4-byte slot: 0 for an empty item, else a 1-based index
	// into vars.
	data []byte
	vars [][]byte
	// varBytes is the summed capacity of vars — what they hold on to,
	// which an in-place rewrite with a shorter item does not shrink —
	// maintained by setVar so MemBytes never has to walk the slices.
	varBytes int
	// subVer is the per-subblock version array.
	subVer []uint32
	// createdVer is the segment version that introduced the block.
	createdVer uint32
	// version is the segment version that last modified the block.
	version uint32
	// elem is the block's position in the segment's blk_version_list.
	elem *listElem
}

// descLayout is a registered descriptor's storage geometry: the wire
// layout of one element (types.WireOf), where each string or MIP unit
// is a 4-byte slot and every other unit is stored as on the wire, and
// whether any unit is a string or MIP.
type descLayout struct {
	wire     *types.Layout
	hasItems bool
}

// parseLayout decodes descriptor bytes into their storage geometry.
func parseLayout(b []byte) (*descLayout, error) {
	t, err := types.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	w, err := types.WireOf(t)
	if err != nil {
		return nil, err
	}
	return &descLayout{wire: w, hasItems: w.VarLen}, nil
}

// offset is where unit u's stored bytes start in a block's data; u may
// be the block's unit count.
func (l *descLayout) offset(u int) int {
	var it types.UnitIter
	it.Seek(l.wire, u, u)
	return it.Off
}

// item reports whether a step's units are strings or MIPs, stored as
// 4-byte slots, and the longest item one holds: a string's capacity
// less its terminator, wire.MaxItem for a MIP.
func item(s *types.Step) (maxSize int, ok bool) {
	switch s.Kind {
	case types.KindString:
		return s.Cap - 1, true
	case types.KindPointer:
		return wire.MaxItem, true
	}
	return 0, false
}

// end is where the units walked by it end in a block's data, u1 being
// the first unit past them. With strings or MIPs, the walk is done and
// its last run ends there; without, it was not walked.
func (l *descLayout) end(it *types.UnitIter, u1 int) int {
	if l.hasItems {
		return it.Off + it.N*it.Step.ByteStride
	}
	return l.offset(u1)
}

// scan returns how many leading bytes of data hold units [u0,u1) in
// wire form, checking each string and MIP as wire.Reader.Bytes reads
// it — its length prefix and at most wire.MaxItem bytes present — and
// each string against its capacity.
func (l *descLayout) scan(data []byte, u0, u1 int) (int, error) {
	var it types.UnitIter
	it.Seek(l.wire, u0, u1)
	at, end := it.Off, 0 // the first stored byte not yet counted; bytes of data counted
	for l.hasItems && it.Next() {
		maxSize, ok := item(it.Step)
		if !ok {
			continue // fixed-width: part of the next span
		}
		end += it.Off - at
		for i := 0; i < it.N; i++ {
			if end+4 > len(data) {
				return end, wire.ErrTruncated
			}
			m := binary.BigEndian.Uint32(data[end:])
			end += 4
			if m > wire.MaxItem || int(m) > len(data)-end {
				return end, wire.ErrTruncated
			}
			if int(m) > maxSize {
				return end, fmt.Errorf("string of %d bytes overflows capacity %d", m, maxSize+1)
			}
			end += int(m)
		}
		at = it.Off + 4*it.N
	}
	end += l.end(&it, u1) - at
	if end > len(data) {
		return end, wire.ErrTruncated
	}
	return end, nil
}

// checkRun returns the error applying run to a block of this layout
// holding units units would meet, without touching the block: the run
// lies in range and its data is exactly its units' wire form (scan).
func (l *descLayout) checkRun(run wire.Run, units int) error {
	u0 := int(run.Start)
	u1 := u0 + int(run.Count)
	if u1 > units {
		return fmt.Errorf("run [%d,%d) exceeds %d units", u0, u1, units)
	}
	n, err := l.scan(run.Data, u0, u1)
	if err != nil {
		return err
	}
	if n < len(run.Data) {
		return fmt.Errorf("%d trailing bytes in run", len(run.Data)-n)
	}
	return nil
}

// maxBlockUnits bounds a block's units, in a diff and in a segment
// image alike, as types.Unmarshal bounds one element's.
const maxBlockUnits = 1 << 28

// newBlk allocates a block of count elements of layout l with zeroed
// units and subblock versions.
func newBlk(serial uint32, name string, desc uint32, count int, l *descLayout) *Blk {
	units := l.wire.PrimCount * count
	return &Blk{
		Serial:     serial,
		Name:       name,
		DescSerial: desc,
		Count:      count,
		descLayout: l,
		data:       make([]byte, l.offset(units)),
		subVer:     make([]uint32, (units+SubblockUnits-1)/SubblockUnits),
	}
}

// Units returns the block's total unit count.
func (b *Blk) Units() int { return b.Count * b.wire.PrimCount }

// Version returns the segment version that last modified the block.
func (b *Blk) Version() uint32 { return b.version }

// CreatedVersion returns the segment version that created the block.
func (b *Blk) CreatedVersion() uint32 { return b.createdVer }

// DescSerials lists the segment's registered type descriptors in
// serial order.
func (s *Segment) DescSerials() []uint32 {
	out := make([]uint32, 0, len(s.descs))
	for serial := range s.descs {
		out = append(out, serial)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// freedEntry records one block free for lagging clients.
type freedEntry struct {
	version uint32
	serial  uint32
}

// listElem is a node of the blk_version_list: a doubly linked list of
// markers and blocks ordered by version. Markers separate sublists of
// blocks having the same version; all blocks after the marker for
// version v were last modified at version >= v.
type listElem struct {
	prev, next *listElem
	blk        *Blk   // nil for markers and sentinels
	marker     uint32 // version, for markers
}

// Segment is the master copy of one segment.
type Segment struct {
	Name    string
	Version uint32
	// blocks is the svr_blk_number_tree.
	blocks *rbtree.Tree[uint32, *Blk]
	// byName resolves symbolic block names (for MIP lookups and
	// debugging tools).
	byName map[string]uint32
	// head/tail are sentinels of the blk_version_list.
	head, tail *listElem
	// markers is the marker_version_tree.
	markers *rbtree.Tree[uint32, *listElem]
	// descs maps global descriptor serials to canonical bytes and
	// layouts to their geometry; descIndex deduplicates by content.
	descs      map[uint32][]byte
	layouts    map[uint32]*descLayout
	descIndex  map[string]uint32
	nextDesc   uint32
	totalUnits int
	// freedLog records block frees so that lagging clients learn
	// about them: freed serials with the version that freed them.
	freedLog []freedEntry
	// diffCache holds recently applied diffs keyed by the version
	// they produce (Section 3.3, diff caching), decoded: each is the
	// diff applyDiffAt applied, whose run data aliases the frame it
	// arrived in (or a copy of its own, where that buffer is shared:
	// see ownedCopy), so forwarding one re-encodes it exactly once,
	// into the reply frame. Cached diffs are never modified.
	diffCache map[uint32]*wire.SegmentDiff
	cacheKeys []cachedVersion // FIFO eviction
	cacheCap  int
	// cacheBytes is the summed size of the cached diffs, for MemBytes.
	cacheBytes int64
	// cacheHits counts diff-cache hits (see CacheHits). Atomic: reads
	// (metrics scrapes, benches) are not serialized with the segment
	// lock collectors increment under.
	cacheHits atomic.Uint64
}

// CacheHits reports how many diff collections were served from the
// diff cache, for the ablation bench and the per-segment scrape gauge.
// Safe to call without holding the segment's lock.
func (s *Segment) CacheHits() uint64 {
	return s.cacheHits.Load()
}

// NewSegment returns an empty segment at version zero.
func NewSegment(name string) *Segment {
	s := &Segment{
		Name: name,
		blocks: rbtree.New[uint32, *Blk](func(a, b uint32) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
		byName: make(map[string]uint32),
		markers: rbtree.New[uint32, *listElem](func(a, b uint32) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}),
		descs:     make(map[uint32][]byte),
		layouts:   make(map[uint32]*descLayout),
		descIndex: make(map[string]uint32),
		nextDesc:  1,
		diffCache: make(map[uint32]*wire.SegmentDiff),
		cacheCap:  defaultDiffCache,
	}
	s.head = &listElem{}
	s.tail = &listElem{}
	s.head.next = s.tail
	s.tail.prev = s.head
	return s
}

// TotalUnits returns the number of primitive units in the segment,
// the denominator of diff-based coherence.
func (s *Segment) TotalUnits() int { return s.totalUnits }

// NumBlocks returns the number of live blocks.
func (s *Segment) NumBlocks() int { return s.blocks.Len() }

func (s *Segment) pushBack(e *listElem) {
	e.prev = s.tail.prev
	e.next = s.tail
	s.tail.prev.next = e
	s.tail.prev = e
}

func (s *Segment) unlink(e *listElem) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// addDesc registers a copy of descriptor bytes under serial.
func (s *Segment) addDesc(serial uint32, b []byte, l *descLayout) {
	cp := slices.Clone(b)
	s.descs[serial] = cp
	s.layouts[serial] = l
	s.descIndex[string(cp)] = serial
}

// addBlock links a block into the segment's tree, name index and
// blk_version_list, at the list's tail.
func (s *Segment) addBlock(b *Blk) {
	b.elem = &listElem{blk: b}
	s.pushBack(b.elem)
	s.blocks.Put(b.Serial, b)
	if b.Name != "" {
		s.byName[b.Name] = b.Serial
	}
	s.totalUnits += b.Units()
}

// DescBytes returns the canonical bytes of a registered descriptor.
func (s *Segment) DescBytes(serial uint32) ([]byte, bool) {
	b, ok := s.descs[serial]
	return b, ok
}

// ApplyDiff applies a client's diff, producing a new segment version.
// Descriptor serials in the incoming diff are client-local; they are
// remapped to the segment's global serials in place (both in the
// DescDefs and in the NewBlock records). It returns the new version
// and the conservative count of units modified (the paper's single
// counter for diff-based coherence).
func (s *Segment) ApplyDiff(d *wire.SegmentDiff) (uint32, int, error) {
	return s.applyDiffAt(d, s.Version+1)
}

// ApplyReplicatedDiff applies a diff received from a segment's primary
// at exactly the version the primary assigned, so replica and primary
// version numbers stay identical and a promoted replica can keep
// serving the primary's numbering. v must exceed the current version;
// a catch-up diff may skip several versions, which only makes the
// subblock stamps conservative (lagging clients receive supersets).
func (s *Segment) ApplyReplicatedDiff(d *wire.SegmentDiff, v uint32) (int, error) {
	if v <= s.Version {
		return 0, fmt.Errorf("server: replicated version %d not beyond current %d", v, s.Version)
	}
	_, modified, err := s.applyDiffAt(d, v)
	return modified, err
}

// applyDiffAt is ApplyDiff with the produced version as a parameter,
// and the one apply every receive path takes: a client release, a
// transaction part, a replica record, a journal replay, a proxy mirror
// pull. It never mutates the segment before its last check: checkDiff
// finds every error the apply can meet, so a refused diff leaves the
// segment (and the diff) as they were, and a checked one cannot fail.
func (s *Segment) applyDiffAt(d *wire.SegmentDiff, v uint32) (uint32, int, error) {
	descs, err := s.checkDiff(d)
	if err != nil {
		return 0, 0, err
	}
	return v, s.applyChecked(d, descs, v), nil
}

// checkDiff finds every error applying d to s can meet, touching
// neither, and returns the layouts of the diff's descriptor serials
// for applyChecked: the descriptors parse and are defined once; each
// new block names a known descriptor and a count in range, under a
// serial and a name no live block and no earlier record holds; and
// every run targets a block live after the diff's news and frees and
// decodes exactly into it (checkRun).
func (s *Segment) checkDiff(d *wire.SegmentDiff) (map[uint32]*descLayout, error) {
	if d == nil {
		return nil, errors.New("server: nil diff")
	}
	var descs map[uint32]*descLayout
	if len(d.Descs) > 0 {
		descs = make(map[uint32]*descLayout, len(d.Descs))
	}
	for _, dd := range d.Descs {
		if _, dup := descs[dd.Serial]; dup {
			return nil, fmt.Errorf("server: descriptor %d defined twice", dd.Serial)
		}
		if g, ok := s.descIndex[string(dd.Bytes)]; ok {
			descs[dd.Serial] = s.layouts[g]
			continue
		}
		l, err := parseLayout(dd.Bytes)
		if err != nil {
			return nil, fmt.Errorf("server: bad descriptor: %w", err)
		}
		descs[dd.Serial] = l
	}

	// created holds each new block's units under its layout.
	type block struct {
		layout *descLayout
		units  int
	}
	var created map[uint32]block
	var names map[string]bool
	if len(d.News) > 0 {
		created = make(map[uint32]block, len(d.News))
		names = make(map[string]bool)
	}
	for i := range d.News {
		nb := &d.News[i]
		l, ok := descs[nb.DescSerial]
		if !ok {
			l = s.layouts[nb.DescSerial]
		}
		if l == nil {
			return nil, fmt.Errorf("server: new block %d references unknown descriptor %d", nb.Serial, nb.DescSerial)
		}
		if _, ok := s.blocks.Get(nb.Serial); ok || created[nb.Serial].layout != nil {
			return nil, fmt.Errorf("server: new block %d already exists", nb.Serial)
		}
		if nb.Count == 0 || int(nb.Count) > maxBlockUnits/l.wire.PrimCount {
			return nil, fmt.Errorf("server: new block %d count %d out of range", nb.Serial, nb.Count)
		}
		if nb.Name != "" {
			if _, ok := s.byName[nb.Name]; ok || names[nb.Name] {
				return nil, fmt.Errorf("server: duplicate block name %q", nb.Name)
			}
			names[nb.Name] = true
		}
		created[nb.Serial] = block{layout: l, units: l.wire.PrimCount * int(nb.Count)}
	}

	var freed map[uint32]bool
	if len(d.Freed) > 0 {
		freed = make(map[uint32]bool, len(d.Freed))
		for _, serial := range d.Freed {
			freed[serial] = true
		}
	}
	var last *Blk
	for i := range d.Blocks {
		bd := &d.Blocks[i]
		target := created[bd.Serial]
		if b := s.findBlock(bd.Serial, last); b != nil {
			target, last = block{layout: b.descLayout, units: b.Units()}, b
		}
		if target.layout == nil || freed[bd.Serial] {
			return nil, fmt.Errorf("server: diff for unknown block %d", bd.Serial)
		}
		for _, run := range bd.Runs {
			if err := target.layout.checkRun(run, target.units); err != nil {
				return nil, fmt.Errorf("server: block %d: %w", bd.Serial, err)
			}
		}
	}
	return descs, nil
}

// applyChecked applies a diff checkDiff passed as version v, given the
// layouts checkDiff returned: it registers the descriptors new to the
// segment and remaps the diff's descriptor serials in place, creates
// and frees blocks, applies the runs, and caches the diff. It returns
// the conservative count of units modified.
func (s *Segment) applyChecked(d *wire.SegmentDiff, descs map[uint32]*descLayout, v uint32) int {
	descMap := make(map[uint32]uint32, len(d.Descs))
	for i := range d.Descs {
		dd := &d.Descs[i]
		g, ok := s.descIndex[string(dd.Bytes)]
		if !ok {
			g = s.nextDesc
			s.nextDesc++
			s.addDesc(g, dd.Bytes, descs[dd.Serial])
		}
		descMap[dd.Serial] = g
		dd.Serial, dd.Bytes = g, s.descs[g]
	}

	marker := &listElem{marker: v}
	s.pushBack(marker)
	s.markers.Put(v, marker)

	for i := range d.News {
		nb := &d.News[i]
		if g, ok := descMap[nb.DescSerial]; ok {
			nb.DescSerial = g
		}
		b := newBlk(nb.Serial, nb.Name, nb.DescSerial, int(nb.Count), s.layouts[nb.DescSerial])
		for j := range b.subVer {
			b.subVer[j] = v
		}
		b.createdVer, b.version = v, v
		s.addBlock(b)
	}

	for _, serial := range d.Freed {
		b, ok := s.blocks.Get(serial)
		if !ok {
			continue
		}
		s.blocks.Delete(serial)
		if b.Name != "" {
			delete(s.byName, b.Name)
		}
		s.unlink(b.elem)
		s.totalUnits -= b.Units()
		s.freedLog = append(s.freedLog, freedEntry{version: v, serial: serial})
	}

	modified := 0
	var last *Blk
	for i := range d.Blocks {
		b := s.findBlock(d.Blocks[i].Serial, last)
		last = b
		n := 0
		for _, run := range d.Blocks[i].Runs {
			n += b.applyRun(run, v)
		}
		if n > 0 && b.version != v {
			b.version = v
			s.unlink(b.elem)
			s.pushBack(b.elem)
		}
		modified += n
	}

	s.Version = v
	d.Version = v
	s.cacheDiff(v, d)
	return modified
}

// findBlock locates a block by serial, predicting that diffs arrive
// in blk_version_list order (the server-side last-block search of
// Section 3.3).
func (s *Segment) findBlock(serial uint32, last *Blk) *Blk {
	if last != nil && last.elem.next != nil {
		if nb := last.elem.next.blk; nb != nil && nb.Serial == serial {
			return nb
		}
	}
	b, ok := s.blocks.Get(serial)
	if !ok {
		return nil
	}
	return b
}

// applyRun stores one checked run, stamping the subblocks it touches
// with version v, and returns the number of units it wrote. An empty
// run writes nothing and stamps nothing.
func (b *Blk) applyRun(run wire.Run, v uint32) int {
	u0 := int(run.Start)
	u1 := u0 + int(run.Count)
	if u0 == u1 {
		return 0
	}
	b.store(run.Data, u0, u1)
	for sb := u0 / SubblockUnits; sb <= (u1-1)/SubblockUnits; sb++ {
		b.subVer[sb] = v
	}
	return u1 - u0
}

// store writes units [u0,u1) from data, exactly their wire form as
// scan passed it: each span of fixed-width units between strings and
// MIPs is copied into place in one piece, the strings and MIPs go to
// setVar.
func (b *Blk) store(data []byte, u0, u1 int) {
	var it types.UnitIter
	it.Seek(b.wire, u0, u1)
	at := it.Off // the first byte not yet stored
	for b.hasItems && it.Next() {
		if _, ok := item(it.Step); !ok {
			continue
		}
		data = data[copy(b.data[at:it.Off], data):]
		for i := 0; i < it.N; i++ {
			m := 4 + int(binary.BigEndian.Uint32(data))
			b.setVar(it.Off+4*i, data[4:m])
			data = data[m:]
		}
		at = it.Off + 4*it.N
	}
	copy(b.data[at:], data)
}

// setVar stores a copy of a variable-length item in the slot at byte
// o. A slot that already indexes an item is overwritten in place when
// the item's storage is large enough, so rewriting a string or MIP
// allocates nothing; every reader of vars copies out of it and retains
// nothing.
func (b *Blk) setVar(o int, data []byte) {
	if idx := binary.BigEndian.Uint32(b.data[o:]); idx != 0 {
		old := b.vars[idx-1]
		if cap(old) >= len(data) {
			b.vars[idx-1] = append(old[:0], data...)
			return
		}
		b.varBytes += len(data) - cap(old)
		b.vars[idx-1] = exactCopy(data)
		return
	}
	if len(data) == 0 {
		return
	}
	b.vars = append(b.vars, exactCopy(data))
	b.varBytes += len(data)
	binary.BigEndian.PutUint32(b.data[o:], uint32(len(b.vars)))
}

// exactCopy returns a copy of data whose capacity is its length, so
// varBytes can count it exactly.
func exactCopy(data []byte) []byte {
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// getVar fetches the variable-length item of the slot at byte o.
func (b *Blk) getVar(o int) []byte {
	if idx := binary.BigEndian.Uint32(b.data[o:]); idx != 0 {
		return b.vars[idx-1]
	}
	return nil
}

// wireSizeHint estimates the wire size of units [u0,u1) for sizing a
// collection buffer: the block's stored bytes, its slots and their
// items alike, taken as spread evenly over its units, which is exact
// for a whole block without strings or MIPs.
func (b *Blk) wireSizeHint(u0, u1 int) int {
	return (len(b.data) + b.varBytes) * (u1 - u0) / b.Units()
}

// appendUnits appends units [u0,u1) in wire form: each span of
// fixed-width units between strings and MIPs as stored, in one piece,
// each string and MIP expanded from its slot.
func (b *Blk) appendUnits(buf []byte, u0, u1 int) []byte {
	var it types.UnitIter
	it.Seek(b.wire, u0, u1)
	at := it.Off // the first byte not yet appended
	for b.hasItems && it.Next() {
		if _, ok := item(it.Step); !ok {
			continue
		}
		buf = append(buf, b.data[at:it.Off]...)
		for i := 0; i < it.N; i++ {
			buf = wire.AppendBytes(buf, b.getVar(it.Off+4*i))
		}
		at = it.Off + 4*it.N
	}
	return append(buf, b.data[at:b.end(&it, u1)]...)
}

// CollectDiff builds a diff bringing a client at sinceVer up to the
// current version. It walks the marker_version_tree to the first
// marker newer than sinceVer and scans the blk_version_list from
// there: blocks created later travel whole with NewBlock records,
// blocks modified later contribute runs covering exactly the
// subblocks whose version exceeds sinceVer. A nil diff means the
// client is current.
func (s *Segment) CollectDiff(sinceVer uint32) (*wire.SegmentDiff, error) {
	if sinceVer >= s.Version {
		return nil, nil
	}
	// Diff cache: when every version the client is missing is still
	// cached, forward the cached diffs — merged unit-accurately, so
	// the client receives exactly the data changed between its copy
	// and the master copy, with no subblock rounding. This is the
	// paper's diff-caching optimization; the common case is a client
	// exactly one version behind receiving another client's diff
	// verbatim.
	if d, ok := s.mergeCachedDiffs(sinceVer); ok {
		s.cacheHits.Add(1)
		return d, nil
	}
	return s.collectFull(sinceVer)
}

// collectFull builds a diff from the live marker tree and subblock
// versions, never consulting the diff cache. It is the ground truth
// the merged-cached-forward path must be equivalent to; the property
// tests compare the two on random histories.
func (s *Segment) collectFull(sinceVer uint32) (*wire.SegmentDiff, error) {
	if sinceVer >= s.Version {
		return nil, nil
	}
	d := &wire.SegmentDiff{Version: s.Version}
	for _, fe := range s.freedLog {
		if fe.version > sinceVer {
			d.Freed = append(d.Freed, fe.serial)
		}
	}
	descsSent := make(map[uint32]bool)
	// First marker with version > sinceVer.
	_, start, ok := s.markers.Ceiling(sinceVer + 1)
	if !ok {
		// No marker newer than sinceVer, yet versions differ: the
		// markers were trimmed (image decode); fall back to a
		// full scan from the head.
		start = s.head.next
	}
	for e := start; e != nil && e != s.tail; e = e.next {
		b := e.blk
		if b == nil {
			continue // marker
		}
		if b.createdVer > sinceVer {
			if !descsSent[b.DescSerial] {
				descsSent[b.DescSerial] = true
				d.Descs = append(d.Descs, wire.DescDef{Serial: b.DescSerial, Bytes: s.descs[b.DescSerial]})
			}
			d.News = append(d.News, wire.NewBlock{
				Serial:     b.Serial,
				DescSerial: b.DescSerial,
				Count:      uint32(b.Count),
				Name:       b.Name,
			})
			full := make([]byte, 0, b.wireSizeHint(0, b.Units()))
			d.Blocks = append(d.Blocks, wire.BlockDiff{
				Serial: b.Serial,
				Runs:   []wire.Run{{Start: 0, Count: uint32(b.Units()), Data: b.appendUnits(full, 0, b.Units())}},
			})
			continue
		}
		var runs []wire.Run
		units := b.Units()
		sb := 0
		for sb < len(b.subVer) {
			if b.subVer[sb] <= sinceVer {
				sb++
				continue
			}
			sbEnd := sb
			for sbEnd < len(b.subVer) && b.subVer[sbEnd] > sinceVer {
				sbEnd++
			}
			u0 := sb * SubblockUnits
			u1 := sbEnd * SubblockUnits
			if u1 > units {
				u1 = units
			}
			buf := make([]byte, 0, b.wireSizeHint(u0, u1))
			runs = append(runs, wire.Run{
				Start: uint32(u0),
				Count: uint32(u1 - u0),
				Data:  b.appendUnits(buf, u0, u1),
			})
			sb = sbEnd
		}
		if len(runs) > 0 {
			d.Blocks = append(d.Blocks, wire.BlockDiff{Serial: b.Serial, Runs: runs})
		}
	}
	return d, nil
}

// Directory returns a metadata-only diff (descriptors and block
// records, no data) used to reserve space for a segment that has not
// yet been locked — the IW_mip_to_ptr bootstrap.
func (s *Segment) Directory() *wire.SegmentDiff {
	d := &wire.SegmentDiff{Version: 0}
	descsSent := make(map[uint32]bool)
	for e := s.head.next; e != s.tail; e = e.next {
		b := e.blk
		if b == nil {
			continue
		}
		if !descsSent[b.DescSerial] {
			descsSent[b.DescSerial] = true
			d.Descs = append(d.Descs, wire.DescDef{Serial: b.DescSerial, Bytes: s.descs[b.DescSerial]})
		}
		d.News = append(d.News, wire.NewBlock{
			Serial:     b.Serial,
			DescSerial: b.DescSerial,
			Count:      uint32(b.Count),
			Name:       b.Name,
		})
	}
	return d
}

// cachedVersion is one diff-cache entry in eviction order: the
// version its diff produces and the diff's EncodedLen, recorded at
// insert.
type cachedVersion struct {
	v uint32
	n int64
}

// cacheDiff stores the diff that produced version v, evicting the
// oldest entries beyond the cache capacity. The cache keeps d itself:
// applyDiffAt has already remapped its descriptor serials and stamped
// its version, and no caller modifies a diff after applying it.
func (s *Segment) cacheDiff(v uint32, d *wire.SegmentDiff) {
	if s.cacheCap <= 0 {
		return
	}
	n := int64(d.EncodedLen())
	s.diffCache[v] = d
	s.cacheKeys = append(s.cacheKeys, cachedVersion{v: v, n: n})
	s.cacheBytes += n
	s.trimDiffCache()
}

// ownedCopy returns a copy of d whose run data lives in one buffer of
// its own. A diff decoded from a buffer that holds more than the diff
// — a multi-part transaction frame, a journal image — is applied as
// its owned copy, so the cache entry retains only the run bytes its
// EncodedLen counts, not the whole buffer. The descriptor table is
// copied too, since applyDiffAt remaps it in place.
func ownedCopy(d *wire.SegmentDiff) *wire.SegmentDiff {
	cp := *d
	cp.Descs = slices.Clone(d.Descs)
	n := 0
	for i := range d.Blocks {
		for _, r := range d.Blocks[i].Runs {
			n += len(r.Data)
		}
	}
	data := make([]byte, 0, n)
	cp.Blocks = make([]wire.BlockDiff, len(d.Blocks))
	for i, bd := range d.Blocks {
		runs := make([]wire.Run, len(bd.Runs))
		for j, r := range bd.Runs {
			start := len(data)
			data = append(data, r.Data...)
			runs[j] = wire.Run{Start: r.Start, Count: r.Count, Data: data[start:len(data):len(data)]}
		}
		cp.Blocks[i] = wire.BlockDiff{Serial: bd.Serial, Runs: runs}
	}
	return &cp
}

// SetDiffCacheCap adjusts the diff cache capacity (0 disables it, for
// the ablation benchmarks).
func (s *Segment) SetDiffCacheCap(n int) {
	s.cacheCap = n
	s.trimDiffCache()
}

// trimDiffCache evicts the oldest cached diffs beyond the capacity.
func (s *Segment) trimDiffCache() {
	for len(s.cacheKeys) > s.cacheCap {
		oldest := s.cacheKeys[0]
		s.cacheBytes -= oldest.n
		delete(s.diffCache, oldest.v)
		s.cacheKeys = s.cacheKeys[1:]
	}
}

// blkOverheadBytes approximates the fixed per-block footprint beyond
// stored data, subblock versions, and variable-length payloads: the Blk
// struct itself, the descriptor-geometry slices, and the version-list
// node. The eviction budget only needs to be proportional, not exact.
const blkOverheadBytes = 256

// MemBytes estimates the segment's resident heap footprint: block
// data, subblock version arrays, variable-length payloads, cached
// diffs, and descriptors. The cold-segment evictor compares the sum
// across segments against Options.MaxResidentBytes. Callers hold the
// segment's lock.
func (s *Segment) MemBytes() int64 {
	var n int64
	for e := s.head.next; e != s.tail; e = e.next {
		b := e.blk
		if b == nil {
			n += 32 // marker node
			continue
		}
		n += int64(len(b.data)) + int64(len(b.subVer))*4 + int64(b.varBytes) + blkOverheadBytes
	}
	n += s.cacheBytes
	for _, d := range s.descs {
		n += int64(len(d))
	}
	n += int64(len(s.freedLog)) * 8
	return n
}

// Blocks returns the segment's blocks in serial order (for tools and
// tests).
func (s *Segment) Blocks() []*Blk {
	out := make([]*Blk, 0, s.blocks.Len())
	s.blocks.Ascend(func(_ uint32, b *Blk) bool {
		out = append(out, b)
		return true
	})
	return out
}

// versionListOrder returns block serials in blk_version_list order
// (for tests).
func (s *Segment) versionListOrder() []uint32 {
	var out []uint32
	for e := s.head.next; e != s.tail; e = e.next {
		if e.blk != nil {
			out = append(out, e.blk.Serial)
		}
	}
	return out
}

// checkListSorted verifies the version-list invariant (for tests):
// block versions are non-decreasing along the list, and every marker
// precedes exactly the blocks with version >= its own.
func (s *Segment) checkListSorted() error {
	prev := uint32(0)
	for e := s.head.next; e != s.tail; e = e.next {
		v := e.marker
		if e.blk != nil {
			v = e.blk.version
		}
		if v < prev {
			return fmt.Errorf("version list out of order: %d after %d", v, prev)
		}
		prev = v
	}
	// markers tree matches list membership.
	var fromTree []uint32
	s.markers.Ascend(func(v uint32, _ *listElem) bool {
		fromTree = append(fromTree, v)
		return true
	})
	if !sort.SliceIsSorted(fromTree, func(i, j int) bool { return fromTree[i] < fromTree[j] }) {
		return errors.New("marker tree out of order")
	}
	return nil
}

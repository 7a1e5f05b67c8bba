// Package journal implements a per-segment append-only diff journal:
// the log-structured persistence layer behind the server's
// Options.JournalDir mode.
//
// Each segment owns two files in the journal directory, both named by
// the hex-encoded segment name: a base (".iwseg", the server's sealed
// segment image, treated as opaque bytes here)
// and a log (".iwlog") of records appended since that base was
// written. Every record is one persisted Replicate frame — the same
// message the replication stream carries, reusing the protocol
// encoding — wrapped in a length prefix and a CRC-32 seal:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// where payload is protocol.MarshalMessage of the Replicate. Recovery
// is base + replay: decode the base, then re-apply the log's diffs in
// order. Replay stops cleanly at the first torn or CRC-failing
// record — everything before it is intact by CRC, everything from it
// on is discarded and the file truncated, so a crash mid-append can
// only lose the unacknowledged tail write.
//
// The in-memory window mirrors the log's records between compactions.
// It serves two readers: startup replay, and the cluster catch-up
// path, which replays the journaled frames to a rejoining replica
// instead of collecting a full diff. Compaction folds the window into
// a fresh base and truncates the log; the base is renamed into place
// before the log shrinks, so a crash between the two steps leaves a
// log whose stale records replay as no-ops (their versions are
// already covered by the base).
package journal

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"interweave/internal/protocol"
	"interweave/internal/wire"
)

// LogSuffix is the filename suffix of per-segment journal logs; the
// rest of the name is the hex-encoded segment name.
const LogSuffix = ".iwlog"

// BaseSuffix is the filename suffix of the per-segment bases a journal
// compacts into.
const BaseSuffix = ".iwseg"

// recordHeader is the fixed prefix of every record: payload length
// and payload CRC.
const recordHeader = 8

// maxRecord bounds a single record's payload, mirroring the protocol
// frame limit; a larger length field can only be corruption.
const maxRecord = 1 << 30

// Options configures a Store.
type Options struct {
	// CompactBytes is the log size at which NeedsCompaction reports
	// true for a segment. Zero or negative never asks for compaction
	// (the caller may still compact explicitly).
	CompactBytes int64
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Store manages the journals of every segment in one directory.
type Store struct {
	dir  string
	opts Options

	mu   sync.Mutex
	logs map[string]*Log
}

// Open opens (creating if needed) the journal directory and scans it:
// every log found is parsed up to its first torn or CRC-failing
// record and truncated there, so the store's windows reflect exactly
// the replayable on-disk state.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, logs: make(map[string]*Log)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: reading dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var hexName string
		switch {
		case strings.HasSuffix(name, LogSuffix):
			hexName = strings.TrimSuffix(name, LogSuffix)
		case strings.HasSuffix(name, BaseSuffix):
			hexName = strings.TrimSuffix(name, BaseSuffix)
		default:
			continue
		}
		raw, err := hex.DecodeString(hexName)
		if err != nil {
			s.logf("journal: skipping unrelated entry %s", name)
			continue
		}
		if _, err := s.open(string(raw)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Segments lists the segment names with journal state on disk,
// sorted.
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.logs))
	for name := range s.logs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Segment returns the named segment's log, creating it (and its file,
// lazily on first append) when absent.
func (s *Store) Segment(name string) (*Log, error) {
	return s.open(name)
}

func (s *Store) open(name string) (*Log, error) {
	s.mu.Lock()
	if l, ok := s.logs[name]; ok {
		s.mu.Unlock()
		return l, nil
	}
	s.mu.Unlock()
	stem := filepath.Join(s.dir, hex.EncodeToString([]byte(name)))
	l := &Log{
		seg:      name,
		path:     stem + LogSuffix,
		basePath: stem + BaseSuffix,
		compact:  s.opts.CompactBytes,
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.logs[name]; ok {
		// Another goroutine opened the same segment first; keep its
		// log (one open file handle per segment) and drop ours.
		if l.f != nil {
			_ = l.f.Close()
		}
		return prior, nil
	}
	s.logs[name] = l
	return l, nil
}

// Close closes every open log file. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, l := range s.logs {
		l.mu.Lock()
		if l.f != nil {
			if err := l.f.Close(); err != nil && first == nil {
				first = err
			}
			l.f = nil
		}
		l.closed = true
		l.mu.Unlock()
	}
	return first
}

// Log is one segment's journal: its append handle, its in-memory
// window (the decoded records currently in the log file), and the
// path of its base.
type Log struct {
	seg      string
	path     string
	basePath string
	compact  int64

	mu     sync.Mutex
	f      *os.File // nil until the first append (or when nothing to load)
	size   int64
	window []*protocol.Replicate
	torn   bool // the on-disk log ended in a torn/corrupt record at load
	closed bool
}

// load parses the on-disk log (if any) into the window, truncating a
// torn tail so the file ends on a sealed record boundary.
func (l *Log) load() error {
	data, err := os.ReadFile(l.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: reading %s: %w", l.path, err)
	}
	recs, valid, torn := ScanRecords(data)
	l.window = recs
	l.size = int64(valid)
	l.torn = torn
	if torn {
		if err := os.Truncate(l.path, int64(valid)); err != nil {
			return fmt.Errorf("journal: truncating torn tail of %s: %w", l.path, err)
		}
	}
	return nil
}

// ScanRecords parses a journal image into its decoded records,
// stopping at the first torn or corrupt record: an incomplete header,
// an implausible or overrunning length, a CRC mismatch, or a payload
// that is not a well-formed Replicate frame. It returns the records
// of the valid prefix, the prefix's byte length, and whether anything
// (a torn record or trailing garbage) was dropped after it. It never
// fails: corruption only shortens the prefix.
func ScanRecords(data []byte) (recs []*protocol.Replicate, validPrefix int, torn bool) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, false
		}
		if len(rest) < recordHeader {
			return recs, off, true
		}
		r := wire.NewReader(rest[:recordHeader])
		n := int(r.U32())
		sum := r.U32()
		if n <= 0 || n > maxRecord || n > len(rest)-recordHeader {
			return recs, off, true
		}
		payload := rest[recordHeader : recordHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, true
		}
		m, err := protocol.UnmarshalMessage(payload)
		if err != nil {
			return recs, off, true
		}
		rep, ok := m.(*protocol.Replicate)
		if !ok {
			return recs, off, true
		}
		recs = append(recs, rep)
		off += recordHeader + n
	}
}

// appendRecord seals one marshaled payload into record framing.
func appendRecord(buf, payload []byte) []byte {
	buf = wire.AppendU32(buf, uint32(len(payload)))
	buf = wire.AppendU32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// DroppedTail reports whether the on-disk log ended in a torn or
// corrupt record when it was loaded (the tail was truncated away).
func (l *Log) DroppedTail() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// Size returns the log file's current byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// NeedsCompaction reports whether the log has outgrown the store's
// compaction threshold.
func (l *Log) NeedsCompaction() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compact > 0 && l.size > l.compact
}

// Append seals m into one record and appends it to the log. The
// record is in the OS page cache when Append returns (a process kill
// cannot lose it; surviving a machine crash would additionally need
// an fsync, which this implementation trades away for append
// latency — the torn-tail rule keeps either outcome consistent).
func (l *Log) Append(m *protocol.Replicate) error {
	payload := protocol.MarshalMessage(make([]byte, 0, 256), m)
	rec := appendRecord(make([]byte, 0, recordHeader+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("journal: %s: store closed", l.seg)
	}
	if l.f == nil {
		f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: opening %s: %w", l.path, err)
		}
		l.f = f
	}
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("journal: appending to %s: %w", l.path, err)
	}
	l.size += int64(len(rec))
	l.window = append(l.window, m)
	return nil
}

// Window returns the journaled records with Version > sinceVer, in
// append order — the frames a catch-up or replay needs on top of a
// copy at sinceVer. The returned messages are shallow copies: callers
// may re-stamp routing fields (Epoch, From) without disturbing the
// journal's own view.
func (l *Log) Window(sinceVer uint32) []*protocol.Replicate {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*protocol.Replicate
	for _, rec := range l.window {
		if rec.Version > sinceVer {
			cp := *rec
			out = append(out, &cp)
		}
	}
	return out
}

// Base returns the segment's base bytes, or ok=false when
// no base has been written yet.
func (l *Log) Base() (data []byte, ok bool, err error) {
	data, err = os.ReadFile(l.basePath)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: reading base %s: %w", l.basePath, err)
	}
	return data, true, nil
}

// Compact installs sealedBase (the caller's sealed image
// of the segment at baseVersion) as the new base and rewrites the log
// to hold only records past baseVersion — normally none, shrinking it
// to empty. Both installs are atomic renames, base first: a crash
// between them leaves records the base already covers, which replay
// skips by version.
func (l *Log) Compact(baseVersion uint32, sealedBase []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("journal: %s: store closed", l.seg)
	}
	if err := writeAtomic(l.basePath, sealedBase); err != nil {
		return err
	}
	var kept []*protocol.Replicate
	var buf []byte
	for _, rec := range l.window {
		if rec.Version > baseVersion {
			kept = append(kept, rec)
			buf = appendRecord(buf, protocol.MarshalMessage(make([]byte, 0, 256), rec))
		}
	}
	if err := l.swapLog(buf); err != nil {
		return err
	}
	l.window = kept
	return nil
}

// Reset discards the segment's journal entirely — base and log — the
// counterpart of a cluster demotion resetting the in-memory copy.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.Remove(l.basePath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: removing base %s: %w", l.basePath, err)
	}
	if err := l.swapLog(nil); err != nil {
		return err
	}
	l.window = nil
	return nil
}

// swapLog atomically replaces the log's contents, reopening the
// append handle on the new file. Called with l.mu held.
func (l *Log) swapLog(content []byte) error {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
	if len(content) == 0 {
		if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("journal: removing %s: %w", l.path, err)
		}
		l.size = 0
		return nil
	}
	if err := writeAtomic(l.path, content); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening %s: %w", l.path, err)
	}
	l.f = f
	l.size = int64(len(content))
	return nil
}

// writeAtomic publishes data at path via a temp file and rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: publishing %s: %w", path, err)
	}
	return nil
}

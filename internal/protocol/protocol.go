// Package protocol defines the framed message protocol InterWeave
// clients and servers speak over TCP.
//
// Every frame is: a 32-bit payload length, a 32-bit request id, a
// one-byte message type, and the payload. Replies echo the request
// id; server-initiated notifications use id zero, so one cached
// connection per server carries synchronous lock traffic and
// asynchronous invalidations concurrently (the segment table's cached
// TCP connection of Figure 2).
//
// The two high bits of the type byte are flags, both off in the
// classic format: typeTraceFlag (0x80) prefixes the payload with a
// 16-byte trace context, and typeSessFlag (0x40) prefixes it with a
// 4-byte logical session ID so many client sessions can share one TCP
// connection (session.go). Frames without flags are byte-identical to
// the original format, which is the whole compatibility story: old
// peers and new peers interoperate without negotiation, and a sender
// only sets a flag on its own initiative.
package protocol

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/wire"
)

// MsgType identifies a message.
type MsgType uint8

// Message types. Requests flow client to server; Notify flows server
// to client with request id zero.
const (
	TypeInvalid MsgType = iota
	TypeHello
	TypeOpenSegment
	TypeOpenReply
	TypeReadLock
	TypeWriteLock
	TypeLockReply
	TypeReadUnlock
	TypeWriteUnlock
	TypeVersionReply
	TypeSubscribe
	TypeUnsubscribe
	TypeAck
	TypeNotify
	TypeError
	TypeTxCommit
	TypeTxReply
	TypeResume
	TypeResumeReply
)

// maxFrame bounds a single frame; segments larger than this must be
// pathological. It is a variable only so tests can reach it without
// gigabyte payloads.
var maxFrame = 1 << 30

// typeTraceFlag marks a frame whose body starts with a 16-byte trace
// context (8-byte trace ID + 8-byte span ID) ahead of the payload.
// The flag lives in the otherwise-unused high bit of the type byte,
// so frames without trace context are byte-identical to the original
// format — peers that never send context interoperate unchanged, and
// a sender only sets the flag on its own initiative (clients attach
// context only when tracing is enabled; servers never attach context
// to replies at all, since parent/child linkage flows request-ward).
const typeTraceFlag = 0x80

// traceCtxBytes is the wire size of an attached trace context.
const traceCtxBytes = 16

// TraceContext is the span context a frame optionally carries: which
// distributed trace the request belongs to and which client span is
// the server handler's parent (see internal/obs). The zero value
// means "no context" and encodes to the original frame format.
type TraceContext struct {
	// TraceID identifies the distributed operation; zero = no trace.
	TraceID uint64
	// SpanID is the sender's span, the parent of server-side spans.
	SpanID uint64
}

// Valid reports whether the context names a real span.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 && tc.SpanID != 0 }

// Message is one protocol message.
type Message interface {
	// Type returns the frame type byte.
	Type() MsgType
	// encode appends the payload encoding.
	encode(buf []byte) []byte
	// decode parses the payload.
	decode(r *wire.Reader) error
}

// Hello introduces a client.
type Hello struct {
	ClientName string
	Profile    string
}

// OpenSegment opens (or creates) a segment.
type OpenSegment struct {
	Name   string
	Create bool
}

// OpenReply answers OpenSegment. Dir is a metadata-only segment diff
// (descriptors and block directory, no data runs) that lets the
// client reserve local space for the segment without fetching data —
// the behaviour IW_mip_to_ptr requires.
type OpenReply struct {
	Created bool
	Version uint32
	Dir     *wire.SegmentDiff
}

// ReadLock asks to acquire a read lock under a coherence policy.
type ReadLock struct {
	Seg         string
	HaveVersion uint32
	Policy      coherence.Policy
}

// WriteLock asks to acquire the exclusive write lock.
type WriteLock struct {
	Seg         string
	HaveVersion uint32
	Policy      coherence.Policy
}

// LockReply grants a lock. Diff, when non-nil, brings the client's
// cached copy up to date first.
type LockReply struct {
	Fresh bool // cached copy was recent enough; Diff is nil
	Diff  *wire.SegmentDiff
}

// ReadUnlock releases a read lock.
type ReadUnlock struct {
	Seg string
}

// WriteUnlock releases the write lock, carrying the collected diff.
//
// WriterID and Seq implement at-most-once delivery: the server
// remembers, per segment and writer, the sequence number and
// resulting version of the last applied unlock, so a client that
// lost the reply to a WriteUnlock can re-deliver it (or probe with
// Resume) without the diff ever being applied twice. An empty
// WriterID opts out of the dedup machinery.
type WriteUnlock struct {
	Seg      string
	Diff     *wire.SegmentDiff
	WriterID string
	Seq      uint32
}

// VersionReply acknowledges a WriteUnlock with the version the diff
// produced.
type VersionReply struct {
	Version uint32
}

// Subscribe asks the server to notify when the policy's bound is
// exceeded relative to HaveVersion.
type Subscribe struct {
	Seg         string
	HaveVersion uint32
	Policy      coherence.Policy
}

// Unsubscribe cancels a subscription.
type Unsubscribe struct {
	Seg string
}

// TxCommit atomically publishes several segments' write critical
// sections: every segment advances, or none does. The session must
// hold the write lock on each named segment. (The paper lists
// transaction support as work in progress; this implements the
// single-server case.)
type TxCommit struct {
	Parts []WriteUnlock
}

// TxReply acknowledges a TxCommit with the new version of each part,
// in order.
type TxReply struct {
	Versions []uint32
}

// Resume asks whether the write unlock identified by (WriterID, Seq)
// was applied. A client whose connection died mid-WriteUnlock sends
// this after reconnecting to learn whether the diff landed before
// deciding to re-deliver it.
type Resume struct {
	Seg      string
	WriterID string
	Seq      uint32
}

// ResumeReply answers Resume. When Applied is true the unlock landed
// and AppliedVersion is the version it produced; the reply was simply
// lost. CurrentVersion is the segment's present version either way,
// letting the client detect an intervening writer before
// re-delivering its diff.
type ResumeReply struct {
	Applied        bool
	AppliedVersion uint32
	CurrentVersion uint32
}

// Ack is an empty success reply.
type Ack struct{}

// Notify tells a client its cached copy of Seg is no longer recent
// enough; Version is the server's current version.
type Notify struct {
	Seg     string
	Version uint32
}

// ErrorReply reports a request failure.
type ErrorReply struct {
	Code uint16
	Text string
}

// Error codes.
const (
	CodeUnknown uint16 = iota + 1
	CodeNoSegment
	CodeBadRequest
	CodeLockState
	CodeInternal
)

// Error implements the error interface so ErrorReply can travel as an
// error.
func (e *ErrorReply) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Text)
}

// Type implementations.

func (*Hello) Type() MsgType        { return TypeHello }
func (*OpenSegment) Type() MsgType  { return TypeOpenSegment }
func (*OpenReply) Type() MsgType    { return TypeOpenReply }
func (*ReadLock) Type() MsgType     { return TypeReadLock }
func (*WriteLock) Type() MsgType    { return TypeWriteLock }
func (*LockReply) Type() MsgType    { return TypeLockReply }
func (*ReadUnlock) Type() MsgType   { return TypeReadUnlock }
func (*WriteUnlock) Type() MsgType  { return TypeWriteUnlock }
func (*VersionReply) Type() MsgType { return TypeVersionReply }
func (*Subscribe) Type() MsgType    { return TypeSubscribe }
func (*Unsubscribe) Type() MsgType  { return TypeUnsubscribe }
func (*TxCommit) Type() MsgType     { return TypeTxCommit }
func (*TxReply) Type() MsgType      { return TypeTxReply }
func (*Resume) Type() MsgType       { return TypeResume }
func (*ResumeReply) Type() MsgType  { return TypeResumeReply }
func (*Ack) Type() MsgType          { return TypeAck }
func (*Notify) Type() MsgType       { return TypeNotify }
func (*ErrorReply) Type() MsgType   { return TypeError }

func appendPolicy(buf []byte, p coherence.Policy) []byte {
	buf = wire.AppendU8(buf, byte(p.Model))
	buf = wire.AppendU32(buf, p.Delta)
	buf = wire.AppendU64(buf, uint64(p.Window.Nanoseconds()))
	buf = wire.AppendF64(buf, p.Percent)
	return buf
}

func readPolicy(r *wire.Reader) coherence.Policy {
	return coherence.Policy{
		Model:   coherence.Model(r.U8()),
		Delta:   r.U32(),
		Window:  time.Duration(r.U64()),
		Percent: r.F64(),
	}
}

// appendDiff appends an optional diff. tail is the size of whatever
// the caller appends after it: the buffer grows once, by the diff's
// exact encoded size plus tail, so a large diff is never copied by a
// second growth.
func appendDiff(buf []byte, d *wire.SegmentDiff, tail int) []byte {
	if d == nil {
		return wire.AppendU8(buf, 0)
	}
	buf = slices.Grow(buf, 1+d.EncodedLen()+tail)
	buf = wire.AppendU8(buf, 1)
	return d.Marshal(buf)
}

func readDiff(r *wire.Reader) (*wire.SegmentDiff, error) {
	if r.U8() == 0 {
		return nil, r.Err()
	}
	return wire.ReadSegmentDiff(r)
}

func (m *Hello) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.ClientName)
	return wire.AppendString(buf, m.Profile)
}

func (m *Hello) decode(r *wire.Reader) error {
	m.ClientName, m.Profile = r.Str(), r.Str()
	return r.Err()
}

func (m *OpenSegment) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Name)
	if m.Create {
		return wire.AppendU8(buf, 1)
	}
	return wire.AppendU8(buf, 0)
}

func (m *OpenSegment) decode(r *wire.Reader) error {
	m.Name = r.Str()
	m.Create = r.U8() == 1
	return r.Err()
}

func (m *OpenReply) encode(buf []byte) []byte {
	if m.Created {
		buf = wire.AppendU8(buf, 1)
	} else {
		buf = wire.AppendU8(buf, 0)
	}
	buf = wire.AppendU32(buf, m.Version)
	return appendDiff(buf, m.Dir, 0)
}

func (m *OpenReply) decode(r *wire.Reader) error {
	m.Created = r.U8() == 1
	m.Version = r.U32()
	var err error
	m.Dir, err = readDiff(r)
	if err != nil {
		return err
	}
	return r.Err()
}

func (m *ReadLock) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendU32(buf, m.HaveVersion)
	return appendPolicy(buf, m.Policy)
}

func (m *ReadLock) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.HaveVersion = r.U32()
	m.Policy = readPolicy(r)
	return r.Err()
}

func (m *WriteLock) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendU32(buf, m.HaveVersion)
	return appendPolicy(buf, m.Policy)
}

func (m *WriteLock) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.HaveVersion = r.U32()
	m.Policy = readPolicy(r)
	return r.Err()
}

func (m *LockReply) encode(buf []byte) []byte {
	if m.Fresh {
		buf = wire.AppendU8(buf, 1)
	} else {
		buf = wire.AppendU8(buf, 0)
	}
	return appendDiff(buf, m.Diff, 0)
}

func (m *LockReply) decode(r *wire.Reader) error {
	m.Fresh = r.U8() == 1
	var err error
	m.Diff, err = readDiff(r)
	if err != nil {
		return err
	}
	return r.Err()
}

func (m *ReadUnlock) encode(buf []byte) []byte { return wire.AppendString(buf, m.Seg) }

func (m *ReadUnlock) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	return r.Err()
}

func (m *WriteUnlock) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendString(buf, m.WriterID)
	buf = wire.AppendU32(buf, m.Seq)
	return appendDiff(buf, m.Diff, 0)
}

func (m *WriteUnlock) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.WriterID = r.Str()
	m.Seq = r.U32()
	var err error
	m.Diff, err = readDiff(r)
	if err != nil {
		return err
	}
	return r.Err()
}

func (m *VersionReply) encode(buf []byte) []byte { return wire.AppendU32(buf, m.Version) }

func (m *VersionReply) decode(r *wire.Reader) error {
	m.Version = r.U32()
	return r.Err()
}

func (m *Subscribe) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendU32(buf, m.HaveVersion)
	return appendPolicy(buf, m.Policy)
}

func (m *Subscribe) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.HaveVersion = r.U32()
	m.Policy = readPolicy(r)
	return r.Err()
}

func (m *Unsubscribe) encode(buf []byte) []byte { return wire.AppendString(buf, m.Seg) }

func (m *Unsubscribe) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	return r.Err()
}

func (m *TxCommit) encode(buf []byte) []byte {
	buf = wire.AppendU16(buf, uint16(len(m.Parts)))
	for i := range m.Parts {
		buf = m.Parts[i].encode(buf)
	}
	return buf
}

func (m *TxCommit) decode(r *wire.Reader) error {
	n := r.U16()
	if r.Err() != nil {
		return r.Err()
	}
	m.Parts = make([]WriteUnlock, n)
	for i := range m.Parts {
		if err := m.Parts[i].decode(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (m *TxReply) encode(buf []byte) []byte {
	buf = wire.AppendU16(buf, uint16(len(m.Versions)))
	for _, v := range m.Versions {
		buf = wire.AppendU32(buf, v)
	}
	return buf
}

func (m *TxReply) decode(r *wire.Reader) error {
	n := r.U16()
	if r.Err() != nil {
		return r.Err()
	}
	m.Versions = make([]uint32, n)
	for i := range m.Versions {
		m.Versions[i] = r.U32()
	}
	return r.Err()
}

func (m *Resume) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	buf = wire.AppendString(buf, m.WriterID)
	return wire.AppendU32(buf, m.Seq)
}

func (m *Resume) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.WriterID = r.Str()
	m.Seq = r.U32()
	return r.Err()
}

func (m *ResumeReply) encode(buf []byte) []byte {
	if m.Applied {
		buf = wire.AppendU8(buf, 1)
	} else {
		buf = wire.AppendU8(buf, 0)
	}
	buf = wire.AppendU32(buf, m.AppliedVersion)
	return wire.AppendU32(buf, m.CurrentVersion)
}

func (m *ResumeReply) decode(r *wire.Reader) error {
	m.Applied = r.U8() == 1
	m.AppliedVersion = r.U32()
	m.CurrentVersion = r.U32()
	return r.Err()
}

func (*Ack) encode(buf []byte) []byte    { return buf }
func (*Ack) decode(_ *wire.Reader) error { return nil }

func (m *Notify) encode(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Seg)
	return wire.AppendU32(buf, m.Version)
}

func (m *Notify) decode(r *wire.Reader) error {
	m.Seg = r.Str()
	m.Version = r.U32()
	return r.Err()
}

func (m *ErrorReply) encode(buf []byte) []byte {
	buf = wire.AppendU16(buf, m.Code)
	return wire.AppendString(buf, m.Text)
}

func (m *ErrorReply) decode(r *wire.Reader) error {
	m.Code = r.U16()
	m.Text = r.Str()
	return r.Err()
}

// newMessage allocates the concrete type for a frame type byte.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeOpenSegment:
		return &OpenSegment{}, nil
	case TypeOpenReply:
		return &OpenReply{}, nil
	case TypeReadLock:
		return &ReadLock{}, nil
	case TypeWriteLock:
		return &WriteLock{}, nil
	case TypeLockReply:
		return &LockReply{}, nil
	case TypeReadUnlock:
		return &ReadUnlock{}, nil
	case TypeWriteUnlock:
		return &WriteUnlock{}, nil
	case TypeVersionReply:
		return &VersionReply{}, nil
	case TypeSubscribe:
		return &Subscribe{}, nil
	case TypeUnsubscribe:
		return &Unsubscribe{}, nil
	case TypeTxCommit:
		return &TxCommit{}, nil
	case TypeTxReply:
		return &TxReply{}, nil
	case TypeResume:
		return &Resume{}, nil
	case TypeResumeReply:
		return &ResumeReply{}, nil
	case TypeAck:
		return &Ack{}, nil
	case TypeNotify:
		return &Notify{}, nil
	case TypeError:
		return &ErrorReply{}, nil
	default:
		if m := newClusterMessage(t); m != nil {
			return m, nil
		}
		if m := newSessionMessage(t); m != nil {
			return m, nil
		}
		if m := newProxyMessage(t); m != nil {
			return m, nil
		}
		return nil, fmt.Errorf("protocol: unknown message type %d", t)
	}
}

// MarshalMessage appends a self-describing encoding of m — its type
// byte followed by its payload encoding — to buf. It is the stream-
// free counterpart of WriteFrame for callers that persist messages
// (the segment journal stores committed Replicate frames this way);
// UnmarshalMessage inverts it.
func MarshalMessage(buf []byte, m Message) []byte {
	buf = wire.AppendU8(buf, uint8(m.Type()))
	return m.encode(buf)
}

// UnmarshalMessage decodes one message produced by MarshalMessage.
// Trailing bytes after the payload are an error, so a corrupted
// length upstream cannot silently hide data.
func UnmarshalMessage(data []byte) (Message, error) {
	r := wire.NewReader(data)
	t := r.U8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal: %w", err)
	}
	m, err := newMessage(MsgType(t))
	if err != nil {
		return nil, err
	}
	if err := m.decode(r); err != nil {
		return nil, fmt.Errorf("protocol: unmarshal %T: %w", m, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("protocol: unmarshal %T: %d trailing bytes", m, r.Remaining())
	}
	return m, nil
}

// WriteFrame writes one framed message without trace context.
func WriteFrame(w io.Writer, id uint32, m Message) error {
	return WriteFrameCtx(w, id, m, TraceContext{})
}

// WriteFrameCtx writes one framed message, attaching the trace
// context when it is valid. A zero context produces a frame
// byte-identical to WriteFrame's.
func WriteFrameCtx(w io.Writer, id uint32, m Message, tc TraceContext) error {
	return WriteFrameMux(w, id, m, tc, 0)
}

// errFrameTooBig reports a payload exceeding the frame limit.
func errFrameTooBig(n int) error {
	return fmt.Errorf("protocol: frame of %d bytes exceeds limit", n)
}

// errWritingFrame wraps a socket write failure.
func errWritingFrame(err error) error {
	return fmt.Errorf("protocol: writing frame: %w", err)
}

// ReadFrame reads one framed message, discarding any trace context.
func ReadFrame(r io.Reader) (uint32, Message, error) {
	id, m, _, err := ReadFrameCtx(r)
	return id, m, err
}

// ReadFrameCtx reads one framed message plus the trace context it
// carried, if any (zero TraceContext otherwise). Frames written
// before trace contexts existed decode unchanged. Multiplexed frames
// (session flag set) are decoded but their session ID is discarded;
// peers that route by session use ReadFrameMux.
func ReadFrameCtx(r io.Reader) (uint32, Message, TraceContext, error) {
	id, m, tc, _, err := ReadFrameMux(r)
	return id, m, tc, err
}

// ReadFrameMux reads one framed message plus the trace context and
// logical session ID it carried. Frames without the session flag —
// every frame a pre-multiplexing peer emits — report session zero,
// the connection's implicit session.
func ReadFrameMux(r io.Reader) (uint32, Message, TraceContext, uint32, error) {
	var tc TraceContext
	var sess uint32
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, tc, 0, io.EOF
		}
		return 0, nil, tc, 0, fmt.Errorf("protocol: reading frame header: %w", err)
	}
	n := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	id := uint32(hdr[4])<<24 | uint32(hdr[5])<<16 | uint32(hdr[6])<<8 | uint32(hdr[7])
	if int64(n) > int64(maxFrame) {
		return 0, nil, tc, 0, errFrameTooBig(int(n))
	}
	typ := hdr[8]
	muxed := typ&typeSessFlag != 0
	traced := typ&typeTraceFlag != 0
	want := uint32(0)
	if muxed {
		want += sessIDBytes
		typ &^= typeSessFlag
	}
	if traced {
		want += traceCtxBytes
		typ &^= typeTraceFlag
	}
	if n < want {
		what := ""
		if muxed {
			what = "session id"
		}
		if traced {
			if what != "" {
				what += " and "
			}
			what += "trace context"
		}
		return 0, nil, tc, 0, fmt.Errorf("protocol: flagged frame of %d bytes lacks its %s", n, what)
	}
	m, err := newMessage(MsgType(typ))
	if err != nil {
		return 0, nil, tc, 0, err
	}
	// Read the payload in bounded chunks: a corrupt length field must
	// fail after at most one chunk, not provoke a gigabyte
	// allocation.
	const chunk = 1 << 20
	payload := make([]byte, min(int(n), chunk))
	for off := 0; ; {
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, nil, tc, 0, fmt.Errorf("protocol: reading frame payload: %w", err)
		}
		if off = len(payload); off == int(n) {
			break
		}
		payload = append(payload, make([]byte, min(int(n)-off, chunk))...)
	}
	wr := wire.NewReader(payload)
	if muxed {
		sess = wr.U32()
		if err := wr.Err(); err != nil {
			return 0, nil, tc, 0, fmt.Errorf("protocol: reading session id: %w", err)
		}
	}
	if traced {
		tc.TraceID = wr.U64()
		tc.SpanID = wr.U64()
		if err := wr.Err(); err != nil {
			return 0, nil, tc, sess, fmt.Errorf("protocol: reading trace context: %w", err)
		}
	}
	if err := m.decode(wr); err != nil {
		return 0, nil, tc, sess, fmt.Errorf("protocol: decoding %T: %w", m, err)
	}
	if wr.Remaining() != 0 {
		return 0, nil, tc, sess, fmt.Errorf("protocol: %d trailing bytes in %T frame", wr.Remaining(), m)
	}
	return id, m, tc, sess, nil
}

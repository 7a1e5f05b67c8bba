package protocol

import (
	"encoding/binary"
	"io"
	"sync"

	"interweave/internal/wire"
)

// Session multiplexing (DESIGN.md §10, PROTOCOL.md "Multiplexed
// sessions"). Many logical client sessions can share one TCP
// connection: a frame whose type byte carries typeSessFlag is
// prefixed (inside the counted payload) with a 4-byte session ID that
// names the logical session the frame belongs to, on both directions
// of the connection. Session ID zero is the connection's implicit
// session — the one every pre-multiplexing peer speaks — and is never
// encoded: a frame for session zero is byte-identical to the classic
// format, which is what keeps old clients and old servers
// interoperable with new ones without negotiation.

// typeSessFlag marks a frame whose body starts with a 4-byte session
// ID ahead of any trace context and the payload. Like typeTraceFlag
// it lives in an otherwise-unused bit of the type byte, so frames for
// the implicit session (ID zero) are byte-identical to the classic
// format. The two flags compose: a frame carrying both starts with
// the session ID, then the trace context, then the payload.
const typeSessFlag = 0x40

// sessIDBytes is the wire size of an attached session ID.
const sessIDBytes = 4

// Session message types, continuing the MsgType space after the
// cluster block.
const (
	// TypeSessionClose ends one logical session on a multiplexed
	// connection: the server releases every lock, subscription, and
	// queued waiter the session holds and forgets it, replying Ack.
	// Closing the TCP connection implicitly closes every session it
	// carries.
	TypeSessionClose MsgType = iota + 28
)

// CodeOverloaded is the error code a server reports when admission
// control refuses a new session (the server-wide session cap is
// reached) or when a session was shed as a slow consumer. The client
// library surfaces it as core.ErrOverloaded; callers back off or
// spread load to another server rather than retrying immediately.
const CodeOverloaded uint16 = 8

// CodeNoSession is the error code a server reports for a frame
// addressed to a multiplexed session ID it does not know — either the
// session was evicted (slow consumer), or the client skipped the
// Hello that creates a session. The client library treats it like a
// transport failure: the logical session is dead and a fresh one must
// be established (re-validating segment state by version, exactly as
// after a reconnect).
const CodeNoSession uint16 = 9

// SessionClose asks the server to end the logical session the frame's
// session ID names. The payload is empty: the session being closed is
// the one the frame itself is addressed to.
type SessionClose struct{}

// Type returns the frame type byte.
func (*SessionClose) Type() MsgType { return TypeSessionClose }

func (*SessionClose) encode(buf []byte) []byte { return buf }
func (*SessionClose) decode(_ *wire.Reader) error {
	return nil
}

// newSessionMessage allocates session-management messages; nil for
// types outside the session block.
func newSessionMessage(t MsgType) Message {
	if t == TypeSessionClose {
		return &SessionClose{}
	}
	return nil
}

// The array length below asserts at compile time that the session
// type block sits directly after the cluster block, so the const
// groups cannot drift apart silently.
var _ [1]struct{} = [TypeSessionClose - TypePullReply]struct{}{}

// framePool holds frame buffers between WriteFrameMux calls, so a
// warm frame is encoded without allocating (DESIGN.md §10).
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame is the largest frame buffer framePool keeps. 4 MiB
// holds the whole-segment frame of the 1 MB segments the paper
// measures — about 1 MB on the wire for records of the Fig. 4 mix —
// with room for data that grows in translation. A larger frame, a
// state transfer of a big segment, is rare; keeping its buffer would
// pin that memory in the pool until two garbage collections clear it.
const maxPooledFrame = 4 << 20

// WriteFrameMux writes one framed message addressed to a logical
// session. Session zero — the connection's implicit session — and a
// zero trace context produce a frame byte-identical to WriteFrame's,
// so a peer that never multiplexes emits the classic format.
//
// The message is encoded into a pooled buffer behind a reserved
// header, whose length field is patched afterwards, and goes out in
// one Write. The buffer returns to the pool when Write returns, so w
// must not retain it, as io.Writer requires.
func WriteFrameMux(w io.Writer, id uint32, m Message, tc TraceContext, sess uint32) error {
	typ := byte(m.Type())
	hdr := 9
	if sess != 0 {
		typ |= typeSessFlag
		hdr += sessIDBytes
	}
	if tc.Valid() {
		typ |= typeTraceFlag
		hdr += traceCtxBytes
	}
	bp := framePool.Get().(*[]byte)
	buf := wire.AppendU32((*bp)[:0], 0) // length, patched once the payload is in
	buf = wire.AppendU32(buf, id)
	buf = wire.AppendU8(buf, typ)
	if sess != 0 {
		buf = wire.AppendU32(buf, sess)
	}
	if tc.Valid() {
		buf = wire.AppendU64(buf, tc.TraceID)
		buf = wire.AppendU64(buf, tc.SpanID)
	}
	buf = m.encode(buf)
	var err error
	if n := len(buf) - hdr; n > maxFrame {
		err = errFrameTooBig(n)
	} else {
		binary.BigEndian.PutUint32(buf, uint32(len(buf)-9))
		if _, werr := w.Write(buf); werr != nil {
			err = errWritingFrame(werr)
		}
	}
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

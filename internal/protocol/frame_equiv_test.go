package protocol

// Equivalence of the single-buffer frame writer and the two-buffer
// one. WriteFrameMux encodes a message straight into the frame buffer
// behind a reserved header; referenceWriteFrameMux below is the writer
// it replaced, kept verbatim, which encoded the payload into a buffer
// of its own and copied it behind a separately built header. For every
// message type, session and trace-context combination, both must write
// identical bytes.

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"interweave/internal/coherence"
	"interweave/internal/wire"
)

// referenceWriteFrameMux writes one framed message the two-buffer way.
func referenceWriteFrameMux(w io.Writer, id uint32, m Message, tc TraceContext, sess uint32) error {
	payload := m.encode(make([]byte, 0, 64))
	if len(payload) > maxFrame {
		return errFrameTooBig(len(payload))
	}
	typ := byte(m.Type())
	extra := 0
	if sess != 0 {
		typ |= typeSessFlag
		extra += sessIDBytes
	}
	if tc.Valid() {
		typ |= typeTraceFlag
		extra += traceCtxBytes
	}
	hdr := make([]byte, 0, 9+extra+len(payload))
	hdr = wire.AppendU32(hdr, uint32(len(payload)+extra))
	hdr = wire.AppendU32(hdr, id)
	hdr = wire.AppendU8(hdr, typ)
	if sess != 0 {
		hdr = wire.AppendU32(hdr, sess)
	}
	if tc.Valid() {
		hdr = wire.AppendU64(hdr, tc.TraceID)
		hdr = wire.AppendU64(hdr, tc.SpanID)
	}
	hdr = append(hdr, payload...)
	if _, err := w.Write(hdr); err != nil {
		return errWritingFrame(err)
	}
	return nil
}

// bulkDiff is a diff of about 1 MB: a new block, a descriptor, a freed
// block and many runs, like a bulk rewrite of a record segment.
func bulkDiff() *wire.SegmentDiff {
	d := &wire.SegmentDiff{
		Version: 12,
		Descs:   []wire.DescDef{{Serial: 3, Bytes: []byte{9, 8, 7, 6}}},
		News:    []wire.NewBlock{{Serial: 40, DescSerial: 3, Count: 2, Name: "fresh"}},
		Freed:   []uint32{17},
	}
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for b := 0; b < 4; b++ {
		bd := wire.BlockDiff{Serial: uint32(b + 1)}
		for r := 0; r < 256; r++ {
			bd.Runs = append(bd.Runs, wire.Run{Start: uint32(r * 300), Count: 250, Data: data})
		}
		d.Blocks = append(d.Blocks, bd)
	}
	return d
}

// frameSamples returns populated instances of every message type, the
// diff-carrying release and transfer messages twice: once with a small
// diff and once with a ~1 MB one.
func frameSamples() []Message {
	small := sampleDiff()
	bulk := bulkDiff()
	pol := coherence.Policy{Model: coherence.ModelTemporal, Delta: 3, Window: 250 * time.Millisecond, Percent: 12.5}
	applied := []AppliedEntry{{WriterID: "w/1/1", Seq: 3, Version: 8}, {WriterID: "w/2/9", Seq: 1, Version: 5}}
	return []Message{
		&Hello{ClientName: "client", Profile: "x86-64le"},
		&OpenSegment{Name: "host:1/seg", Create: true},
		&OpenReply{Created: true, Version: 4, Dir: small},
		&OpenReply{Version: 4},
		&ReadLock{Seg: "host:1/seg", HaveVersion: 3, Policy: pol},
		&WriteLock{Seg: "host:1/seg", HaveVersion: 3, Policy: coherence.Full()},
		&LockReply{Fresh: true},
		&LockReply{Diff: small},
		&LockReply{Diff: bulk},
		&ReadUnlock{Seg: "host:1/seg"},
		&WriteUnlock{Seg: "host:1/seg", Diff: small, WriterID: "w/1/1", Seq: 9},
		&WriteUnlock{Seg: "host:1/seg", Diff: bulk, WriterID: "w/1/1", Seq: 10},
		&VersionReply{Version: 13},
		&Subscribe{Seg: "host:1/seg", HaveVersion: 2, Policy: pol},
		&Unsubscribe{Seg: "host:1/seg"},
		&TxCommit{Parts: []WriteUnlock{
			{Seg: "host:1/a", Diff: small, WriterID: "w", Seq: 1},
			{Seg: "host:1/b", Diff: bulk, WriterID: "w", Seq: 2},
		}},
		&TxReply{Versions: []uint32{4, 9}},
		&Resume{Seg: "host:1/seg", WriterID: "w/1/1", Seq: 9},
		&ResumeReply{Applied: true, AppliedVersion: 12, CurrentVersion: 13},
		&Ack{},
		&Notify{Seg: "host:1/seg", Version: 13},
		&ErrorReply{Code: CodeLockState, Text: "not held"},
		&Redirect{Seg: "host:1/seg", Owner: "127.0.0.1:7003", Ms: testMembership()},
		&RingGet{HaveEpoch: 6},
		&RingReply{Ms: testMembership()},
		&RingPush{Ms: testMembership()},
		&Replicate{Seg: "host:1/seg", Epoch: 7, From: "127.0.0.1:7001", PrevVersion: 8, Version: 9, Diff: small, Applied: applied},
		&Replicate{Seg: "host:1/seg", Epoch: 7, From: "127.0.0.1:7001", PrevVersion: 11, Version: 12, Diff: bulk, Applied: applied},
		&Replicate{Seg: "host:1/seg", Version: 9, Raw: []byte{1, 2, 3, 4}, Applied: applied},
		&Replicate{Seg: "host:1/seg", Version: 9, Raw: bytes.Repeat([]byte{7, 1}, 5<<18), Applied: applied}, // read in three chunks
		&ReplicateReply{Fenced: true, Version: 4, Ms: testMembership()},
		&Migrate{Seg: "host:1/seg", Target: "127.0.0.1:7002"},
		&Pull{Seg: "host:1/seg", HaveVersion: 4},
		&PullReply{Version: 9, Diff: small, Applied: applied},
		&PullReply{},
		&SessionClose{},
		&ProxyHello{ProxyAddr: "127.0.0.1:7100", Name: "edge"},
	}
}

// TestWriteFrameMuxMatchesReference requires byte-identical frames from
// the single-buffer writer and the two-buffer reference for every
// message type, with session id zero and non-zero, with and without a
// trace context.
func TestWriteFrameMuxMatchesReference(t *testing.T) {
	samples := frameSamples()
	covered := make(map[MsgType]bool)
	for _, m := range samples {
		covered[m.Type()] = true
	}
	for typ := MsgType(0); typ < typeSessFlag; typ++ {
		if m, err := newMessage(typ); err == nil && !covered[typ] {
			t.Errorf("no sample of %T (type %d)", m, typ)
		}
	}
	ctxs := []TraceContext{{}, {TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}}
	for i, m := range samples {
		for _, sess := range []uint32{0, 0xdeadbeef} {
			for _, tc := range ctxs {
				name := fmt.Sprintf("%d:%T/sess=%d/traced=%v", i, m, sess, tc.Valid())
				var got, want bytes.Buffer
				if err := WriteFrameMux(&got, 77, m, tc, sess); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := referenceWriteFrameMux(&want, 77, m, tc, sess); err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: frame differs from the reference (%d vs %d bytes)", name, got.Len(), want.Len())
				}
				id, back, btc, bsess, err := ReadFrameMux(&got)
				if err != nil || id != 77 || back.Type() != m.Type() || btc != tc || bsess != sess {
					t.Fatalf("%s: read back id=%d %T tc=%v sess=%d: %v", name, id, back, btc, bsess, err)
				}
			}
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestWriteFrameMuxOversize requires a payload beyond the frame limit
// to fail with errFrameTooBig before a single byte is written, from
// both writers alike. The limit is lowered below the ~1 MB diff so
// the test needs no gigabyte payload.
func TestWriteFrameMuxOversize(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 1 << 16
	m := &WriteUnlock{Seg: "host:1/seg", Diff: bulkDiff(), WriterID: "w", Seq: 1}
	want := errFrameTooBig(len(m.encode(nil))).Error()
	for name, write := range map[string]func(io.Writer, uint32, Message, TraceContext, uint32) error{
		"WriteFrameMux": WriteFrameMux, "reference": referenceWriteFrameMux,
	} {
		for _, sess := range []uint32{0, 5} {
			var w countingWriter
			err := write(&w, 1, m, TraceContext{TraceID: 1, SpanID: 2}, sess)
			if err == nil || err.Error() != want || !strings.Contains(err.Error(), "exceeds limit") {
				t.Errorf("%s sess=%d: err = %v, want %q", name, sess, err, want)
			}
			if w.n != 0 {
				t.Errorf("%s sess=%d: %d bytes written before the size check", name, sess, w.n)
			}
		}
	}
	// A frame just at the limit still goes out.
	var w countingWriter
	at := &Replicate{Seg: "s", Raw: make([]byte, maxFrame-len((&Replicate{Seg: "s"}).encode(nil)))}
	if err := WriteFrameMux(&w, 1, at, TraceContext{}, 0); err != nil || w.n != 9+maxFrame {
		t.Errorf("frame at the limit: %d bytes, %v", w.n, err)
	}
}

// TestWriteFrameMuxEncodesOnce pins the pooled frame buffer: once a
// frame of its size has been written, a frame carrying a ~1 MB diff,
// trailing Replicate fields included, is encoded without allocating.
func TestWriteFrameMuxEncodesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	bulk := bulkDiff()
	applied := []AppliedEntry{{WriterID: "w/1/1", Seq: 3, Version: 8}}
	// A collection cycle started by these megabytes makes runtime
	// allocations of its own that AllocsPerRun would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, m := range []Message{
		&LockReply{Diff: bulk},
		&WriteUnlock{Seg: "host:1/seg", Diff: bulk, WriterID: "w/1/1", Seq: 10},
		&Replicate{Seg: "host:1/seg", PrevVersion: 11, Version: 12, Diff: bulk, Applied: applied},
		&PullReply{Version: 12, Diff: bulk, Applied: applied},
	} {
		if got := testing.AllocsPerRun(5, func() {
			if err := WriteFrameMux(io.Discard, 1, m, TraceContext{TraceID: 1, SpanID: 2}, 3); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%T: %v allocations per warm frame, want 0", m, got)
		}
	}
}

// TestWriteFrameMuxPooledConcurrent writes frames from eight
// goroutines at once, each into its own buffer: ~1 MB WriteUnlock and
// LockReply frames interleaved with small Ack and Notify frames and
// with a frame over the size limit, which must fail without writing
// and leave the next frame intact. Every frame must equal the
// reference writer's; a pooled buffer handed out twice, or reused
// before its Write returned, shows up as a mismatch or, under -race,
// as a race.
func TestWriteFrameMuxPooledConcurrent(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 2 << 20
	bulk := bulkDiff()
	msgs := []Message{
		&WriteUnlock{Seg: "host:1/seg", Diff: bulk, WriterID: "w/1/1", Seq: 10},
		&Ack{},
		&LockReply{Diff: bulk},
		&Notify{Seg: "host:1/seg", Version: 13},
	}
	oversize := &Replicate{Seg: "host:1/seg", Version: 9, Raw: make([]byte, maxFrame+1)}
	tc := TraceContext{TraceID: 1, SpanID: 2}
	want := make([][]byte, len(msgs))
	for i, m := range msgs {
		var b bytes.Buffer
		if err := referenceWriteFrameMux(&b, 5, m, tc, 7); err != nil {
			t.Fatal(err)
		}
		want[i] = b.Bytes()
	}
	const goroutines, frames = 8, 24
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			var b bytes.Buffer
			for k := 0; k < frames; k++ {
				b.Reset()
				if (g+k)%5 == 4 {
					if err := WriteFrameMux(&b, 5, oversize, tc, 7); err == nil || b.Len() != 0 {
						errs <- fmt.Errorf("goroutine %d frame %d: oversize frame wrote %d bytes, err %v", g, k, b.Len(), err)
						return
					}
					continue
				}
				i := (g + k) % len(msgs)
				if err := WriteFrameMux(&b, 5, msgs[i], tc, 7); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b.Bytes(), want[i]) {
					errs <- fmt.Errorf("goroutine %d frame %d: %T frame differs from the reference (%d vs %d bytes)", g, k, msgs[i], b.Len(), len(want[i]))
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

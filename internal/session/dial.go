package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"interweave/internal/protocol"
)

// Dialed is the dialing side of one connection: calls from any number
// of goroutines, matched to their replies by request ID through a
// pending table, plus the server-initiated frames (request ID 0) the
// read loop hands to a push callback.
type Dialed struct {
	conn net.Conn
	push func(sid uint32, m protocol.Message)

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan protocol.Message
	err     error
	closed  bool
}

// NewDialed takes ownership of conn and starts its read loop. push,
// when non-nil, receives every unsolicited frame on the read loop's
// goroutine: it must not block and must not call back into the
// connection synchronously.
func NewDialed(conn net.Conn, push func(sid uint32, m protocol.Message)) *Dialed {
	d := &Dialed{
		conn:    conn,
		push:    push,
		nextID:  1,
		pending: make(map[uint32]chan protocol.Message),
	}
	go d.readLoop()
	return d
}

func (d *Dialed) readLoop() {
	for {
		id, msg, _, sid, err := protocol.ReadFrameMux(d.conn)
		if err != nil {
			d.fail(err)
			return
		}
		if id == 0 {
			if d.push != nil {
				d.push(sid, msg)
			}
			continue
		}
		d.mu.Lock()
		ch, ok := d.pending[id]
		delete(d.pending, id)
		d.mu.Unlock()
		if ok {
			ch <- msg
		}
	}
}

// fail closes the connection and fails every pending call; the first
// error sticks and is what later calls report.
func (d *Dialed) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("session: server connection closed")
		}
		d.err = err
	}
	d.closed = true
	pending := d.pending
	d.pending = make(map[uint32]chan protocol.Message)
	d.mu.Unlock()
	_ = d.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears the connection down; the peer implicitly closes every
// session it carried.
func (d *Dialed) Close() {
	d.fail(errors.New("session: connection closed by client"))
}

// Closed reports whether the connection has failed or been closed.
func (d *Dialed) Closed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// closedErr returns the error the connection died with.
func (d *Dialed) closedErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		return errors.New("session: connection closed")
	}
	return d.err
}

// Start writes one request and returns the channel its reply will
// arrive on (closed, with nothing sent, if the connection dies first).
// Requests reach the wire in Start order.
func (d *Dialed) Start(sid uint32, m protocol.Message, tc protocol.TraceContext) (uint32, <-chan protocol.Message, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, nil, d.closedErr()
	}
	id := d.nextID
	d.nextID++
	if d.nextID == 0 {
		d.nextID = 1
	}
	ch := make(chan protocol.Message, 1)
	d.pending[id] = ch
	err := protocol.WriteFrameMux(d.conn, id, m, tc, sid)
	d.mu.Unlock()
	if err != nil {
		d.fail(err)
		return 0, nil, err
	}
	return id, ch, nil
}

// Call performs one round trip on session sid. A timeout (zero
// disables it) fails only this call: replies are matched by ID, so a
// late one finds no pending entry and is discarded. This is the policy
// for connections whose sessions are served concurrently.
func (d *Dialed) Call(sid uint32, m protocol.Message, tc protocol.TraceContext, timeout time.Duration) (protocol.Message, error) {
	return d.call(sid, m, tc, timeout, false)
}

// CallOrdered is Call for a connection speaking only the implicit
// session, whose replies arrive in request order: once one is overdue
// the stream's state is unknowable and every later reply suspect, so a
// timeout fails the whole connection.
func (d *Dialed) CallOrdered(m protocol.Message, tc protocol.TraceContext, timeout time.Duration) (protocol.Message, error) {
	return d.call(0, m, tc, timeout, true)
}

func (d *Dialed) call(sid uint32, m protocol.Message, tc protocol.TraceContext, timeout time.Duration, failConn bool) (protocol.Message, error) {
	id, ch, err := d.Start(sid, m, tc)
	if err != nil {
		return nil, err
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	var reply protocol.Message
	var ok bool
	select {
	case reply, ok = <-ch:
	case <-timeoutCh:
		terr := fmt.Errorf("session: %T RPC timed out after %v", m, timeout)
		if !failConn {
			d.mu.Lock()
			delete(d.pending, id)
			d.mu.Unlock()
			return nil, terr
		}
		d.fail(terr)
		// The reply may have raced in before fail closed the channel.
		reply, ok = <-ch
	}
	if !ok {
		return nil, d.closedErr()
	}
	if e, isErr := reply.(*protocol.ErrorReply); isErr {
		return nil, e
	}
	return reply, nil
}

// dialTimeout bounds a default TCP dial.
const dialTimeout = 10 * time.Second

// Dialer returns dial when the caller supplied one (tests, faultnet),
// otherwise a TCP dialer bounded by dialTimeout.
func Dialer(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if dial != nil {
		return dial
	}
	return func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, dialTimeout)
	}
}

// RoundTrip performs one request/reply exchange on a connection the
// caller dialed for it and closes afterwards; the caller bounds it
// with a deadline on conn. Unsolicited frames (request ID 0) ahead of
// the reply are skipped, and an ErrorReply comes back as the error.
func RoundTrip(conn net.Conn, m protocol.Message) (protocol.Message, error) {
	if err := protocol.WriteFrameMux(conn, 1, m, protocol.TraceContext{}, 0); err != nil {
		return nil, err
	}
	for {
		id, reply, _, _, err := protocol.ReadFrameMux(conn)
		if err != nil {
			return nil, err
		}
		if id == 0 {
			continue
		}
		if e, isErr := reply.(*protocol.ErrorReply); isErr {
			return nil, e
		}
		return reply, nil
	}
}

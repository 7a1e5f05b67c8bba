// Package core implements the InterWeave client library — the
// paper's primary contribution. It maps cached copies of shared
// segments into a simulated local address space, tracks modifications
// with page twins, collects and applies machine-independent
// wire-format diffs at lock boundaries, swizzles pointers, and drives
// the relaxed-coherence protocol against InterWeave servers (paper
// Sections 2 and 3.1).
//
// A Client corresponds to one process linked against the InterWeave
// library: it owns a heap (the process address space), a set of
// cached segments, and one multiplexed TCP connection per server.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/arch"
	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/mem"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/session"
	"interweave/internal/types"
)

// Options configures a Client.
type Options struct {
	// Profile is the simulated machine architecture; AMD64 if nil.
	Profile *arch.Profile
	// Name identifies the client to servers (diagnostics only).
	Name string
	// ProxyAddr, when non-empty, marks this client as a read fan-out
	// proxy (DESIGN.md §11): connections introduce themselves with
	// ProxyHello instead of Hello, carrying this address — the proxy's
	// own downstream-facing listen address — so servers can exempt the
	// session from MaxSessions admission and advertise the role.
	ProxyAddr string
	// Dial overrides TCP dialing (tests, custom transports); the
	// default dials TCP with a 10 s timeout.
	Dial func(addr string) (net.Conn, error)
	// DefaultPolicy is the coherence policy used by segments that
	// never called SetPolicy; Full() if unset.
	DefaultPolicy coherence.Policy
	// NoDiffResample is how many no-diff critical sections pass
	// before one diffing section re-samples application behaviour
	// (default 8).
	NoDiffResample int
	// RPCTimeout bounds the round trip of every request the client
	// sends except WriteLock and TxCommit, which may legitimately
	// queue behind another client's writer for an unbounded time.
	// Zero disables the timeout. A timed-out connection is failed —
	// the ordered stream behind it can no longer be trusted.
	RPCTimeout time.Duration
	// MaxRetries is how many times a transport-failed retryable RPC
	// is retried after reconnecting (default 3; negative disables
	// retries entirely).
	MaxRetries int
	// RetryBackoff is the delay before the first retry; subsequent
	// retries back off exponentially with jitter (default 25ms).
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the exponential backoff (default 1s).
	RetryMaxBackoff time.Duration
	// Metrics, when non-nil, receives the client's counters and
	// histograms (OBSERVABILITY.md catalogues them). A nil registry
	// disables instrumentation entirely — no clocks are read and no
	// atomics are touched on the hot paths.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured events (retries,
	// degraded reads, release recovery) synchronously on the emitting
	// goroutine. Meant for tests asserting behaviour; must be fast.
	Trace obs.TraceFunc
	// Tracer, when non-nil, records a distributed span per lock
	// operation, with child spans per RPC attempt whose context rides
	// the wire so server-side work links into the same trace. A nil
	// tracer disables span tracing entirely — no clock reads and no
	// allocations on the hot paths.
	Tracer *obs.Tracer
	// OnNotify, when non-nil, receives every server-pushed Notify in
	// addition to the client's own invalidation bookkeeping. It runs on
	// the notify goroutine with no client lock held, so it may call back
	// into the Client. The proxy tier uses it to trigger mirror pulls
	// for segments it subscribed to with Forward rather than Open.
	OnNotify func(seg string, version uint32)
}

// Client is one InterWeave client process.
type Client struct {
	mu      sync.Mutex
	cond    *sync.Cond
	prof    *arch.Profile
	heap    *mem.Heap
	opts    Options
	segs    map[string]*segment
	layouts types.Cache

	// conns is the connection pool. Reads hold mu; writes hold mu and
	// connsMu, so Close can snapshot the pool under connsMu alone and
	// never waits for a call that holds mu across its round trip.
	// closed is set before that snapshot and checked under connsMu
	// before a new connection joins the pool.
	connsMu sync.Mutex
	conns   map[string]*serverConn
	closed  atomic.Bool

	// Cluster routing state (route.go): per-segment owner routes
	// learned from redirects, and the newest membership seen, with the
	// ring built from it. Nil ms/ring means the client has never
	// talked to a clustered server.
	routes map[string]string
	ms     *protocol.Membership
	ring   *cluster.Ring

	// notified names the segments with a server-pushed invalidation
	// their next lock has yet to see. The connection's read loop
	// records it under notifiedMu — never mu, which a call holds across
	// its round trip and a tight lock loop can keep from a waiter for a
	// long time — so an invalidation is in force the moment its frame
	// was read; ensureFresh folds it into the segment's state.
	notifiedMu sync.Mutex
	notified   map[string]struct{}

	// writerID identifies this client instance in WriteUnlock
	// requests; together with a per-release sequence number it lets
	// the server deduplicate retried releases (at-most-once).
	writerID string
	// staleReads counts read locks granted from the cache because the
	// server was unreachable and the coherence policy tolerated it.
	staleReads atomic.Uint64

	// ins holds the metric handles when Options.Metrics was set; nil
	// means instrumentation is disabled.
	ins *clientInstruments
	// traceFn is Options.Trace (nil when tracing is disabled).
	traceFn obs.TraceFunc
	// tracer is Options.Tracer (nil when span tracing is disabled).
	tracer *obs.Tracer
}

// clientSeq distinguishes writer IDs of clients created by one
// process (tests routinely run several).
var clientSeq atomic.Uint64

// NewClient returns a client with an empty heap.
func NewClient(opts Options) (*Client, error) {
	if opts.Profile == nil {
		opts.Profile = arch.AMD64()
	}
	if opts.DefaultPolicy.Model == coherence.ModelInvalid {
		opts.DefaultPolicy = coherence.Full()
	}
	if err := opts.DefaultPolicy.Validate(); err != nil {
		return nil, err
	}
	if opts.NoDiffResample <= 0 {
		opts.NoDiffResample = 8
	}
	opts.Dial = session.Dialer(opts.Dial)
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 25 * time.Millisecond
	}
	if opts.RetryMaxBackoff <= 0 {
		opts.RetryMaxBackoff = time.Second
	}
	h, err := mem.NewHeap(opts.Profile)
	if err != nil {
		return nil, err
	}
	c := &Client{
		prof:     opts.Profile,
		heap:     h,
		opts:     opts,
		conns:    make(map[string]*serverConn),
		segs:     make(map[string]*segment),
		routes:   make(map[string]string),
		notified: make(map[string]struct{}),
		writerID: fmt.Sprintf("%s/%d/%d", opts.Name, os.Getpid(), clientSeq.Add(1)),
		traceFn:  opts.Trace,
		tracer:   opts.Tracer,
	}
	if opts.Metrics != nil {
		c.ins = newClientInstruments(opts.Metrics)
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// StaleReads reports how many read locks were granted from the cache
// because the server was unreachable (graceful degradation under
// relaxed coherence).
func (c *Client) StaleReads() uint64 { return c.staleReads.Load() }

// Heap exposes the client's simulated address space for typed reads
// and writes. Access shared data only under the protection of
// reader-writer locks, as the paper requires.
func (c *Client) Heap() *mem.Heap { return c.heap }

// Profile returns the client's machine profile.
func (c *Client) Profile() *arch.Profile { return c.prof }

// errClientClosed fails every call made on, or in flight across, Close.
var errClientClosed = errors.New("core: client closed")

// Close releases all server connections. Segments remain readable
// locally but can no longer be locked or updated. It does not wait for
// calls in flight: closing their connections fails them at once.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.connsMu.Lock()
	conns := make([]*serverConn, 0, len(c.conns))
	for _, sc := range c.conns {
		conns = append(conns, sc)
	}
	c.connsMu.Unlock()
	for _, sc := range conns {
		sc.Close()
	}
	return nil
}

// serverAddrOf extracts the server address from a segment URL of the
// form "host:port/path".
func serverAddrOf(segName string) (string, error) {
	i := strings.IndexByte(segName, '/')
	if i <= 0 || i == len(segName)-1 {
		return "", fmt.Errorf("core: segment URL %q is not host/path", segName)
	}
	return segName[:i], nil
}

// connFor returns (dialing if necessary) the multiplexed connection
// to the server managing segName — the redirect-learned owner when
// one is cached, the URL's home server otherwise. Callers must hold
// c.mu; the dial happens with the lock released.
func (c *Client) connFor(segName string) (*serverConn, error) {
	addr, err := c.addrFor(segName)
	if err != nil {
		return nil, err
	}
	return c.connTo(addr)
}

// connTo returns (dialing if necessary) the multiplexed connection to
// one server address. Callers must hold c.mu; the dial happens with
// the lock released. Dial failures carry ErrUnavailable so callers
// can surface a typed error once retries are spent.
func (c *Client) connTo(addr string) (*serverConn, error) {
	if sc, ok := c.conns[addr]; ok && !sc.Closed() {
		return sc, nil
	}
	c.mu.Unlock()
	conn, err := c.opts.Dial(addr)
	c.mu.Lock()
	if err != nil {
		return nil, fmt.Errorf("core: connecting to %s: %w (%v)", addr, ErrUnavailable, err)
	}
	if sc, ok := c.conns[addr]; ok && !sc.Closed() {
		// Someone else won the race; use theirs.
		_ = conn.Close()
		return sc, nil
	}
	c.connsMu.Lock()
	if c.closed.Load() {
		c.connsMu.Unlock()
		_ = conn.Close()
		return nil, errClientClosed
	}
	sc := &serverConn{Dialed: session.NewDialed(conn, c.pushed), addr: addr}
	c.conns[addr] = sc
	c.connsMu.Unlock()
	if c.ins != nil {
		c.ins.dials.Inc()
	}
	// Introduce ourselves; failure here surfaces on first real call.
	// Proxies introduce with ProxyHello so the server exempts the
	// session from MaxSessions admission (DESIGN.md §11). The intro
	// frame is written synchronously — it must be the session-creating
	// frame at the server, ahead of any concurrent first RPC, or the
	// exemption is lost to a race (later calls serialize behind the
	// same write path) — but its reply is drained in the background so
	// dialing stays one write, not a round trip; an error reply closes
	// the connection.
	var intro protocol.Message = &protocol.Hello{ClientName: c.opts.Name, Profile: c.prof.Name}
	if c.opts.ProxyAddr != "" {
		intro = &protocol.ProxyHello{ProxyAddr: c.opts.ProxyAddr, Name: c.opts.Name}
	}
	if _, ch, err := sc.Start(0, intro, protocol.TraceContext{}); err == nil {
		go func() {
			if _, refused := (<-ch).(*protocol.ErrorReply); refused {
				sc.Close()
			}
		}()
	}
	return sc, nil
}

// call is the client's one routed call: it issues m for the segment
// named name and returns the reply. s is the segment's shell, nil
// before one exists (open, Migrate, Forward); a shell pins the
// connection its requests ride, otherwise each attempt takes the
// connection of the segment's current route.
//
// A dead connection is redialed (e.g. after a server restart from its
// journal). Lock and subscription state held by the old server
// instance is gone, so reconnecting drops the segment's subscription;
// its cached data remains valid and is re-validated by version number
// on the next lock. Dial failures are retried for every RPC kind — a
// request that never reached a server cannot have been applied, so
// rerouting and redialing is always safe — but transport failures
// after a send only for retryable kinds: WriteUnlock and TxCommit get
// at most one send per call, their recovery runs at a higher level
// (Resume). Retries back off exponentially with jitter; a Redirect is
// followed to the owner without spending the retry budget, and a
// closed client fails at once. Each attempt is one rpc, whose span sp
// (when non-nil) parents. Caller holds c.mu.
func (c *Client) call(name string, s *segment, m protocol.Message, sp *obs.Span) (protocol.Message, error) {
	hops := 0
	for attempt := 0; ; attempt++ {
		var sc *serverConn
		if s != nil {
			sc = s.conn
		}
		if sc == nil || sc.Closed() {
			var err error
			if sc, err = c.connFor(name); err != nil {
				if attempt >= c.opts.MaxRetries {
					return nil, err
				}
				c.rerouteSeg(name)
				if !c.retryPause(m, attempt, err) {
					return nil, err
				}
				continue
			}
			if s != nil {
				s.conn = sc
				s.state.Subscribed = false
				s.state.Invalidated = false
			}
		}
		reply, err := c.rpc(sc, m, sp, attempt)
		if red, ok := reply.(*protocol.Redirect); ok {
			// Not a failure: the server we asked does not own the
			// segment (any RPC kind, WriteUnlock included, was refused
			// un-applied). Follow to the owner.
			if rerr := c.followRedirect(name, sc.addr, red, &hops); rerr != nil {
				return nil, rerr
			}
			if s != nil {
				s.conn = nil // repoint to the new route next spin
			}
			attempt--
			continue
		}
		if err == nil || !isTransport(err) {
			return reply, err
		}
		if c.closed.Load() {
			return nil, errClientClosed
		}
		if !retryable(m) || attempt >= c.opts.MaxRetries {
			return nil, err
		}
		c.rerouteSeg(name)
		if !c.retryPause(m, attempt, err) {
			return nil, err
		}
	}
}

// rpc is one attempt of m on sc: the client's roundTrip, the path every
// request it sends takes, so each is bounded by timeoutFor(m), counted in
// iw_client_rpc_* and, when traced, given a child span of sp. It does
// not redial, reroute or retry: call does that for routed requests,
// while a subscription RPC goes to the connection holding the
// subscription, once, because a subscription does not survive a
// reconnect. Caller holds c.mu.
func (c *Client) rpc(sc *serverConn, m protocol.Message, sp *obs.Span, attempt int) (protocol.Message, error) {
	return roundTrip(sc.Dialed, 0, m, c.timeoutFor(m), c.ins, sp, attempt)
}

// roundTrip performs one request on session sid of d, bounded by
// timeout, recording latency (healthy round trips, including
// server-reported errors) or a transport error when ins is non-nil.
// When sp is non-nil the round trip gets its own child span — one per
// attempt, so retries appear as sibling spans — whose context is
// attached to the outgoing frame for the server to join. All span work
// is gated on sp, keeping the untraced path free of clock reads and
// allocations (rpcName formats). Server error codes come back typed
// (typedErr).
func roundTrip(d *session.Dialed, sid uint32, m protocol.Message, timeout time.Duration, ins *clientInstruments, sp *obs.Span, attempt int) (protocol.Message, error) {
	var asp *obs.Span
	var tc protocol.TraceContext
	if sp != nil {
		asp = sp.Child("rpc." + rpcName(m))
		asp.AttrInt("attempt", int64(attempt))
		sctx := asp.Context()
		tc = protocol.TraceContext{TraceID: sctx.TraceID, SpanID: sctx.SpanID}
	}
	if ins == nil {
		reply, err := d.Call(sid, m, tc, timeout)
		endRPCSpan(asp, err)
		return reply, typedErr(err)
	}
	rpc := rpcName(m)
	start := time.Now()
	reply, err := d.Call(sid, m, tc, timeout)
	if err != nil && isTransport(err) {
		ins.transportErrors(rpc).Inc()
	} else {
		ins.latency(rpc).ObserveSince(start)
	}
	endRPCSpan(asp, err)
	return reply, typedErr(err)
}

// typedErr marks the server error codes callers act on with the typed
// error they match with errors.Is: admission refusals and sheds
// (ErrOverloaded), a session unknown to the server (ErrSessionLost)
// and a release not replicated (ErrNotReplicated). The ErrorReply stays
// in the chain, so errCode and isTransport still see it.
func typedErr(err error) error {
	if err == nil {
		return nil
	}
	var typed error
	switch errCode(err) {
	case protocol.CodeOverloaded:
		typed = ErrOverloaded
	case protocol.CodeNoSession:
		typed = ErrSessionLost
	case protocol.CodeNotReplicated:
		typed = ErrNotReplicated
	default:
		return err
	}
	return fmt.Errorf("%w: %w", typed, err)
}

// endRPCSpan closes an attempt span, recording the error when the
// round trip failed (transport death and server-reported errors
// alike).
func endRPCSpan(sp *obs.Span, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Error(err)
	}
	sp.End()
}

// retryPause records the retry (metrics + trace) and sleeps out the
// backoff; it reports false when the client was closed meanwhile.
func (c *Client) retryPause(m protocol.Message, attempt int, cause error) bool {
	if c.ins != nil || c.traceFn != nil {
		rpc := rpcName(m)
		if c.ins != nil {
			c.ins.retries(rpc).Inc()
		}
		ev := obs.Event{Name: "rpc.retry", RPC: rpc, Attempt: attempt}
		if cause != nil {
			ev.Err = cause.Error()
		}
		c.trace(ev)
	}
	return c.sleepRetry(attempt)
}

// retryable reports whether a transport-failed RPC may safely be sent
// again. Everything on the read/lock path is idempotent: locks are
// keyed to the session (a dead session's locks are released by the
// server), polls and opens are pure queries, and Resume is a pure
// probe. WriteUnlock and TxCommit mutate the segment and must not be
// blindly resent — a lost reply leaves the first send possibly
// applied; WUnlock recovers via the Resume protocol instead.
func retryable(m protocol.Message) bool {
	switch m.(type) {
	case *protocol.Hello, *protocol.OpenSegment, *protocol.ReadLock,
		*protocol.WriteLock, *protocol.ReadUnlock,
		*protocol.Subscribe, *protocol.Unsubscribe, *protocol.Resume:
		return true
	}
	return false
}

// isTransport distinguishes connection failures (retry material) from
// server-reported errors, which arrived on a healthy stream.
func isTransport(err error) bool {
	var er *protocol.ErrorReply
	return !errors.As(err, &er)
}

// errCode extracts the server-reported error code, or 0 for transport
// errors.
func errCode(err error) uint16 {
	var er *protocol.ErrorReply
	if errors.As(err, &er) {
		return er.Code
	}
	return 0
}

// timeoutFor bounds RPCs the server answers immediately. WriteLock
// and TxCommit are exempt: they may queue behind another client's
// writer for an unbounded, legitimate time. ReadLock is bounded —
// readers are never queued, they just receive the current version.
func (c *Client) timeoutFor(m protocol.Message) time.Duration {
	switch m.(type) {
	case *protocol.WriteLock, *protocol.TxCommit:
		return 0
	}
	return c.opts.RPCTimeout
}

// sleepRetry waits out the backoff for the given attempt with c.mu
// released, reporting false when the client was closed meanwhile.
func (c *Client) sleepRetry(attempt int) bool {
	d := c.opts.RetryBackoff << uint(attempt)
	if d <= 0 || d > c.opts.RetryMaxBackoff {
		d = c.opts.RetryMaxBackoff
	}
	// Full jitter over [d/2, d] decorrelates clients retrying after a
	// shared fault (e.g. a server restart).
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	time.Sleep(d)
	c.mu.Lock()
	return !c.closed.Load()
}

// serverConn is the cached connection of the paper's segment table:
// one dialed connection (internal/session) on which the client speaks
// only the implicit session, so replies arrive in request order and an
// overdue one fails the whole connection.
type serverConn struct {
	*session.Dialed
	// addr is the server address this connection was dialed for —
	// the pool key, which redirect handling uses to identify the
	// server a reply actually came from.
	addr string
}

// pushed handles a server-initiated frame on one of the client's
// connections, on that connection's read loop: a Notify invalidates
// its segment's cached copy (see Client.notified).
func (c *Client) pushed(_ uint32, m protocol.Message) {
	n, ok := m.(*protocol.Notify)
	if !ok {
		return
	}
	c.notifiedMu.Lock()
	c.notified[n.Seg] = struct{}{}
	c.notifiedMu.Unlock()
	if fn := c.opts.OnNotify; fn != nil {
		// On a goroutine of its own: the callback may call back into
		// the client, whose mutex a caller waiting for a reply on this
		// very connection may hold.
		go fn(n.Seg, n.Version)
	}
}

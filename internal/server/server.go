package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/cluster"
	"interweave/internal/coherence"
	"interweave/internal/journal"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/session"
)

// Options configures a Server.
type Options struct {
	// JournalDir, when non-empty, makes the server persistent: every
	// committed release is appended to a per-segment log-structured
	// journal before the client sees the acknowledgement, and startup
	// restores every segment found there as sealed base + log replay
	// (see internal/journal and DESIGN.md §9).
	JournalDir string
	// JournalCompactBytes is the per-segment log size that triggers
	// compaction into a fresh base. Zero means
	// DefaultJournalCompactBytes; negative disables size-triggered
	// compaction (eviction, CompactJournal and Close still compact).
	JournalCompactBytes int64
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the server's instrumentation
	// (see OBSERVABILITY.md). A nil registry disables every
	// instrumentation site.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a span per handled request, joined
	// to the client's trace when the frame carried a trace context,
	// with child spans for queue wait, freshness check, diff
	// collect/apply, and notification fan-out. A nil tracer disables
	// span tracing — no clock reads and no allocations.
	Tracer *obs.Tracer
	// Cluster, when non-nil, puts the server in cluster mode: segment
	// RPCs for segments this node does not own are answered with a
	// Redirect, committed diffs stream to the segment's replicas, and
	// the membership RPCs (RingGet/RingPush/Replicate/Pull/Migrate)
	// are served. The caller owns the node's lifecycle (Start/Close);
	// see DESIGN.md §7.
	Cluster *cluster.Node
	// MaxSessions caps concurrent logical sessions server-wide;
	// admission control refuses session creation past the cap with
	// CodeOverloaded. Zero means unlimited (DESIGN.md §10).
	MaxSessions int
	// SessionSendQueue bounds outbound frames queued per logical
	// session; a subscriber over the bound when a Notify arrives is
	// shed (evicted), never buffered without limit. Zero means
	// DefaultSessionSendQueue.
	SessionSendQueue int
	// ConnSendQueue bounds the per-connection writer queue shared by
	// every session multiplexed on the connection. Zero means
	// DefaultConnSendQueue.
	ConnSendQueue int
	// WriteTimeout bounds how long a reply may wait for space in the
	// connection's writer queue before the connection is declared
	// stuck and evicted. Zero means DefaultWriteTimeout.
	WriteTimeout time.Duration
	// GroupCommit is IGNORED: every release takes the commit pipeline
	// (DESIGN.md §10), which coalesces whatever queues behind an
	// in-flight flush. The field survives this one change only because
	// benchmark/durable.go, frozen outside benchmark changes, still
	// sets it; the next benchmark change drops both.
	GroupCommit bool
	// Flight, when non-nil, is the always-on flight recorder: the
	// server records structural incidents into it (session evictions,
	// commit-pipeline flushes, promotions, demotions, fencing, epoch
	// changes, journal compactions), dumps it to stderr when a handler
	// goroutine panics, and /debug/flight serves it. A nil recorder disables
	// every recording site and every panic hook (OBSERVABILITY.md).
	Flight *obs.FlightRecorder
	// SLOShortWindow and SLOLongWindow override the SLO tracker's
	// rolling windows; zero means obs.DefaultSLOShortWindow and
	// obs.DefaultSLOLongWindow. The tracker exists only when Metrics
	// is non-nil (see health.go and /debug/slo).
	SLOShortWindow time.Duration
	SLOLongWindow  time.Duration
	// SLOSampleEvery is the cadence of the background SLO sampler
	// Serve starts. Zero means DefaultSLOSampleEvery; negative
	// disables the sampler (tests drive SampleSLO manually).
	SLOSampleEvery time.Duration
	// MaxResidentBytes, when positive, is the in-memory budget across
	// all segments: the background evictor drops the in-memory image
	// of idle journaled segments, least-recently-touched first, until
	// the estimated resident footprint fits the budget (± one
	// segment). Evicted segments fault back in from the journal on
	// the next touch, transparently to clients, replicas, and
	// proxies (DESIGN.md §12). Requires JournalDir.
	MaxResidentBytes int64
	// EvictIdleAge, when positive, evicts any journaled segment not
	// touched for this long even when the budget is not exceeded.
	// Requires JournalDir.
	EvictIdleAge time.Duration
	// EvictInterval is the cadence of the background eviction sweep
	// Serve starts when MaxResidentBytes or EvictIdleAge is set. Zero
	// means DefaultEvictInterval; negative disables the sweep (tests
	// and operators drive EvictPass manually).
	EvictInterval time.Duration
}

// Server is an InterWeave server managing an arbitrary number of
// segments.
//
// Concurrency model (DESIGN.md §8): segments live in a sharded
// registry and each carries its own mutex, so RPCs against different
// segments never contend. mu guards only server lifecycle state —
// the session set, the listener, the closed flag, and the cluster
// ring bookkeeping — and is ordered BEFORE any registry shard or
// segment lock (never acquire mu while holding either).
type Server struct {
	opts Options

	mu       sync.Mutex // lifecycle: conns, sessions, ln, closed, lastRing
	conns    map[*session.Conn]struct{}
	sessions map[*clientSession]struct{}
	// proxySessions counts the sessions created by ProxyHello; they are
	// excluded from MaxSessions admission (DESIGN.md §11 — one proxy
	// session replaces thousands of direct client sessions).
	proxySessions int
	// exemptSessions counts every admission-exempt session: proxy
	// sessions plus cluster-plane RPC sessions (gossip/replication
	// round trips on throwaway conns). Subtracted from the MaxSessions
	// admission count so infrastructure traffic neither consumes nor
	// is refused client capacity.
	exemptSessions int
	ln             net.Listener
	closed         bool

	// transport is the session transport's bounds: the three queue and
	// timeout Options with defaults applied.
	transport session.Config

	// reg is the sharded segment registry; each segState carries its
	// own mutex (see segState).
	reg segRegistry

	done chan struct{}
	wg   sync.WaitGroup

	ins    *serverInstruments
	tracer *obs.Tracer

	// Observability plane (health.go, OBSERVABILITY.md): construction
	// time for the uptime gauge, the flight recorder, the SLO tracker,
	// and the counter samples Health's windowed-rate reasons difference
	// against.
	start  time.Time
	flight *obs.FlightRecorder
	slo    *obs.SLOTracker

	healthMu      sync.Mutex
	healthSamples []healthSample

	// journal is the log-structured persistence store, nil unless
	// Options.JournalDir is set (DESIGN.md §9).
	journal *journal.Store

	cluster *cluster.Node
	cins    *clusterInstruments
	// lastRing is the placement before the latest epoch change, kept
	// to detect which locally held segments this node was just
	// promoted to own. Guarded by mu.
	lastRing *cluster.Ring
}

// segState couples a segment with its lock and subscription state.
//
// mu owns everything below it: the segment's data and version state
// (seg — note the pointer itself is swapped by demotion, migration
// snapshots, eviction and fault-in), the write-lock queue (writer,
// waiters), the subscription table (subs), and the at-most-once
// applied-writer table (applied). The short-critical-section
// discipline: diff decode, wire frame encode, socket
// writes (replies and notify fan-out), replication streaming, and
// journal base file I/O all happen OUTSIDE mu — only reads and
// mutations of the state above happen under it. Multi-segment
// operations acquire segState locks one at a time or in ascending
// segment-name order (DESIGN.md §8).
type segState struct {
	mu sync.Mutex
	// name is the segment's name, immutable after creation, so
	// lock-ordering code can sort segStates without taking mu.
	name    string
	seg     *Segment
	writer  *clientSession
	waiters []*waiter
	subs    Subscriptions[*clientSession]
	// applied records each writer's most recent release outcome, so a
	// release retried after a lost reply is answered from the record
	// instead of applied twice (at-most-once). Persisted in the
	// segment's journal base and records.
	applied map[string]appliedWrite

	// Commit pipeline (commit.go, DESIGN.md §10): releases applied but
	// whose durability fan-out has not yet run, plus the
	// single-flusher flag. flushDone (a condition on mu) is broadcast
	// whenever the flusher takes a batch or gives the role up.
	pending   []*pendingRelease
	flushing  bool
	flushDone *sync.Cond
	// gcFlushes/gcReleases are the segment's cumulative flush and
	// flushed-release counts (the per-segment view of the
	// server-wide iw_server_group_commits_total pair), surfaced by
	// /debug/segments.
	gcFlushes  uint64
	gcReleases uint64

	// Cold-segment eviction (evict.go, DESIGN.md §12). seg == nil
	// means the in-memory image has been evicted; evictedVer is the
	// version the journal's base captures (valid only while seg is
	// nil — the stub the eviction leaves behind is this field, the
	// in-memory applied table above, and the journal files on disk).
	// Every touch path calls ensureResident before reading seg.
	evictedVer uint32
	// lastTouch is the UnixNano of the segment's most recent touch,
	// stamped by ensureResident and read by the eviction sweep's LRU
	// ordering. Atomic so the sweep can read it without st.mu.
	lastTouch atomic.Int64
}

// appliedWrite is the recorded outcome of a write release.
type appliedWrite struct {
	seq     uint32
	version uint32
}

type waiter struct {
	sess *clientSession
	ch   chan struct{}
}

// New returns a server, restoring every segment journaled in
// opts.JournalDir.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:     opts,
		conns:    make(map[*session.Conn]struct{}),
		sessions: make(map[*clientSession]struct{}),
		done:     make(chan struct{}),
		tracer:   opts.Tracer,
		start:    time.Now(),
		flight:   opts.Flight,

		transport: session.Config{
			ConnQueue:    opts.ConnSendQueue,
			SessionQueue: opts.SessionSendQueue,
			WriteTimeout: opts.WriteTimeout,
			Logf:         opts.Logf,
		},
	}
	if s.transport.SessionQueue <= 0 {
		s.transport.SessionQueue = DefaultSessionSendQueue
	}
	if s.transport.ConnQueue <= 0 {
		s.transport.ConnQueue = DefaultConnSendQueue
	}
	if s.transport.WriteTimeout <= 0 {
		s.transport.WriteTimeout = DefaultWriteTimeout
	}
	s.reg.init()
	if opts.Metrics != nil {
		s.ins = newServerInstruments(opts.Metrics)
		opts.Metrics.RegisterCollector(s.collectServerGauges)
		s.slo = obs.NewSLOTracker(opts.Metrics, serverSLOObjectives(),
			opts.SLOShortWindow, opts.SLOLongWindow)
	}
	if (opts.MaxResidentBytes > 0 || opts.EvictIdleAge > 0) && opts.JournalDir == "" {
		// Refuse loudly rather than silently never evicting.
		return nil, errors.New("server: MaxResidentBytes/EvictIdleAge require JournalDir (cold segments reload from the journal)")
	}
	if opts.JournalDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	if opts.Cluster != nil {
		s.cluster = opts.Cluster
		s.lastRing = s.cluster.Ring()
		if opts.Metrics != nil {
			s.cins = newClusterInstruments(opts.Metrics)
		}
		s.cluster.OnEpochChange(s.onEpochChange)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// lockSeg acquires a segment's lock, counting acquisitions that had
// to block (iw_server_seg_lock_contention_total). The uncontended
// fast path is a single TryLock.
func (s *Server) lockSeg(st *segState) {
	if st.mu.TryLock() {
		return
	}
	if s.ins != nil {
		s.ins.segLockContention.Inc()
	}
	st.mu.Lock()
}

// lockSegsOrdered acquires every given segment lock in ascending
// segment-name order — the deterministic ordering rule that keeps
// concurrent multi-segment operations (transaction commits, epoch
// sweeps) deadlock-free (DESIGN.md §8). The input slice is not
// modified; duplicates are not allowed.
func (s *Server) lockSegsOrdered(sts []*segState) []*segState {
	ordered := make([]*segState, len(sts))
	copy(ordered, sts)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].name < ordered[j-1].name; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for _, st := range ordered {
		s.lockSeg(st)
	}
	return ordered
}

// unlockSegs releases locks taken by lockSegsOrdered, in reverse
// order.
func unlockSegs(ordered []*segState) {
	for i := len(ordered) - 1; i >= 0; i-- {
		ordered[i].mu.Unlock()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	if s.slo != nil && s.opts.SLOSampleEvery >= 0 {
		s.wg.Add(1)
		go s.sloSampleLoop()
	}
	if s.journal != nil && s.opts.EvictInterval >= 0 &&
		(s.opts.MaxResidentBytes > 0 || s.opts.EvictIdleAge > 0) {
		s.wg.Add(1)
		go s.evictLoop()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return net.ErrClosed
			default:
				return fmt.Errorf("server: accept: %w", err)
			}
		}
		sc := session.NewConn(conn, s, s.transport)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[sc] = struct{}{}
		if s.ins != nil {
			s.ins.conns.Set(int64(len(s.conns)))
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if s.flight != nil {
				// Post-mortem hook: a panic on this connection's read
				// loop dumps the flight recorder before killing the
				// process (obs.FlightRecorder.DumpOnPanic re-panics).
				defer s.flight.DumpOnPanic(os.Stderr, "server connection")
			}
			sc.Serve()
			s.mu.Lock()
			delete(s.conns, sc)
			if s.ins != nil {
				s.ins.conns.Set(int64(len(s.conns)))
			}
			s.mu.Unlock()
		}()
	}
}

// Addr returns the listener address, for clients started against
// ":0".
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close shuts the server down: stops accepting, closes every session,
// waits for handlers to finish, and compacts every journal.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	for sc := range s.conns {
		sc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
	if s.journal == nil {
		return nil
	}
	if err := s.CompactJournal(); err != nil {
		return err
	}
	return s.journal.Close()
}

// newSegState builds the state of a fresh, empty segment.
func (s *Server) newSegState(name string) *segState {
	return s.adoptSegState(NewSegment(name), make(map[string]appliedWrite))
}

// adoptSegState builds the state of a segment the server starts
// managing with the given image and at-most-once table — a fresh one,
// or one recovered from its journal. It is the only place
// a segState is constructed.
func (s *Server) adoptSegState(seg *Segment, applied map[string]appliedWrite) *segState {
	st := &segState{name: seg.Name, seg: seg, applied: applied}
	st.flushDone = sync.NewCond(&st.mu)
	st.lastTouch.Store(time.Now().UnixNano())
	return st
}

// getSeg returns the named segment state, creating it if requested.
// It takes only a registry shard lock, never a segment lock.
func (s *Server) getSeg(name string, create bool) (*segState, error) {
	if st, ok := s.reg.get(name); ok {
		return st, nil
	}
	if !create {
		return nil, fmt.Errorf("no segment %q", name)
	}
	st, _ := s.reg.getOrCreate(name, s.newSegState)
	return st, nil
}

func errReply(code uint16, format string, args ...any) *protocol.ErrorReply {
	return &protocol.ErrorReply{Code: code, Text: fmt.Sprintf(format, args...)}
}

// Handle times and dispatches one request, counting error replies
// (session.Host). When the server traces, the request gets a
// "server.<Kind>" span joined to the client's trace context (or
// rooting a fresh trace for clients that sent none); error replies
// mark the span errored. All span work is gated on the tracer, keeping
// the disabled path free of clock reads and allocations.
func (s *Server) Handle(ts *session.Session, msg protocol.Message, tc protocol.TraceContext) protocol.Message {
	sess := ts.Data.(*clientSession)
	if s.flight != nil && ts.SID() != 0 {
		// A non-zero session's request runs on its own goroutine, out
		// of reach of the connection's post-mortem hook.
		defer s.flight.DumpOnPanic(os.Stderr, "session request handler")
	}
	var sp *obs.Span
	if tr := s.tracer; tr != nil {
		sp = tr.Join(obs.SpanContext{TraceID: tc.TraceID, SpanID: tc.SpanID}, "server."+reqName(msg))
	}
	ins := s.ins
	var reply protocol.Message
	if ins == nil {
		reply = sess.dispatch(msg, sp)
	} else {
		start := time.Now()
		reply = sess.dispatch(msg, sp)
		ins.rpcSeconds(reqName(msg)).ObserveSince(start)
		if _, isErr := reply.(*protocol.ErrorReply); isErr {
			ins.rpcErrors(reqName(msg)).Inc()
		}
	}
	if sp != nil {
		if er, isErr := reply.(*protocol.ErrorReply); isErr {
			sp.Error(er)
		}
		sp.End()
	}
	return reply
}

// dispatch routes one request to its handler and returns the reply.
func (sess *clientSession) dispatch(msg protocol.Message, sp *obs.Span) protocol.Message {
	if red := sess.clusterRedirect(msg); red != nil {
		return red
	}
	switch m := msg.(type) {
	case *protocol.RingGet:
		return sess.handleRingGet(m)
	case *protocol.RingPush:
		return sess.handleRingPush(m)
	case *protocol.Replicate:
		return sess.handleReplicate(m)
	case *protocol.Pull:
		return sess.handlePull(m)
	case *protocol.Migrate:
		return sess.handleMigrate(m)
	}
	switch m := msg.(type) {
	case *protocol.Hello:
		sess.name, sess.profile = m.ClientName, m.Profile
		return &protocol.Ack{}
	case *protocol.ProxyHello:
		sess.name, sess.profile = m.Name, "proxy"
		sess.srv.markProxySession(sess)
		return &protocol.Ack{}
	case *protocol.OpenSegment:
		return sess.handleOpen(m)
	case *protocol.ReadLock:
		return sess.handleReadLock(m, sp)
	case *protocol.WriteLock:
		return sess.handleWriteLock(m, sp)
	case *protocol.ReadUnlock:
		return &protocol.Ack{}
	case *protocol.WriteUnlock:
		return sess.handleWriteUnlock(m, sp)
	case *protocol.Resume:
		return sess.handleResume(m)
	case *protocol.Subscribe:
		return sess.handleSubscribe(m)
	case *protocol.Unsubscribe:
		return sess.handleUnsubscribe(m)
	case *protocol.TxCommit:
		return sess.handleTxCommit(m, sp)
	default:
		return errReply(protocol.CodeBadRequest, "unexpected message %T", msg)
	}
}

func (sess *clientSession) handleOpen(m *protocol.OpenSegment) protocol.Message {
	s := sess.srv
	var st *segState
	created := false
	if m.Create {
		st, created = s.reg.getOrCreate(m.Name, s.newSegState)
	} else {
		var ok bool
		st, ok = s.reg.get(m.Name)
		if !ok {
			return errReply(protocol.CodeNoSegment, "no segment %q", m.Name)
		}
	}
	s.lockSeg(st)
	defer st.mu.Unlock()
	if err := s.ensureResident(st); err != nil {
		return errReply(protocol.CodeInternal, "%v", err)
	}
	return &protocol.OpenReply{
		Created: created,
		Version: st.seg.Version,
		Dir:     st.seg.Directory(),
	}
}

// freshnessReply builds the LockReply from the segment's subscription
// table (Stale, then Collect), instrumented. Called with st.mu held.
// The span, when non-nil, parents a "server.freshness" child (result
// attr: fresh/diff/error) and, when a diff is served, a
// "server.diff_collect" child.
func freshnessReply(st *segState, sess *clientSession, haveVer uint32, policy coherence.Policy, sp *obs.Span) protocol.Message {
	fsp := sp.Child("server.freshness")
	seg := st.seg
	ins := sess.srv.ins
	if !st.subs.Stale(seg, sess, haveVer, policy) {
		if ins != nil {
			ins.versionFresh.Inc()
		}
		fsp.Attr("result", "fresh")
		fsp.End()
		return &protocol.LockReply{Fresh: true}
	}
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	csp := fsp.Child("server.diff_collect")
	d, err := st.subs.Collect(seg, sess, haveVer)
	if err != nil {
		if csp != nil {
			csp.Error(err)
			csp.End()
			fsp.Attr("result", "error")
			fsp.End()
		}
		return errReply(protocol.CodeInternal, "collecting diff: %v", err)
	}
	csp.End()
	if d == nil {
		if ins != nil {
			ins.versionFresh.Inc()
		}
		fsp.Attr("result", "fresh")
		fsp.End()
		return &protocol.LockReply{Fresh: true}
	}
	if fsp != nil {
		fsp.Attr("result", "diff")
		fsp.AttrInt("bytes", int64(d.DataBytes()))
		fsp.End()
	}
	if ins != nil {
		ins.collectSec.ObserveSince(start)
		ins.versionDiff.Inc()
		ins.diffSize.Observe(float64(d.DataBytes()))
		ins.diffBytes.Add(uint64(d.DataBytes()))
		ins.unitsSent.Add(uint64(d.Units()))
		ins.unitsFull.Add(uint64(seg.TotalUnits()))
	}
	return &protocol.LockReply{Diff: d}
}

func (sess *clientSession) handleReadLock(m *protocol.ReadLock, sp *obs.Span) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	s.lockSeg(st)
	defer st.mu.Unlock()
	if err := s.ensureResident(st); err != nil {
		return errReply(protocol.CodeInternal, "%v", err)
	}
	reply := freshnessReply(st, sess, m.HaveVersion, m.Policy, sp)
	if lr, ok := reply.(*protocol.LockReply); ok && lr.Fresh {
		st.subs.Rearm(sess)
	}
	return reply
}

func (sess *clientSession) handleWriteLock(m *protocol.WriteLock, sp *obs.Span) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	sess.touch(st)
	s.lockSeg(st)
	if st.writer == sess {
		st.mu.Unlock()
		return errReply(protocol.CodeLockState, "write lock already held")
	}
	var queuedAt time.Time
	if s.ins != nil {
		queuedAt = time.Now()
	}
	if fail := sess.acquireWriter(st, sp); fail != nil {
		return fail
	}
	if s.ins != nil {
		s.ins.lockWait.ObserveSince(queuedAt)
	}
	// Ownership may have moved while we were queued (a migration runs
	// under this same write-lock barrier): re-check before granting,
	// or the client would commit against a stale owner.
	if red := s.redirectFor(m.Seg); red != nil {
		releaseWriter(st, sess)
		st.mu.Unlock()
		return red
	}
	if err := s.ensureResident(st); err != nil {
		releaseWriter(st, sess)
		st.mu.Unlock()
		return errReply(protocol.CodeInternal, "%v", err)
	}
	// A writer always works against the current version.
	reply := freshnessReply(st, sess, m.HaveVersion, coherence.Full(), sp)
	if _, isErr := reply.(*protocol.ErrorReply); isErr {
		releaseWriter(st, sess)
	}
	st.mu.Unlock()
	return reply
}

// acquireWriter queues sess for st's write lock behind the current
// writer and the earlier waiters and makes it the writer — the one
// acquisition WriteLock and Migrate's barrier share. Called with st.mu
// held; it returns with st.mu held and the lock granted, or with st.mu
// released and the error reply the request owes: the session went
// away, or the server is shutting down. The wait, when there is one,
// is a "server.queue_wait" child of sp.
func (sess *clientSession) acquireWriter(st *segState, sp *obs.Span) *protocol.ErrorReply {
	s := sess.srv
	// The queue-wait span exists only when the lock was actually
	// contended, so uncontended grants stay span-free.
	var qsp *obs.Span
	if st.writer != nil {
		qsp = sp.Child("server.queue_wait")
	}
	for st.writer != nil {
		if sess.Gone() {
			st.mu.Unlock()
			qsp.End()
			return errSessionClosed()
		}
		w := &waiter{sess: sess, ch: make(chan struct{})}
		st.waiters = append(st.waiters, w)
		st.mu.Unlock()
		select {
		case <-w.ch:
		case <-s.done:
			qsp.End()
			return errReply(protocol.CodeInternal, "server shutting down")
		}
		s.lockSeg(st)
		if st.writer == sess {
			break // the releaser handed the lock directly to us
		}
		// Our wait was cancelled (session teardown raced); try again.
	}
	qsp.End()
	st.writer = sess
	if sess.Gone() {
		// Teardown raced the grant: give the lock straight back.
		releaseWriter(st, sess)
		st.mu.Unlock()
		return errSessionClosed()
	}
	return nil
}

// releaseWriter releases sess's write lock, handing it directly to
// the first queued waiter. The direct handoff makes the queue truly
// FIFO: the lock never appears free while waiters exist, so a late
// arrival cannot barge in front of them. Called with st.mu held.
func releaseWriter(st *segState, sess *clientSession) {
	if st.writer != sess {
		return
	}
	if len(st.waiters) > 0 {
		next := st.waiters[0]
		st.waiters = st.waiters[1:]
		st.writer = next.sess
		close(next.ch)
		return
	}
	st.writer = nil
}

func (sess *clientSession) handleWriteUnlock(m *protocol.WriteUnlock, sp *obs.Span) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	s.lockSeg(st)
	if m.WriterID != "" {
		if ap, ok := st.applied[m.WriterID]; ok && ap.seq == m.Seq {
			// A retry of a release whose reply was lost: the diff is
			// already in, so answer from the record without touching
			// the segment. The retry arrives on a fresh session, which
			// may meanwhile have reacquired the lock — release it.
			releaseWriter(st, sess)
			st.mu.Unlock()
			return &protocol.VersionReply{Version: ap.version}
		}
	}
	// Backpressure: a full pending batch makes the release wait (before
	// applying) until the flusher takes a batch. The condition wait
	// releases the mutex, so checkPart checks the write lock after it —
	// a session teardown may have stripped it meanwhile.
	for st.writer == sess && len(st.pending) >= maxPendingReleases {
		st.flushDone.Wait()
	}
	descs, fail := sess.checkPart(st, m)
	if fail != nil {
		releaseWriter(st, sess)
		st.mu.Unlock()
		return fail
	}
	version, pr, lead := sess.commitPart(st, m, descs, sp)
	st.mu.Unlock()
	if lead {
		s.flush(st)
	}
	if pr != nil {
		if fail := pr.wait(); fail != nil {
			return fail
		}
	}
	return &protocol.VersionReply{Version: version}
}

// handleResume answers a client probing the fate of a write release
// it sent on a connection that died: whether (WriterID, Seq) was
// applied, at which version, and where the segment stands now.
func (sess *clientSession) handleResume(m *protocol.Resume) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	s.lockSeg(st)
	defer st.mu.Unlock()
	// A resume probe is answered from the stub without faulting the
	// segment in: the current version and the applied-writer table
	// both survive eviction in memory.
	rr := &protocol.ResumeReply{CurrentVersion: st.residentVersionLocked()}
	if ap, ok := st.applied[m.WriterID]; ok && ap.seq == m.Seq {
		rr.Applied = true
		rr.AppliedVersion = ap.version
	}
	return rr
}

func (sess *clientSession) handleSubscribe(m *protocol.Subscribe) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	if err := m.Policy.Validate(); err != nil {
		return errReply(protocol.CodeBadRequest, "%v", err)
	}
	sess.touch(st)
	s.lockSeg(st)
	if sess.Gone() {
		st.mu.Unlock()
		return errSessionClosed()
	}
	// An evicted stub registers the subscription without reloading —
	// unless the subscriber is behind it, when judging what it is owed
	// takes the image.
	if m.HaveVersion != st.residentVersionLocked() {
		if err := s.ensureResident(st); err != nil {
			st.mu.Unlock()
			return errReply(protocol.CodeInternal, "%v", err)
		}
	}
	owed, err := st.subs.Subscribe(st.seg, sess, m.Policy, m.HaveVersion, sess.proxy.Load())
	st.mu.Unlock()
	if err != nil {
		return errReply(protocol.CodeInternal, "collecting catch-up diff: %v", err)
	}
	if owed != nil {
		// Ahead of the Ack, outside the segment lock: it never blocks,
		// but shedding a slow consumer sweeps its segments.
		sess.Notify(owed)
	}
	return &protocol.Ack{}
}

func (sess *clientSession) handleUnsubscribe(m *protocol.Unsubscribe) protocol.Message {
	s := sess.srv
	st, err := s.getSeg(m.Seg, false)
	if err != nil {
		return errReply(protocol.CodeNoSegment, "%v", err)
	}
	s.lockSeg(st)
	defer st.mu.Unlock()
	st.subs.Unsubscribe(sess)
	return &protocol.Ack{}
}

// UnitsModifiedSince counts units in subblocks newer than ver — the
// exact form of the diff-coherence bookkeeping, used when no
// subscription counter is available.
func (s *Segment) UnitsModifiedSince(ver uint32) int {
	if ver >= s.Version {
		return 0
	}
	n := 0
	for e := s.head.next; e != s.tail; e = e.next {
		b := e.blk
		if b == nil || b.version <= ver {
			continue
		}
		units := b.Units()
		for sb, sv := range b.subVer {
			if sv <= ver {
				continue
			}
			u0 := sb * SubblockUnits
			u1 := u0 + SubblockUnits
			if u1 > units {
				u1 = units
			}
			n += u1 - u0
		}
	}
	return n
}

// SegmentSnapshot exposes a segment for tools and tests. It returns
// nil when the segment does not exist. Taking the segment lock
// establishes a happens-before edge with every mutation that
// completed before the call; the caller must not race the returned
// segment against concurrent writers.
func (s *Server) SegmentSnapshot(name string) *Segment {
	st, ok := s.reg.get(name)
	if !ok {
		return nil
	}
	st.mu.Lock()
	if err := s.ensureResident(st); err != nil {
		s.logf("snapshot %s: fault-in: %v", name, err)
		st.mu.Unlock()
		return nil
	}
	seg := st.seg
	st.mu.Unlock()
	return seg
}

// CreateSegment pre-creates a segment (tools, tests, restore).
func (s *Server) CreateSegment(name string) (*Segment, error) {
	st, created := s.reg.getOrCreate(name, s.newSegState)
	if !created {
		return nil, fmt.Errorf("server: segment %q exists", name)
	}
	return st.seg, nil
}

// SegmentNames lists the segments the server manages.
func (s *Server) SegmentNames() []string {
	return s.reg.names()
}

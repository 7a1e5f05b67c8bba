package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"interweave/internal/arch"
	"interweave/internal/coherence"
	"interweave/internal/core"
	"interweave/internal/diff"
	"interweave/internal/obs"
	"interweave/internal/protocol"
	"interweave/internal/proxy"
	"interweave/internal/server"
	"interweave/internal/types"
)

// segHost is the host part of every benchmark segment name. Clients
// reach the servers through a dialer, not through the name, so a
// segment keeps its name across a server restart on another port and
// a client can be aimed at the origin or at a proxy.
const segHost = "iwbench"

func segName(path string) string { return segHost + "/" + path }

// dialer routes every connection to one address, whatever host the
// segment name carries.
type dialer struct {
	mu   sync.Mutex
	addr string
}

func (d *dialer) set(addr string) {
	d.mu.Lock()
	d.addr = addr
	d.mu.Unlock()
}

func (d *dialer) get() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addr
}

func (d *dialer) dial(string) (net.Conn, error) {
	return net.DialTimeout("tcp", d.get(), 5*time.Second)
}

// tier is the set of in-process nodes a workload runs against, on real
// loopback TCP: one origin server and, for proxy_read (and for the
// traced run's proxy probe), one read fan-out proxy.
type tier struct {
	srv    *server.Server
	srvReg *obs.Registry // non-nil in traced runs only
	origin dialer

	px    *proxy.Proxy
	pxReg *obs.Registry
	proxy dialer
}

// rpcTimeout bounds every benchmark RPC; an operation that hits it is
// a failed op, not a hang.
const rpcTimeout = 10 * time.Second

// proxyLag is proxy_read's staleness bound in versions.
const proxyLag = 8

func (t *tier) startServer(opts server.Options, traced bool) error {
	if traced {
		t.srvReg = obs.NewRegistry()
		opts.Metrics = t.srvReg
		opts.SLOSampleEvery = -1
	}
	srv, err := server.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	t.srv = srv
	t.origin.set(ln.Addr().String())
	return nil
}

func (t *tier) startProxy(traced bool) error {
	if traced {
		t.pxReg = obs.NewRegistry()
	}
	px, err := proxy.New(proxy.Options{
		Upstream:      t.origin.get(),
		Name:          "iwbench-proxy",
		MaxVersionLag: proxyLag,
		SyncEvery:     250 * time.Millisecond,
		RPCTimeout:    rpcTimeout,
		Metrics:       t.pxReg,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = px.Serve(ln) }()
	t.px = px
	t.proxy.set(ln.Addr().String())
	return nil
}

func (t *tier) close() error {
	var first error
	if t.px != nil {
		first = t.px.Close()
		t.px = nil
	}
	if t.srv != nil {
		if err := t.srv.Close(); err != nil && first == nil {
			first = err
		}
		t.srv = nil
	}
	return first
}

// client returns a core client of the given architecture reaching the
// tier through d.
func newClient(name string, prof *arch.Profile, d *dialer) (*core.Client, error) {
	return core.NewClient(core.Options{Name: name, Profile: prof, Dial: d.dial, RPCTimeout: rpcTimeout})
}

// createSegment creates a segment of the given shape through c, leaves
// it committed at version 1, and returns the handle and the writer's
// image of it. Mix segments are filled by bulk round 0.
func createSegment(c *core.Client, name string, sh shape) (*core.Segment, *image, mixSum, error) {
	var sum mixSum
	h, err := c.Open(name)
	if err != nil {
		return nil, nil, sum, err
	}
	if err := c.WLock(h); err != nil {
		return nil, nil, sum, err
	}
	alloc := func(t *types.Type, n int, block string) error {
		_, err := c.Alloc(h, t, n, block)
		return err
	}
	if sh.records > 0 {
		err = errors.Join(alloc(mixType, sh.records, blockData), alloc(types.Int32(), sh.records+1, blockTargets))
	} else {
		err = alloc(types.Int32(), sh.words, blockData)
	}
	var im *image
	if err == nil {
		im, err = imageOf(h.Mem())
	}
	if err == nil && sh.records > 0 {
		sum, _, err = im.writeBulk(0)
	}
	if err != nil {
		_ = c.WUnlock(h)
		return nil, nil, sum, err
	}
	return h, im, sum, c.WUnlock(h)
}

// probe issues raw MuxSession round trips against a small segment of
// its own, beside the workload's traffic, in traced runs: a ReadLock
// and a commit at the origin, and a ReadLock through the proxy. They
// are the per-layer server.* and proxy.* times; the workload's own
// operations stay untouched.
type probe struct {
	tr   *tracer
	name string
	ls   *localSeg
	im   *image

	originConn, proxyConn *core.MuxConn
	origin, viaProxy      *core.MuxSession
	version               uint32 // last committed
	proxyHave             uint32
	n                     atomic.Int64 // probe rounds done

	staleness []float64
	stop      chan struct{}
	done      chan struct{}
	err       error
}

const probeWords = 1024

func startProbe(tr *tracer, t *tier) (*probe, error) {
	p := &probe{tr: tr, name: segName("probe"), stop: make(chan struct{}), done: make(chan struct{})}
	var err error
	if p.ls, p.im, err = (shape{words: probeWords}).build(arch.AMD64(), p.name); err != nil {
		return nil, err
	}
	if p.originConn, err = core.DialMux("", core.MuxOptions{Dial: t.origin.dial, RPCTimeout: rpcTimeout}); err != nil {
		return nil, err
	}
	if p.proxyConn, err = core.DialMux("", core.MuxOptions{Dial: t.proxy.dial, RPCTimeout: rpcTimeout}); err != nil {
		return nil, err
	}
	if p.origin, err = p.originConn.NewSession("probe-origin", arch.AMD64().Name); err != nil {
		return nil, err
	}
	if p.viaProxy, err = p.proxyConn.NewSession("probe-proxy", arch.Sparc().Name); err != nil {
		return nil, err
	}
	if _, err = p.origin.Call(&protocol.OpenSegment{Name: p.name, Create: true}); err != nil {
		return nil, err
	}
	if err = p.commit(0); err != nil {
		return nil, err
	}
	go p.loop()
	return p, nil
}

// commit releases the local segment's pending changes at the origin
// with raw WriteLock/WriteUnlock calls.
func (p *probe) commit(parent int32) error {
	d, err := p.ls.collect(diff.CollectOptions{})
	if err != nil {
		return err
	}
	p.ls.seg.DropTwins()
	if _, err := p.origin.Call(&protocol.WriteLock{Seg: p.name, HaveVersion: p.version, Policy: coherence.Full()}); err != nil {
		return err
	}
	n := p.n.Load()
	id := p.tr.begin("server.commit_rpc", parent, n)
	reply, err := p.origin.Call(&protocol.WriteUnlock{Seg: p.name, Diff: d, WriterID: "probe", Seq: uint32(n + 1)})
	p.tr.end(id)
	if err != nil {
		return err
	}
	vr, ok := reply.(*protocol.VersionReply)
	if !ok || vr.Version != p.version+1 {
		return fmt.Errorf("probe commit: reply %#v after version %d", reply, p.version)
	}
	p.version = vr.Version
	return nil
}

func (p *probe) loop() {
	defer close(p.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		if p.err = p.once(); p.err != nil {
			return
		}
	}
}

func (p *probe) once() error {
	n := p.n.Add(1)
	root := p.tr.begin("probe", 0, n)
	defer p.tr.end(root)

	// Origin read of a current copy: the bare session round trip.
	id := p.tr.begin("server.readlock_rpc", root, n)
	reply, err := p.origin.Call(&protocol.ReadLock{Seg: p.name, HaveVersion: p.version, Policy: coherence.Full()})
	p.tr.end(id)
	if err != nil {
		return err
	}
	if lr, ok := reply.(*protocol.LockReply); !ok || !lr.Fresh {
		return fmt.Errorf("probe read at version %d: reply %#v", p.version, reply)
	}
	if _, err := p.origin.Call(&protocol.ReadUnlock{Seg: p.name}); err != nil {
		return err
	}

	// Commit eight changed words.
	p.ls.seg.WriteProtect()
	if err := p.im.writeWords(wordPositions(uint64(n), 8, probeWords), int32(n)); err != nil {
		return err
	}
	if err := p.commit(root); err != nil {
		return err
	}

	// Read through the proxy, which learns of the commit by Notify.
	id = p.tr.begin("proxy.read_rpc", root, n)
	reply, err = p.viaProxy.Call(&protocol.ReadLock{Seg: p.name, HaveVersion: p.proxyHave, Policy: coherence.Full()})
	p.tr.end(id)
	if err != nil {
		return err
	}
	if lr, ok := reply.(*protocol.LockReply); ok && lr.Diff != nil {
		if lr.Diff.Version < p.proxyHave {
			return fmt.Errorf("probe proxy read went back from version %d to %d", p.proxyHave, lr.Diff.Version)
		}
		p.proxyHave = lr.Diff.Version
	}
	p.staleness = append(p.staleness, float64(p.version-p.proxyHave))
	_, err = p.viaProxy.Call(&protocol.ReadUnlock{Seg: p.name})
	return err
}

func (p *probe) close() error {
	close(p.stop)
	<-p.done
	_ = p.originConn.Close()
	_ = p.proxyConn.Close()
	return p.err
}

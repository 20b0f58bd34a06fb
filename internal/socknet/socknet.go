// Package socknet is the socket backend: the population split over
// cooperating OS processes that talk over real TCP, so the identical
// protocol code that runs on the deterministic simulator and the
// in-process realtime loopback runs across process boundaries. It
// registers itself as the "socket" backend.
//
// A process's Transport is an internal/simnet Network plus a wire. The
// network is one member of a group sharing an id space (InGroup):
// process g of N mints NodeIDs g, g+N, g+2N, …, so an id names its
// owner, and every Join and Fail is mirrored to the others as a frame,
// so placement and aliveness are readable everywhere, a round trip
// stale at most. Latency, loss, accounting, the delivery and RPC
// records and every same-process leg are simnet's; a leg toward another
// process's node runs those records up to the handler, where the wire
// takes over: encode, group-commit write, the peer's read loop, decode,
// and into the owner's records (Deliver, Serve, Resolve). Modeled
// latency is spent on the sender's clock, TCP adds its real cost on
// top; the owner drops a message to a dead node, and timeouts are
// decided on the requester's clock.
//
// Topology of a run: each process hosts its slice of the population
// behind one TCP listener. The full index-ordered address list is
// configuration every process starts with; at startup the group forms
// a full mesh (process g dials every lower-indexed process, accepts
// from every higher-indexed one) and exchanges preambles before any
// protocol traffic flows. A connection that breaks takes its process's
// nodes with it: they are marked dead for good.
//
// Scheduling runs on the shared internal/wallclock run loop, one
// goroutine per process, so protocol code stays lock-free. Like the
// realtime backend, runs are NOT reproducible; unlike it, messages
// genuinely serialize — batched, length-prefixed frames whose payloads
// go through a runtime.Codec ("binary", the hand-rolled one, by
// default; "gob" for compatibility) — which is the honest price of
// crossing a process boundary (WireStats reports it).
//
// Batching is group commit, with no timer on either side. A
// connection's writer goroutine writes as soon as it is woken and, while
// that write is in flight, the run loop keeps appending: whatever has
// gathered goes out in the next write, so an idle connection sends a
// frame at once and a busy one coalesces by itself. The read side is the
// same shape: readers append the deliverable frames of each batch they
// read to one inbound queue, and one run-loop callback takes whatever
// has gathered and delivers it in arrival order — wire order per
// connection.
package socknet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simnet"
	"flowercdn/internal/topology"
	"flowercdn/internal/wallclock"
)

func init() {
	runtime.RegisterBackend("socket", func(cfg runtime.BackendConfig) (runtime.Runtime, error) {
		if cfg.Socket == nil {
			return nil, errors.New(`socknet: backend "socket" needs BackendConfig.Socket (listen address, peer list, group index)`)
		}
		tr, err := Dial(Config{
			Socket:   *cfg.Socket,
			Topo:     cfg.Topo,
			LossRate: cfg.LossRate,
			LossRNG:  cfg.LossRNG,
		})
		if err != nil {
			return nil, err
		}
		// The clock is created only once the mesh is up, so every
		// process's time zero — and therefore its horizon — aligns to
		// within a round trip rather than to process spawn skew.
		clock := wallclock.NewClock()
		tr.Bind(clock)
		return &Runtime{clock: clock, net: tr}, nil
	})
}

// Runtime implements runtime.Runtime over the wall-clock run loop and
// the TCP transport. It additionally implements io.Closer; the harness
// closes it when the run ends, which tears down the listener, the mesh
// connections and the reader goroutines.
type Runtime struct {
	clock *wallclock.Clock
	net   *Transport
}

// Clock returns the wall clock pacing this process.
func (r *Runtime) Clock() runtime.Clock { return r.clock }

// Net returns the TCP transport.
func (r *Runtime) Net() runtime.Transport { return r.net }

// Run drives the loop until the wall clock passes `until` (ms).
func (r *Runtime) Run(until int64) uint64 { return r.clock.Run(until) }

// Close shuts the transport down.
func (r *Runtime) Close() error { return r.net.Close() }

// Config assembles a Transport.
type Config struct {
	// Socket names the process group (listen address, index-ordered
	// peer list, this process's index).
	Socket runtime.SocketConfig
	// Topo is the latency/locality model deliveries sample from. Every
	// process must build the identical topology (same seed), since
	// latency between two placements is computed wherever the send
	// happens.
	Topo *topology.Topology
	// LossRate drops each one-way transmission with this probability;
	// LossRNG draws the decisions (required when LossRate > 0). Loss is
	// sampled independently per process.
	LossRate float64
	LossRNG  *rnd.RNG
	// ReadyTimeout bounds mesh formation: how long Dial waits for every
	// group to be connected (default 30 s — CI process spawns included).
	ReadyTimeout time.Duration
}

// batchBytes caps the bytes of one batch on the wire, which is what
// a reader buffers before it dispatches the batch's first frame. It is
// not a flush threshold: the write side holds nothing back — frames
// coalesce only while an earlier write is in flight — and one write may
// carry several batches.
const batchBytes = 64 << 10

// maxPendBytes bounds the bytes queued toward one peer; a peer that
// far behind is as good as dead (the batching-era analogue of the old
// outbox-capacity cutoff).
const maxPendBytes = 32 << 20

// conn is one mesh connection. Writes coalesce by group commit: the run
// loop appends encoded frames to pend and moves on; a dedicated writer
// goroutine, woken by the first frame, takes whatever has gathered and
// writes it with one syscall, and what arrives during that write waits
// for the next. A stalled peer therefore never blocks the run loop; one
// that falls maxPendBytes behind (or cannot take one write within
// writeDeadline) is treated as gone.
type conn struct {
	c net.Conn

	mu          sync.Mutex
	pend        []byte // batches under assembly: sealed ones, then the open one
	open        int    // where the open batch's length placeholder sits in pend
	spare       []byte // previous pend buffer, recycled by the writer
	pendBatches int    // sealed batches in pend
	pendFrames  int
	pendMsgs    int    // message-bearing frames pending (drop accounting)
	dead        bool   // connBroken has run: pend takes no more frames
	scratch     []byte // writeFrame's encode buffer

	kick     chan struct{} // cap 1: pend went from empty to not
	stop     chan struct{}
	stopOnce sync.Once
}

// take recycles written, the buffer the writer has just written, if it
// is not nil; then it closes the open batch and swaps pend out for
// writing (no frames if empty).
func (cn *conn) take(written []byte) (out []byte, frames, batches int) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if written != nil && cn.spare == nil {
		cn.spare = written[:batchHeader]
	}
	if cn.pendFrames == 0 {
		return nil, 0, 0
	}
	finishBatch(cn.pend[cn.open:])
	out, frames, batches = cn.pend, cn.pendFrames, cn.pendBatches+1
	if cn.spare == nil {
		cn.spare = make([]byte, batchHeader, batchBytes+batchHeader)
	}
	cn.pend = cn.spare[:batchHeader]
	cn.spare = nil
	cn.open, cn.pendBatches, cn.pendFrames, cn.pendMsgs = 0, 0, 0, 0
	return out, frames, batches
}

// shutdown terminates the writer and closes the socket (idempotent).
func (cn *conn) shutdown() {
	cn.stopOnce.Do(func() { close(cn.stop) })
	cn.c.Close()
}

// writeDeadline bounds one write; a peer stalled longer than this is
// treated as gone.
const writeDeadline = 10 * time.Second

// Transport implements runtime.Transport (and runtime.Bus) over the
// mesh: the embedded simnet.Network is the node table, the latency and
// loss model and the delivery and RPC records; the rest is the wire.
// Handlers and callbacks only ever run on the wall-clock goroutine.
//
// Three kinds of lock, each taken at most once per leg:
//   - the network's guards its own bookkeeping;
//   - mu guards the wire's: the counters the reader and writer
//     goroutines keep, the inbound queue, the subscribers, and mesh
//     formation and shutdown;
//   - each conn's mu guards its pending batches.
//
// conns is atomic, so writeFrame, once per outbound frame, takes only
// its conn's lock, and a drain takes mu once per batch of frames. No
// lock is held while a handler runs, the network's is never held with
// either of the others, and a conn's is taken under mu only by
// connBroken.
var _ runtime.Transport = (*Transport)(nil)
var _ runtime.Bus = (*Transport)(nil)

type Transport struct {
	*simnet.Network

	group  int
	groups int

	codec runtime.Codec

	mu          sync.Mutex
	clock       runtime.Clock // set once, by Bind; readers schedule drains on it
	wire        WireStats
	dropped     uint64 // messages whose frame died with its connection
	subs        []func(msg any)
	conns       []atomic.Pointer[conn] // indexed by group; nil = self or down
	handshakes  map[net.Conn]struct{}  // accepted conns still reading hello
	missing     int                    // groups not yet connected
	readyCh     chan struct{}
	readyClosed bool
	handErr     error // first handshake error, surfaced by Dial
	closed      bool

	// inbound is the read side's group commit: the deliverable frames
	// the readers have decoded and the run loop has not taken yet, in
	// arrival order (before Bind they wait here for the clock). draining
	// says a drain is scheduled and has not swapped inbound out yet.
	inbound  []frame
	draining bool
	// drained is the slice the last drain emptied; only drains, on the
	// run loop, touch it.
	drained []frame
	drainFn func() // t.drain, bound once

	lis net.Listener
	wg  sync.WaitGroup
}

// Dial listens on the configured address, forms the full mesh with
// every other group (dialing lower indexes, accepting higher ones) and
// returns once all connections are up. The returned Transport has no
// clock yet; Bind one before traffic flows (the backend factory does).
func Dial(cfg Config) (*Transport, error) {
	if err := cfg.Socket.Validate(); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", cfg.Socket.Listen)
	if err != nil {
		return nil, fmt.Errorf("socknet: listen %s: %w", cfg.Socket.Listen, err)
	}
	return DialListener(cfg, lis)
}

// DialListener is Dial over a pre-opened listener — tests use it to
// bind ephemeral ports before the peer list is assembled.
func DialListener(cfg Config, lis net.Listener) (*Transport, error) {
	if err := cfg.Socket.Validate(); err != nil {
		lis.Close()
		return nil, err
	}
	if cfg.Topo == nil {
		lis.Close()
		return nil, errors.New("socknet: config needs a topology")
	}
	if cfg.LossRate > 0 && cfg.LossRNG == nil {
		lis.Close()
		return nil, errors.New("socknet: loss rate needs an RNG")
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	codec, err := runtime.NewCodec(cfg.Socket.Codec)
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("socknet: %w", err)
	}
	groups := cfg.Socket.Groups()
	t := &Transport{
		Network:    simnet.New(nil, cfg.Topo),
		group:      cfg.Socket.Group,
		groups:     groups,
		codec:      codec,
		conns:      make([]atomic.Pointer[conn], groups),
		handshakes: make(map[net.Conn]struct{}),
		missing:    groups - 1,
		readyCh:    make(chan struct{}),
		lis:        lis,
	}
	t.InGroup(t.group, groups, leg{t})
	if cfg.LossRate > 0 {
		t.SetLossRate(cfg.LossRate, cfg.LossRNG)
	}
	t.drainFn = t.drain
	if t.missing == 0 {
		t.readyClosed = true
		close(t.readyCh)
	} else {
		t.wg.Add(1)
		go t.acceptLoop()
		for h := 0; h < t.group; h++ {
			h := h
			t.wg.Add(1)
			go t.dialPeer(h, cfg.Socket.Peers[h], cfg.ReadyTimeout)
		}
	}
	if err := t.waitReady(cfg.ReadyTimeout); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// waitReady blocks until the mesh is complete or the timeout expires.
func (t *Transport) waitReady(d time.Duration) error {
	expired := false
	select {
	case <-t.readyCh:
	case <-time.After(d):
		expired = true
	}
	t.mu.Lock()
	missing, err := t.missing, t.handErr
	t.mu.Unlock()
	switch {
	case err != nil:
		return fmt.Errorf("socknet: group %d mesh formation failed: %w", t.group, err)
	case expired:
		return fmt.Errorf("socknet: group %d timed out with %d group(s) unconnected after %v", t.group, missing, d)
	}
	return nil
}

// Bind attaches the run-loop clock and hands it any deliverable frames
// that raced mesh formation. Must be called exactly once, before the
// run starts.
func (t *Transport) Bind(clock runtime.Clock) {
	t.Network.Bind(clock)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	if len(t.inbound) > 0 {
		t.draining = true
		clock.Schedule(0, t.drainFn).Release()
	}
}

// owner maps a NodeID to the group that hosts it.
func (t *Transport) owner(id runtime.NodeID) int { return int(id) % t.groups }

// ---- mesh formation ----

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.lis.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handshakeAccepted(c)
	}
}

// exchangePreambles writes our preamble and reads the peer's, both
// under deadlines. Writing first on both sides cannot deadlock: a
// preamble is far smaller than any socket buffer.
func (t *Transport) exchangePreambles(c net.Conn) (preamble, error) {
	c.SetDeadline(time.Now().Add(writeDeadline))
	defer c.SetDeadline(time.Time{})
	if _, err := c.Write(appendPreamble(nil, t.codec.Name(), t.group, t.groups)); err != nil {
		return preamble{}, fmt.Errorf("socknet: write preamble: %w", err)
	}
	return readPreamble(c)
}

// handshakeAccepted exchanges preambles with a dialer and registers
// the connection. The conn is tracked while the (deadline-bounded)
// exchange is in flight so Close can cut it short instead of waiting
// it out.
func (t *Transport) handshakeAccepted(c net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.handshakes[c] = struct{}{}
	t.mu.Unlock()
	p, err := t.exchangePreambles(c)
	t.mu.Lock()
	delete(t.handshakes, c)
	t.mu.Unlock()
	if err == nil {
		err = t.checkPreamble(p, -1)
	}
	if err != nil {
		// A definitive disagreement fails the whole mesh with its cause;
		// a garbled or abandoned connection (port scanner, dying peer)
		// just goes away — the dialer retries.
		var he *handshakeError
		if errors.As(err, &he) {
			t.failHandshake(fmt.Errorf("hello from %s: %w", c.RemoteAddr(), err))
		}
		c.Close()
		return
	}
	t.register(p.group, c)
}

// dialPeer connects to a lower-indexed group, retrying while the
// peer's listener comes up. A preamble mismatch is fatal immediately —
// redialing an incompatible peer cannot succeed.
func (t *Transport) dialPeer(group int, addr string, timeout time.Duration) {
	defer t.wg.Done()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		if t.isClosed() {
			return
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			var p preamble
			if p, err = t.exchangePreambles(c); err == nil {
				err = t.checkPreamble(p, group)
			}
			if err == nil {
				t.register(group, c)
				return
			}
			c.Close()
			var he *handshakeError
			if errors.As(err, &he) {
				t.failHandshake(fmt.Errorf("dial group %d (%s): %w", group, addr, err))
				return
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			t.failHandshake(fmt.Errorf("dial group %d (%s): %v", group, addr, lastErr))
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// register installs a completed connection and starts its reader and
// writer.
func (t *Transport) register(group int, c net.Conn) {
	t.mu.Lock()
	if t.closed || t.conns[group].Load() != nil {
		t.mu.Unlock()
		c.Close()
		return
	}
	cn := &conn{
		c:     c,
		pend:  make([]byte, batchHeader, batchBytes+batchHeader),
		spare: make([]byte, batchHeader, batchBytes+batchHeader),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	t.conns[group].Store(cn)
	t.missing--
	if t.missing == 0 && !t.readyClosed {
		t.readyClosed = true
		close(t.readyCh)
	}
	t.mu.Unlock()
	t.wg.Add(2)
	go t.readLoop(group, cn)
	go t.writeLoop(group, cn)
}

// writeLoop is one connection's writer: it writes whatever has
// gathered in pend, and only when there is nothing sleeps until the run
// loop's next frame kicks it. Runs until the connection breaks or the
// transport shuts it down.
func (t *Transport) writeLoop(group int, cn *conn) {
	defer t.wg.Done()
	var written []byte
	for {
		out, frames, batches := cn.take(written)
		written = out
		if frames == 0 {
			select {
			case <-cn.stop:
				return
			case <-cn.kick:
				continue
			}
		}
		cn.c.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := cn.c.Write(out); err != nil {
			t.connBroken(group)
			return
		}
		t.mu.Lock()
		t.wire.BatchesSent += uint64(batches)
		t.wire.FramesSent += uint64(frames)
		t.wire.BytesSent += uint64(len(out))
		t.mu.Unlock()
	}
}

// failHandshake records the first mesh-formation error and unblocks
// Dial.
func (t *Transport) failHandshake(err error) {
	t.mu.Lock()
	if t.handErr == nil {
		t.handErr = err
	}
	if !t.readyClosed {
		t.readyClosed = true
		close(t.readyCh) // unblock waitReady with the error
	}
	t.mu.Unlock()
}

func (t *Transport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// drain is the run loop's end of the read side: it takes every frame
// the readers have gathered since the last drain and delivers them in
// arrival order — wire order per connection. Two slices serve a
// transport for life: the readers fill one while the run loop works
// through the other, which it keeps, emptied, for the next swap — so a
// drain takes mu once.
func (t *Transport) drain() {
	t.mu.Lock()
	frames := t.inbound
	t.inbound, t.drained = t.drained, nil
	t.draining = false
	t.mu.Unlock()
	for i := range frames {
		t.deliver(&frames[i])
	}
	clear(frames) // release the payloads
	t.drained = frames[:0]
}

// readLoop slices batches off one connection until it breaks. Join and
// fail frames apply to the network at once — state, not behaviour, so
// they need no clock; the rest of a batch joins the inbound queue
// together, and the reader that finds no drain on its way schedules
// one. The body buffer and the batch's frame slice are reused across
// batches — decoded frames never alias the body (the wire vocabulary
// copies, codecs guarantee no aliasing).
func (t *Transport) readLoop(group int, cn *conn) {
	defer t.wg.Done()
	var body []byte
	var batch []frame
	visit := func(f frame) {
		switch f.Kind {
		case frameJoin:
			t.Mirror(f.ID, f.Place)
		case frameFail:
			t.Network.Fail(f.ID)
		default:
			batch = append(batch, f)
		}
	}
	for {
		n, err := readBatch(cn.c, &body)
		if err != nil {
			t.connBroken(group)
			return
		}
		frames, err := forEachFrame(body, t.codec, visit)
		t.mu.Lock()
		t.wire.BatchesRead++
		t.wire.FramesRead += uint64(frames)
		t.wire.BytesRead += uint64(n)
		t.inbound = append(t.inbound, batch...)
		// Before Bind there is no clock; Bind schedules the drain then.
		clock := t.clock
		kick := clock != nil && len(batch) > 0 && !t.draining
		if kick {
			t.draining = true
		}
		t.mu.Unlock()
		clear(batch) // release the payloads
		batch = batch[:0]
		if kick {
			clock.Schedule(0, t.drainFn).Release()
		}
		if err != nil {
			t.connBroken(group)
			return
		}
	}
}

// connBroken tears one connection down: its group's nodes are marked
// dead (they are unreachable forever — NodeIDs are never reused) and
// frames toward it are dropped from now on. Frames still pending in
// the write batch die with it, so they are accounted as drops — the
// Sent = Delivered + Dropped reconciliation survives a peer's death.
func (t *Transport) connBroken(group int) {
	t.mu.Lock()
	cn := t.conns[group].Swap(nil)
	broke := cn != nil && !t.closed
	if broke {
		t.wire.BrokenConns++
		cn.mu.Lock()
		t.wire.FramesDropped += uint64(cn.pendFrames)
		t.dropped += uint64(cn.pendMsgs)
		cn.dead = true
		cn.pend = cn.pend[:batchHeader]
		cn.open, cn.pendBatches, cn.pendFrames, cn.pendMsgs = 0, 0, 0, 0
		cn.mu.Unlock()
	}
	t.mu.Unlock()
	if broke {
		t.FailOwner(group)
	}
	if cn != nil {
		cn.shutdown()
	}
}

// writeFrame serializes f into one group's pending batch and, if that
// was empty, wakes its writer. It takes no lock but the connection's,
// and encodes into the connection's scratch buffer under it. Encode
// failures are programming bugs (an unregistered or unmarshallable
// wire type) and panic with the offending type. Frames toward a group
// whose connection is down — or whose pending batch has grown past
// maxPendBytes, meaning the peer is hopelessly behind — are dropped;
// message-bearing kinds also count as MessagesDropped, so the Sent =
// Delivered + Dropped reconciliation the other backends satisfy
// survives a peer's death here too.
func (t *Transport) writeFrame(group int, f frame) {
	cn := t.conns[group].Load()
	if cn == nil {
		if _, err := appendFrame(nil, f, t.codec); err != nil {
			panic(encodePanic(f, err))
		}
		t.dropFrame(f)
		return
	}
	cn.mu.Lock()
	b, err := appendFrame(cn.scratch[:0], f, t.codec)
	if err != nil {
		cn.mu.Unlock()
		panic(encodePanic(f, err))
	}
	cn.scratch = b
	if cn.dead || len(cn.pend)+len(b) > maxPendBytes {
		cn.mu.Unlock()
		t.dropFrame(f)
		// maxPendBytes behind: the peer is stalled beyond our tolerance.
		// Cut it loose like a write timeout would (no-op if it broke as
		// this frame was on its way here).
		t.connBroken(group)
		return
	}
	first := cn.pendFrames == 0
	if len(cn.pend)-cn.open-batchHeader >= batchBytes {
		// The open batch is full: seal it where it lies and open the
		// next behind it. One write still takes them all.
		finishBatch(cn.pend[cn.open:])
		cn.open = len(cn.pend)
		cn.pend = append(cn.pend, make([]byte, batchHeader)...)
		cn.pendBatches++
	}
	cn.pend = appendSubFrame(cn.pend, b)
	cn.pendFrames++
	switch f.Kind {
	case frameSend, frameRequest, frameResponse:
		cn.pendMsgs++
	}
	cn.mu.Unlock()

	if first {
		select {
		case cn.kick <- struct{}{}:
		default:
		}
	}
}

func encodePanic(f frame, err error) string {
	return fmt.Sprintf("socknet: cannot encode frame payload %T — is the type missing a runtime.RegisterWireType or a runtime.WireMessage implementation? (%v)", f.Payload, err)
}

// dropFrame accounts one undeliverable frame. Send, request and
// response frames carry a protocol message, so their loss is a message
// drop; join/fail/announce are control plane and count only as
// wire-level drops.
func (t *Transport) dropFrame(f frame) {
	t.mu.Lock()
	t.wire.FramesDropped++
	switch f.Kind {
	case frameSend, frameRequest, frameResponse:
		t.dropped++
	}
	t.mu.Unlock()
}

// broadcast writes one frame to every connected group.
func (t *Transport) broadcast(f frame) {
	for g := 0; g < t.groups; g++ {
		if g == t.group {
			continue
		}
		t.writeFrame(g, f)
	}
}

// deliver hands one received frame to the network (clock goroutine, so
// handlers only ever execute there).
func (t *Transport) deliver(f *frame) {
	switch f.Kind {
	case frameSend:
		t.Deliver(f.From, f.To, f.Payload)
	case frameRequest:
		t.Serve(f.ReqID, f.From, f.To, f.Payload)
	case frameResponse:
		var err error
		if f.HasErr {
			err = RemoteError(f.Err)
		}
		t.Resolve(f.ReqID, f.Payload, err)
	case frameAnnounce:
		t.deliverAnnounce(f.Payload)
	}
}

// leg is the transport as the network's simnet.Remote: a leg whose far
// end another process owns becomes a frame toward that process.
type leg struct{ t *Transport }

func (l leg) Send(from, to runtime.NodeID, msg any) {
	l.t.writeFrame(l.t.owner(to), frame{Kind: frameSend, From: from, To: to, Payload: msg})
}

func (l leg) Request(id uint64, from, to runtime.NodeID, req any) {
	l.t.writeFrame(l.t.owner(to), frame{Kind: frameRequest, ReqID: id, From: from, To: to, Payload: req})
}

// Respond carries a handler's reply back; an application error crosses
// as its message, and the requester rebuilds it as a RemoteError.
func (l leg) Respond(id uint64, to runtime.NodeID, resp any, err error) {
	f := frame{Kind: frameResponse, ReqID: id, Payload: resp}
	if err != nil {
		f.HasErr, f.Err = true, err.Error()
	}
	l.t.writeFrame(l.t.owner(to), f)
}

// Join registers a local handler and mirrors the registration to every
// other process.
func (t *Transport) Join(h runtime.Handler, place topology.Placement) runtime.NodeID {
	id := t.Network.Join(h, place)
	t.broadcast(frame{Kind: frameJoin, ID: id, Place: place})
	return id
}

// Fail marks a local node dead and mirrors the failure. Failing a
// remote node is a protocol bug (kill closures are local) and panics;
// failing an already-dead node is a no-op.
func (t *Transport) Fail(id runtime.NodeID) {
	if !t.Alive(id) {
		return
	}
	if owner := t.owner(id); owner != t.group {
		panic(fmt.Sprintf("socknet: Fail of remote node %d (owned by group %d)", id, owner))
	}
	t.Network.Fail(id)
	t.broadcast(frame{Kind: frameFail, ID: id})
}

// Stats snapshots this process's traffic counters: the network's, with
// the messages whose frames died with a connection among the drops.
// Group-wide totals are the sum over processes.
func (t *Transport) Stats() runtime.TransportStats {
	s := t.Network.Stats()
	t.mu.Lock()
	s.MessagesDropped += t.dropped
	t.mu.Unlock()
	return s
}

// WireStats snapshots the actual serialized traffic.
func (t *Transport) WireStats() WireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.wire
	ws.Codec = t.codec.Name()
	return ws
}

// Close shuts the transport down: listener, connections, readers. It
// is idempotent. In-flight frames on the peers' side surface there as
// broken connections, which mark this process's nodes dead — the same
// observable outcome as a process crash, which is the only honest
// story a real network can tell.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*conn, len(t.conns))
	for g := range t.conns {
		conns[g] = t.conns[g].Load()
	}
	pendingHs := make([]net.Conn, 0, len(t.handshakes))
	for c := range t.handshakes {
		pendingHs = append(pendingHs, c)
	}
	t.mu.Unlock()
	t.lis.Close()
	for _, cn := range conns {
		if cn != nil {
			cn.shutdown()
		}
	}
	for _, c := range pendingHs {
		c.Close() // cut in-flight hello reads short
	}
	t.wg.Wait()
	return nil
}

// ---- runtime.Bus ----

// Announce broadcasts msg to every other process; their subscribers
// run on their clock goroutines. The announcing process's subscribers
// are NOT invoked — the announcer already holds the state it is
// sharing.
func (t *Transport) Announce(msg any) {
	t.broadcast(frame{Kind: frameAnnounce, Payload: msg})
}

// Subscribe adds an announcement subscriber.
func (t *Transport) Subscribe(fn func(msg any)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.subs = append(t.subs, fn)
}

// deliverAnnounce fans one announcement out to the subscribers (clock
// goroutine).
func (t *Transport) deliverAnnounce(msg any) {
	t.mu.Lock()
	subs := make([]func(any), len(t.subs))
	copy(subs, t.subs)
	t.mu.Unlock()
	for _, fn := range subs {
		fn(msg)
	}
}

// Package socknet is the socket backend: a runtime.Transport over real
// TCP connections, so the identical protocol code that runs on the
// deterministic simulator and the in-process realtime loopback runs
// across OS process boundaries. It registers itself as the "socket"
// backend.
//
// Topology of a run: N cooperating processes ("groups"), each hosting
// one slice of the population behind a single TCP listener. The
// peer-address registry — the full index-ordered address list — is
// configuration every process starts with; at startup the group forms
// a full mesh (process g dials every lower-indexed process, accepts
// from every higher-indexed one) and exchanges hello frames before any
// protocol traffic flows.
//
// NodeIDs are stride-partitioned: process g mints IDs g, g+N, g+2N, …,
// so ownership is derivable from the ID alone with no coordination.
// Join and Fail are mirrored to every process (a frame per event);
// remote state — placement, aliveness — is therefore locally readable,
// at the cost of staleness bounded by one network round trip. The
// owning process stays authoritative: a message to a dead node is
// dropped where the node lives, exactly like the single-process
// backends.
//
// Message semantics mirror internal/simnet: Send and Request sample
// per-link latency from the same topology model (applied on the
// sender's clock before the frame hits the wire — localhost TCP adds
// its real cost on top) and the same loss knob; timeouts are always
// local to the requester. Scheduling runs on the shared
// internal/wallclock run loop, one goroutine per process, so protocol
// code stays lock-free here too. Like the realtime backend, runs are
// NOT reproducible; unlike it, messages genuinely serialize — batched,
// length-prefixed frames whose payloads go through a pluggable
// runtime.Codec ("binary", the hand-rolled one, by default; "gob" for
// compatibility) — which is the honest price of crossing a process boundary
// (WireStats reports it).
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
	"sort"
	"sync"
	"time"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
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

// Network exposes the concrete transport (wire stats, etc.).
func (r *Runtime) Network() *Transport { return r.net }

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
	// DefaultRPCTimeout is used when Request is called with timeout
	// <= 0 (default 4 s, matching simnet).
	DefaultRPCTimeout int64
	// ReadyTimeout bounds mesh formation: how long Dial waits for every
	// group to be connected (default 30 s — CI process spawns included).
	ReadyTimeout time.Duration
}

// defaultBatchBytes caps one batch — what the reader must buffer before
// it can dispatch the first frame — unless cfg.Socket.BatchBytes does.
const defaultBatchBytes = 64 << 10

// maxPendBytes bounds the bytes queued toward one peer; a peer that
// far behind is as good as dead (the batching-era analogue of the old
// outbox-capacity cutoff).
const maxPendBytes = 32 << 20

// nodeState is one mirror entry. Remote nodes carry a nil handler.
type nodeState struct {
	handler runtime.Handler
	place   topology.Placement
	alive   bool
	local   bool
}

// pendingReq is one outstanding RPC on the requester. Records are
// recycled through Transport.freeReqs, each with its deadline callback
// bound once.
type pendingReq struct {
	id       uint64
	from     runtime.NodeID
	cb       func(resp any, err error)
	deadline runtime.Timer
	timeout  func() // t.requestTimeout(this record)
}

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
	pendMsgs    int  // message-bearing frames pending (drop accounting)
	dead        bool // connBroken has run: pend takes no more frames

	kick     chan struct{} // cap 1: pend went from empty to not
	stop     chan struct{}
	stopOnce sync.Once
}

// take closes the open batch and swaps pend out for writing (no frames
// if empty).
func (cn *conn) take() (out []byte, frames, batches int) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.pendFrames == 0 {
		return nil, 0, 0
	}
	finishBatch(cn.pend[cn.open:])
	out, frames, batches = cn.pend, cn.pendFrames, cn.pendBatches+1
	if cn.spare == nil {
		cn.spare = make([]byte, batchHeader, defaultBatchBytes+batchHeader)
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
// mesh. All state is mutex-guarded: reader goroutines update the
// mirror directly, while handler callbacks only ever run on the
// wall-clock goroutine.
var _ runtime.Transport = (*Transport)(nil)
var _ runtime.Bus = (*Transport)(nil)

type Transport struct {
	topo   *topology.Topology
	group  int
	groups int

	codec      runtime.Codec
	batchBytes int

	// clock is written once, by Bind under mu, before the run starts:
	// the run-loop side reads it without the lock, readers under it.
	clock runtime.Clock

	mu          sync.Mutex
	nextLocal   runtime.NodeID
	nodes       map[runtime.NodeID]*nodeState
	total       int
	alive       int
	stats       runtime.TransportStats
	wire        WireStats
	lossRate    float64
	lossRNG     *rnd.RNG
	reqSeq      uint64
	pending     map[uint64]*pendingReq
	freeReqs    []*pendingReq
	subs        []func(msg any)
	conns       []*conn               // indexed by group; nil = self or down
	handshakes  map[net.Conn]struct{} // accepted conns still reading hello
	missing     int                   // groups not yet connected
	readyCh     chan struct{}
	readyClosed bool
	handErr     error // first handshake error, surfaced by Dial
	closed      bool

	// inbound is the read side's group commit: the deliverable frames
	// the readers have decoded and the run loop has not taken yet, in
	// arrival order (before Bind they wait here for the clock). draining
	// says a drain is scheduled and has not swapped inbound out yet;
	// inboundSpare is the slice the last drain emptied.
	inbound      []frame
	inboundSpare []frame
	draining     bool
	drainFn      func() // t.drain, bound once

	defaultRPCTimeout int64

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
	if cfg.DefaultRPCTimeout <= 0 {
		cfg.DefaultRPCTimeout = 4 * runtime.Second
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	codec, err := runtime.NewCodec(cfg.Socket.Codec)
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("socknet: %w", err)
	}
	batchBytes := cfg.Socket.BatchBytes
	if batchBytes <= 0 {
		batchBytes = defaultBatchBytes
	}

	groups := cfg.Socket.Groups()
	t := &Transport{
		topo:              cfg.Topo,
		group:             cfg.Socket.Group,
		groups:            groups,
		codec:             codec,
		batchBytes:        batchBytes,
		nextLocal:         runtime.NodeID(cfg.Socket.Group),
		nodes:             make(map[runtime.NodeID]*nodeState),
		lossRate:          cfg.LossRate,
		lossRNG:           cfg.LossRNG,
		pending:           make(map[uint64]*pendingReq),
		conns:             make([]*conn, groups),
		handshakes:        make(map[net.Conn]struct{}),
		missing:           groups - 1,
		readyCh:           make(chan struct{}),
		defaultRPCTimeout: cfg.DefaultRPCTimeout,
		lis:               lis,
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
	select {
	case <-t.readyCh:
	case <-time.After(d):
		t.mu.Lock()
		missing := t.missing
		err := t.handErr
		t.mu.Unlock()
		if err != nil {
			return fmt.Errorf("socknet: group %d mesh formation failed: %w", t.group, err)
		}
		return fmt.Errorf("socknet: group %d timed out with %d group(s) unconnected after %v", t.group, missing, d)
	}
	t.mu.Lock()
	err := t.handErr
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("socknet: group %d mesh formation failed: %w", t.group, err)
	}
	return nil
}

// Bind attaches the run-loop clock and hands it any deliverable frames
// that raced mesh formation. Must be called exactly once, before the
// run starts.
func (t *Transport) Bind(clock runtime.Clock) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clock != nil {
		panic("socknet: Bind called twice")
	}
	t.clock = clock
	if len(t.inbound) > 0 {
		t.draining = true
		clock.Schedule(0, t.drainFn).Release()
	}
}

// Group returns this process's index; Groups the process count.
func (t *Transport) Group() int  { return t.group }
func (t *Transport) Groups() int { return t.groups }

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
	if t.closed || t.conns[group] != nil {
		t.mu.Unlock()
		c.Close()
		return
	}
	cn := &conn{
		c:     c,
		pend:  make([]byte, batchHeader, defaultBatchBytes+batchHeader),
		spare: make([]byte, batchHeader, defaultBatchBytes+batchHeader),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	t.conns[group] = cn
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
	for {
		out, frames, batches := cn.take()
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
		cn.mu.Lock()
		if cn.spare == nil {
			cn.spare = out[:batchHeader] // recycle for the next swap
		}
		cn.mu.Unlock()
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
// through the other.
func (t *Transport) drain() {
	t.mu.Lock()
	frames := t.inbound
	t.inbound, t.inboundSpare = t.inboundSpare, nil
	t.draining = false
	t.mu.Unlock()
	for i := range frames {
		t.deliver(&frames[i])
	}
	clear(frames) // release the payloads
	t.mu.Lock()
	t.inboundSpare = frames[:0]
	t.mu.Unlock()
}

// readLoop slices batches off one connection until it breaks. Mirror
// frames apply at once; the rest of a batch joins the inbound queue
// together, and the reader that finds no drain on its way schedules
// one. The body buffer and the batch's frame slice are reused across
// batches — decoded frames never alias the body (the wire vocabulary
// copies, codecs guarantee no aliasing).
func (t *Transport) readLoop(group int, cn *conn) {
	defer t.wg.Done()
	var body []byte
	var batch []frame
	visit := func(f frame) {
		if f.Kind == frameJoin || f.Kind == frameFail {
			t.mirror(f)
		} else {
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
	cn := t.conns[group]
	t.conns[group] = nil
	if cn != nil && !t.closed {
		t.wire.BrokenConns++
		for id, st := range t.nodes {
			if st.alive && !st.local && t.owner(id) == group {
				st.alive = false
				t.alive--
			}
		}
		cn.mu.Lock()
		t.wire.FramesDropped += uint64(cn.pendFrames)
		t.stats.MessagesDropped += uint64(cn.pendMsgs)
		cn.dead = true
		cn.pend = cn.pend[:batchHeader]
		cn.open, cn.pendBatches, cn.pendFrames, cn.pendMsgs = 0, 0, 0, 0
		cn.mu.Unlock()
	}
	t.mu.Unlock()
	if cn != nil {
		cn.shutdown()
	}
}

// framePool recycles per-frame encode scratch buffers, so the steady
// state allocates nothing on the encode path.
var framePool = sync.Pool{New: func() any { return &frameScratch{} }}

type frameScratch struct{ b []byte }

// writeFrame serializes f into one group's pending batch and, if that
// was empty, wakes its writer. Encode failures are programming bugs (an
// unregistered or unmarshallable wire type) and panic with the
// offending type. Frames toward a group whose connection is down — or
// whose pending batch has grown past maxPendBytes, meaning the peer is
// hopelessly behind — are dropped; message-bearing kinds also count as
// MessagesDropped, so the Sent = Delivered + Dropped reconciliation the
// other backends satisfy survives a peer's death here too.
func (t *Transport) writeFrame(group int, f frame) {
	fs := framePool.Get().(*frameScratch)
	b, err := appendFrame(fs.b[:0], f, t.codec)
	if err != nil {
		panic(fmt.Sprintf("socknet: cannot encode frame payload %T — is the type missing a runtime.RegisterWireType or a runtime.WireMessage implementation? (%v)", f.Payload, err))
	}
	fs.b = b
	t.mu.Lock()
	cn := t.conns[group]
	if cn == nil {
		t.dropFrameLocked(f)
		t.mu.Unlock()
		framePool.Put(fs)
		return
	}
	t.mu.Unlock()

	cn.mu.Lock()
	if cn.dead || len(cn.pend)+len(b) > maxPendBytes {
		cn.mu.Unlock()
		framePool.Put(fs)
		t.mu.Lock()
		t.dropFrameLocked(f)
		t.mu.Unlock()
		// maxPendBytes behind: the peer is stalled beyond our tolerance.
		// Cut it loose like a write timeout would (no-op if it broke as
		// this frame was on its way here).
		t.connBroken(group)
		return
	}
	first := cn.pendFrames == 0
	if len(cn.pend)-cn.open-batchHeader >= t.batchBytes {
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
	framePool.Put(fs)

	if first {
		select {
		case cn.kick <- struct{}{}:
		default:
		}
	}
}

// delayed is a frame waiting out its modeled link latency on the
// clock; records are pooled, each with its callback bound once.
type delayed struct {
	t     *Transport
	group int
	f     frame
	run   func() // d.send
}

var delayedPool sync.Pool

// writeFrameAfter writes f toward group once delay ms have passed.
func (t *Transport) writeFrameAfter(delay int64, group int, f frame) {
	d, ok := delayedPool.Get().(*delayed)
	if !ok {
		d = &delayed{}
		d.run = d.send
	}
	d.t, d.group, d.f = t, group, f
	t.clock.Schedule(delay, d.run).Release()
}

func (d *delayed) send() {
	d.t.writeFrame(d.group, d.f)
	d.t, d.f = nil, frame{} // release the payload
	delayedPool.Put(d)
}

// dropFrameLocked accounts one undeliverable frame (mu held). Send,
// request and response frames carry a protocol message, so their loss
// is a message drop; join/fail/announce are control plane and count
// only as wire-level drops.
func (t *Transport) dropFrameLocked(f frame) {
	t.wire.FramesDropped++
	switch f.Kind {
	case frameSend, frameRequest, frameResponse:
		t.stats.MessagesDropped++
	}
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

// mirror applies a received join or fail frame to the node mirror — at
// once, on the reader's goroutine: it is state, not behavior, and needs
// no clock.
func (t *Transport) mirror(f frame) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, known := t.nodes[f.ID]
	switch {
	case f.Kind == frameJoin && !known:
		t.nodes[f.ID] = &nodeState{place: f.Place, alive: true}
		t.total++
		t.alive++
	case f.Kind == frameFail && known && st.alive:
		st.alive = false
		t.alive--
	}
}

// deliver routes one received deliverable frame (clock goroutine, so
// handlers only ever execute there).
func (t *Transport) deliver(f *frame) {
	switch f.Kind {
	case frameSend:
		t.deliverLocal(f.From, f.To, f.Payload)
	case frameRequest:
		t.serveRemoteRequest(f)
	case frameResponse:
		t.resolveRequest(f.ReqID, f.Payload, f.HasErr, f.Err)
	case frameAnnounce:
		t.deliverAnnounce(f.Payload)
	}
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
	copy(conns, t.conns)
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

// ---- runtime.Transport ----

// Clock returns the bound run-loop clock.
func (t *Transport) Clock() runtime.Clock {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock
}

// Topology returns the shared latency model.
func (t *Transport) Topology() *topology.Topology { return t.topo }

// Stats snapshots this process's traffic counters. Counters are
// per-process: sends count where they are issued, deliveries where the
// target lives; group-wide totals are the sum over processes.
func (t *Transport) Stats() runtime.TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// WireStats snapshots the actual serialized traffic.
func (t *Transport) WireStats() WireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.wire
	ws.Codec = t.codec.Name()
	return ws
}

// Join registers a local handler and mirrors the registration to every
// other process.
func (t *Transport) Join(h runtime.Handler, place topology.Placement) runtime.NodeID {
	if h == nil {
		panic("socknet: Join with nil handler")
	}
	t.mu.Lock()
	id := t.nextLocal
	t.nextLocal += runtime.NodeID(t.groups)
	t.nodes[id] = &nodeState{handler: h, place: place, alive: true, local: true}
	t.total++
	t.alive++
	t.mu.Unlock()
	t.broadcast(frame{Kind: frameJoin, ID: id, Place: place})
	return id
}

// Fail marks a local node dead and mirrors the failure. Failing a
// remote node is a protocol bug (kill closures are local) and panics;
// failing an already-dead local node is a no-op.
func (t *Transport) Fail(id runtime.NodeID) {
	t.mu.Lock()
	st, ok := t.nodes[id]
	if !ok || !st.alive {
		t.mu.Unlock()
		return
	}
	if !st.local {
		t.mu.Unlock()
		panic(fmt.Sprintf("socknet: Fail of remote node %d (owned by group %d)", id, t.owner(id)))
	}
	st.alive = false
	st.handler = nil // release protocol state for GC
	t.alive--
	t.mu.Unlock()
	t.broadcast(frame{Kind: frameFail, ID: id})
}

// Alive reports whether id is known and not failed. For remote nodes
// the answer can be stale by up to a network round trip; the owning
// process remains authoritative at delivery time.
func (t *Transport) Alive(id runtime.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.nodes[id]
	return ok && st.alive
}

// AliveCount returns the number of alive nodes across the whole group
// (local + mirrored).
func (t *Transport) AliveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alive
}

// TotalJoined returns how many nodes ever joined across the group.
func (t *Transport) TotalJoined() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Placement returns a node's position. Unknown local IDs are protocol
// bugs and panic (as on simnet); an unknown *remote* ID — its join
// frame still in flight — yields the zero Placement rather than a
// panic, because a third process can legitimately name a node before
// our mirror has caught up.
func (t *Transport) Placement(id runtime.NodeID) topology.Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.placementLocked(id)
}

func (t *Transport) placementLocked(id runtime.NodeID) topology.Placement {
	if st, ok := t.nodes[id]; ok {
		return st.place
	}
	if id >= 0 && t.owner(id) != t.group {
		return topology.Placement{}
	}
	panic(fmt.Sprintf("socknet: Placement of unknown local node %d", id))
}

// Locality returns the physical locality of a node.
func (t *Transport) Locality(id runtime.NodeID) topology.Locality {
	return t.Placement(id).Loc
}

// Latency returns the modeled one-way latency between two nodes in ms.
func (t *Transport) Latency(a, b runtime.NodeID) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latencyLocked(a, b)
}

func (t *Transport) latencyLocked(a, b runtime.NodeID) int64 {
	sa, oka := t.nodes[a]
	sb, okb := t.nodes[b]
	if !oka || !okb {
		// A mirror miss (join frame in flight): deliver without modeled
		// delay rather than guess.
		return 0
	}
	return t.topo.Latency(sa.place.Pos, sb.place.Pos)
}

func (t *Transport) lostLocked() bool {
	return t.lossRate > 0 && t.lossRNG.Bool(t.lossRate)
}

func (t *Transport) aliveLocked(id runtime.NodeID) bool {
	st, ok := t.nodes[id]
	return ok && st.alive
}

// ForEachAlive visits every alive node id (ascending), local and
// mirrored. The snapshot is taken atomically; the visitor runs outside
// the lock and must not join or fail nodes while iterating.
func (t *Transport) ForEachAlive(visit func(id runtime.NodeID)) {
	t.mu.Lock()
	ids := make([]runtime.NodeID, 0, t.alive)
	for id, st := range t.nodes {
		if st.alive {
			ids = append(ids, id)
		}
	}
	t.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		visit(id)
	}
}

// Send delivers msg to `to` after the modeled one-way latency (plus
// the real wire cost when `to` lives in another process). Sends to
// unregistered local IDs panic; an unknown remote ID is forwarded to
// its owner, who is authoritative.
func (t *Transport) Send(from, to runtime.NodeID, msg any) {
	if to < 0 {
		panic(fmt.Sprintf("socknet: Send to invalid node %d", to))
	}
	t.mu.Lock()
	owner := t.owner(to)
	if _, known := t.nodes[to]; !known && owner == t.group {
		t.mu.Unlock()
		panic(fmt.Sprintf("socknet: Send to unregistered node %d", to))
	}
	t.stats.MessagesSent++
	t.stats.BytesSent += uint64(messageBytes(msg))
	if t.lostLocked() {
		t.stats.MessagesDropped++
		t.mu.Unlock()
		return
	}
	delay := t.latencyLocked(from, to)
	t.mu.Unlock()
	if owner == t.group {
		t.clock.Schedule(delay, func() { t.deliverLocal(from, to, msg) }).Release()
	} else {
		t.writeFrameAfter(delay, owner, frame{Kind: frameSend, From: from, To: to, Payload: msg})
	}
}

// deliverLocal hands a message to a locally-hosted node (runs on the
// clock goroutine).
func (t *Transport) deliverLocal(from, to runtime.NodeID, msg any) {
	t.mu.Lock()
	st, ok := t.nodes[to]
	if !ok || !st.alive || st.handler == nil {
		t.stats.MessagesDropped++
		t.mu.Unlock()
		return
	}
	t.stats.MessagesDelivered++
	h := st.handler
	t.mu.Unlock()
	h.HandleMessage(from, msg)
}

// Request performs an RPC with the same observable semantics as
// simnet: cb runs exactly once — with the response, with the handler's
// application error (reconstructed as a RemoteError across a process
// boundary), or with ErrTimeout. Timeouts are always decided on the
// requester's clock.
func (t *Transport) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	if cb == nil {
		panic("socknet: Request with nil callback")
	}
	if to < 0 {
		panic(fmt.Sprintf("socknet: Request to invalid node %d", to))
	}
	t.mu.Lock()
	owner := t.owner(to)
	if _, known := t.nodes[to]; !known && owner == t.group {
		t.mu.Unlock()
		panic(fmt.Sprintf("socknet: Request to unregistered node %d", to))
	}
	if timeout <= 0 {
		timeout = t.defaultRPCTimeout
	}
	t.stats.RequestsIssued++
	t.stats.MessagesSent++
	t.stats.BytesSent += uint64(messageBytes(req))
	t.reqSeq++
	id := t.reqSeq
	var pr *pendingReq
	if n := len(t.freeReqs); n > 0 {
		pr, t.freeReqs = t.freeReqs[n-1], t.freeReqs[:n-1]
	} else {
		pr = &pendingReq{}
		pr.timeout = func() { t.requestTimeout(pr) }
	}
	pr.id, pr.from, pr.cb = id, from, cb
	t.pending[id] = pr
	// Under mu: the deadline is in place before the run loop can reach
	// the record (the clock never calls out under its own lock).
	pr.deadline = t.clock.Schedule(timeout, pr.timeout)
	lost := t.lostLocked()
	if lost {
		t.stats.MessagesDropped++
	}
	delay := t.latencyLocked(from, to)
	t.mu.Unlock()
	if lost {
		return // request leg dropped in transit; the deadline will fire
	}
	if owner == t.group {
		t.clock.Schedule(delay, func() { t.serveLocalRequest(id, from, to, req) }).Release()
	} else {
		t.writeFrameAfter(delay, owner, frame{Kind: frameRequest, ReqID: id, From: from, To: to, Payload: req})
	}
}

// retireLocked takes a request that has its outcome off the books and
// returns its callback (mu held). The record is reused only once its
// deadline can no longer fire.
func (t *Transport) retireLocked(pr *pendingReq, deadlineDone bool) (cb func(resp any, err error), alive bool) {
	delete(t.pending, pr.id)
	cb, alive = pr.cb, t.aliveLocked(pr.from) // a dead requester never observes the outcome
	if deadlineDone {
		pr.deadline.Release()
		pr.cb, pr.deadline = nil, nil
		t.freeReqs = append(t.freeReqs, pr)
	}
	return cb, alive
}

// serveLocalRequest runs the target handler for a same-process RPC and
// schedules the response leg (clock goroutine).
func (t *Transport) serveLocalRequest(id uint64, from, to runtime.NodeID, req any) {
	resp, hasErr, errStr, back, ok := t.runHandler(from, to, req)
	if !ok {
		return // dropped; the deadline will fire
	}
	t.clock.Schedule(back, func() { t.resolveRequest(id, resp, hasErr, errStr) }).Release()
}

// serveRemoteRequest runs the target handler for a cross-process RPC
// and schedules the response frame (clock goroutine).
func (t *Transport) serveRemoteRequest(f *frame) {
	resp, hasErr, errStr, back, ok := t.runHandler(f.From, f.To, f.Payload)
	if !ok {
		return
	}
	t.writeFrameAfter(back, t.owner(f.From), frame{Kind: frameResponse, ReqID: f.ReqID, Payload: resp, HasErr: hasErr, Err: errStr})
}

// runHandler is the shared owner-side RPC logic: deliver to the target
// if alive, account the response leg, sample its loss, return the
// response and the back latency. ok=false means the deadline should
// fire instead.
func (t *Transport) runHandler(from, to runtime.NodeID, req any) (resp any, hasErr bool, errStr string, back int64, ok bool) {
	t.mu.Lock()
	st, known := t.nodes[to]
	if !known || !st.alive || st.handler == nil {
		t.stats.MessagesDropped++
		t.mu.Unlock()
		return nil, false, "", 0, false
	}
	t.stats.MessagesDelivered++
	h := st.handler
	t.mu.Unlock()

	r, err := h.HandleRequest(from, req)

	t.mu.Lock()
	t.stats.MessagesSent++
	t.stats.BytesSent += uint64(messageBytes(r))
	if t.lostLocked() {
		t.stats.MessagesDropped++
		t.mu.Unlock()
		return nil, false, "", 0, false
	}
	back = t.latencyLocked(to, from)
	t.mu.Unlock()
	if err != nil {
		hasErr = true
		errStr = err.Error()
	}
	return r, hasErr, errStr, back, true
}

// requestTimeout fires a pending request's deadline (clock goroutine).
func (t *Transport) requestTimeout(pr *pendingReq) {
	t.mu.Lock()
	if t.pending[pr.id] != pr {
		t.mu.Unlock()
		return // resolved, by a clock whose Cancel could not stop this
	}
	t.stats.RequestsTimedOut++
	cb, alive := t.retireLocked(pr, true)
	t.mu.Unlock()
	if alive {
		cb(nil, runtime.ErrTimeout)
	}
}

// resolveRequest completes a pending request with its response (clock
// goroutine).
func (t *Transport) resolveRequest(id uint64, resp any, hasErr bool, errStr string) {
	t.mu.Lock()
	pr, ok := t.pending[id]
	if !ok {
		t.mu.Unlock()
		return // deadline beat the response
	}
	// The deadline has not fired — the request would not be pending —
	// and fires only on this goroutine, so the cancel takes.
	cb, alive := t.retireLocked(pr, pr.deadline.Cancel())
	t.mu.Unlock()
	if !alive {
		return
	}
	var err error
	if hasErr {
		err = RemoteError(errStr)
	}
	cb(resp, err)
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

// messageBytes mirrors simnet's wire-size model so TransportStats stay
// comparable across backends; WireStats carries the real frame bytes.
func messageBytes(msg any) int {
	if s, ok := msg.(runtime.Sizer); ok {
		return s.WireBytes()
	}
	return runtime.DefaultMessageBytes
}

// Package simnet is the message layer every protocol node in this
// repository communicates through. It binds the discrete-event engine
// (internal/sim) to the latency model (internal/topology) and provides:
//
//   - a registry of nodes with join/fail lifecycle (fail-only churn, as
//     in the paper's evaluation: peers never leave gracefully unless a
//     protocol explicitly models it);
//   - one-way Send with per-link latency;
//   - Request/response RPCs with timeouts, used for everything that is
//     conversational (stabilization probes, keepalives, directory
//     queries, shuffle exchanges);
//   - message and byte accounting for overhead measurements.
//
// Messages to dead nodes are silently dropped, so failure detection is
// always timeout-driven, like on a real network.
//
// Every timer the layer schedules goes back to its clock
// (runtime.Timer.Release): a delivery and the two legs of an RPC in the
// statement that schedules them, since nothing keeps those handles, and
// an RPC's deadline where the reply cancels it or it fires. With the
// pooled delivery and RPC records that makes a steady-state Send or
// Request allocate nothing at all, timers included.
package simnet

import (
	"fmt"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
)

type nodeState struct {
	handler runtime.Handler
	place   topology.Placement
	alive   bool
	joined  int64
	died    int64
}

// Network implements the full Transport seam.
var _ runtime.Transport = (*Network)(nil)

// Network is the central message switch — the loopback reference
// implementation of runtime.Transport. It delivers through whatever
// runtime.Clock drives it: the discrete-event engine (deterministic
// simulation, via internal/simrt) or the wall-clock loop
// (internal/rtnet), with identical latency, loss and accounting
// semantics. Like the engine it is single-goroutine: every call must
// happen on the clock's callback goroutine (or before the run starts).
type Network struct {
	clock runtime.Clock
	topo  *topology.Topology
	nodes []nodeState
	alive int
	stats runtime.TransportStats

	// DefaultRPCTimeout is used when Request is called with timeout <= 0.
	DefaultRPCTimeout int64

	// lossRate drops each one-way transmission with this probability —
	// failure injection beyond churn. Zero (the default) is the paper's
	// reliable-link model.
	lossRate float64
	lossRNG  *rnd.RNG

	// Free lists for the per-message delivery records and per-RPC state
	// records. Every Send schedules one closure and every Request up to
	// three; allocating those closures per call dominated object churn
	// in whole-run profiles. The records carry pre-bound closures, so a
	// steady-state Send or Request allocates nothing. Single-goroutine
	// like the rest of the switch, so plain slices suffice.
	deliveryPool []*delivery
	rpcPool      []*rpcState
}

// delivery is the pooled one-way message-delivery record: the closure
// handed to the clock is bound once, at record creation, and the record
// is recycled the moment its fields are copied out — before the handler
// runs, so reentrant Sends can reuse it immediately.
type delivery struct {
	n        *Network
	from, to runtime.NodeID
	msg      any
	run      func()
}

func (n *Network) getDelivery() *delivery {
	if len(n.deliveryPool) > 0 {
		d := n.deliveryPool[len(n.deliveryPool)-1]
		n.deliveryPool = n.deliveryPool[:len(n.deliveryPool)-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.deliver
	return d
}

func (d *delivery) deliver() {
	n, from, to, msg := d.n, d.from, d.to, d.msg
	d.msg = nil
	n.deliveryPool = append(n.deliveryPool, d)
	st := &n.nodes[to]
	if !st.alive {
		n.stats.MessagesDropped++
		return
	}
	n.stats.MessagesDelivered++
	st.handler.HandleMessage(from, msg)
}

// rpcState is the pooled per-Request record. Up to three scheduled
// closures reference it (deadline, request leg, response leg); refs
// counts the ones still outstanding and the record returns to the pool
// only when the last of them has run or been provably cancelled —
// recycling earlier would let a stale response leg fire with a reused
// record's fields.
type rpcState struct {
	n        *Network
	from, to runtime.NodeID
	resp     any
	err      error
	cb       func(resp any, err error)
	deadline runtime.Timer

	refs          int
	done          bool
	deadlineFired bool

	onDeadline func()
	onDeliver  func()
	onRespond  func()

	req any
}

func (n *Network) getRPC() *rpcState {
	if len(n.rpcPool) > 0 {
		r := n.rpcPool[len(n.rpcPool)-1]
		n.rpcPool = n.rpcPool[:len(n.rpcPool)-1]
		return r
	}
	r := &rpcState{n: n}
	r.onDeadline = r.deadlineFire
	r.onDeliver = r.deliverReq
	r.onRespond = r.deliverResp
	return r
}

// finish runs the callback exactly once; a dead requester never
// observes the outcome.
func (r *rpcState) finish(resp any, err error) {
	if r.done {
		return
	}
	r.done = true
	if !r.n.Alive(r.from) {
		return
	}
	r.cb(resp, err)
}

func (r *rpcState) maybeRecycle() {
	if r.refs != 0 {
		return
	}
	n := r.n
	r.req, r.resp, r.err, r.cb = nil, nil, nil, nil
	r.deadline = nil
	n.rpcPool = append(n.rpcPool, r)
}

func (r *rpcState) deadlineFire() {
	r.deadlineFired = true
	r.deadline.Release()
	r.refs--
	if !r.done {
		r.n.stats.RequestsTimedOut++
	}
	r.finish(nil, runtime.ErrTimeout)
	r.maybeRecycle()
}

func (r *rpcState) deliverReq() {
	r.refs--
	n := r.n
	st := &n.nodes[r.to]
	if !st.alive {
		// Dropped on the floor; the deadline will fire.
		n.stats.MessagesDropped++
		r.maybeRecycle()
		return
	}
	n.stats.MessagesDelivered++
	resp, err := st.handler.HandleRequest(r.from, r.req)
	// Response leg.
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(resp))
	if n.lost() {
		n.stats.MessagesDropped++
		r.maybeRecycle()
		return
	}
	r.resp, r.err = resp, err
	r.refs++
	n.clock.Schedule(n.Latency(r.to, r.from), r.onRespond).Release()
}

func (r *rpcState) deliverResp() {
	r.refs--
	if !r.deadlineFired {
		// The deadline can no longer fire; release its reference too.
		r.deadline.Cancel()
		r.deadline.Release()
		r.refs--
	}
	r.finish(r.resp, r.err)
	r.maybeRecycle()
}

// New builds an empty network delivering through the given clock and
// sampling link latency from the given topology.
func New(clock runtime.Clock, topo *topology.Topology) *Network {
	return &Network{
		clock:             clock,
		topo:              topo,
		DefaultRPCTimeout: 4 * runtime.Second,
	}
}

// Clock exposes the clock driving deliveries (protocol nodes schedule
// their periodic work through it).
func (n *Network) Clock() runtime.Clock { return n.clock }

// Topology exposes the latency model.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() runtime.TransportStats { return n.stats }

// SetLossRate enables random message loss: every one-way transmission
// (sends, RPC requests and RPC responses independently) is dropped with
// probability p. Used by the failure-injection tests and ablations;
// p = 0 restores reliable links. Panics on p outside [0, 1) or a nil
// rng with p > 0.
func (n *Network) SetLossRate(p float64, rng *rnd.RNG) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("simnet: loss rate %g out of [0, 1)", p))
	}
	if p > 0 && rng == nil {
		panic("simnet: loss rate needs an RNG")
	}
	n.lossRate = p
	n.lossRNG = rng
}

// lost draws one loss decision.
func (n *Network) lost() bool {
	return n.lossRate > 0 && n.lossRNG.Bool(n.lossRate)
}

// Join registers a handler at the given placement and returns its fresh
// NodeID.
func (n *Network) Join(h runtime.Handler, place topology.Placement) runtime.NodeID {
	if h == nil {
		panic("simnet: Join with nil handler")
	}
	id := runtime.NodeID(len(n.nodes))
	n.nodes = append(n.nodes, nodeState{
		handler: h,
		place:   place,
		alive:   true,
		joined:  n.clock.Now(),
		died:    -1,
	})
	n.alive++
	return id
}

// Fail marks a node dead. In-flight messages to it will be dropped on
// delivery; it stops receiving forever (re-joining means a new NodeID).
// Failing an already-dead node is a no-op.
func (n *Network) Fail(id runtime.NodeID) {
	if !n.valid(id) {
		return
	}
	st := &n.nodes[id]
	if !st.alive {
		return
	}
	st.alive = false
	st.died = n.clock.Now()
	st.handler = nil // release protocol state for GC
	n.alive--
}

func (n *Network) valid(id runtime.NodeID) bool {
	return id >= 0 && int(id) < len(n.nodes)
}

// Alive reports whether id is registered and not failed.
func (n *Network) Alive(id runtime.NodeID) bool {
	return n.valid(id) && n.nodes[id].alive
}

// AliveCount returns the number of currently-alive nodes.
func (n *Network) AliveCount() int { return n.alive }

// TotalJoined returns how many nodes have ever joined.
func (n *Network) TotalJoined() int { return len(n.nodes) }

// Placement returns where a node sits in the topology. It remains valid
// after the node fails (used for post-mortem metrics).
func (n *Network) Placement(id runtime.NodeID) topology.Placement {
	if !n.valid(id) {
		panic(fmt.Sprintf("simnet: Placement of unknown node %d", id))
	}
	return n.nodes[id].place
}

// Locality returns the physical locality of a node.
func (n *Network) Locality(id runtime.NodeID) topology.Locality {
	return n.Placement(id).Loc
}

// Latency returns the one-way latency between two nodes in ms.
func (n *Network) Latency(a, b runtime.NodeID) int64 {
	return n.topo.Latency(n.Placement(a).Pos, n.Placement(b).Pos)
}

func messageBytes(msg any) int {
	if s, ok := msg.(runtime.Sizer); ok {
		return s.WireBytes()
	}
	return runtime.DefaultMessageBytes
}

// Send delivers msg to `to` after the one-way link latency. If the
// target is dead at delivery time the message is dropped. Sending from
// a dead node is allowed (the datagram was on the wire when it died is
// the mental model for zero-delay sequences, and it keeps protocol code
// simpler); sends to unregistered IDs panic, because they indicate a
// protocol bug rather than churn.
func (n *Network) Send(from, to runtime.NodeID, msg any) {
	if !n.valid(to) {
		panic(fmt.Sprintf("simnet: Send to unregistered node %d", to))
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(msg))
	if n.lost() {
		n.stats.MessagesDropped++
		return
	}
	delay := n.Latency(from, to)
	d := n.getDelivery()
	d.from, d.to, d.msg = from, to, msg
	n.clock.Schedule(delay, d.run).Release()
}

// Request performs an RPC: req travels to the target (one-way latency),
// the target's HandleRequest runs, and the response travels back
// (one-way latency). cb runs exactly once: with the response, with the
// handler's application error, or with ErrTimeout if either leg fails
// or the deadline expires first. A timeout <= 0 selects
// DefaultRPCTimeout.
//
// If the *requester* is dead when the response arrives, cb is not run:
// dead peers take no actions.
func (n *Network) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	if cb == nil {
		panic("simnet: Request with nil callback")
	}
	if !n.valid(to) {
		panic(fmt.Sprintf("simnet: Request to unregistered node %d", to))
	}
	if timeout <= 0 {
		timeout = n.DefaultRPCTimeout
	}
	n.stats.RequestsIssued++
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(req))

	r := n.getRPC()
	r.from, r.to, r.req, r.cb = from, to, req, cb
	r.done, r.deadlineFired = false, false

	// Deadline: fires unless a response beat it.
	r.refs = 1
	r.deadline = n.clock.Schedule(timeout, r.onDeadline)

	if n.lost() {
		// Request leg dropped in transit; the deadline will fire.
		n.stats.MessagesDropped++
		return
	}
	r.refs++
	n.clock.Schedule(n.Latency(from, to), r.onDeliver).Release()
}

// ForEachAlive visits every alive node id (ascending). The visitor must
// not join or fail nodes while iterating.
func (n *Network) ForEachAlive(visit func(id runtime.NodeID)) {
	for i := range n.nodes {
		if n.nodes[i].alive {
			visit(runtime.NodeID(i))
		}
	}
}

// Package simnet is the message layer every protocol node in this
// repository communicates through. It binds a clock (the discrete-event
// engine of internal/sim, or the wall clock of internal/wallclock) to
// the latency model (internal/topology) and provides:
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
// A clock plus this network is a backend: the engine's pair is "sim",
// "socket" the wall clock's made a group member (below). The tests here
// run on both clocks: the reference for socknet's same-process legs.
//
// A network can also be one process of a group sharing an id space, as
// on the socket backend (InGroup). The nodes the others own are mirrored
// here (Mirror, Fail, FailOwner); a leg toward one runs the same records
// as a local leg until it would reach the handler, where a Remote takes
// it over the wire, and Deliver, Serve and Resolve bring it back.
//
// Every timer the layer schedules goes back to its clock
// (runtime.Timer.Release): a delivery and the two legs of an RPC in the
// statement that schedules them, since nothing keeps those handles, and
// an RPC's deadline where the reply cancels it or it fires. With the
// pooled delivery and RPC records that makes a steady-state Send or
// Request allocate nothing at all, timers included.
//
// On the engine an RPC to a local target whose round trip is shorter
// than its timeout files no deadline at all unless it can fire: a live
// target's reply always beats it. Request only reserves the deadline's
// place in the engine's order (sim.Engine.Reserve), and a lost leg or a
// dead target files it there (AtReserved), for the instant and in the
// order it would have had if filed at once. Other RPCs — to another
// process, with a round trip that can reach the timeout, or on a clock
// without late filing, like the wall clock — file it at once.
package simnet

import (
	"fmt"
	"sync"

	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
)

// rpcTimeout is the deadline of a Request called with timeout <= 0.
const rpcTimeout = 4 * runtime.Second

type nodeState struct {
	handler runtime.Handler // nil once dead, and for a node another process owns
	place   topology.Placement
	known   bool // false for the ids of a group's table nobody has joined yet
	alive   bool
}

// The node table grows a page of nodes at a time, and a page never
// moves: a join storm allocates each node's state once, where one long
// slice grown by append would copy the whole table at every regrowth
// (TestJoinAllocBytes).
const (
	nodePageBits = 8
	nodePageSize = 1 << nodePageBits
)

type nodePage [nodePageSize]nodeState

// Remote carries the legs whose far end another process of the group
// owns. Its methods run on the clock's goroutine with no lock held.
type Remote interface {
	// Send carries a one-way message to the process that owns `to`.
	Send(from, to runtime.NodeID, msg any)
	// Request carries an RPC's request leg to the process that owns
	// `to`; the reply comes back through Resolve under id.
	Request(id uint64, from, to runtime.NodeID, req any)
	// Respond carries the reply to the request Serve took under id back
	// to the process that owns `to`, the requester.
	Respond(id uint64, to runtime.NodeID, resp any, err error)
}

// Network implements the full Transport seam.
var _ runtime.Transport = (*Network)(nil)

// lateFiler is what a clock offers that can file a timer late in the
// place it would have had (sim.Engine's Reserve and AtReserved, through
// its runtime.Clock). Request finds it with one type assertion, made
// when the clock is bound.
type lateFiler interface {
	Reserve() uint64
	AtReserved(t int64, seq uint64, fn func()) runtime.Timer
}

// Network is the central message switch — the loopback reference
// implementation of runtime.Transport. It delivers through whatever
// runtime.Clock drives it: the discrete-event engine (the "sim"
// backend) or the wall-clock loop (the "socket" backend's same-process
// legs), with identical latency, loss and accounting
// semantics. Like the engine it is single-goroutine: every call must
// happen on the clock's callback goroutine (or before the run starts) —
// unless it is a group member, whose methods lock.
type Network struct {
	clock runtime.Clock
	late  lateFiler // the clock's, if it offers one; nil on the wall clock
	topo  *topology.Topology
	nodes []*nodePage // indexed by NodeID, a page at a time (node)
	stats runtime.TransportStats

	// next is the NodeID Join mints next; stride steps it.
	next, stride runtime.NodeID

	// lossRate drops each one-way transmission with this probability —
	// failure injection beyond churn. Zero (the default) is the paper's
	// reliable-link model.
	lossRate float64
	lossRNG  *rnd.RNG

	// Free lists for the per-message delivery records and per-RPC state
	// records. Every Send schedules one closure and every Request two or
	// three; allocating those closures per call dominated object churn
	// in whole-run profiles. The records carry pre-bound closures, so a
	// steady-state Send or Request allocates nothing.
	deliveryPool []*delivery
	rpcPool      []*rpcState

	// A group member's (InGroup): the lock over everything above (nil on
	// a network of its own, and an interface so that lock and unlock
	// inline to a nil check there; held across Clock.Schedule, which
	// never calls out), its first NodeID, the leg to the other processes,
	// and the requests waiting there for a reply, by id.
	mu      sync.Locker
	group   runtime.NodeID
	remote  Remote
	reqSeq  uint64
	pending map[uint64]*rpcState
}

func (n *Network) lock() {
	if n.mu != nil {
		n.mu.Lock()
	}
}

func (n *Network) unlock() {
	if n.mu != nil {
		n.mu.Unlock()
	}
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
	n := d.n
	n.lock()
	from, to, msg := d.from, d.to, d.msg
	d.msg = nil
	n.deliveryPool = append(n.deliveryPool, d)
	if !n.local(to) {
		n.unlock()
		n.remote.Send(from, to, msg)
		return
	}
	h := n.receiver(to)
	n.unlock()
	if h != nil {
		h.HandleMessage(from, msg)
	}
}

// Deliver hands msg, which crossed the wire from another process, to
// `to`, a node this process owns, now. A dead target drops it.
func (n *Network) Deliver(from, to runtime.NodeID, msg any) {
	n.lock()
	h := n.receiver(to)
	n.unlock()
	if h != nil {
		h.HandleMessage(from, msg)
	}
}

// receiver counts a message that has reached `to`: delivered, with the
// handler to run returned, or dropped, with nil, when `to` is dead.
func (n *Network) receiver(to runtime.NodeID) runtime.Handler {
	if st := n.node(to); st != nil && st.alive {
		n.stats.MessagesDelivered++
		return st.handler
	}
	n.stats.MessagesDropped++
	return nil
}

// rpcState is the pooled per-Request record. Up to three scheduled
// closures reference it (deadline, request leg, response leg); refs
// counts the ones still outstanding and the record returns to the pool
// only when the last of them has run or been provably cancelled —
// recycling earlier would let a stale response leg fire with a reused
// record's fields. The deadline is one of them only once it is filed:
// a reserved deadline (reserved) is a place in the clock's order and a
// time, and no closure.
type rpcState struct {
	n         *Network
	from, to  runtime.NodeID
	req, resp any
	err       error
	cb        func(resp any, err error) // nil on a request served for another process
	deadline  runtime.Timer             // nil until filed
	// id names an RPC that crosses to another process: the requester's
	// key in pending, which a served request carries back. 0 otherwise.
	id uint64
	// lat is the request leg's latency; the response leg takes it too,
	// latency being symmetric.
	lat int64
	// due and seq are a reserved deadline's time and place, for
	// fileDeadline.
	due int64
	seq uint64

	refs          int
	done          bool
	reserved      bool
	deadlineFired bool

	onDeadline func()
	onDeliver  func()
	onRespond  func()
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

// outcome marks the RPC done and returns the callback to run with its
// outcome: nil if one ran already or the requester has died (dead peers
// take no actions). A reply from another process finds it no more.
func (r *rpcState) outcome() func(resp any, err error) {
	if r.id != 0 {
		delete(r.n.pending, r.id)
	}
	done := r.done
	r.done = true
	if done || !r.n.isAlive(r.from) {
		return nil
	}
	return r.cb
}

func (r *rpcState) maybeRecycle() {
	if r.refs != 0 {
		return
	}
	n := r.n
	r.req, r.resp, r.err, r.cb = nil, nil, nil, nil
	r.deadline, r.reserved = nil, false
	r.id = 0
	n.rpcPool = append(n.rpcPool, r)
}

// fileDeadline files a reserved deadline, which can fire now that a
// leg is lost or the target is dead, in the place Request reserved: it
// fires when, and in the order, it would have fired had Request filed
// it. A filed deadline stays as it is.
func (r *rpcState) fileDeadline() {
	if r.reserved {
		r.reserved = false
		r.refs++
		r.deadline = r.n.late.AtReserved(r.due, r.seq, r.onDeadline)
	}
}

func (r *rpcState) deadlineFire() {
	n := r.n
	n.lock()
	r.deadlineFired = true
	r.deadline.Release()
	r.refs--
	if !r.done {
		n.stats.RequestsTimedOut++
	}
	cb := r.outcome()
	r.maybeRecycle()
	n.unlock()
	if cb != nil {
		cb(nil, runtime.ErrTimeout)
	}
}

func (r *rpcState) deliverReq() {
	n := r.n
	n.lock()
	r.refs--
	from, to, req := r.from, r.to, r.req
	if !n.local(to) {
		// The target's process runs the handler; Resolve takes the reply.
		id := r.id
		r.req = nil
		r.maybeRecycle()
		n.unlock()
		n.remote.Request(id, from, to, req)
		return
	}
	h := n.receiver(to)
	if h == nil {
		// Dropped on the floor; the deadline will fire.
		r.fileDeadline()
		r.maybeRecycle()
		n.unlock()
		return
	}
	n.unlock()
	resp, err := h.HandleRequest(from, req)
	n.lock()
	// Response leg.
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(resp))
	if n.lost() {
		n.stats.MessagesDropped++
		r.fileDeadline()
		r.maybeRecycle()
	} else {
		r.resp, r.err = resp, err
		r.refs++
		n.clock.Schedule(r.lat, r.onRespond).Release()
	}
	n.unlock()
}

func (r *rpcState) deliverResp() {
	n := r.n
	n.lock()
	r.refs--
	if r.cb == nil {
		// Served for another process: the reply leaves for it here, and
		// is accounted here (see Serve).
		id, to, resp, err := r.id, r.from, r.resp, r.err
		r.maybeRecycle()
		n.stats.MessagesSent++
		n.stats.BytesSent += uint64(messageBytes(resp))
		if n.lost() {
			n.stats.MessagesDropped++
			n.unlock()
			return
		}
		n.unlock()
		n.remote.Respond(id, to, resp, err)
		return
	}
	r.reply(r.resp, r.err)
}

// reply completes the RPC with the response. It is called with the lock
// held and releases it before the callback runs.
func (r *rpcState) reply(resp any, err error) {
	n := r.n
	if r.deadline != nil && !r.deadlineFired {
		// The deadline can no longer fire; release its reference too.
		r.deadline.Cancel()
		r.deadline.Release()
		r.refs--
	}
	cb := r.outcome()
	r.maybeRecycle()
	n.unlock()
	if cb != nil {
		cb(resp, err)
	}
}

// Serve runs the request another process's node `from` sent under id to
// `to`, a node this process owns, and sends the reply back through the
// Remote: the request and response legs of a local RPC, without the
// deadline, which stays with the requester. It takes the lock once, up
// to the handler; the reply's record is its alone until the response
// leg fires, and deliverResp accounts for the reply as it leaves —
// its loss drawn and its bytes counted there, not as the handler
// returns.
func (n *Network) Serve(id uint64, from, to runtime.NodeID, req any) {
	n.lock()
	h := n.receiver(to)
	if h == nil {
		n.unlock()
		return
	}
	r := n.getRPC()
	r.from, r.to, r.id = from, to, id
	r.refs = 1 // the response leg
	delay := n.latency(to, from)
	n.unlock()
	r.resp, r.err = h.HandleRequest(from, req)
	n.clock.Schedule(delay, r.onRespond).Release()
}

// Resolve completes the request this process sent another under id
// with the reply that came back. A reply its deadline beat finds
// nothing and is dropped.
func (n *Network) Resolve(id uint64, resp any, err error) {
	n.lock()
	r := n.pending[id]
	if r == nil {
		n.unlock()
		return
	}
	r.reply(resp, err)
}

// New builds an empty network delivering through the given clock and
// sampling link latency from the given topology. A nil clock is bound
// later, with Bind.
func New(clock runtime.Clock, topo *topology.Topology) *Network {
	n := &Network{topo: topo, stride: 1}
	n.Bind(clock)
	return n
}

// InGroup makes n process `group` of `groups` sharing one id space:
// Join mints group, group+groups, … so an id names its owner, and legs
// toward the others' nodes go through remote. Every method is then safe
// to call from any goroutine. Call it before the first Join.
func (n *Network) InGroup(group, groups int, remote Remote) {
	n.next, n.stride = runtime.NodeID(group), runtime.NodeID(groups)
	n.group, n.remote = n.next, remote
	n.mu = new(sync.Mutex)
	n.pending = make(map[uint64]*rpcState)
}

// Bind gives a network built without a clock the one it delivers
// through, before anything is sent and before the run starts.
func (n *Network) Bind(clock runtime.Clock) {
	n.clock = clock
	n.late, _ = clock.(lateFiler)
}

// local reports whether this process owns id.
func (n *Network) local(id runtime.NodeID) bool {
	return n.remote == nil || id%n.stride == n.group
}

// Clock exposes the clock driving deliveries (protocol nodes schedule
// their periodic work through it).
func (n *Network) Clock() runtime.Clock { return n.clock }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() runtime.TransportStats {
	n.lock()
	defer n.unlock()
	return n.stats
}

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
	n.lock()
	defer n.unlock()
	id := n.next
	n.next += n.stride
	n.add(id, nodeState{handler: h, place: place})
	return id
}

// Mirror records a node another process of the group has joined, under
// the id its owner minted. A node already known stays as it is.
func (n *Network) Mirror(id runtime.NodeID, place topology.Placement) {
	n.lock()
	defer n.unlock()
	if id >= 0 && !n.local(id) && !n.known(id) {
		n.add(id, nodeState{place: place})
	}
}

// add records a node as joined and alive at id, growing the table over
// the ids other processes of a group have not joined yet.
func (n *Network) add(id runtime.NodeID, st nodeState) {
	for int(id)>>nodePageBits >= len(n.nodes) {
		n.nodes = append(n.nodes, new(nodePage))
	}
	st.known, st.alive = true, true
	*n.node(id) = st
}

// node returns id's entry in the table, or nil for an id past it (or
// negative). An entry nobody has added is the zero nodeState: neither
// known nor alive.
func (n *Network) node(id runtime.NodeID) *nodeState {
	page := uint(id) >> nodePageBits
	if page >= uint(len(n.nodes)) {
		return nil
	}
	return &n.nodes[page][id&(nodePageSize-1)]
}

// Fail marks a node dead. In-flight messages to it will be dropped on
// delivery; it stops receiving forever (re-joining means a new NodeID).
// Failing an already-dead node is a no-op. On a group member it also
// records the failure of a node another process owns.
func (n *Network) Fail(id runtime.NodeID) {
	n.lock()
	defer n.unlock()
	if n.isAlive(id) {
		n.kill(id)
	}
}

// FailOwner marks every node process `owner` of the group owns dead:
// the process is gone, and ids are never reused.
func (n *Network) FailOwner(owner int) {
	n.lock()
	defer n.unlock()
	for id := runtime.NodeID(owner); int(id) < len(n.nodes)*nodePageSize; id += n.stride {
		if n.node(id).alive {
			n.kill(id)
		}
	}
}

func (n *Network) kill(id runtime.NodeID) {
	st := n.node(id)
	st.alive = false
	st.handler = nil // release protocol state for GC
}

func (n *Network) known(id runtime.NodeID) bool {
	st := n.node(id)
	return st != nil && st.known
}

func (n *Network) isAlive(id runtime.NodeID) bool {
	st := n.node(id)
	return st != nil && st.alive
}

// Alive reports whether id is registered and not failed. For a node
// another process owns it can be a round trip stale; the owner decides.
func (n *Network) Alive(id runtime.NodeID) bool {
	n.lock()
	ok := n.isAlive(id)
	n.unlock()
	return ok
}

// Locality returns the physical locality of a node. It stays valid
// after the node fails. A node another process owns whose join has not
// arrived yet sits in locality 0.
func (n *Network) Locality(id runtime.NodeID) topology.Locality {
	n.lock()
	defer n.unlock()
	if st := n.node(id); st != nil && st.known {
		return st.place.Loc
	}
	if id >= 0 && !n.local(id) {
		return 0
	}
	panic(fmt.Sprintf("simnet: Locality of unknown node %d", id))
}

// Latency returns the one-way latency between two nodes in ms.
func (n *Network) Latency(a, b runtime.NodeID) int64 {
	n.lock()
	l := n.latency(a, b)
	n.unlock()
	return l
}

// latency is Latency's body. A group member that has not mirrored one
// end yet delivers without modeled delay rather than guess; only a
// network of its own, which holds no lock, panics here.
func (n *Network) latency(a, b runtime.NodeID) int64 {
	if sa, sb := n.node(a), n.node(b); sa != nil && sb != nil && sa.known && sb.known {
		return n.topo.Latency(sa.place.Pos, sb.place.Pos)
	}
	if n.remote == nil {
		panic(fmt.Sprintf("simnet: latency between %d and %d, one of them unknown", a, b))
	}
	return 0
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
	n.lock()
	if !n.known(to) && (to < 0 || n.local(to)) { // another process's node is its owner's to judge
		n.unlock()
		panic(fmt.Sprintf("simnet: Send to unregistered node %d", to))
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(msg))
	if n.lost() {
		n.stats.MessagesDropped++
	} else {
		d := n.getDelivery()
		d.from, d.to, d.msg = from, to, msg
		n.clock.Schedule(n.latency(from, to), d.run).Release()
	}
	n.unlock()
}

// Request performs an RPC: req travels to the target (one-way latency),
// the target's HandleRequest runs, and the response travels back
// (one-way latency). cb runs exactly once: with the response, with the
// handler's application error, or with ErrTimeout if either leg fails
// or the deadline expires first. A timeout <= 0 selects 4 s. Timeouts
// are always decided on the requester's clock.
//
// If the *requester* is dead when the response arrives, cb is not run:
// dead peers take no actions.
func (n *Network) Request(from, to runtime.NodeID, req any, timeout int64, cb func(resp any, err error)) {
	if cb == nil {
		panic("simnet: Request with nil callback")
	}
	if timeout <= 0 {
		timeout = rpcTimeout
	}
	n.lock()
	if !n.known(to) && (to < 0 || n.local(to)) {
		n.unlock()
		panic(fmt.Sprintf("simnet: Request to unregistered node %d", to))
	}
	n.stats.RequestsIssued++
	n.stats.MessagesSent++
	n.stats.BytesSent += uint64(messageBytes(req))

	r := n.getRPC()
	r.from, r.to, r.req, r.cb = from, to, req, cb
	r.done, r.deadlineFired = false, false
	r.lat = n.latency(from, to)
	if !n.local(to) {
		n.reqSeq++
		r.id = n.reqSeq
		n.pending[r.id] = r
	}

	// Deadline: fires unless a response beats it. From a live local
	// target one always does when the round trip is shorter than the
	// timeout, so then the deadline only reserves its place in the
	// clock's order, and is filed there if a leg is lost or the target
	// is dead (fileDeadline). Otherwise it is filed now.
	if n.late != nil && n.local(to) && 2*r.lat < timeout {
		r.refs, r.reserved = 0, true
		r.due, r.seq = n.clock.Now()+timeout, n.late.Reserve()
	} else {
		r.refs = 1
		r.deadline = n.clock.Schedule(timeout, r.onDeadline)
	}

	if n.lost() {
		// Request leg dropped in transit; the deadline will fire.
		n.stats.MessagesDropped++
		r.fileDeadline()
	} else {
		r.refs++
		n.clock.Schedule(r.lat, r.onDeliver).Release()
	}
	n.unlock()
}

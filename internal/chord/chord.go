// Package chord implements the Chord distributed hash table (Stoica et
// al., SIGCOMM 2001) on the simulated network, including recursive
// routing with hop accounting, finger tables, successor lists,
// periodic stabilization, and failure repair — "its routing and churn
// stabilization protocols", which the paper simulates as the substrate
// for both D-ring and the Squirrel baseline.
//
// Beyond textbook Chord, two features the paper's D-ring needs are
// provided:
//
//   - joining at a *chosen* identifier (directory-peer positions are
//     deterministic functions of (website, locality, instance));
//   - a claim protocol that serializes concurrent attempts to occupy
//     the same vacant position ("several peers may simultaneously
//     target the same vacant position; the one that first integrates
//     into D-ring succeeds", Sec. 5.2.2).
//
// A node is a component owned by an application peer: the application
// implements runtime.Handler and delegates Chord traffic to the node via
// HandleMessage/HandleRequest (both report whether they consumed the
// input).
//
// Steady-state maintenance allocates nothing. Four things make that
// so, and each comes with a rule:
//
//   - A lookup is one *routeMsg for its whole life. The origin takes it
//     from the pool, every hop bumps Hops and forwards the same
//     pointer, the owner flips it into the answer (Reply, Owner) and
//     sends it home, and the origin puts it back. A one-way routed
//     payload's message goes back at its owner, once the payload and
//     path are read out of it. Whoever passes the message to Send gives
//     it up (runtime.Net's ownership rule); a message that is lost ends
//     as ordinary garbage.
//   - Three free lists and one pending map per deployment, shared by
//     members and clients (Pool): those messages, pendingLookup records
//     (one per Lookup, retries included) and probe records (one per
//     stabilize / check-predecessor / finger-ping RPC). Each record
//     binds its callback once, when it is first made, and goes back on
//     its list before the caller's callback runs, because callbacks
//     start new lookups. A listed record names no member, so a stopped
//     member is garbage. A reply to an attempt that already timed out
//     finds no pending entry under its request ID and is dropped; it is
//     never matched to the record's next tenant, and a reply is taken
//     only by the resolver that issued it.
//   - The 64-entry finger table is made at its first write, so a
//     claimant that loses never makes one. It has an index of its
//     distinct nodes, rebuilt only after an entry changed value: in
//     table order for the rotating liveness probe, and in top-down order
//     for the greedy routing step, which so considers the same nodes in
//     the same order as a scan of the whole table would.
//   - A published successor list is never written again. Every rebuild
//     happens in a spare array and is published as a copy only when it
//     differs from the current list, and every other writer assigns a
//     fresh slice. So a stabilize probe is answered with the list itself,
//     and that answer is boxed once per version: one reply per
//     (predecessor, published list), handed to every prober while both
//     stand. Whoever receives a successor list only reads it.
package chord

import (
	"errors"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"
	"sync/atomic"

	"flowercdn/internal/ids"
	"flowercdn/internal/trace"
)

// Entry identifies a ring member: its network address and ring
// position. The zero value is not meaningful; use NoEntry for "none".
type Entry struct {
	Node runtime.NodeID
	ID   ids.ID
}

// NoEntry is the sentinel for an absent entry.
var NoEntry = Entry{Node: runtime.None}

// Valid reports whether the entry names a node.
func (e Entry) Valid() bool { return e.Node != runtime.None }

func (e Entry) String() string {
	if !e.Valid() {
		return "<none>"
	}
	return fmt.Sprintf("n%d@%s", e.Node, e.ID.Short())
}

// Config tunes the maintenance cadence.
type Config struct {
	// SuccessorListLen is the length of the successor list used for
	// failure repair (Chord suggests O(log N); 8 covers our rings).
	SuccessorListLen int
	// StabilizeInterval is the period of the successor-pointer repair
	// loop.
	StabilizeInterval int64
	// FixFingersInterval is the period of finger refresh; fingersPerFix
	// fingers are refreshed per firing.
	FixFingersInterval int64
	// FingerPingInterval is the period of finger liveness probes;
	// fingersPerPing distinct finger nodes are pinged per firing. Dead
	// fingers black-hole one-way routed messages, so detecting them
	// fast matters far more under churn than re-pointing them
	// optimally.
	FingerPingInterval int64
	// CheckPredInterval is the period of predecessor liveness probes.
	CheckPredInterval int64
	// RPCTimeout bounds every maintenance RPC.
	RPCTimeout int64
	// LookupTimeout bounds one routing attempt.
	LookupTimeout int64
	// ClaimTTL is how long a granted-but-not-yet-integrated position
	// claim blocks rival claimants.
	ClaimTTL int64
}

const (
	// MaxHops is the routing TTL; messages exceeding it are dropped
	// (protects against transient ring inconsistency loops).
	MaxHops = 2 * ids.Bits
	// fingersPerFix fingers are refreshed per FixFingersInterval.
	fingersPerFix = 4
	// fingersPerPing distinct finger nodes are pinged per
	// FingerPingInterval.
	fingersPerPing = 4
	// lookupRetries is how many attempts a Lookup makes before
	// reporting failure.
	lookupRetries = 3
)

// DefaultConfig returns maintenance cadence suitable for the paper's
// churn level (mean uptime 60 min): pointers repair within tens of
// seconds, far faster than the mean failure interarrival per node.
func DefaultConfig() Config {
	return Config{
		SuccessorListLen:   8,
		StabilizeInterval:  30 * runtime.Second,
		FixFingersInterval: 40 * runtime.Second,
		FingerPingInterval: 20 * runtime.Second,
		CheckPredInterval:  45 * runtime.Second,
		RPCTimeout:         2 * runtime.Second,
		LookupTimeout:      5 * runtime.Second,
		ClaimTTL:           30 * runtime.Second,
	}
}

// DemoConfig returns the overlay timescales for compressed wall-clock
// demos (harness.SocketDemoConfig and the sim smoke tests): Table 1's
// protocol periods compress ~3600×, and the ring's maintenance must
// compress with them or it never stabilizes inside a seconds-scale
// horizon. Timeouts stay bounded below by the topology's real
// latencies (up to 500 ms one-way), so they shrink less than the
// intervals do.
func DemoConfig() Config {
	cfg := DefaultConfig()
	cfg.StabilizeInterval = 300 * runtime.Millisecond
	cfg.FixFingersInterval = 400 * runtime.Millisecond
	cfg.FingerPingInterval = 250 * runtime.Millisecond
	cfg.CheckPredInterval = 450 * runtime.Millisecond
	cfg.RPCTimeout = 1200 * runtime.Millisecond
	cfg.LookupTimeout = 2 * runtime.Second
	cfg.ClaimTTL = 2 * runtime.Second
	return cfg
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.SuccessorListLen < 1 {
		return errors.New("chord: successor list must hold at least 1 entry")
	}
	if c.StabilizeInterval <= 0 || c.FixFingersInterval <= 0 || c.CheckPredInterval <= 0 {
		return errors.New("chord: maintenance intervals must be positive")
	}
	if c.FingerPingInterval <= 0 {
		return errors.New("chord: finger ping cadence out of range")
	}
	if c.RPCTimeout <= 0 || c.LookupTimeout <= 0 {
		return errors.New("chord: timeouts must be positive")
	}
	if c.ClaimTTL <= 0 {
		return errors.New("chord: ClaimTTL must be positive")
	}
	return nil
}

// App receives application payloads routed over the ring.
type App interface {
	// OnRouted runs at the node that terminates routing for key. origin
	// is the network address that issued Route (it may not be a ring
	// member); hops is the number of overlay forwardings taken. path is
	// the hop-by-hop trace accumulated along the way — nil unless the
	// payload was injected with RouteTraced/RouteViaTraced.
	OnRouted(key ids.ID, payload any, origin runtime.NodeID, hops int, path []trace.Hop)
}

// Errors reported by lookups and joins.
var (
	ErrLookupFailed = errors.New("chord: lookup failed after retries")
	ErrOccupied     = errors.New("chord: position already occupied")
	ErrClaimDenied  = errors.New("chord: position claimed by another peer")
	ErrStopped      = errors.New("chord: node stopped")
)

// ---- wire messages ----

func init() {
	// The overlay's messages cross process boundaries on the socket
	// backend; register them with the shared wire-type registry so the
	// gob codec can decode them out of interface-typed frame fields.
	runtime.RegisterWireType(
		&routeMsg{}, notifyMsg{},
		neighborsReq{}, neighborsResp{},
		pingReq{}, pingResp{},
		claimReq{}, claimResp{}, claimTransfer{},
	)
}

// routeMsg is forwarded greedily toward the owner of Key. It travels by
// pointer and each holder mutates it in place, so a node must not touch
// one after handing it to Send.
type routeMsg struct {
	Key     ids.ID
	Payload any    // nil for pure lookups
	ReqID   uint64 // nonzero: owner must send the message back to Origin as the reply
	Origin  runtime.NodeID
	Hops    int
	Deliver bool // set on the final hop: receiver is the owner
	// Traced marks a traced query: every forwarding appends a HopRoute
	// to Path. Untraced messages never touch Path, so the disabled
	// tracing path allocates nothing.
	Traced bool
	Path   []trace.Hop
	// Reply marks the answer to lookup ReqID on its way home: the owner
	// set Owner to itself and left Hops as the lookup arrived with it.
	Reply bool
	Owner Entry
}

// notifyMsg implements Chord's notify(n').
type notifyMsg struct {
	From Entry
}

// neighborsReq/neighborsResp implement the stabilize probe (fetch
// predecessor and successor list in one RPC).
type neighborsReq struct{}

type neighborsResp struct {
	Pred  Entry
	Succs []Entry
}

// pingReq checks liveness.
type pingReq struct{}
type pingResp struct{}

// claimReq asks the current owner of Pos's arc to reserve the vacant
// position Pos for Claimant.
type claimReq struct {
	Pos      ids.ID
	Claimant Entry
}

type claimResp struct {
	Granted bool
	// Current is the entry blocking the claim when not granted: either
	// the node already at Pos, or the rival claimant holding the
	// reservation.
	Current Entry
}

// claimTransfer hands a reservation to the node that just became the
// owner of the arc containing Pos. Without it, a rival claiming through
// the new owner would be granted a duplicate position.
type claimTransfer struct {
	Pos      ids.ID
	Claimant Entry
}

// noFinger is the finger argument of a lookup that reports to a
// callback instead of refreshing a finger-table entry.
const noFinger = -1

// pendingLookup is the record of one lookup across all its attempts.
// The timeout handed to the clock is bound once, when the record is
// made; the deployment's Pool recycles records.
type pendingLookup struct {
	r  *resolver // the issuer; nil while the record is listed
	cb func(owner Entry, hops int, err error)
	// finger, when cb is nil, is the finger-table entry the result
	// refreshes — fixFingers' lookups carry an index, not a closure.
	finger  int
	timer   runtime.Timer
	retries int
	req     uint64 // the current attempt's key in Pool.pending
	key     ids.ID
	// via is where each attempt is injected: a gateway's address, or
	// the resolver's own for a member routing by itself.
	via       runtime.NodeID
	onTimeout func()
}

// reqCounter hands out lookup request IDs unique across every resolver
// in the process, so a peer that owns both a ring Node and a non-member
// Client can tell their replies apart. It is atomic because a process
// may run many independent simulations concurrently (internal/sweep);
// ID values only key reply matching, so cross-run interleaving cannot
// influence any run's behavior.
var reqCounter atomic.Uint64

func nextReqID() uint64 {
	return reqCounter.Add(1)
}

// resolver issues lookups and matches the replies to them. Both full
// nodes and non-member Clients embed it, and it holds the one copy of
// what they share: a Client exists once per peer, so every word here is
// paid for twenty thousand times over on a big cell. Its records and
// its pending attempts live in the deployment's pool.
type resolver struct {
	net     runtime.Net
	eng     runtime.Clock
	self    Entry // a Client has an address but no ring position
	timeout int64
	retries int // lookupRetries; tests raise it to exercise reuse
	pool    *Pool
	// ring is the member this resolver belongs to: it routes attempts
	// injected at self. Nil on a Client.
	ring    *Node
	stopped bool
}

func (r *resolver) init(cfg Config, net runtime.Net, self Entry, pool *Pool, ring *Node) {
	*r = resolver{
		net:     net,
		eng:     net.Clock(),
		self:    self,
		timeout: cfg.LookupTimeout,
		retries: lookupRetries,
		pool:    pool,
		ring:    ring,
	}
}

// lookup resolves key's owner through via, retrying on timeout. The
// result goes to cb, or with a nil cb to the ring member's finger-table
// entry finger.
func (r *resolver) lookup(via runtime.NodeID, key ids.ID, finger int, cb func(Entry, int, error)) {
	p := r.pool.lookup(r)
	p.cb, p.finger, p.key, p.via, p.retries = cb, finger, key, via, r.retries-1
	r.launch(p)
}

// launch starts one attempt under a fresh request ID, so a straggler
// reply to an earlier attempt matches nothing.
func (r *resolver) launch(p *pendingLookup) {
	p.req = nextReqID()
	r.pool.pending[p.req] = p
	p.timer = r.eng.Schedule(r.timeout, p.onTimeout)
	m := r.pool.msg()
	m.Key, m.ReqID, m.Origin = p.key, p.req, r.self.Node
	if n := r.ring; n != nil && p.via == r.self.Node {
		n.routeStep(m) // may resolve at once, recycling p and m
		return
	}
	r.net.Send(r.self.Node, p.via, m)
}

func (p *pendingLookup) timedOut() {
	r := p.r
	if r.pool.pending[p.req] != p {
		return
	}
	delete(r.pool.pending, p.req)
	switch {
	case r.stopped:
		r.finish(p, NoEntry, 0, ErrStopped)
	case p.retries <= 0:
		r.finish(p, NoEntry, 0, ErrLookupFailed)
	default:
		p.retries--
		p.timer.Release() // fired; launch arms the next attempt's
		r.launch(p)
	}
}

// finish recycles the record and only then reports the outcome: the
// callback may start the lookup that reuses it.
func (r *resolver) finish(p *pendingLookup, owner Entry, hops int, err error) {
	cb, finger := p.cb, p.finger
	p.timer.Release() // fired, or cancelled by the reply
	r.pool.putLookup(p)
	if cb != nil {
		cb(owner, hops, err)
		return
	}
	r.ring.fingerResolved(finger, owner, err)
}

// consumeReply reports whether the reply belonged to this resolver. The
// pending map is the deployment's, and a peer holding a Node and a
// Client offers every reply to both, so an attempt issued by the other
// resolver is declined; so is an unknown ID (a stale retry), and the
// caller must keep dispatching on false.
func (r *resolver) consumeReply(m *routeMsg) bool {
	p, ok := r.pool.pending[m.ReqID]
	if !ok || p.r != r {
		return false
	}
	delete(r.pool.pending, m.ReqID)
	p.timer.Cancel()
	owner, hops := m.Owner, m.Hops
	r.pool.putMsg(m)
	r.finish(p, owner, hops, nil)
	return true
}

// Node is one Chord ring member.
type Node struct {
	resolver // net, eng, self and stopped live there
	cfg      Config
	rng      *rnd.RNG
	app      App

	pred Entry
	// succs[0] is the immediate successor; never empty once started.
	// A published list is read-only: replies and callers may share it,
	// so a change installs a new slice (publishSuccs or a fresh literal).
	succs []Entry

	// fingers is nil until its first write; write through setFinger,
	// which makes the table and keeps the index honest.
	fingers  []Entry
	nextFix  int
	nextPing int

	// The distinct-finger index, rebuilt by fingerIndex after a finger
	// changed value. Neither view holds self or an empty entry.
	// fingerPing lists the table's distinct nodes in table order, each as
	// its first entry; fingerScan lists its distinct entries in top-down
	// order, the order closestPreceding has always considered them in.
	fingerPing  []Entry
	fingerScan  []Entry
	fingerStale bool

	// succsSpare is the reusable backing array for the per-round
	// successor-list rebuild, which fires on every node every
	// maintenance interval. It is never published: publishSuccs copies
	// a rebuild out of it only when the list changed.
	succsSpare []Entry

	// The one boxed notify this node ever sends, made when it starts,
	// and the boxed neighborsResp of its current predecessor and
	// published list (see onNeighbors). The records it recycles are the
	// deployment's (resolver.pool).
	notify    any
	neighbors any

	// claims holds the position reservations this node granted or was
	// handed; nil until the first (see reserve).
	claims map[ids.ID]claim

	// contacts is a small cache of recently seen ring members used for
	// emergency re-joins: a node whose successor list drains completely
	// (every entry died before repair) would otherwise be stranded at
	// succ == self forever, invisible to the ring.
	contacts []Entry

	timers  []runtime.Ticker
	started bool
}

type claim struct {
	claimant Entry
	expires  int64
}

// NewNode constructs a ring member over a pool of its own; see
// Pool.NewNode, which members of one deployment share.
func NewNode(cfg Config, net runtime.Net, rng *rnd.RNG, app App, nodeID runtime.NodeID, ringID ids.ID) (*Node, error) {
	return NewPool().NewNode(cfg, net, rng, app, nodeID, ringID)
}

// Self returns this node's entry.
func (n *Node) Self() Entry { return n.self }

// Successor returns the immediate successor (self on a fresh ring).
func (n *Node) Successor() Entry {
	if len(n.succs) == 0 {
		return n.self
	}
	return n.succs[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []Entry {
	out := make([]Entry, len(n.succs))
	copy(out, n.succs)
	return out
}

// Predecessor returns the current predecessor (possibly NoEntry).
func (n *Node) Predecessor() Entry { return n.pred }

// Stopped reports whether Stop was called.
func (n *Node) Stopped() bool { return n.stopped }

// Create starts a brand-new ring with this node as its only member.
func (n *Node) Create() {
	n.succs = []Entry{n.self}
	n.pred = n.self
	n.start()
}

// Join enters the ring known through gateway. cb runs once with nil on
// success or an error when the gateway could not resolve our position.
func (n *Node) Join(gateway Entry, cb func(error)) {
	if n.started {
		panic("chord: Join on started node")
	}
	n.lookup(gateway.Node, n.self.ID, noFinger, func(owner Entry, _ int, err error) {
		if n.stopped {
			return
		}
		if err != nil {
			cb(err)
			return
		}
		if owner.Node == n.self.Node {
			cb(fmt.Errorf("chord: join resolved to self"))
			return
		}
		n.succs = []Entry{owner}
		n.pred = NoEntry
		n.start()
		// Stabilize immediately: a single-entry successor list is a
		// single point of failure until the first merge, and under heavy
		// churn that successor may not survive a full interval.
		n.stabilize()
		cb(nil)
	})
}

func (n *Node) start() {
	n.started = true
	n.notify = notifyMsg{From: n.self}
	jitter := func(p int64) int64 { return n.rng.UniformDuration(0, p) }
	n.timers = append(n.timers,
		n.eng.Every(jitter(n.cfg.StabilizeInterval), n.cfg.StabilizeInterval, n.stabilize),
		n.eng.Every(jitter(n.cfg.FixFingersInterval), n.cfg.FixFingersInterval, n.fixFingers),
		n.eng.Every(jitter(n.cfg.FingerPingInterval), n.cfg.FingerPingInterval, n.pingFingers),
		n.eng.Every(jitter(n.cfg.CheckPredInterval), n.cfg.CheckPredInterval, n.checkPredecessor),
	)
}

// Stop cancels all maintenance. The owning peer calls it when failing
// or leaving.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	for _, t := range n.timers {
		t.Cancel()
	}
	// Its own attempts only: the pending map is the deployment's.
	for id, p := range n.pool.pending {
		if p.r == &n.resolver {
			delete(n.pool.pending, id)
			p.timer.Cancel()
			p.timer.Release()
			n.pool.putLookup(p)
		}
	}
	n.fingerScan, n.fingerPing = nil, nil
}

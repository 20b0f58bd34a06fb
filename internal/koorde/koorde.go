// Package koorde implements the Koorde distributed hash table
// (Kaashoek & Karger, IPTPS 2003): Chord's ring embedded with de
// Bruijn graph edges. Each node keeps the usual successor list for
// correctness plus a small *de Bruijn pointer set* around the node
// preceding 2^b·m, and routes by walking an imaginary de Bruijn node
// that corrects b key bits per hop — O(log n / log b) hops against
// Chord's O(log n), with the degree d = 2^b behind one knob.
//
// The implementation layers on the chord substrate rather than
// re-deriving ring maintenance: a koorde.Node owns a chord.Node that
// handles join/stabilize/notify/successor repair (and whose greedy
// routing serves maintenance lookups), while every APPLICATION payload
// routes over the de Bruijn edges via Route. That split keeps the ring
// self-healing machinery identical to the other deployments — so
// internal/ringcheck's invariants apply unchanged — and makes the
// measured hop counts a pure comparison of routing geometries.
package koorde

import (
	"errors"
	"fmt"

	"flowercdn/internal/chord"
	"flowercdn/internal/ids"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Config tunes the overlay.
type Config struct {
	// Chord configures the underlying ring substrate (maintenance
	// cadence, successor list length, routing TTL).
	Chord chord.Config
	// DegreeBits is b: each de Bruijn hop corrects b key bits, giving
	// degree d = 2^b. The successor list should hold at least ~2^b
	// entries or the imaginary walk pays correction hops (the pointer
	// set spans one predecessor plus one successor list).
	DegreeBits int
	// FixInterval is the de Bruijn pointer refresh period.
	FixInterval int64
}

// DefaultDegreeBits is the default b: degree 16, correcting 4 bits per
// hop — at the repo's quick scale (~400 peers, ≈9 significant key
// bits after the imaginary-start embedding) that is 2-3 de Bruijn hops
// per lookup versus Chord's ~log2(n)/2 finger hops.
const DefaultDegreeBits = 4

// DefaultConfig returns paper-churn-scale parameters layered over
// chord.DefaultConfig. The successor list is widened to 2^b+4 entries:
// it doubles as the tail of the de Bruijn pointer set, which must span
// the ~2^b ring positions an imaginary hop can land across.
func DefaultConfig() Config {
	return configFrom(chord.DefaultConfig(), 40*runtime.Second)
}

// DemoConfig returns the compressed-timescale variant for wall-clock
// demos, mirroring chord.DemoConfig.
func DemoConfig() Config {
	return configFrom(chord.DemoConfig(), 400*runtime.Millisecond)
}

func configFrom(base chord.Config, fix int64) Config {
	cfg := Config{Chord: base, DegreeBits: DefaultDegreeBits, FixInterval: fix}
	cfg.Chord.SuccessorListLen = succListFor(cfg.DegreeBits, base.SuccessorListLen)
	return cfg
}

// succListFor widens the substrate's successor list to cover one de
// Bruijn fan-out.
func succListFor(degreeBits, baseLen int) int {
	want := 1<<degreeBits + 4
	if want < baseLen {
		return baseLen
	}
	return want
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if err := c.Chord.Validate(); err != nil {
		return fmt.Errorf("koorde: %w", err)
	}
	switch c.DegreeBits {
	case 1, 2, 4, 8:
		// The imaginary walk consumes the 64-bit key in b-bit digits;
		// b must divide the key width or the last digit would be
		// partial, landing outside the arc the pointer set covers.
	default:
		return fmt.Errorf("koorde: degree bits %d not in {1, 2, 4, 8}", c.DegreeBits)
	}
	if c.FixInterval <= 0 {
		return errors.New("koorde: fix interval must be positive")
	}
	return nil
}

// ---- wire messages ----

func init() {
	runtime.RegisterWireType(dbRouteMsg{})
}

// dbRouteMsg is one in-flight de Bruijn-routed payload. I is the
// imaginary de Bruijn node the message walks; KShift holds the key
// bits not yet injected into I, left-aligned; BitsLeft counts them.
// Once BitsLeft reaches 0, I equals Key and the walk degenerates into
// a plain successor walk to the owner.
type dbRouteMsg struct {
	Key      ids.ID
	I        ids.ID
	KShift   uint64
	BitsLeft int
	Payload  any
	Origin   runtime.NodeID
	Hops     int
	Deliver  bool // set on the final hop: receiver is the owner
	// Traced marks a traced query: every forwarding appends a HopRoute
	// to Path (untraced messages never touch Path).
	Traced bool
	Path   []trace.Hop
}

// Node is one Koorde ring member: a chord substrate node plus the de
// Bruijn pointer set and routing.
type Node struct {
	cfg  Config
	net  runtime.Net
	eng  runtime.Clock
	rng  *rnd.RNG
	app  chord.App
	ring *chord.Node

	// dbSet is the de Bruijn pointer candidate set: the predecessor of
	// self.ID << b, then its ring successors — consecutive members
	// spanning the arc an imaginary hop from (self, succ] can land in.
	dbSet []chord.Entry

	fix     runtime.Ticker
	stopped bool
}

// ringApp adapts the substrate's App callback: nothing routes payloads
// over chord edges in a koorde deployment, but the substrate requires
// an App and forwarding keeps the node well-behaved if something does.
type ringApp struct{ n *Node }

func (a ringApp) OnRouted(key ids.ID, payload any, origin runtime.NodeID, hops int, path []trace.Hop) {
	if a.n.app != nil {
		a.n.app.OnRouted(key, payload, origin, hops, path)
	}
}

// NewNode constructs a ring member for the application peer at nodeID
// sitting at ring position ringID; app receives the payloads routed over
// the de Bruijn edges, the same contract as on a chord.Node. Call
// Create or Join to enter a ring, then deliver all overlay traffic via
// HandleMessage / HandleRequest.
func NewNode(cfg Config, net runtime.Net, rng *rnd.RNG, app chord.App, nodeID runtime.NodeID, ringID ids.ID) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if app == nil {
		return nil, errors.New("koorde: nil app")
	}
	n := &Node{cfg: cfg, net: net, eng: net.Clock(), rng: rng, app: app}
	ring, err := chord.NewNode(cfg.Chord, net, rng.Split("ring"), ringApp{n}, nodeID, ringID)
	if err != nil {
		return nil, err
	}
	n.ring = ring
	return n, nil
}

// Self returns this node's ring entry.
func (n *Node) Self() chord.Entry { return n.ring.Self() }

// Successor returns the immediate successor (self on a fresh ring).
func (n *Node) Successor() chord.Entry { return n.ring.Successor() }

// SuccessorList returns a copy of the substrate's successor list.
func (n *Node) SuccessorList() []chord.Entry { return n.ring.SuccessorList() }

// Predecessor returns the current predecessor (possibly NoEntry).
func (n *Node) Predecessor() chord.Entry { return n.ring.Predecessor() }

// Stopped reports whether Stop was called.
func (n *Node) Stopped() bool { return n.stopped }

// Pointers returns a copy of the de Bruijn pointer candidate set.
func (n *Node) Pointers() []chord.Entry {
	out := make([]chord.Entry, len(n.dbSet))
	copy(out, n.dbSet)
	return out
}

// DeBruijnTarget is the position whose ring predecessor anchors this
// node's pointer set: self.ID shifted left by b bits.
func (n *Node) DeBruijnTarget() ids.ID {
	return ids.ID(uint64(n.ring.Self().ID) << n.cfg.DegreeBits)
}

// Create starts a brand-new ring with this node as its only member.
func (n *Node) Create() {
	n.ring.Create()
	n.startFix()
}

// Join enters the ring known through gateway; cb runs once.
func (n *Node) Join(gateway chord.Entry, cb func(error)) {
	n.ring.Join(gateway, func(err error) {
		if err == nil && !n.stopped {
			n.startFix()
		}
		cb(err)
	})
}

// Stop cancels all maintenance.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.fix != nil {
		n.fix.Cancel()
	}
	n.ring.Stop()
}

func (n *Node) startFix() {
	n.fixPointers()
	n.fix = n.eng.Every(n.rng.UniformDuration(0, n.cfg.FixInterval), n.cfg.FixInterval, n.fixPointers)
}

// fixPointers refreshes the de Bruijn pointer set: resolve the owner of
// self.ID << b through the substrate (maintenance uses the substrate's
// own routing so pointer repair never depends on the health of the
// edges being repaired), then pull its neighborhood in one RPC. The
// owner's predecessor is the canonical pointer d = predecessor(2^b·m);
// the owner and its successor list extend the set across the arc a de
// Bruijn hop can land in.
func (n *Node) fixPointers() {
	if n.stopped {
		return
	}
	n.ring.Lookup(n.DeBruijnTarget(), func(owner chord.Entry, _ int, err error) {
		if n.stopped || err != nil || !owner.Valid() {
			return
		}
		if owner.Node == n.ring.Self().Node {
			// We own our own de Bruijn image; our successor list already
			// spans the landing arc.
			set := []chord.Entry{n.ring.Self()}
			n.dbSet = appendDistinct(set, n.ring.SuccessorList())
			return
		}
		n.ring.Neighbors(owner, func(pred chord.Entry, succs []chord.Entry, err error) {
			if n.stopped || err != nil {
				return
			}
			var set []chord.Entry
			if pred.Valid() {
				set = append(set, pred)
			}
			set = appendDistinct(set, []chord.Entry{owner})
			n.dbSet = appendDistinct(set, succs)
		})
	})
}

func appendDistinct(set []chord.Entry, more []chord.Entry) []chord.Entry {
	for _, e := range more {
		if !e.Valid() {
			continue
		}
		dup := false
		for _, have := range set {
			if have.Node == e.Node {
				dup = true
				break
			}
		}
		if !dup {
			set = append(set, e)
		}
	}
	return set
}

// Route forwards an application payload to the owner of key over the de
// Bruijn edges; the owner's App.OnRouted fires. Best-effort one-way,
// like chord.Route: a lost message is recovered by the application's
// own retry.
func (n *Node) Route(key ids.ID, payload any) {
	self, succ := n.ring.Self(), n.ring.Successor()
	i, kshift, bits := imaginaryStart(self.ID, succ.ID, key, n.cfg.DegreeBits)
	n.routeStep(dbRouteMsg{
		Key: key, I: i, KShift: kshift, BitsLeft: bits,
		Payload: payload, Origin: self.Node,
	})
}

// RouteTraced is Route with hop tracing: path (owned by the message
// from here on) accumulates one HopRoute per de Bruijn / correction
// forwarding and arrives at the owner's OnRouted.
func (n *Node) RouteTraced(key ids.ID, payload any, path []trace.Hop) {
	self, succ := n.ring.Self(), n.ring.Successor()
	i, kshift, bits := imaginaryStart(self.ID, succ.ID, key, n.cfg.DegreeBits)
	n.routeStep(dbRouteMsg{
		Key: key, I: i, KShift: kshift, BitsLeft: bits,
		Payload: payload, Origin: self.Node,
		Traced: true, Path: path,
	})
}

// imaginaryStart picks the imaginary de Bruijn node i the walk begins
// at: the position in (self, succ] whose low-order bits embed the most
// high-order key bits (Koorde §3's "best imaginary node" optimization).
// It returns i, the remaining key bits left-aligned, and their count;
// injecting all remaining bits into i yields exactly key.
//
// The embedded bit count t is constrained so the remainder is a whole
// number of b-bit digits: every subsequent injection then shifts by
// exactly b, keeping each hop's image inside the arc the receiving
// node's pointer set (anchored at predecessor(self << b)) actually
// covers. A partial final digit would shift by s < b and land near
// self << s — a different region entirely — costing a long correction
// walk on the very last hop.
func imaginaryStart(self, succ, key ids.ID, b int) (ids.ID, uint64, int) {
	if succ == self {
		// Single-node ring: routing delivers locally before consulting i.
		return key, 0, 0
	}
	arc := ids.Distance(self, succ)
	for t := ids.Bits; t > 0; t -= b {
		// top t bits of key, as a value in [0, 2^t)
		top := uint64(key) >> (ids.Bits - t)
		var step uint64
		if t == ids.Bits {
			step = uint64(key) - uint64(self)
		} else {
			mod := uint64(1) << t
			step = (top - uint64(self)) & (mod - 1)
			if step == 0 {
				step = mod
			}
		}
		if step == 0 || step > arc {
			continue // no position ≡ top (mod 2^t) inside (self, succ]
		}
		return ids.ID(uint64(self) + step), uint64(key) << t, ids.Bits - t
	}
	// t = 0 always admits self+1 ∈ (self, succ]: inject all 64 bits.
	return ids.ID(uint64(self) + 1), uint64(key), ids.Bits
}

// routeStep implements one step of imulate-style de Bruijn routing
// (Koorde fig. 3, generalized to degree 2^b): deliver when the key
// falls on our successor's arc; take a de Bruijn hop — inject the next
// b key bits into the imaginary node and jump through the pointer set
// — when the imaginary node is ours to host; otherwise walk the
// successor edge to correct the landing position.
func (n *Node) routeStep(m dbRouteMsg) {
	if n.stopped {
		return
	}
	if m.Deliver {
		n.deliver(m)
		return
	}
	if m.Hops >= n.cfg.Chord.MaxHops {
		return // TTL exceeded: drop; the application's retry recovers
	}
	self := n.ring.Self()
	succ := n.ring.Successor()
	// Single-node ring or self-owned key: deliver locally.
	if succ.Node == self.Node || m.Key == self.ID {
		n.deliver(m)
		return
	}
	if ids.BetweenRightIncl(m.Key, self.ID, succ.ID) {
		// Our successor owns the key: final hop.
		m.Deliver = true
		m.Hops++
		n.traceForward(&m, succ.Node)
		n.net.Send(self.Node, succ.Node, m)
		return
	}
	if m.BitsLeft > 0 && (m.I == self.ID || ids.BetweenRightIncl(m.I, self.ID, succ.ID)) {
		// The imaginary node lives on our arc: de Bruijn hop. Inject the
		// next s key bits and jump to the best-known predecessor of the
		// shifted image. The cursor math is node-independent, so a stale
		// or missing pointer only costs correction hops, never
		// correctness.
		s := n.cfg.DegreeBits
		if s > m.BitsLeft {
			s = m.BitsLeft
		}
		m.I = ids.ID(uint64(m.I)<<s | m.KShift>>(ids.Bits-s))
		m.KShift <<= s
		m.BitsLeft -= s
		if m.BitsLeft == 0 {
			// Last digit injected: the imaginary node IS the key. The
			// pointer set holds ring-consecutive members, so if a pair
			// flanks the key we know its successor and can deliver in
			// one hop instead of descending to the owner's predecessor.
			if owner := n.ownerInSet(m.Key); owner.Valid() {
				if owner.Node == self.Node {
					n.deliver(m)
					return
				}
				m.Deliver = true
				m.Hops++
				n.traceForward(&m, owner.Node)
				n.net.Send(self.Node, owner.Node, m)
				return
			}
		}
		if next := n.bestPointer(m.I); next.Valid() && next.Node != self.Node {
			m.Hops++
			n.traceForward(&m, next.Node)
			n.net.Send(self.Node, next.Node, m)
			return
		}
		// No usable pointer yet (bootstrap, or the whole set died):
		// fall through to the correction walk, which still converges.
	}
	// Correction walk toward the imaginary node (or the key itself once
	// every bit is injected): jump as far along the ring as the
	// successor list and pointer set allow rather than one successor at
	// a time.
	goal := m.I
	if m.BitsLeft == 0 {
		goal = m.Key
	}
	next := n.nextToward(goal)
	if !next.Valid() {
		return // no live neighbor at all: drop; the application retries
	}
	m.Hops++
	n.traceForward(&m, next.Node)
	n.net.Send(self.Node, next.Node, m)
}

// traceForward records one overlay forwarding on a traced message —
// kept beside the Hops increments so the traced path's HopRoute count
// equals Hops by construction.
func (n *Node) traceForward(m *dbRouteMsg, dest runtime.NodeID) {
	if !m.Traced {
		return
	}
	m.Path = trace.Append(m.Path, trace.Hop{
		Kind: trace.HopRoute,
		Node: dest,
		At:   n.eng.Now(),
	})
}

// ownerInSet scans ring-consecutive pointer-set pairs for one flanking
// key; the right member of such a pair is the key's successor as of the
// last pointer fix. NoEntry when the set does not span the key.
func (n *Node) ownerInSet(key ids.ID) chord.Entry {
	for i := 0; i+1 < len(n.dbSet); i++ {
		if ids.BetweenRightIncl(key, n.dbSet[i].ID, n.dbSet[i+1].ID) {
			return n.dbSet[i+1]
		}
	}
	return chord.NoEntry
}

// nextToward picks the known node closest behind goal — successor-list
// entries and de Bruijn pointers both qualify — so a correction walk
// covers many ring positions per hop. Candidates past the goal are
// rejected (overshooting the imaginary node would strand the walk);
// the plain successor is the fallback.
func (n *Node) nextToward(goal ids.ID) chord.Entry {
	self := n.ring.Self()
	best := n.ring.Successor()
	bestDist := ^uint64(0)
	if best.Valid() {
		bestDist = ids.Distance(best.ID, goal)
	}
	consider := func(e chord.Entry) {
		if !e.Valid() || e.Node == self.Node {
			return
		}
		if !ids.BetweenRightIncl(e.ID, self.ID, goal) {
			return
		}
		if d := ids.Distance(e.ID, goal); d < bestDist {
			best, bestDist = e, d
		}
	}
	for _, e := range n.ring.SuccessorList() {
		consider(e)
	}
	for _, e := range n.dbSet {
		consider(e)
	}
	return best
}

// bestPointer picks the candidate closest behind target on the ring —
// the best local approximation of predecessor(target).
func (n *Node) bestPointer(target ids.ID) chord.Entry {
	best := chord.NoEntry
	var bestDist uint64
	for _, e := range n.dbSet {
		if !e.Valid() {
			continue
		}
		d := ids.Distance(e.ID, target)
		if !best.Valid() || d < bestDist {
			best, bestDist = e, d
		}
	}
	return best
}

// deliver terminates routing at this node.
func (n *Node) deliver(m dbRouteMsg) {
	if m.Payload != nil {
		n.app.OnRouted(m.Key, m.Payload, m.Origin, m.Hops, m.Path)
	}
}

// HandleMessage consumes koorde and substrate one-way messages,
// reporting whether the message belonged to the overlay.
func (n *Node) HandleMessage(from runtime.NodeID, msg any) bool {
	if m, ok := msg.(dbRouteMsg); ok {
		n.routeStep(m)
		return true
	}
	return n.ring.HandleMessage(from, msg)
}

// HandleRequest consumes substrate RPCs (stabilize probes, pings).
func (n *Node) HandleRequest(from runtime.NodeID, req any) (resp any, err error, handled bool) {
	return n.ring.HandleRequest(from, req)
}

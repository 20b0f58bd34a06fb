package chord

import (
	"flowercdn/internal/runtime"
	"slices"

	"flowercdn/internal/ids"
)

// probe is the pooled callback record of one maintenance RPC. Like
// simnet's rpcState it binds the callback it hands the transport once,
// when the record is made, and says through kind what the answer is for.
type probe struct {
	n      *Node // the prober; nil while the record is listed
	kind   probeKind
	target Entry
	onDone func(resp any, err error)
}

type probeKind uint8

const (
	probeSuccessor   probeKind = iota // stabilize: neighborsReq to the successor
	probePredecessor                  // checkPredecessor: pingReq
	probeFinger                       // pingFingers: pingReq
)

// request sends one maintenance RPC to target; done handles the outcome
// as kind says, unless the node has stopped by then.
func (n *Node) request(kind probeKind, target Entry, req any) {
	p := n.pool.probe(n)
	p.kind, p.target = kind, target
	n.net.Request(n.self.Node, target.Node, req, n.cfg.RPCTimeout, p.onDone)
}

func (p *probe) done(resp any, err error) {
	n, kind, target := p.n, p.kind, p.target
	n.pool.putProbe(p)
	if n.stopped {
		return
	}
	switch kind {
	case probeSuccessor:
		n.onStabilized(target, resp, err)
	case probePredecessor:
		if err != nil && n.pred.Node == target.Node {
			n.pred = NoEntry
			n.clearFingersFor(target)
		}
	case probeFinger:
		if err != nil {
			n.clearFingersFor(target)
			n.dropIfSuccessor(target)
		}
	}
}

// stabilize is Chord's periodic successor repair: ask the successor for
// its predecessor and successor list, adopt a closer successor if one
// appeared, merge the list, and notify.
func (n *Node) stabilize() {
	if n.stopped {
		return
	}
	succ := n.Successor()
	if succ.Node == n.self.Node {
		// Alone on the ring; if someone notified us, adopt them.
		if n.pred.Valid() && n.pred.Node != n.self.Node {
			n.setSuccessor(n.pred)
			return
		}
		// Stranded: every known successor died before repair. Try an
		// emergency re-join through a cached contact.
		n.rescue()
		return
	}
	n.request(probeSuccessor, succ, neighborsReq{})
}

// onStabilized finishes a stabilize round with succ's answer, and puts
// the answer back once it has read it.
func (n *Node) onStabilized(succ Entry, resp any, err error) {
	if err != nil {
		n.dropSuccessor(succ)
		return
	}
	nb := resp.(*neighborsResp)
	if nb.Pred.Valid() && nb.Pred.Node != n.self.Node &&
		ids.Between(nb.Pred.ID, n.self.ID, succ.ID) {
		// A node slid in between us and our successor.
		n.adoptSuccessor(nb.Pred, nil)
	} else {
		n.mergeSuccList(succ, nb.Succs)
	}
	n.pool.putNeighbors(nb)
	n.notifySuccessor()
}

// rememberContact keeps a bounded, deduplicated cache of ring members
// seen through maintenance traffic, newest last.
func (n *Node) rememberContact(e Entry) {
	if !e.Valid() || e.Node == n.self.Node {
		return
	}
	if n.contacts == nil {
		n.contacts = make([]Entry, 0, maxContacts)
	}
	for i, c := range n.contacts {
		if c.Node == e.Node {
			// Move to the back (freshest) in place: this runs for every
			// successor-list entry of every stabilize round, so it must
			// not reallocate.
			copy(n.contacts[i:], n.contacts[i+1:])
			n.contacts[len(n.contacts)-1] = e
			return
		}
	}
	if len(n.contacts) >= maxContacts {
		// Evict the stalest in place, keeping the backing array.
		copy(n.contacts, n.contacts[1:])
		n.contacts[len(n.contacts)-1] = e
		return
	}
	n.contacts = append(n.contacts, e)
}

// maxContacts bounds the contact cache.
const maxContacts = 16

// rescue attempts an emergency re-join via the freshest cached contact:
// resolve our own successor through it and re-enter the ring. One
// attempt per stabilize round; dead contacts are discarded.
func (n *Node) rescue() {
	for len(n.contacts) > 0 {
		c := n.contacts[len(n.contacts)-1]
		n.contacts = n.contacts[:len(n.contacts)-1]
		if c.Node == n.self.Node {
			continue
		}
		n.lookup(c.Node, n.self.ID, noFinger, func(owner Entry, _ int, err error) {
			if n.stopped || err != nil {
				return
			}
			if owner.Node == n.self.Node || !owner.Valid() {
				return
			}
			if n.Successor().Node != n.self.Node {
				return // already rescued through another path
			}
			n.setSuccessor(owner)
			n.notifySuccessor()
			n.stabilize()
		})
		return
	}
}

// adoptSuccessor makes e the immediate successor and keeps the tail.
func (n *Node) adoptSuccessor(e Entry, tail []Entry) {
	n.rememberContact(e)
	list := append(n.spareSuccs(), e)
	for _, s := range n.succs {
		if len(list) >= n.cfg.SuccessorListLen {
			break
		}
		if s.Node != e.Node && s.Node != n.self.Node {
			list = append(list, s)
		}
	}
	for _, s := range tail {
		if len(list) >= n.cfg.SuccessorListLen {
			break
		}
		if s.Node != e.Node && s.Node != n.self.Node && !containsNode(list, s.Node) {
			list = append(list, s)
		}
	}
	n.publishSuccs(list)
}

// mergeSuccList rebuilds the successor list as succ followed by succ's
// own list.
func (n *Node) mergeSuccList(succ Entry, theirs []Entry) {
	list := append(n.spareSuccs(), succ)
	n.rememberContact(succ)
	for _, s := range theirs {
		n.rememberContact(s)
		if len(list) >= n.cfg.SuccessorListLen {
			continue
		}
		if s.Node != n.self.Node && !containsNode(list, s.Node) {
			list = append(list, s)
		}
	}
	n.publishSuccs(list)
}

// spareSuccs returns the spare array, emptied, for a rebuild of at most
// SuccessorListLen entries. The node's first call makes both arrays, in
// one allocation; a three-index slice keeps each half to its own.
func (n *Node) spareSuccs() []Entry {
	if n.succsSpare == nil {
		l := n.cfg.SuccessorListLen
		both := make([]Entry, 2*l)
		n.succs, n.succsSpare = both[:0:l], both[l:l:2*l]
	}
	return n.succsSpare[:0]
}

// publishSuccs makes list, built in the spare array, the successor list.
// It is the list's only writer. A rebuild equal to the current list is
// dropped; one that differs swaps the two arrays, so the old list's
// array is the next rebuild's, and counts a change.
func (n *Node) publishSuccs(list []Entry) {
	if slices.Equal(list, n.succs) {
		return
	}
	n.succs, n.succsSpare = list, n.succs[:0]
	n.succsVersion++
}

// setSuccessor makes e the whole successor list.
func (n *Node) setSuccessor(e Entry) {
	n.publishSuccs(append(n.spareSuccs(), e))
}

func containsNode(list []Entry, node runtime.NodeID) bool {
	for _, e := range list {
		if e.Node == node {
			return true
		}
	}
	return false
}

// dropSuccessor removes a dead successor and falls back to the next
// live candidate in the list; with the list exhausted the node points
// at itself and waits to be re-discovered (it still owns its arc).
func (n *Node) dropSuccessor(dead Entry) {
	list := n.spareSuccs()
	for _, s := range n.succs {
		if s.Node != dead.Node {
			list = append(list, s)
		}
	}
	if len(list) == 0 {
		list = append(list, n.self)
	}
	n.publishSuccs(list)
	n.clearFingersFor(dead)
}

func (n *Node) notifySuccessor() {
	succ := n.Successor()
	if succ.Node == n.self.Node {
		return
	}
	n.net.Send(n.self.Node, succ.Node, n.notify)
}

// onNotify implements notify(n'): adopt n' as predecessor if closer.
// Adopting a closer predecessor shrinks this node's arc, so claim
// records for positions that now fall on the new predecessor's arc are
// transferred to it — otherwise the new arc owner would re-grant a
// position that is already reserved (the duplicate-directory race).
func (n *Node) onNotify(from Entry) {
	if n.stopped || from.Node == n.self.Node {
		return
	}
	n.rememberContact(from)
	if !n.pred.Valid() || n.pred.Node == n.self.Node ||
		ids.Between(from.ID, n.pred.ID, n.self.ID) {
		old := n.pred
		n.pred = from
		n.transferClaims(old, from)
	}
	// A lone node adopts its first contact as successor too.
	if n.Successor().Node == n.self.Node {
		n.setSuccessor(from)
	}
}

// transferClaims ships reservations for positions in (old, new] to the
// new predecessor, which now owns that arc. Positions are visited in
// sorted order: every Send consumes a message-loss draw when loss
// injection is on, so map-iteration order here would otherwise make
// lossy runs nondeterministic.
func (n *Node) transferClaims(old, new Entry) {
	if len(n.claims) == 0 {
		return
	}
	positions := make([]ids.ID, 0, len(n.claims))
	for pos := range n.claims {
		positions = append(positions, pos)
	}
	slices.Sort(positions)
	for _, pos := range positions {
		c := n.claims[pos]
		if pos == new.ID {
			// The new predecessor IS the position's holder (the granted
			// claimant that just integrated). It rejects rival claims by
			// identity; we keep the record so rivals that still route to
			// us are denied too — deleting it would let us double-grant.
			continue
		}
		var moved bool
		if !old.Valid() || old.Node == n.self.Node {
			// We previously answered for the whole reachable arc; keep
			// only what is still ours: (new, self].
			moved = !ids.BetweenRightIncl(pos, new.ID, n.self.ID)
		} else {
			moved = ids.BetweenRightIncl(pos, old.ID, new.ID)
		}
		if moved {
			n.net.Send(n.self.Node, new.Node, claimTransfer{Pos: pos, Claimant: c.claimant})
			delete(n.claims, pos)
		}
	}
}

// onClaimTransfer installs a reservation handed over by the previous
// arc owner; an existing local record wins (it is newer information).
func (n *Node) onClaimTransfer(m claimTransfer) {
	if n.stopped {
		return
	}
	if _, ok := n.claims[m.Pos]; ok {
		return
	}
	n.reserve(m.Pos, m.Claimant)
}

// onNeighbors answers a stabilize probe with a reply record from the
// pool, filled with a copy of the predecessor and the successor list:
// the node's list is rewritten by its next rebuild, the reply is not.
// The prober puts the record back once it has read it.
func (n *Node) onNeighbors() any {
	r := n.pool.neighbors()
	if cap(r.Succs) < len(n.succs) {
		r.Succs = make([]Entry, 0, n.cfg.SuccessorListLen)
	}
	r.Pred, r.Succs = n.pred, append(r.Succs, n.succs...)
	return r
}

// checkPredecessor probes the predecessor and clears it on timeout, so
// a dead predecessor's slot can be re-taken via notify.
func (n *Node) checkPredecessor() {
	if n.stopped || !n.pred.Valid() || n.pred.Node == n.self.Node {
		return
	}
	n.request(probePredecessor, n.pred, pingReq{})
}

// fixFingers refreshes fingersPerFix finger entries per firing, cycling
// through the table. Finger i targets self.ID + 2^i.
func (n *Node) fixFingers() {
	if n.stopped {
		return
	}
	for k := 0; k < fingersPerFix; k++ {
		i := n.nextFix
		n.nextFix = (n.nextFix + 1) % ids.Bits
		n.lookup(n.self.Node, n.self.ID.AddPow2(i), i, nil)
	}
}

// fingerResolved installs the outcome of fixFingers' lookup for entry i.
func (n *Node) fingerResolved(i int, owner Entry, err error) {
	if n.stopped {
		return
	}
	if err != nil || owner.Node == n.self.Node {
		owner = NoEntry // unresolved, or our own arc: no shortcut needed
	}
	n.setFinger(i, owner)
}

// pingFingers probes a rotating window of distinct finger nodes and
// clears entries whose node fails to answer. A stale-but-alive finger
// merely costs extra hops; a dead finger silently swallows every
// one-way routed message sent through it, so under heavy churn this
// probe is what keeps lookup latency bounded.
func (n *Node) pingFingers() {
	if n.stopped {
		return
	}
	_, nodes := n.fingerIndex()
	if len(nodes) == 0 {
		return
	}
	start := n.nextPing % len(nodes)
	count := min(fingersPerPing, len(nodes))
	n.nextPing += count
	for k := 0; k < count; k++ {
		n.request(probeFinger, nodes[(start+k)%len(nodes)], pingReq{})
	}
}

// dropIfSuccessor removes a node discovered dead from the successor
// list without waiting for the next stabilize round.
func (n *Node) dropIfSuccessor(dead Entry) {
	if containsNode(n.succs, dead.Node) {
		n.dropSuccessor(dead)
	}
}

// clearFingersFor wipes table entries pointing at a node believed dead,
// so routing stops forwarding into a black hole before the next
// refresh.
func (n *Node) clearFingersFor(dead Entry) {
	for i, f := range n.fingers {
		if f.Valid() && f.Node == dead.Node {
			n.setFinger(i, NoEntry)
		}
	}
}

// Announce sends a notify to an arbitrary ring member, volunteering
// this node as its predecessor if closer. Applications use it to
// restore visibility when an ownership audit shows the ring routing
// around them.
func (n *Node) Announce(to Entry) {
	if n.stopped || !n.started || !to.Valid() || to.Node == n.self.Node {
		return
	}
	n.net.Send(n.self.Node, to.Node, n.notify)
}

// Neighbors fetches target's predecessor and successor list — the same
// RPC stabilize uses, exported for overlays layered on the chord
// substrate: internal/koorde refreshes its de Bruijn pointer set from
// the ring neighborhood of a looked-up owner. cb runs once, on this
// node's clock goroutine; it is not called after Stop. succs is valid
// only during the callback: it is a pooled reply's, which goes back to
// the pool when cb returns, so copy what you keep and never write into
// it.
func (n *Node) Neighbors(target Entry, cb func(pred Entry, succs []Entry, err error)) {
	if !target.Valid() {
		cb(NoEntry, nil, ErrLookupFailed)
		return
	}
	n.net.Request(n.self.Node, target.Node, neighborsReq{}, n.cfg.RPCTimeout,
		func(resp any, err error) {
			if n.stopped {
				return
			}
			if err != nil {
				cb(NoEntry, nil, err)
				return
			}
			nb := resp.(*neighborsResp)
			cb(nb.Pred, nb.Succs, nil)
			n.pool.putNeighbors(nb)
		})
}

// FingerTable returns a copy of the non-empty finger entries, for
// diagnostics and tests.
func (n *Node) FingerTable() []Entry {
	var out []Entry
	for _, f := range n.fingers {
		if f.Valid() {
			out = append(out, f)
		}
	}
	return out
}

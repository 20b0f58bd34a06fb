package chord

import (
	"slices"

	"flowercdn/internal/ids"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Lookup resolves the owner (successor) of key, retrying on timeout.
// cb runs exactly once with (owner, overlay hops, nil) or (NoEntry, 0,
// ErrLookupFailed). The accumulated simulated time until cb runs is the
// lookup latency the metrics record.
func (n *Node) Lookup(key ids.ID, cb func(owner Entry, hops int, err error)) {
	n.lookup(n.self.Node, key, noFinger, cb)
}

// Route forwards an application payload to the owner of key; the
// owner's App.OnRouted fires. Delivery is best-effort one-way, exactly
// like the paper's query routing: a lost query is recovered by the
// application's own retry (a client re-submits).
func (n *Node) Route(key ids.ID, payload any) {
	n.routeStep(n.oneWay(key, payload, false, nil))
}

// RouteTraced is Route with hop tracing: path (owned by the message
// from here on) accumulates one HopRoute per overlay forwarding and
// arrives at the owner's OnRouted.
func (n *Node) RouteTraced(key ids.ID, payload any, path []trace.Hop) {
	n.routeStep(n.oneWay(key, payload, true, path))
}

// routeStep implements one step of recursive Chord routing. The origin
// calls it directly for its own first step, which so costs no network
// latency (a node consulting itself is local work).
func (n *Node) routeStep(m *routeMsg) {
	if n.stopped {
		return
	}
	if m.Deliver {
		n.deliver(m)
		return
	}
	if m.Hops >= MaxHops {
		return // TTL exceeded: drop; origin's timeout recovers
	}
	succ := n.Successor()
	// Single-node ring or self-owned key: deliver locally.
	if succ.Node == n.self.Node || m.Key == n.self.ID {
		n.deliver(m)
		return
	}
	if ids.BetweenRightIncl(m.Key, n.self.ID, succ.ID) {
		// Our successor owns the key: final hop.
		m.Deliver = true
		m.Hops++
		n.traceForward(m, succ.Node)
		n.net.Send(n.self.Node, succ.Node, m)
		return
	}
	next := n.closestPreceding(m.Key)
	if next.Node == n.self.Node || !next.Valid() {
		// Routing state offers nothing closer; fall forward along the
		// ring to guarantee progress.
		next = succ
	}
	m.Hops++
	n.traceForward(m, next.Node)
	n.net.Send(n.self.Node, next.Node, m)
}

// traceForward records one overlay forwarding on a traced message —
// kept beside the Hops increments so the traced path's HopRoute count
// equals Hops by construction.
func (n *Node) traceForward(m *routeMsg, dest runtime.NodeID) {
	if !m.Traced {
		return
	}
	m.Path = trace.Append(m.Path, trace.Hop{
		Kind: trace.HopRoute,
		Node: dest,
		At:   n.eng.Now(),
	})
}

// deliver terminates routing at this node. A lookup's message is
// flipped into its own reply and sent home — without payload or path,
// which a reply has no use for and a socket would encode again — and a
// one-way message goes back to the pool, so everything the rest of the
// function needs is read out of it first. That includes the request
// ID: a lookup that resolves at its origin is consumed, and its message
// cleared and listed, before the payload is delivered.
func (n *Node) deliver(m *routeMsg) {
	key, payload, origin, hops, path, req := m.Key, m.Payload, m.Origin, m.Hops, m.Path, m.ReqID
	if req != 0 {
		m.Reply, m.Owner = true, n.self
		m.Payload, m.Path = nil, nil
		if origin == n.self.Node {
			// Local lookup that resolved to ourselves.
			n.consumeReply(m)
		} else {
			n.net.Send(n.self.Node, origin, m)
		}
	} else {
		n.pool.putMsg(m)
	}
	if payload != nil {
		n.app.OnRouted(key, payload, origin, hops, path)
	}
}

// closestPreceding picks, among the distinct fingers and the successor
// list, the node with the largest ID in (self, key) — the classic
// greedy step. Candidates tie on ID when D-ring re-fills a position
// under a new address; the first one considered wins, which is why the
// index keeps the full table's top-down order.
func (n *Node) closestPreceding(key ids.ID) Entry {
	best := NoEntry
	fingers, _ := n.fingerIndex()
	for _, e := range fingers {
		if ids.Between(e.ID, n.self.ID, key) &&
			(!best.Valid() || ids.Between(best.ID, n.self.ID, e.ID)) {
			best = e
		}
	}
	for _, e := range n.succs {
		if e.Valid() && e.Node != n.self.Node && ids.Between(e.ID, n.self.ID, key) &&
			(!best.Valid() || ids.Between(best.ID, n.self.ID, e.ID)) {
			best = e
		}
	}
	return best
}

// fingerViewCap is the room each view of the distinct-finger index is
// made with. A ring of N members gives a node about log2 N + 1 distinct
// fingers, so 12 holds rings of a few thousand members, the paper's; a
// view of a larger ring outgrows it once and is moved by append. More
// room would cost every member of a small ring live heap it never uses.
const fingerViewCap = 12

// setFinger is the only writer of the finger table: the first write
// makes the table and both index views in one allocation, and a write
// that changes an entry's value marks the distinct-finger index stale.
func (n *Node) setFinger(i int, e Entry) {
	if n.fingers == nil {
		all := make([]Entry, ids.Bits+2*fingerViewCap)
		n.fingers, all = all[:ids.Bits:ids.Bits], all[ids.Bits:]
		n.fingerPing, n.fingerScan = all[:0:fingerViewCap], all[fingerViewCap:fingerViewCap]
		for j := range n.fingers {
			n.fingers[j] = NoEntry
		}
	}
	if n.fingers[i] != e {
		n.fingers[i] = e
		n.fingerStale = true
	}
}

// fingerIndex returns the two deduplicated views of the finger table
// (see Node), rebuilding them if a finger changed since the last call.
// Fingers change on joins and failures, not per maintenance round, so
// on a quiet ring every firing and every routing step reads ~log N
// cached entries instead of scanning 64.
func (n *Node) fingerIndex() (scan, ping []Entry) {
	if !n.fingerStale {
		return n.fingerScan, n.fingerPing
	}
	n.fingerStale = false
	scan, ping = n.fingerScan[:0], n.fingerPing[:0]
	// Neighbouring slots mostly hold one value (every low finger is the
	// successor): a repeat is skipped before the view is searched.
	last := NoEntry
	for _, f := range n.fingers {
		if f != last && f.Valid() && f.Node != n.self.Node && !containsNode(ping, f.Node) {
			ping = append(ping, f)
		}
		last = f
	}
	last = NoEntry
	for i := len(n.fingers) - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f != last && f.Valid() && f.Node != n.self.Node && !slices.Contains(scan, f) {
			scan = append(scan, f)
		}
		last = f
	}
	n.fingerScan, n.fingerPing = scan, ping
	return scan, ping
}

// HandleMessage consumes Chord one-way messages. It reports whether the
// message belonged to Chord; the owning peer tries other components
// when it returns false.
func (n *Node) HandleMessage(from runtime.NodeID, msg any) bool {
	switch m := msg.(type) {
	case *routeMsg:
		if m.Reply {
			return n.consumeReply(m)
		}
		n.routeStep(m)
		return true
	case notifyMsg:
		n.onNotify(m.From)
		return true
	case claimTransfer:
		n.onClaimTransfer(m)
		return true
	default:
		return false
	}
}

// HandleRequest consumes Chord RPCs; handled reports whether the
// request was Chord traffic.
func (n *Node) HandleRequest(from runtime.NodeID, req any) (resp any, err error, handled bool) {
	switch r := req.(type) {
	case neighborsReq:
		return n.onNeighbors(), nil, true
	case pingReq:
		return pingResp{}, nil, true
	case claimReq:
		resp, err = n.onClaim(r)
		return resp, err, true
	default:
		return nil, nil, false
	}
}

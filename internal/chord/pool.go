package chord

import (
	"errors"
	"fmt"
	"reflect"

	"flowercdn/internal/ids"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
)

// Pool is a deployment's stock of the records chord recycles — routed
// messages, lookup records, maintenance probes and neighbours replies —
// and its one map of lookups awaiting a reply, keyed by request ID.
// Every member and client of the deployment is built over the same
// Pool, so a record one of them frees serves the next use by any other,
// and a member that never lasts costs no lists of its own.
//
// A Pool is used only on its deployment's clock goroutine: deployments
// that run at once each need their own. A listed record names no member
// and no callback, so a stopped member is garbage however long the
// deployment keeps the records it used.
type Pool struct {
	msgs    []*routeMsg
	lookups []*pendingLookup
	probes  []*probe
	// replies lists neighbours replies their probers have read;
	// repliesMade counts the replies the pool has made, which bounds the
	// list (putNeighbors).
	replies     []*neighborsResp
	repliesMade int
	// pending holds every attempt in flight from any resolver of the
	// deployment; a record's r says whose it is.
	pending map[uint64]*pendingLookup
}

// NewPool returns an empty pool for one deployment.
func NewPool() *Pool {
	return &Pool{pending: make(map[uint64]*pendingLookup)}
}

// NewNode constructs a ring member for the application peer at nodeID
// that will sit at ring position ringID, drawing its records from the
// pool. Call Create or Join to enter a ring, after which the component
// must see all chord traffic via HandleMessage/HandleRequest.
func (pl *Pool) NewNode(cfg Config, net runtime.Net, rng *rnd.RNG, app App, nodeID runtime.NodeID, ringID ids.ID) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if app == nil {
		return nil, errors.New("chord: nil app")
	}
	n := &Node{cfg: cfg, rng: rng, app: app, pred: NoEntry}
	n.resolver.init(cfg, net, Entry{Node: nodeID, ID: ringID}, pl, n)
	return n, nil
}

// NewClient builds a lookup client for the peer at me, drawing its
// records from the pool.
func (pl *Pool) NewClient(cfg Config, net runtime.Net, me runtime.NodeID) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Client{}
	c.resolver.init(cfg, net, Entry{Node: me}, pl, nil)
	return c, nil
}

// msg takes a cleared message off the list, or makes one.
func (pl *Pool) msg() *routeMsg {
	if m := pop(&pl.msgs); m != nil {
		return m
	}
	return new(routeMsg)
}

// putMsg lists a message nobody will touch again, cleared: a listed
// message holds no payload, path or stale flag.
func (pl *Pool) putMsg(m *routeMsg) {
	*m = routeMsg{}
	pl.msgs = append(pl.msgs, m)
}

// lookup takes a lookup record for r, binding its timeout callback
// once, when the record is made.
func (pl *Pool) lookup(r *resolver) *pendingLookup {
	p := pop(&pl.lookups)
	if p == nil {
		p = &pendingLookup{}
		p.onTimeout = p.timedOut
	}
	p.r = r
	return p
}

// putLookup lists a record whose attempt is over and whose timer is
// released.
func (pl *Pool) putLookup(p *pendingLookup) {
	p.r, p.cb, p.timer = nil, nil, nil
	pl.lookups = append(pl.lookups, p)
}

// probe takes a probe record for n, binding its answer callback once,
// when the record is made.
func (pl *Pool) probe(n *Node) *probe {
	p := pop(&pl.probes)
	if p == nil {
		p = &probe{}
		p.onDone = p.done
	}
	p.n = n
	return p
}

func (pl *Pool) putProbe(p *probe) {
	p.n = nil
	pl.probes = append(pl.probes, p)
}

// neighbors takes a cleared reply record off the list, or makes one.
func (pl *Pool) neighbors() *neighborsResp {
	if r := pop(&pl.replies); r != nil {
		return r
	}
	pl.repliesMade++
	return new(neighborsResp)
}

// putNeighbors lists a reply its prober has read, cleared, keeping the
// list's array. It keeps a reply only while fewer are listed than the
// pool has made: on a socket a prober reads decoded replies, not the
// records its own members handed out, and one that probes more than it
// is probed (koorde's Neighbors) would otherwise list more with every
// round. A reply over the bound is left to the collector.
func (pl *Pool) putNeighbors(r *neighborsResp) {
	if len(pl.replies) >= pl.repliesMade {
		return
	}
	r.Pred, r.Succs = NoEntry, r.Succs[:0]
	pl.replies = append(pl.replies, r)
}

// pop takes the newest record off a free list; nil when it is empty.
// It clears the slot, so the list's spare capacity does not keep a
// record in use — nor the member it names — reachable.
func pop[T any](free *[]*T) *T {
	l := *free
	if len(l) == 0 {
		return nil
	}
	rec := l[len(l)-1]
	l[len(l)-1] = nil
	*free = l[:len(l)-1]
	return rec
}

// Check reports the first broken rule of the lists, for tests to call
// between events: a record listed twice, a listed lookup still pending
// or still naming a resolver, callback or timer, a listed probe still
// naming a member, a listed message with any field set, a listed reply
// holding a predecessor or a list, more replies listed than made, or a
// record left in a list's spare capacity.
func (pl *Pool) Check() error {
	if !spareIsClear(pl.msgs) || !spareIsClear(pl.lookups) || !spareIsClear(pl.probes) || !spareIsClear(pl.replies) {
		return errors.New("chord: a list's spare capacity still holds a record")
	}
	if len(pl.replies) > pl.repliesMade {
		return fmt.Errorf("chord: %d replies listed, %d made", len(pl.replies), pl.repliesMade)
	}
	seen := make(map[any]bool)
	listed := func(rec any) error {
		if seen[rec] {
			return fmt.Errorf("chord: a %T is listed twice", rec)
		}
		seen[rec] = true
		return nil
	}
	for _, m := range pl.msgs {
		if err := listed(m); err != nil {
			return err
		}
		if !reflect.ValueOf(*m).IsZero() {
			return fmt.Errorf("chord: a listed message still holds %+v", *m)
		}
	}
	for _, p := range pl.lookups {
		if err := listed(p); err != nil {
			return err
		}
		if p.r != nil || p.cb != nil || p.timer != nil {
			return errors.New("chord: a listed lookup record still names its resolver, callback or timer")
		}
		if pl.pending[p.req] == p {
			return errors.New("chord: a listed lookup record is still pending")
		}
	}
	for _, p := range pl.probes {
		if err := listed(p); err != nil {
			return err
		}
		if p.n != nil {
			return errors.New("chord: a listed probe still names its member")
		}
	}
	for _, r := range pl.replies {
		if err := listed(r); err != nil {
			return err
		}
		if r.Pred != NoEntry || len(r.Succs) != 0 {
			return fmt.Errorf("chord: a listed reply still holds pred %v succs %v", r.Pred, r.Succs)
		}
	}
	return nil
}

func spareIsClear[T any](l []*T) bool {
	for _, rec := range l[len(l):cap(l)] {
		if rec != nil {
			return false
		}
	}
	return true
}

// oneWay takes a message carrying an application payload toward key,
// from r's peer; the owner lists it again once it has read it.
func (r *resolver) oneWay(key ids.ID, payload any, traced bool, path []trace.Hop) *routeMsg {
	m := r.pool.msg()
	m.Key, m.Payload, m.Origin, m.Traced, m.Path = key, payload, r.self.Node, traced, path
	return m
}

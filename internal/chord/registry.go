package chord

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
)

// Registry is the bootstrap gateway set every deployment keeps: the
// ring members a brand-new client may submit its first query through —
// the simulation's stand-in for out-of-band entry points (the
// supported websites themselves). On a multi-process backend the set
// is mirrored across processes over the transport's announcement Bus,
// so a member registered anywhere becomes a gateway everywhere; on
// single-process backends BindBus is a no-op and the Registry is plain
// local state.
//
// Entries is exported because gateway selection is protocol policy:
// deployments index and lazily prune the slice directly (dead entries
// are swap-removed as they are drawn, without announcements — every
// process prunes its own mirror against its own liveness view).
type Registry struct {
	Entries []Entry
	bus     runtime.Bus
}

// GatewayAnnounce and GatewayRetract are the bus messages mirroring
// registry changes across processes. They are shared by every
// deployment — only one protocol runs per process, so the types need
// no protocol tag.
type GatewayAnnounce struct{ E Entry }
type GatewayRetract struct{ Node runtime.NodeID }

func init() {
	runtime.RegisterWireType(GatewayAnnounce{}, GatewayRetract{})
}

// BindBus subscribes the registry to the transport's announcement bus
// when there is one. Call once, at deployment construction.
func (r *Registry) BindBus(net runtime.Net) {
	bus := runtime.BusOf(net)
	if bus == nil {
		return
	}
	r.bus = bus
	bus.Subscribe(func(msg any) {
		switch m := msg.(type) {
		case GatewayAnnounce:
			r.addLocal(m.E)
		case GatewayRetract:
			r.removeLocal(m.Node)
		}
	})
}

// Add records a new gateway and announces it to the other processes.
func (r *Registry) Add(e Entry) {
	r.addLocal(e)
	if r.bus != nil {
		r.bus.Announce(GatewayAnnounce{E: e})
	}
}

// Remove drops a gateway (a demoted-but-alive member that would
// otherwise swallow routed queries) and mirrors the removal.
func (r *Registry) Remove(nid runtime.NodeID) {
	r.removeLocal(nid)
	if r.bus != nil {
		r.bus.Announce(GatewayRetract{Node: nid})
	}
}

// addLocal appends one entry, deduplicating by node.
func (r *Registry) addLocal(e Entry) {
	for _, have := range r.Entries {
		if have.Node == e.Node {
			return
		}
	}
	r.Entries = append(r.Entries, e)
}

// removeLocal swap-removes the entry for nid, if present.
func (r *Registry) removeLocal(nid runtime.NodeID) {
	for i, e := range r.Entries {
		if e.Node == nid {
			r.Entries[i] = r.Entries[len(r.Entries)-1]
			r.Entries = r.Entries[:len(r.Entries)-1]
			return
		}
	}
}

// Len returns the number of recorded gateways (alive or not).
func (r *Registry) Len() int { return len(r.Entries) }

// PickAlive draws a uniformly random alive gateway, excluding one node
// (usually a member just observed dead; pass runtime.None to exclude
// nothing) and lazily swap-removing dead entries as they are drawn.
// Prunes are local only — every process ages its own mirror against
// its own liveness view; no retraction is announced. Returns NoEntry
// when no eligible gateway remains.
func (r *Registry) PickAlive(rng *rnd.RNG, alive func(runtime.NodeID) bool, exclude runtime.NodeID) Entry {
	for len(r.Entries) > 0 {
		i := rng.Intn(len(r.Entries))
		e := r.Entries[i]
		if alive(e.Node) && e.Node != exclude {
			return e
		}
		// Prune: swap-remove. (Excluded-but-alive entries are removed
		// from this scan's perspective only if dead; keep alive excluded
		// ones by tolerating a few extra draws.)
		if !alive(e.Node) {
			r.Entries[i] = r.Entries[len(r.Entries)-1]
			r.Entries = r.Entries[:len(r.Entries)-1]
			continue
		}
		// Alive but excluded: try again; with only the excluded node
		// left, give up to avoid spinning.
		if len(r.Entries) == 1 {
			return NoEntry
		}
	}
	return NoEntry
}

// Package baseline provides the reference deployments the evaluation
// compares Flower-CDN against. It holds two drivers.
//
// origin-only (originonly.go) is no P2P system at all — every query
// goes straight to the website's origin server. This is the floor any
// CDN must beat: hit ratio zero by construction, transfer distance equal
// to the client-origin latency.
//
// The ring-directory deployment (ringdir.go) is Squirrel's scheme and
// the two baselines cut from it: every peer joins one global ring, an
// object's directory — which peers cache it, a few per object — lives at
// the *home node* owning the object's ring key, a query routes to the
// home and is redirected to a RANDOM provider, and the directory dies
// with its home. There is no locality notion anywhere. A home suggests
// one provider per query and remembers four per object: Squirrel's
// numbers, fixed for all three protocols. One driver runs all three
// protocols; a protocol is a RingSpec registered with
// RegisterRingDirectory, and the spec is the complete list of what may
// differ:
//
//   - Router: the overlay the ring is (the chord-demo option is lowered
//     here). squirrel and chord-global route over Chord fingers
//     (ChordRouter), koorde-global over Koorde's de Bruijn edges — the
//     only difference between those two, so their hit ratios match and
//     their hop counts compare the routing geometries.
//   - HomeKey: which key an object's directory lives at. squirrel hashes
//     (site, object), as the Squirrel paper does; the two -global
//     protocols hash the site alone (SiteHome), one home per website
//     like a Flower-CDN directory peer.
//   - PushSummaries: whether peers re-register everything they cache with
//     their site's home every 2 x keepalive-interval. Off for squirrel,
//     whose lost directories stay lost (Sec. 2 — what breaks its hit ratio
//     under churn in Fig. 3); on for the -global protocols, where it is
//     the only thing that rebuilds a directory after its home fails.
//   - PeerStream, RingID, RouterStream, RootDraws: the names of each
//     protocol's random streams and ring-position hash, and squirrel's
//     habit of drawing placements and gateway picks from the root stream.
//     They carry no meaning; they differ because the three drivers were
//     written separately and every run fingerprint depends on them.
//
// So chord-global differs from squirrel in exactly two ways (site-granular
// homes, the summary refresh) and from Flower-CDN in exactly one,
// locality: it isolates how much of Flower-CDN's win comes from
// locality awareness versus from having a P2P directory at all.
// chord-global is registered here (chordglobal.go); internal/squirrel
// and internal/koorde register the other two.
//
// All of them register with the protocol runtime (internal/proto) and
// are driven by the harness exactly like the paper's protocols.
package baseline

import (
	"errors"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"

	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/workload"
)

func init() {
	// origin-only reads only the shared cache keys: its peers still cache
	// what they fetch, the cache just never serves anyone else.
	proto.Register(proto.Info{
		Name:    "origin-only",
		Summary: "no P2P system: every query fetches from the origin server (the floor)",
		Compare: false, // degenerate floor; reachable by name, excluded from default grids
		Order:   4,
	}, func(opts proto.Options) (func(proto.Env) (proto.System, error), error) {
		cacheCfg, err := proto.CacheConfigFromOptions(opts)
		if err != nil {
			return nil, err
		}
		return func(env proto.Env) (proto.System, error) {
			return &originDriver{env: env, idRNG: env.RNG.Split("identities"),
				newStore: cacheCfg.StoreFactory(env)}, nil
		}, nil
	})
}

type originDriver struct {
	env      proto.Env
	idRNG    *rnd.RNG
	newStore func() *content.Store
	peers    proto.Roster[*originPeer]
}

// SpawnSeed: origin-only seeds are ordinary clients.
func (d *originDriver) SpawnSeed(int) (proto.Individual, func()) {
	ind := d.NewIndividual()
	return ind, d.Spawn(ind)
}

func (d *originDriver) NewIndividual() proto.Individual {
	return proto.Identity{
		Site:      d.env.Workload.AssignInterest(d.idRNG),
		Placement: d.env.Topo.Place(d.idRNG),
		Store:     d.newStore(),
	}
}

func (d *originDriver) Spawn(ind proto.Individual) func() {
	id := ind.(proto.Identity)
	p := &originPeer{
		d:     d,
		site:  id.Site,
		store: id.Store,
		rng:   d.env.RNG.Split(fmt.Sprintf("origin-peer-%d", d.peers.Spawned()+1)),
	}
	p.nid = d.env.Net.Join(p, id.Placement)
	d.peers.Add(p)
	if d.env.Workload.Active(p.site) {
		p.scheduleNextQuery(p.d.env.Workload.FirstQueryDelay(p.rng))
	}
	return p.kill
}

func (d *originDriver) Stats() proto.Stats {
	return proto.Stats{
		proto.StatPeersSpawned: float64(d.peers.Spawned()),
		proto.StatAlivePeers:   float64(d.peers.Alive()),
	}
}

// originPeer is a pure client: it never serves, never joins an
// overlay, and resolves every query at the origin.
type originPeer struct {
	d     *originDriver
	nid   runtime.NodeID
	site  content.SiteID
	store *content.Store
	rng   *rnd.RNG
	timer runtime.Timer
	dead  bool
}

func (p *originPeer) scheduleNextQuery(delay int64) {
	p.timer = p.d.env.Clock.Schedule(delay, func() {
		if p.dead {
			return
		}
		p.issueQuery()
		p.scheduleNextQuery(p.d.env.Workload.NextQueryDelay(p.rng))
	})
}

func (p *originPeer) issueQuery() {
	key, ok := p.d.env.Workload.PickObject(p.rng, p.site, p.store)
	if !ok {
		return
	}
	env := p.d.env
	origin := env.Origins.Node(key.Site)
	now := env.Clock.Now()
	dist := env.Oracle.Latency(p.nid, origin)
	// The provider is known a priori: the query resolves the instant it
	// is issued, a miss with the one leg to the origin still to travel,
	// and the transfer covers the same distance back.
	env.Metrics.Emit(metrics.QueryEvent(now, metrics.Miss, metrics.LookupLatency(now, now, metrics.Miss, dist), dist))
	env.Metrics.Emit(metrics.CounterEvent(now, "origin_fetches", 1))
	env.Net.Request(p.nid, origin, env.Workload.FetchReqMsg(key), 0,
		func(_ any, err error) {
			if p.dead || err != nil {
				return
			}
			p.store.Add(key)
		})
}

func (p *originPeer) kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.d.peers.Drop()
	if p.timer != nil {
		p.timer.Cancel()
	}
	p.d.env.Net.Fail(p.nid)
}

// Alive implements the proto.Roster entry.
func (p *originPeer) Alive() bool { return !p.dead }

// HandleMessage implements runtime.Handler; origin-only peers receive
// no protocol traffic.
func (p *originPeer) HandleMessage(runtime.NodeID, any) {}

// HandleRequest answers direct fetch probes for symmetry with the
// other deployments (nothing addresses them in this protocol).
func (p *originPeer) HandleRequest(_ runtime.NodeID, req any) (any, error) {
	if p.dead {
		return nil, errors.New("baseline: dead peer")
	}
	if r, ok := req.(workload.FetchReq); ok {
		return p.d.env.Workload.FetchRespMsg(r.Key, p.store.Has(r.Key)), nil
	}
	return nil, fmt.Errorf("baseline: unhandled request %T", req)
}

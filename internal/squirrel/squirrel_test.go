package squirrel_test

import (
	"slices"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/ringcheck"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// This suite drives the ring-directory deployment (internal/baseline)
// through each of its three drivers, black-box: peers come and go
// through proto.System, and everything asserted is read from the
// metrics stream, the query traces and the RingInspector snapshot. It
// lives beside Squirrel, the paper's baseline, whose behaviours these
// are; the two -global protocols must show the same ones, plus the one
// the summary switch adds (TestHomeFailureLosesDirectory).

type protocol struct {
	name string
	// summaries: peers re-register their content with the site's home
	// every 2 x keepalive-interval.
	summaries bool
}

var ringProtocols = []protocol{
	{name: "squirrel"},
	{name: "chord-global", summaries: true},
	{name: "koorde-global", summaries: true},
}

// driver resolves p in the protocol list.
func (p protocol) driver() proto.Driver {
	d, ok := protocols.Lookup(p.name)
	if !ok {
		panic("no protocol " + p.name)
	}
	return d
}

func eachProtocol(t *testing.T, fn func(t *testing.T, p protocol)) {
	for _, p := range ringProtocols {
		t.Run(p.name, func(t *testing.T) { fn(t, p) })
	}
}

// joinSpy reports the address the deployment's last Join was given, so
// a test can tell which ring member or trace hop is which of its peers.
// With ghosts set, its oracle calls every node alive.
type joinSpy struct {
	runtime.Transport
	last   runtime.NodeID
	ghosts bool
}

func (j *joinSpy) Alive(id runtime.NodeID) bool { return j.ghosts || j.Transport.Alive(id) }

func (j *joinSpy) Join(h runtime.Handler, p topology.Placement) runtime.NodeID {
	j.last = j.Transport.Join(h, p)
	return j.last
}

// session is one online peer: its handle and its query timer.
type session struct {
	node    runtime.NodeID
	store   *content.Store
	h       proto.Session
	queries *proto.QueryTimer
}

// kill ends the session as the harness does: its queries, then the peer.
func (s *session) kill() {
	s.queries.Stop()
	s.h.Kill()
}

type fixture struct {
	rt     *simrt.Runtime
	topo   *topology.Topology
	net    *joinSpy
	rng    *rnd.RNG
	coll   *metrics.Collector
	traces *trace.Collector
	sys    proto.System
	// queries is the fixture's query process, the harness's own.
	queries *proto.Queries
	peers   map[runtime.NodeID]*session
}

// newFixture builds a deployment of p over the sim backend: 4 sites of
// objects objects, sites 0 and 1 queried, a query every 2 minutes.
func newFixture(t *testing.T, p protocol, seed uint64, objects int, opts proto.Options) *fixture {
	t.Helper()
	rng := rnd.New(seed)
	topo := topology.MustNew(topology.DefaultConfig(), rng.Split("topo"))
	rt := simrt.New(topo)
	net := &joinSpy{Transport: rt.Net()}
	wcfg := workload.DefaultConfig()
	wcfg.Sites = 4
	wcfg.ObjectsPerSite = objects
	wcfg.ActiveSites = 2
	wcfg.QueryMeanInterval = 2 * runtime.Minute
	work, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{rt: rt, topo: topo, net: net, rng: rng,
		coll: metrics.NewCollector(runtime.Hour), traces: &trace.Collector{},
		peers: map[runtime.NodeID]*session{}}
	pipe := metrics.NewPipeline(f.coll, f.traces)
	f.sys, err = p.driver().New(proto.Env{
		Clock:    rt.Clock(),
		Net:      net,
		Oracle:   net,
		Topo:     topo,
		RNG:      rng.Split(p.name),
		Workload: work,
		Origins:  workload.NewOrigins(work, net, topo, rng.Split("origins")),
		Metrics:  pipe,
		Trace:    trace.New(pipe, net.Locality),
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.queries = proto.NewQueries(rt.Clock(), work, pipe, nil)
	return f
}

// spawn brings a new individual online — interested in site, caching
// store (nil: nothing) — and runs the simulation for settle.
func (f *fixture) spawn(site content.SiteID, store *content.Store, settle int64) *session {
	if store == nil {
		store = content.NewStore()
	}
	id := proto.Identity{Site: site, Placement: f.topo.Place(f.rng), Store: store, Work: f.rng.Split("work")}
	s := &session{store: store, h: f.sys.Spawn(id)}
	s.queries = f.queries.Start(id, s.h)
	s.node = f.net.last
	f.peers[s.node] = s
	f.run(settle)
	return s
}

func (f *fixture) run(d int64) { f.rt.Run(f.rt.Now() + d) }

func (f *fixture) members() []proto.RingMember {
	return f.sys.(proto.RingInspector).RingMembers()
}

func (f *fixture) hits() uint64 { return f.coll.Count(metrics.HitDirectory) }

// homes returns every node that answered a query as its home in
// records[from:].
func (f *fixture) homes(from int) map[runtime.NodeID]bool {
	out := map[runtime.NodeID]bool{}
	for _, rec := range f.traces.Records()[from:] {
		if home := homeOf(rec); home != runtime.None {
			out[home] = true
		}
	}
	return out
}

// homeOf returns the node that answered rec's query as its home (None
// if the overlay never delivered it).
func homeOf(rec *trace.Record) runtime.NodeID {
	for _, h := range rec.Hops {
		if h.Kind == trace.HopHome {
			return h.Node
		}
	}
	return runtime.None
}

// bystanders is how many ring members on a site nobody queries the two
// home-failure scenarios start with, so that homes are mostly not the
// peers under test. A ring position hashes from a peer's address, which
// counts joins: this number, not the seed, decides who is home, and the
// scenarios' "setup:" checks say so if it stops suiting them.
const bystanders = 18

// siteStore returns a store holding objects [from, n) of site.
func siteStore(site content.SiteID, from, n int) *content.Store {
	s := content.NewStore()
	for o := from; o < n; o++ {
		s.Add(content.Key{Site: site, Object: content.ObjectID(o)})
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		if err := p.driver().Check(nil); err != nil {
			t.Fatalf("defaults rejected: %v", err)
		}
		bads := []proto.Options{
			{"query-timeout": int64(0)},
			{"cache-policy": "bogus"},
			{"cache-capacity": 8},
		}
		if p.summaries {
			bads = append(bads, proto.Options{"keepalive-interval": int64(-1)})
		} else if err := p.driver().Check(proto.Options{"keepalive-interval": int64(-1)}); err != nil {
			t.Errorf("keepalive-interval is not this protocol's key, yet: %v", err)
		}
		for _, opts := range bads {
			if p.driver().Check(opts) == nil {
				t.Errorf("bad options %v accepted", opts)
			}
		}
		if _, err := p.driver().New(proto.Env{}, nil); err == nil {
			t.Error("missing dependencies accepted")
		}
	})
}

func TestPeersFormRing(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 1, 50, nil)
		for i := 0; i < 12; i++ {
			f.spawn(content.SiteID(i%4), nil, 30*runtime.Second)
		}
		f.run(10 * runtime.Minute)
		members := f.members()
		joined := map[runtime.NodeID]bool{}
		for _, m := range members {
			joined[m.Node] = true
		}
		for node := range f.peers {
			if !joined[node] {
				t.Errorf("peer %d never joined the ring", node)
			}
		}
		if rep := ringcheck.Check(members, ringcheck.Options{}); len(members) != 12 || !rep.OK() {
			t.Fatalf("%d members, violations %v; want one ordered ring of 12", len(members), rep.Violations)
		}
		if st := f.sys.Stats(); st[proto.StatAlivePeers] != 12 || st[proto.StatPeersSpawned] != 12 {
			t.Fatalf("stats %v, want 12 alive of 12 spawned", st)
		}
	})
}

func TestFirstQueryMissesThenDelegateHit(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 2, 50, nil)
		for i := 0; i < 10; i++ {
			f.spawn(0, nil, 30*runtime.Second) // all on the active site
		}
		f.run(3 * runtime.Hour)
		if f.coll.Count(metrics.Miss) == 0 {
			t.Fatal("no misses: first fetches must come from the origin")
		}
		if f.hits() == 0 {
			t.Fatal("no delegate hits despite popular Zipf objects and shared homes")
		}
		// Every hit is a home's redirect to another peer that served.
		for _, rec := range f.traces.Records() {
			if rec.Outcome != metrics.HitDirectory {
				continue
			}
			var home, probe, serve *trace.Hop
			for i := range rec.Hops {
				switch h := &rec.Hops[i]; h.Kind {
				case trace.HopHome:
					home = h
				case trace.HopProbe:
					probe = h
				case trace.HopServe:
					serve = h
				}
			}
			if home == nil || probe == nil || serve == nil || f.peers[home.Node] == nil ||
				probe.Node != serve.Node || serve.Node == rec.Client || f.peers[serve.Node] == nil {
				t.Fatalf("query %d hit without home → delegate → serve: %+v", rec.Query, rec.Hops)
			}
		}
	})
}

// A directory lives only at its home and dies with it. Squirrel never
// rebuilds it: the holders are known to nobody until they query again,
// and a peer that holds an object does not. With the summary switch on,
// every holder re-registers at the site's new home within one refresh
// period (2 x keepalive-interval), so directory hits come back.
func TestHomeFailureLosesDirectory(t *testing.T) {
	const objects, refresh = 20, 10 * runtime.Minute
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 3, objects, proto.Options{"keepalive-interval": int64(refresh / 2)})
		for i := 0; i < bystanders; i++ {
			f.spawn(3, nil, 30*runtime.Second)
		}
		// Holders lack objects 0-2 of site 0 and query nothing else: the
		// first fetches them from the origin, the later ones from it.
		var holders []*session
		for i := 0; i < 4; i++ {
			holders = append(holders, f.spawn(0, siteStore(0, 3, objects), 10*runtime.Minute))
		}
		f.run(10 * runtime.Minute)
		if f.hits() == 0 {
			t.Fatal("setup: no directory hit before the failure")
		}
		dead := f.homes(0)
		for node := range dead {
			f.peers[node].kill()
		}
		alive := 0
		for _, h := range holders {
			if !dead[h.node] && h.store.Len() == objects {
				alive++
			}
		}
		if alive < 2 {
			t.Fatalf("setup: %d complete holders left after killing the homes %v", alive, dead)
		}
		f.run(refresh + runtime.Minute)

		before, queries, records := f.hits(), f.coll.Total(), f.traces.Len()
		client := f.spawn(0, siteStore(0, 3, objects), 30*runtime.Minute)
		if client.store.Len() != objects || f.coll.Total() != queries+3 {
			t.Fatalf("queries stopped after the home failure: client holds %d of %d objects after %d queries",
				client.store.Len(), objects, f.coll.Total()-queries)
		}
		for node := range f.homes(records) {
			if dead[node] {
				t.Fatalf("dead node %d still answers as home", node)
			}
		}
		switch got := f.hits() - before; {
		case p.summaries && got == 0:
			t.Fatal("no directory hit one refresh period after the home died: summaries did not rebuild it")
		case !p.summaries && got != 0:
			t.Fatalf("%d directory hits after every home died, with nothing to rebuild a directory from", got)
		}
	})
}

func TestNonActivePeersDoNotQuery(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 4, 50, nil)
		s := f.spawn(3, nil, runtime.Hour) // inactive site
		if m := f.members(); len(m) != 1 || m[0].Node != s.node {
			t.Fatal("inactive-site peer should still join the ring (churn load)")
		}
		if s.store.Len() != 0 || f.coll.Total() != 0 {
			t.Fatal("inactive-site peer queried")
		}
	})
}

// A home remembers the four delegates of an object that registered
// last and redirects a query to one of those: a delegate that
// registered before them is forgotten, alive and holding the object as
// it is. Every query registers its client, so the clients that fetch
// one object in turn are its delegates in registration order.
func TestDelegateCapBounded(t *testing.T) {
	const objects, clients, remembered = 20, 24, 4
	eachProtocol(t, func(t *testing.T, p protocol) {
		// A summary push would register a forgotten delegate again; the
		// first comes a random share of 2 x keepalive-interval after a
		// join, so this one puts them all far past the test.
		f := newFixture(t, p, 5, objects, proto.Options{"keepalive-interval": int64(1000 * runtime.Hour)})
		for i := 0; i < bystanders; i++ {
			f.spawn(3, nil, 30*runtime.Second)
		}
		// A client whose address hashes into the home's arc takes the
		// home of object 0 over, with none of its directory. It leaves
		// again as soon as a query finds it home — the ring heals around
		// it and hands the arc back to the old home, whose directory
		// never left — so the delegates pile up at one home, whichever
		// addresses the clients get.
		isClient := map[runtime.NodeID]bool{}
		for i := 0; i < clients; i++ {
			c := f.spawn(0, siteStore(0, 1, objects), 5*runtime.Minute)
			isClient[c.node] = true
			recs := f.traces.Records()
			if len(recs) == 0 {
				continue
			}
			if home := homeOf(recs[len(recs)-1]); isClient[home] {
				f.peers[home].kill()
				f.run(5 * runtime.Minute)
			}
		}
		records := f.traces.Records()
		if len(records) != clients {
			t.Fatalf("setup: %d queries from %d clients", len(records), clients)
		}
		// registered holds each home's delegates of object 0, oldest
		// first: the ring may move the home while clients join.
		registered := map[runtime.NodeID][]runtime.NodeID{}
		redirects, forgetting := 0, 0
		for i, rec := range records {
			home := homeOf(rec)
			if home == runtime.None {
				t.Fatalf("setup: query %d never reached a home", i)
			}
			delegates := registered[home]
			last := delegates[max(0, len(delegates)-remembered):]
			probes := 0
			for _, h := range rec.Hops {
				if h.Kind != trace.HopProbe {
					continue
				}
				probes++
				if !slices.Contains(last, h.Node) {
					t.Fatalf("query %d was redirected to %d, not one of the last %d delegates %v of the %d registered at home %d",
						i, h.Node, remembered, last, len(delegates), home)
				}
			}
			if probes > 1 {
				t.Fatalf("query %d was redirected to %d delegates, want one: %+v", i, probes, rec.Hops)
			}
			redirects += probes
			if len(delegates) > remembered {
				forgetting++
			}
			registered[home] = append(delegates, rec.Client)
		}
		if forgetting < clients/2 || redirects < clients/2 {
			t.Fatalf("setup: %d of %d queries reached a home with forgotten delegates, %d were redirected",
				forgetting, clients, redirects)
		}
	})
}

func TestLookupLatencyReflectsMultiHopRouting(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 6, 50, nil)
		for i := 0; i < 24; i++ {
			f.spawn(0, nil, 20*runtime.Second)
		}
		f.run(4 * runtime.Hour)
		if f.coll.Total() < 50 {
			t.Fatalf("too few queries recorded: %d", f.coll.Total())
		}
		// Multi-hop DHT routing across random localities must produce mean
		// lookup latencies far above one intra-locality RTT.
		if mean := f.coll.MeanLookupLatency(); mean < 200 {
			t.Fatalf("mean lookup latency %.0f ms suspiciously low for DHT routing", mean)
		}
	})
}

func TestKillIdempotentAndSilent(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 7, 50, nil)
		s := f.spawn(0, nil, runtime.Minute)
		s.kill()
		s.kill()
		f.run(runtime.Hour) // no panics from stray timers
		if st := f.sys.Stats(); st[proto.StatAlivePeers] != 0 || len(f.members()) != 0 {
			t.Fatalf("peer alive after kill: stats %v, %d ring members", st, len(f.members()))
		}
	})
}

// A killed peer leaves nothing armed: with every peer of a deployment
// dead the event queue drains (cancelled timers go as the wheel reaches
// them, nothing re-arms) and the deployment's roster is empty, so
// nothing it holds can reach a dead peer.
func TestKilledDeploymentDrainsTheEventQueue(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 9, 50, nil)
		var sessions []*session
		for i := 0; i < 12; i++ {
			sessions = append(sessions, f.spawn(content.SiteID(i%4), nil, 30*runtime.Second))
		}
		f.run(2 * runtime.Hour)
		if f.coll.Total() == 0 || len(f.members()) != 12 {
			t.Fatalf("%d queries, %d ring members before the kill", f.coll.Total(), len(f.members()))
		}
		for _, s := range sessions {
			s.kill()
		}
		f.run(6 * runtime.Hour)
		if n := f.rt.Engine().Pending(); n != 0 {
			t.Fatalf("%d timers still pending 6 h after the last peer died: something re-arms", n)
		}
		if st := f.sys.Stats(); st[proto.StatAlivePeers] != 0 || st[proto.StatPeersSpawned] != 12 || len(f.members()) != 0 {
			t.Fatalf("after the kill: stats %v, %d ring members", st, len(f.members()))
		}
	})
}

// TestAbandonedJoinIsCounted forces a peer's three ring joins to fail —
// its one gateway is dead, but the oracle calls it alive, so every
// attempt goes there and times out — and checks that the deployment
// counts the peer under ring_join_abandoned once its last attempt has
// failed, not before, and that the peer stays online off the ring.
func TestAbandonedJoinIsCounted(t *testing.T) {
	eachProtocol(t, func(t *testing.T, p protocol) {
		f := newFixture(t, p, 3, 50, nil)
		f.spawn(0, nil, runtime.Minute).kill()
		f.net.ghosts = true
		f.spawn(1, nil, runtime.Second)
		if got := f.sys.Stats()[proto.StatRingJoinAbandoned]; got != 0 {
			t.Fatalf("%v joins abandoned a second after the first attempt, want 0", got)
		}
		f.run(10 * runtime.Minute)
		st := f.sys.Stats()
		if st[proto.StatRingJoinAbandoned] != 1 || st[proto.StatAlivePeers] != 1 || len(f.members()) != 0 {
			t.Fatalf("after the third failed join: stats %v, %d ring members; want 1 abandoned, 1 alive, none on the ring", st, len(f.members()))
		}
	})
}

package flower

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"fmt"
	"strings"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// fixture assembles a miniature Flower-CDN world: a small catalog, two
// localities, fast maintenance timers.
type fixture struct {
	t       *testing.T
	eng     *simrt.Runtime
	net     runtime.Transport
	topo    *topology.Topology
	rng     *rnd.RNG
	work    *workload.Workload
	origins *workload.Origins
	coll    *metrics.Collector
	sys     *System
	// pop mints the fixture's individuals, as the harness does a run's,
	// and queries issues their queries; timers holds each peer's.
	pop     *proto.Population
	queries *proto.Queries
	timers  map[*Peer]*proto.QueryTimer
	seeds   []*Peer
}

func newFixture(t *testing.T, seed uint64, mut func(*Config)) *fixture {
	t.Helper()
	return newFixtureWith(t, seed, mut, nil)
}

// newFixtureWith is newFixture for tests that also change what the
// system runs on (a tracer, a wrapped metrics emitter).
func newFixtureWith(t *testing.T, seed uint64, mut func(*Config), envMut func(*proto.Env)) *fixture {
	t.Helper()
	rng := rnd.New(seed)
	tcfg := topology.DefaultConfig()
	tcfg.Localities = 2
	topo := topology.MustNew(tcfg, rng.Split("topo"))
	eng := simrt.New(topo)
	net := eng.Net()

	wcfg := workload.DefaultConfig()
	wcfg.Sites = 4
	wcfg.ObjectsPerSite = 50
	wcfg.ActiveSites = 3
	wcfg.QueryMeanInterval = 2 * runtime.Minute
	work, err := workload.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := workload.NewOrigins(work, net, topo, rng.Split("origins"))
	coll := metrics.NewCollector(runtime.Hour)

	cfg := DefaultConfig()
	cfg.Gossip.Period = 5 * runtime.Minute
	cfg.KeepaliveInterval = 10 * runtime.Minute
	if mut != nil {
		mut(&cfg)
	}
	env := proto.Env{Net: net, Oracle: net, Topo: topo, RNG: rng.Split("flower"), Workload: work, Origins: origins, Metrics: coll}
	if envMut != nil {
		envMut(&env)
	}
	sys, err := NewSystem(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := proto.NewPopulation(topo, work, rng.Split("population"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, eng: eng, net: net, topo: topo, rng: rng, work: work, origins: origins, coll: coll, sys: sys, pop: pop,
		queries: proto.NewQueries(eng.Clock(), work, env.Metrics, nil), timers: map[*Peer]*proto.QueryTimer{}}
}

// online starts the query timer of a session of id, as the harness
// does, and returns its peer.
func (f *fixture) online(id proto.Identity, s proto.Session) *Peer {
	p := s.(*Peer)
	f.timers[p] = f.queries.Start(id, s)
	return p
}

// kill ends p's session as the harness does: its queries, then the peer.
func (f *fixture) kill(p *Peer) {
	f.timers[p].Stop()
	p.Kill()
}

// seedRing spawns one directory per (site, locality), 200 ms apart, and
// lets the ring stabilize.
func (f *fixture) seedRing() {
	f.t.Helper()
	k := f.topo.Localities()
	for s := 0; s < f.work.Config().Sites; s++ {
		for l := 0; l < k; l++ {
			site, loc := content.SiteID(s), topology.Locality(l)
			f.eng.Schedule(int64(s*k+l)*200, func() {
				id := f.pop.At(site, loc)
				f.seeds = append(f.seeds, f.online(id, f.sys.SpawnSeed(id)))
			})
		}
	}
	f.run(10 * runtime.Minute)
	for _, p := range f.seeds {
		if p.Role() != RoleDirectory {
			f.t.Fatalf("seed %d (site %d loc %d) role = %v, want directory",
				p.NodeID(), p.Site(), p.Locality(), p.Role())
		}
	}
}

func (f *fixture) run(d int64) {
	f.eng.Run(f.eng.Now() + d)
}

// beside draws a placement in p's locality, from a stream of its own so
// that the fixture's draws do not move.
func (f *fixture) beside(p *Peer) topology.Placement {
	return f.topo.PlaceAt(p.Locality(), rnd.New(uint64(p.NodeID())))
}

// spawn creates a client and runs until its arrival settles.
func (f *fixture) spawn(site content.SiteID, loc topology.Locality) *Peer {
	id := f.pop.At(site, loc)
	return f.online(id, f.sys.Spawn(id))
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.KeepaliveInterval = 0 },
		func(c *Config) { c.PushThreshold = 0 },
		func(c *Config) { c.PushThreshold = 1.5 },
		func(c *Config) { c.QueryTimeout = 0 },
		func(c *Config) { c.DirLoadLimit = -1 },
		func(c *Config) { c.Chord.ClaimTTL = 0 },
		func(c *Config) { c.Gossip.Period = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// The substrate is vetted by the driver (Driver.New checks the Env
// once for every protocol); what NewSystem itself checks is its Config.
func TestNewSystemRequiresDeps(t *testing.T) {
	for _, d := range []proto.Driver{Flower, PetalUp} {
		if _, err := d.New(proto.Env{}, nil); err == nil || !strings.Contains(err.Error(), d.Info.Name) {
			t.Fatalf("%s: missing deps accepted or unnamed: %v", d.Info.Name, err)
		}
	}
	bad := DefaultConfig()
	bad.QueryTimeout = 0
	if _, err := NewSystem(bad, proto.Env{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDirInfoFresher(t *testing.T) {
	pos := dring.Position(1, 0, 0)
	cur := DirInfo{Pos: pos, Node: 5, Age: 3}
	if !(DirInfo{Pos: pos, Node: 9, Age: 1}).Fresher(cur) {
		t.Fatal("younger record should be fresher")
	}
	if (DirInfo{Pos: pos, Node: 9, Age: 3}).Fresher(cur) {
		t.Fatal("equal age is not fresher")
	}
	if (DirInfo{Pos: dring.Position(1, 1, 0), Node: 9, Age: 0}).Fresher(cur) {
		t.Fatal("different position must never merge")
	}
	orphan := DirInfo{Pos: pos, Node: runtime.None}
	if !(DirInfo{Pos: pos, Node: 9, Age: 7}).Fresher(orphan) {
		t.Fatal("any valid record beats an orphaned one")
	}
	if (DirInfo{Pos: pos, Node: runtime.None, Age: 0}).Fresher(cur) {
		t.Fatal("invalid record is never fresher")
	}
}

func TestSeedRingForms(t *testing.T) {
	f := newFixture(t, 1, nil)
	f.seedRing()
	want := f.work.Config().Sites * f.topo.Localities()
	if got := f.sys.DirectoryCount(); got != want {
		t.Fatalf("alive directories = %d, want %d", got, want)
	}
	// Every seed holds its deterministic position.
	for _, p := range f.seeds {
		wantPos := dring.Position(p.Site(), p.Locality(), 0)
		if p.Directory().Pos() != wantPos {
			t.Fatalf("seed at wrong position: %v != %v", p.Directory().Pos(), wantPos)
		}
	}
}

func TestFirstQueryMissThenJoinPetal(t *testing.T) {
	f := newFixture(t, 2, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatalf("client role = %v after first query, want content", c.Role())
	}
	if c.Store().Len() == 0 {
		t.Fatal("client did not store its first object")
	}
	if f.coll.Count(metrics.Miss) == 0 {
		t.Fatal("first query in an empty petal should miss to origin")
	}
	if !c.DirInfo().Valid() {
		t.Fatal("client did not adopt its directory")
	}
	wantPos := dring.Position(0, c.Locality(), 0)
	if c.DirInfo().Pos != wantPos {
		t.Fatalf("client dir position %v, want %v", c.DirInfo().Pos, wantPos)
	}
}

func TestPushPopulatesDirectoryIndex(t *testing.T) {
	f := newFixture(t, 3, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	// Find the directory of c's petal and check the index holds c's key.
	var dir *Peer
	for _, p := range f.seeds {
		if p.Site() == 0 && p.Locality() == c.Locality() {
			dir = p
		}
	}
	if dir == nil {
		t.Fatal("no directory seed found")
	}
	if dir.Directory().index.Len() == 0 {
		t.Fatal("directory index empty after client's first push")
	}
	if dir.Directory().MemberCount() == 0 {
		t.Fatal("client not in directory view")
	}
}

func TestSecondClientGetsDirectoryHit(t *testing.T) {
	f := newFixture(t, 4, nil)
	f.seedRing()
	// Client A populates the petal with Zipf-popular objects.
	a := f.spawn(0, 0)
	f.run(30 * runtime.Minute)
	_ = a
	hitsBefore := f.coll.Hits()
	// A wave of clients in the same petal: their queries should start
	// hitting content peers.
	for i := 0; i < 6; i++ {
		f.spawn(0, 0)
	}
	f.run(40 * runtime.Minute)
	if f.coll.Hits() == hitsBefore {
		t.Fatal("no P2P hits despite populated petal")
	}
}

func TestGossipSummaryHits(t *testing.T) {
	f := newFixture(t, 5, nil)
	f.seedRing()
	for i := 0; i < 5; i++ {
		f.spawn(1, 1)
	}
	// Long run: petal members gossip summaries and resolve locally.
	f.run(4 * runtime.Hour)
	if f.coll.Count(metrics.HitLocalGossip) == 0 {
		t.Fatal("no gossip-path hits after hours of petal life")
	}
	// Transfer distances for gossip hits should be intra-locality short;
	// check the overall transfer distribution has mass under 100ms.
	td := f.coll.TransferDistribution(metrics.Fig5Bounds)
	if td.CDFAt(100) == 0 {
		t.Fatal("no transfers within 100ms despite locality-aware petals")
	}
}

func TestNonActiveSiteJoinOnly(t *testing.T) {
	f := newFixture(t, 6, nil)
	f.seedRing()
	c := f.spawn(3, 0) // site 3 is inactive (ActiveSites=3 → 0,1,2)
	f.run(5 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatalf("non-active peer role = %v, want content (joined petal)", c.Role())
	}
	// A join-only arrival fetches nothing and issues no content queries
	// (active-site seed directories do query, so global metrics cannot
	// be compared; the peer's own state is the observable).
	if c.Store().Len() != 0 {
		t.Fatal("join-only peer should not have fetched content")
	}
	if f.timers[c] != nil {
		t.Fatal("join-only peer must not query")
	}
}

func TestDirectoryFailureReplacedByContentPeer(t *testing.T) {
	// The replacement claim routes over D-ring to the dead directory's
	// position, so it needs a ring that already routes around the dead
	// node. At Table 1's 30 s stabilization a member that detects the
	// death within the first minute finds it unhealed, and recovers by
	// the vacancy path instead. The compressed maintenance heals the
	// ring in about a second, before any member can confirm the death.
	f := newFixture(t, 7, func(c *Config) { c.Chord = chord.DemoConfig() })
	f.seedRing()
	// Build a petal with members.
	var members []*Peer
	for i := 0; i < 4; i++ {
		members = append(members, f.spawn(0, 0))
	}
	f.run(30 * runtime.Minute)
	loc := members[0].Locality()
	var dir *Peer
	for _, p := range f.seeds {
		if p.Site() == 0 && p.Locality() == loc {
			dir = p
		}
	}
	// Kill the directory; keepalives/pushes detect and a member claims.
	f.kill(dir)
	f.run(3 * f.sys.cfg.KeepaliveInterval)
	var newDir *Peer
	for _, m := range members {
		if m.Alive() && m.Role() == RoleDirectory {
			newDir = m
		}
	}
	if newDir == nil {
		t.Fatal("no content peer took over the directory position")
	}
	if newDir.Directory().Pos() != dring.Position(0, loc, 0) {
		t.Fatal("replacement took the wrong position")
	}
	if f.sys.Stats()["dir_replacements"] == 0 {
		t.Fatal("replacement counter not bumped")
	}
	// Survivors converge on the new directory via gossip/keepalive.
	f.run(3 * f.sys.cfg.KeepaliveInterval)
	for _, m := range members {
		if !m.Alive() || m == newDir {
			continue
		}
		if m.DirInfo().Node != newDir.NodeID() {
			t.Fatalf("member %d still points at %d, want new directory %d",
				m.NodeID(), m.DirInfo().Node, newDir.NodeID())
		}
	}
	// The dead directory's ring node and every claimant's drew on the
	// deployment's chord records; none may be listed twice or name them.
	if err := f.sys.chordPool.Check(); err != nil {
		t.Error(err)
	}
}

func TestVacantPositionClaimedByNewClient(t *testing.T) {
	f := newFixture(t, 8, nil)
	f.seedRing()
	// Kill the site-2/loc-1 directory; its petal is empty so nobody
	// replaces it until a client arrives.
	var dir *Peer
	for _, p := range f.seeds {
		if p.Site() == 2 && p.Locality() == 1 {
			dir = p
		}
	}
	f.kill(dir)
	f.run(2 * runtime.Minute)
	c := f.spawn(2, 1)
	f.run(10 * runtime.Minute)
	if c.Role() != RoleDirectory {
		t.Fatalf("client role = %v, want directory (vacancy claim)", c.Role())
	}
	if f.sys.Stats()["vacancy_claims"] == 0 {
		t.Fatal("vacancy claim counter not bumped")
	}
	// Its first query was still resolved (via origin).
	if f.coll.Count(metrics.Miss) == 0 {
		t.Fatal("claiming client's query was not resolved")
	}
}

func TestPetalUpPromotesUnderLoad(t *testing.T) {
	f := newFixture(t, 9, func(c *Config) {
		c.DirLoadLimit = 3
	})
	f.seedRing()
	for i := 0; i < 12; i++ {
		f.spawn(0, 0)
		f.run(2 * runtime.Minute)
	}
	f.run(30 * runtime.Minute)
	st := f.sys.Stats()
	if st["dir_promotions"] == 0 {
		t.Fatal("no PetalUp promotions despite load limit 3 and 12 arrivals")
	}
	// No instance should be wildly above the limit (new members keep
	// arriving between promotion trigger and integration, so allow
	// slack).
	var dirs []*Peer
	for _, p := range f.seeds {
		if p.Alive() && p.Site() == 0 && p.Role() == RoleDirectory {
			dirs = append(dirs, p)
		}
	}
	_ = dirs
}

func TestPetalUpScanReachesSecondInstance(t *testing.T) {
	f := newFixture(t, 10, func(c *Config) {
		c.DirLoadLimit = 2
	})
	f.seedRing()
	loc := topology.Locality(0)
	for i := 0; i < 10; i++ {
		f.spawn(0, loc)
		f.run(3 * runtime.Minute)
	}
	f.run(20 * runtime.Minute)
	// Some directory instance beyond 0 must exist for petal (0, loc):
	// promotions imply instance >= 1 joined.
	if f.sys.Stats()["dir_promotions"] == 0 {
		t.Fatal("expected at least one promotion")
	}
}

func TestGracefulLeaveHandsOffDirectory(t *testing.T) {
	f := newFixture(t, 11, nil)
	f.seedRing()
	var members []*Peer
	for i := 0; i < 3; i++ {
		members = append(members, f.spawn(0, 0))
	}
	f.run(30 * runtime.Minute)
	loc := members[0].Locality()
	var dir *Peer
	for _, p := range f.seeds {
		if p.Site() == 0 && p.Locality() == loc {
			dir = p
		}
	}
	indexBefore := dir.Directory().index.Len()
	if indexBefore == 0 {
		t.Fatal("setup: directory index empty")
	}
	dir.Leave()
	f.run(5 * runtime.Minute)
	var newDir *Peer
	for _, m := range members {
		if m.Alive() && m.Role() == RoleDirectory {
			newDir = m
		}
	}
	if newDir == nil {
		t.Fatal("handoff recipient did not take the position")
	}
	if newDir.Directory().index.Len() == 0 {
		t.Fatal("handoff lost the directory index")
	}
}

func TestKilledPeerIsSilent(t *testing.T) {
	f := newFixture(t, 12, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	f.kill(c)
	f.kill(c) // idempotent
	if c.Alive() {
		t.Fatal("killed peer reports alive")
	}
	msgs := f.net.Stats().MessagesSent
	f.run(2 * runtime.Hour)
	_ = msgs // other peers keep talking; just ensure no panic occurred
}

func TestQueryLoopSkipsWhenQueryOutstanding(t *testing.T) {
	f := newFixture(t, 13, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	// Inject a stuck query; a tick must not replace it.
	stuck := &activeQuery{seq: 999999, key: content.Key{Site: 0, Object: 49}, start: f.eng.Now()}
	c.query = stuck
	if !c.Query(content.Key{Site: 0, Object: 48}) || c.query != stuck {
		t.Fatal("Query replaced an outstanding query")
	}
	c.query = nil
}

func TestStatsSnapshot(t *testing.T) {
	f := newFixture(t, 14, nil)
	f.seedRing()
	st := f.sys.Stats()
	if st[proto.StatPeersSpawned] == 0 {
		t.Fatal("spawn counter not tracking")
	}
	if fmt.Sprint(RoleClient, RoleContent, RoleDirectory) == "" {
		t.Fatal("role strings empty")
	}
}

// A killed peer leaves nothing armed: once every peer of a deployment
// is dead the event queue drains — cancelled timers are discarded as
// the wheel reaches them and nothing re-arms. A dead directory's sweep
// or audit ticker left armed would tick on for the rest of the run,
// pinning its Peer, directory state and chord node.
func TestKilledDeploymentDrainsTheEventQueue(t *testing.T) {
	f := newFixture(t, 23, nil)
	f.seedRing()
	for i := 0; i < 12; i++ {
		f.spawn(content.SiteID(i%3), topology.Locality(i%2))
	}
	f.run(2 * runtime.Hour)
	dirs := f.sys.DirectoryCount()
	for _, p := range f.sys.Peers() {
		f.kill(p)
	}
	st := f.sys.Stats()
	if dirs == 0 || st[proto.StatAlivePeers] != 0 || st[proto.StatPeersSpawned] != 20 || len(f.sys.Peers()) != 0 {
		t.Fatalf("%d directories before the kill; after it alive %g, spawned %g, %d online",
			dirs, st[proto.StatAlivePeers], st[proto.StatPeersSpawned], len(f.sys.Peers()))
	}
	f.run(6 * runtime.Hour)
	if n := f.eng.Engine().Pending(); n != 0 {
		t.Fatalf("%d timers still pending 6 h after the last peer died: something re-arms", n)
	}
}

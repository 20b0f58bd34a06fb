package flower

import (
	"flowercdn/internal/runtime"
	"testing"

	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
)

func TestFullPushOnDirectoryChange(t *testing.T) {
	f := newFixture(t, 50, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(30 * runtime.Minute)
	if c.Role() != RoleContent || c.Store().Len() == 0 {
		t.Fatal("setup: client did not join and fetch")
	}
	objects := c.Store().Len()

	// The directory dies and c is the only member: it replaces it...
	oldDir := f.findSeed(0, c.Locality())
	f.kill(oldDir)
	f.run(3 * f.sys.cfg.KeepaliveInterval)
	// ... or a new client claimed it first. Either way, SOME directory
	// for the petal must have c's full store indexed again.
	dirs := f.sys.PetalDirectories(0, c.Locality())
	if len(dirs) == 0 {
		t.Fatal("petal has no directory after replacement window")
	}
	total := 0
	for _, d := range dirs {
		total += indexedKeys(d.Directory())
	}
	if c.Alive() && c.Role() == RoleContent && total < objects {
		t.Fatalf("index holds %d objects, want >= %d (full push on re-sync)", total, objects)
	}
}

func TestNeedsFullPushSemantics(t *testing.T) {
	f := newFixture(t, 51, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(10 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatal("setup: not a content peer")
	}
	// After a successful push cycle the peer is synced.
	f.run(f.sys.cfg.KeepaliveInterval)
	if c.Store().Len() > 0 && c.needsFullPush() {
		t.Fatal("peer with synced store still wants a full push")
	}
	// Pointing dir-info at a different node re-arms the full push.
	c.dirInfo.Node = runtime.NodeID(123456)
	if c.Store().Len() > 0 && !c.needsFullPush() {
		t.Fatal("directory change did not arm a full push")
	}
}

func TestGossipAdoptionOfFresherDirInfo(t *testing.T) {
	f := newFixture(t, 52, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(10 * runtime.Minute)
	pos := c.DirInfo().Pos
	app := (*gossipApp)(c)
	// Adoption triggers a full-push RPC, so the fabricated directories
	// must be real network nodes.
	rival := newProbePeer(f)
	deadDir := newProbePeer(f)

	// A fresher record (younger age, same position) is adopted.
	c.dirInfo.Age = 4
	fresher := DirInfo{Pos: pos, Node: rival.nid, Age: 1}
	app.OnExchange(runtime.NodeID(5), []gossip.Entry{{Peer: 5, Meta: ContactMeta{Dir: fresher}}})
	if c.DirInfo().Node != rival.nid {
		t.Fatal("fresher dir-info not adopted")
	}
	// A record pointing at the last known-dead directory is refused.
	c.lastDeadDir = deadDir.nid
	stale := DirInfo{Pos: pos, Node: deadDir.nid, Age: 0}
	app.OnExchange(runtime.NodeID(6), []gossip.Entry{{Peer: 6, Meta: ContactMeta{Dir: stale}}})
	if c.DirInfo().Node == deadDir.nid {
		t.Fatal("known-dead directory re-adopted via gossip")
	}
	// Directories never adopt.
	dir := f.findSeed(0, 0)
	(*gossipApp)(dir).OnExchange(runtime.NodeID(7), []gossip.Entry{{
		Peer: 7, Meta: ContactMeta{Dir: DirInfo{Pos: dir.Directory().Pos(), Node: 111, Age: 0}},
	}})
	if dir.DirInfo().Node != dir.NodeID() {
		t.Fatal("directory adopted foreign dir-info about its own position")
	}
}

func TestKeepaliveAgesAndResets(t *testing.T) {
	f := newFixture(t, 53, nil)
	f.seedRing()
	c := f.spawn(1, 0)
	f.run(10 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatal("setup: not content")
	}
	// Run several keepalive periods: age must keep returning to 0 while
	// the directory lives.
	f.run(3 * f.sys.cfg.KeepaliveInterval)
	if c.DirInfo().Age > 1 {
		t.Fatalf("dir-info age %d with a live directory", c.DirInfo().Age)
	}
}

func TestOrphanRejoinsViaDring(t *testing.T) {
	f := newFixture(t, 54, nil)
	f.seedRing()
	c := f.spawn(2, 0)
	f.run(10 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatal("setup: not content")
	}
	// Orphan the peer: no directory known at all.
	c.dirInfo = DirInfo{Node: runtime.None}
	f.run(2 * f.sys.cfg.KeepaliveInterval)
	if !c.DirInfo().Valid() {
		t.Fatal("orphaned content peer did not rediscover its directory")
	}
}

func TestReplacementRace(t *testing.T) {
	// Several members detect the directory's death nearly at once; the
	// claim protocol must leave exactly one directory per position.
	f := newFixture(t, 55, nil)
	f.seedRing()
	var members []*Peer
	for i := 0; i < 5; i++ {
		members = append(members, f.spawn(0, 0))
	}
	f.run(30 * runtime.Minute)
	loc := members[0].Locality()
	f.kill(f.findSeed(0, loc))
	// Force prompt detection in every member.
	for _, m := range members {
		if m.Alive() && m.Role() == RoleContent {
			m.keepaliveTick()
		}
	}
	f.run(5 * runtime.Minute)
	if dups := f.sys.DuplicatePositions(); dups != 0 {
		t.Fatalf("replacement race left %d duplicate positions", dups)
	}
	dirs := f.sys.PetalDirectories(0, loc)
	if len(dirs) != 1 {
		t.Fatalf("petal has %d directories, want exactly 1", len(dirs))
	}
}

func TestMissRecordsOriginTransfer(t *testing.T) {
	f := newFixture(t, 56, nil)
	f.seedRing()
	f.spawn(0, 0)
	f.run(10 * runtime.Minute)
	if f.coll.Count(metrics.Miss) == 0 {
		t.Fatal("first query should miss")
	}
	// Misses must carry a positive transfer distance (the origin is a
	// real topology node).
	td := f.coll.TransferDistribution([]int64{5})
	if td.Fraction(0) > 0.5 {
		t.Fatal("transfer distances implausibly small for origin fetches")
	}
}

func TestPushThresholdRespected(t *testing.T) {
	// With threshold 1.0 pushes happen only when the entire store is
	// new (i.e. the first object, and full re-syncs).
	f := newFixture(t, 57, func(c *Config) { c.PushThreshold = 1.0 })
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(2 * runtime.Hour)
	if c.Alive() && c.Role() == RoleContent && c.Store().Len() > 1 {
		if c.Store().PendingChanges() == 0 && c.Store().Len() > 2 {
			t.Fatal("threshold-1.0 peer pushed mid-accumulation deltas")
		}
	}
}

func TestContentKeySkippedWhenStoreFull(t *testing.T) {
	f := newFixture(t, 58, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	// Fill the entire catalog: the query timer must go quiet, not panic.
	for o := 0; o < f.work.Config().ObjectsPerSite; o++ {
		c.store.Add(content.Key{Site: 0, Object: content.ObjectID(o)})
	}
	f.freeze()
	seq := f.sys.querySeq
	f.timers[c] = f.queries.Start(proto.Identity{Site: 0, Store: c.store, Work: rnd.New(58)}, c)
	f.run(runtime.Hour)
	if f.sys.querySeq != seq || c.query != nil {
		t.Fatal("query issued despite complete catalog")
	}
}

package flower

import (
	goruntime "runtime"
	"testing"
	"unsafe"

	"flowercdn/internal/cache"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
)

// quietPetal builds the petal the allocation pins run on: a client c
// with an LRU store of 8, three holders that cache all of keys (32
// objects, so c never holds the one it asks for), and their directory —
// all content peers after half an hour of ordinary life, then frozen:
// every query timer, keepalive, gossip round and D-ring duty is
// cancelled and pushes are switched off, so that while a pin runs the
// engine nothing executes but the query the pin started by hand.
func quietPetal(t *testing.T) (f *fixture, c *Peer, holders []*Peer, dir *Peer, keys []content.Key) {
	t.Helper()
	f = newFixture(t, 31, nil)
	f.seedRing()
	dir = f.findSeed(0, 0)
	pol, err := cache.New("lru", 8)
	if err != nil {
		t.Fatal(err)
	}
	id := f.pop.At(0, 0)
	id.Store = content.NewStoreWith(content.StoreOptions{Policy: pol})
	c = f.online(id, f.sys.Spawn(id))
	for i := 0; i < 3; i++ {
		holders = append(holders, f.spawn(0, 0))
	}
	f.run(30 * runtime.Minute)
	for _, p := range append([]*Peer{c}, holders...) {
		if p.Role() != RoleContent || p.DirInfo().Node != dir.NodeID() {
			t.Fatalf("peer %d: role %v, directory %d; want a content peer of %d",
				p.NodeID(), p.Role(), p.DirInfo().Node, dir.NodeID())
		}
	}
	f.freeze()
	f.run(runtime.Minute)
	f.sys.cfg.PushThreshold = 2 // never reached: the pins price the query path, not pushes
	for o := 0; o < 32; o++ {
		k := content.Key{Site: 0, Object: content.ObjectID(o)}
		keys = append(keys, k)
		for _, h := range holders {
			h.store.Add(k)
			i, ok := dir.dir.member(h.NodeID())
			if !ok {
				t.Fatalf("holder %d is not a member of its directory", h.NodeID())
			}
			dir.dir.members[i].addKey(k)
		}
	}
	return f, c, holders, dir, keys
}

// freeze cancels every query timer, keepalive, gossip round and D-ring
// duty of the fixture's peers, so that the engine runs nothing a test
// did not start.
func (f *fixture) freeze() {
	for _, p := range f.sys.Peers() {
		f.timers[p].Stop()
		if p.keepaliveTimer != nil {
			p.keepaliveTimer.Cancel()
		}
		p.gsp.Stop()
		if p.chordNode != nil {
			p.chordNode.Stop()
		}
		if p.dir != nil {
			p.dir.stopTickers()
		}
	}
}

// cannedDirectory answers every request with one reply boxed in
// advance, so a pin that asks it counts the client's objects only.
type cannedDirectory struct{ reply any }

func (cannedDirectory) HandleMessage(runtime.NodeID, any) {}

func (d cannedDirectory) HandleRequest(runtime.NodeID, any) (any, error) { return d.reply, nil }

// TestAllocPins pins the allocation count of a petal member's query,
// start to finish: ranking, every RPC it causes on other peers, and the
// callbacks that come home. The sim backend's records are pooled and
// its timers come from slabs of 512, which AllocsPerRun's integer mean
// rounds away, like the collector's growing sample slices.
//
// At the parent of the change that introduced this file (closures per
// step, sort.Slice, container/list, fetches boxed per send) the same
// pins read 2, 8, 8 and 13. Before the directory ranked its member view
// and replied with one record, the directory hit read 3: the reply box
// and its provider slice.
func TestAllocPins(t *testing.T) {
	f, c, holders, dir, keys := quietPetal(t)
	setView := func(contacts []*Peer) {
		for _, e := range c.gsp.Entries() {
			c.gsp.RemoveContact(e.Peer)
		}
		for _, h := range contacts {
			c.gsp.AddContact(h.NodeID(), ContactMeta{Summary: h.store.Summary(), Dir: h.dirInfo})
		}
	}
	setDirectory := func(node runtime.NodeID) {
		c.dirInfo = DirInfo{Pos: dring.Position(0, 0, 0), Node: node}
		c.syncedDir = node
	}
	canned := f.net.Join(cannedDirectory{reply: newDirQueryReply(
		[]runtime.NodeID{holders[0].NodeID(), holders[1].NodeID()}, false, nil,
	)}, f.beside(dir))
	next := 0
	query := func() {
		if !c.Query(keys[next%len(keys)]) {
			t.Fatal("a content peer has not joined")
		}
		next++
		f.run(2 * runtime.Second)
	}
	busy := &activeQuery{}

	pins := []struct {
		name    string
		max     float64
		outcome metrics.Outcome // counted once per round; Miss = the round resolves nothing
		setup   func()
		duty    func()
	}{
		{"query in flight", 0, metrics.Miss, func() { c.query = busy }, func() {
			// A query while one is in flight: the peer drops it.
			if !c.Query(keys[0]) || c.query != busy {
				t.Fatal("a query replaced the one in flight")
			}
		}},
		{"gossip hit", 0, metrics.HitLocalGossip, func() {
			c.query = nil
			setView(holders)
			setDirectory(dir.NodeID())
		}, query},
		// The request to the directory is the one object.
		{"directory hit, canned directory", 1, metrics.HitDirectory, func() {
			setView(nil)
			setDirectory(canned)
		}, query},
		// And at the directory the reply, its providers inline.
		{"directory hit", 2, metrics.HitDirectory, func() { setDirectory(dir.NodeID()) }, query},
	}
	for _, pin := range pins {
		pin.setup()
		for i := 0; i < len(keys); i++ {
			pin.duty() // every key once: stores, slabs and interned messages reach their size
		}
		sent, resolved := f.net.Stats().MessagesSent, f.coll.Count(pin.outcome)
		const rounds = 200
		got := testing.AllocsPerRun(rounds, pin.duty)
		if pin.outcome != metrics.Miss {
			if f.net.Stats().MessagesSent == sent {
				t.Errorf("%s sent nothing: the pin measured an idle petal", pin.name)
			}
			if n := f.coll.Count(pin.outcome) - resolved; n != rounds+1 {
				t.Errorf("%s: %d queries resolved as %v, want %d", pin.name, n, pin.outcome, rounds+1)
			}
		}
		if got > pin.max {
			t.Errorf("%s allocates %v objects per round, want at most %v", pin.name, got, pin.max)
		}
	}
	if c.query != nil {
		t.Error("a query is still in flight on a quiet petal")
	}
	if c.store.Len() != 8 || c.store.Evictions() == 0 {
		t.Errorf("client store holds %d objects after %d evictions, want 8 and some: the pins must cross the eviction path",
			c.store.Len(), c.store.Evictions())
	}
}

// TestDirectoryExchangeAllocs pins what a content peer's exchanges with
// its directory cost, the directory's side and the answer coming home
// included: a keepalive round trip and a push round trip allocate their
// request boxes and nothing else. The directory records a known member
// and its pushed keys in place, and the answer is a pooled step record.
// When the answers were closures and a content.Holders beside the view
// indexed the pushed keys, a keepalive read 2, the request and the
// closure, and a push 3, the index's list growing too.
func TestDirectoryExchangeAllocs(t *testing.T) {
	f, c, _, dir, _ := quietPetal(t)
	i, ok := dir.dir.member(c.NodeID())
	if !ok {
		t.Fatal("the client is not a member of its directory")
	}
	c.dirInfo.Age = 1
	if got := testing.AllocsPerRun(200, func() {
		c.keepaliveTick()
		f.run(2 * runtime.Second)
	}); got != 1 {
		t.Errorf("a keepalive round trip allocates %v objects, want 1, the request", got)
	}
	if c.dirInfo.Age != 0 || dir.dir.members[i].lastSeen < f.eng.Now()-2*runtime.Second {
		t.Fatalf("the keepalives went unanswered: dir-info age %d, member last seen at %d",
			c.dirInfo.Age, dir.dir.members[i].lastSeen)
	}

	// A push per round of one new object; the store's Add, which starts
	// the delta, is not the push and is left out of the count.
	f.sys.cfg.PushThreshold = 0.01
	next := content.ObjectID(100)
	newObject := func() {
		c.store.Add(content.Key{Site: 0, Object: next})
		next++
	}
	push := func() {
		c.maybePush()
		f.run(2 * runtime.Second)
	}
	if got := allocsOf(200, newObject, push); got != 1 {
		t.Errorf("a push round trip allocates %v objects, want 1, the request", got)
	}
	if last := (content.Key{Site: 0, Object: next - 1}); !dir.dir.members[i].keys.has(last) || c.store.PendingChanges() != 0 {
		t.Fatalf("the pushes did not reach the directory: %v indexed %v, %d changes pending",
			last, dir.dir.members[i].keys.has(last), c.store.PendingChanges())
	}
}

// allocsOf is testing.AllocsPerRun for duty alone: prepare runs before
// each round, outside the count.
func allocsOf(rounds int, prepare, duty func()) float64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	prepare()
	duty()
	var before, after goruntime.MemStats
	var mallocs uint64
	for range rounds {
		prepare()
		goruntime.ReadMemStats(&before)
		duty()
		goruntime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs / uint64(rounds))
}

// TestCollabSiblingsAllocs pins a directory's sibling list at nothing
// while its ring neighbourhood stands, and at the one object of the
// rebuilt list once the node has published another successor list.
// Before the directory kept its list, every call built one (1 object);
// reading the successors through chord.Node.SuccessorList's copy made
// it 2. TestSiblingListFollowsTheRing checks what the kept list holds.
func TestCollabSiblingsAllocs(t *testing.T) {
	f := newFixture(t, 25, nil)
	f.seedRing()
	f.run(10 * runtime.Minute)
	dir := f.findSeed(1, 0)
	if len(dir.collabSiblings()) == 0 {
		t.Fatal("no collaboration siblings despite seeded site neighbours")
	}
	if got := testing.AllocsPerRun(100, func() { dir.collabSiblings() }); got != 0 {
		t.Errorf("collabSiblings allocates %v objects on a standing ring, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dir.dir.sibSuccs = nil // as if the node had published another list
		dir.collabSiblings()
	}); got != 1 {
		t.Errorf("collabSiblings after a new successor list allocates %v objects, want 1, the rebuilt list", got)
	}
}

// TestViewSeedAllocsDoNotGrowWithThePetal pins what a joining client
// costs its directory once every member has been handed out before: the
// seed slice and the directory's own boxed contact, the same at 50
// members as at 2 000. Each member's contact is boxed once and reused
// while the directory's dir-info stands. Before any member has been
// sampled, a seed may also box the eight members' contacts: at most
// 10, which is what every seed cost before members kept their boxes.
// At the parent of the change that made the view a slice, which
// collected the member ids out of a map into a fresh slice on every
// join, it read 16 and 22.
func TestViewSeedAllocsDoNotGrowWithThePetal(t *testing.T) {
	_, dir := loneDirectory(t, 32)
	const warm, cold = 2, 10
	for _, members := range []int{50, 2000} {
		for dir.dir.MemberCount() < members {
			dir.admitMember(runtime.NodeID(10_000 + dir.dir.MemberCount()))
		}
		if got := testing.AllocsPerRun(100, func() { dir.viewSeed(runtime.None) }); got > cold {
			t.Errorf("viewSeed at %d members, not all seeded yet, allocates %v objects, want at most %d", members, got, cold)
		}
		for i := range dir.dir.members {
			dir.contactMeta(&dir.dir.members[i])
		}
		if got := testing.AllocsPerRun(100, func() { dir.viewSeed(runtime.None) }); got != warm {
			t.Errorf("viewSeed at %d members, all seeded before, allocates %v objects, want %d", members, got, warm)
		}
	}
}

// TestAddKeyAllocs pins what recording a pushed key costs a directory:
// nothing on a member's set no view seed holds, and on one a
// ContactMeta box holds, the copied set alone — one object at Table
// 1's 500 objects. A member stays 40 B, the set behind one pointer.
func TestAddKeyAllocs(t *testing.T) {
	if got := unsafe.Sizeof(memberInfo{}); got != 40 {
		t.Errorf("memberInfo is %d B, want 40", got)
	}
	m := memberInfo{nid: 3, keys: newExactSummary(2)}
	next := content.ObjectID(0)
	if got := testing.AllocsPerRun(400, func() {
		if !m.addKey(content.Key{Site: 2, Object: next}) {
			t.Fatal("addKey refused a key of the set's site")
		}
		next++
	}); got != 0 {
		t.Errorf("addKey on an unboxed set allocates %v objects, want 0", got)
	}
	if m.keys.SizeBytes() != 8*int(next) {
		t.Fatalf("set holds %d B of keys after %d adds", m.keys.SizeBytes(), next)
	}
	base := newExactSummary(2)
	box := any(ContactMeta{Summary: base})
	if got := testing.AllocsPerRun(100, func() {
		m.keys, m.meta = base, box
		m.addKey(content.Key{Site: 2, Object: 499})
	}); got != 1 {
		t.Errorf("addKey on a boxed set allocates %v objects, want 1, the copy", got)
	}
	if base.has(content.Key{Site: 2, Object: 499}) || !m.keys.has(content.Key{Site: 2, Object: 499}) || m.meta != nil {
		t.Error("addKey wrote the boxed set, or kept the box")
	}
}

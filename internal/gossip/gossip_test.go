package gossip

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/simrt"
	"fmt"
	"testing"

	"flowercdn/internal/topology"
)

// gossipPeer wires a Protocol into simnet for tests.
type gossipPeer struct {
	nid       runtime.NodeID
	g         *Protocol
	desc      string
	exchanges int
	deadSeen  []runtime.NodeID
}

func (p *gossipPeer) SelfDescriptor() any { return p.desc }
func (p *gossipPeer) OnExchange(peer runtime.NodeID, received []Entry) {
	p.exchanges++
}
func (p *gossipPeer) OnContactDead(peer runtime.NodeID) {
	p.deadSeen = append(p.deadSeen, peer)
}
func (p *gossipPeer) HandleMessage(from runtime.NodeID, msg any) {}
func (p *gossipPeer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if resp, err, ok := p.g.HandleRequest(from, req); ok {
		return resp, err
	}
	return nil, fmt.Errorf("unhandled %T", req)
}

type fixture struct {
	t     *testing.T
	eng   *simrt.Runtime
	net   runtime.Transport
	topo  *topology.Topology
	rng   *rnd.RNG
	cfg   Config
	peers []*gossipPeer
}

func newFixture(t *testing.T, seed uint64) *fixture {
	t.Helper()
	rng := rnd.New(seed)
	topo := topology.MustNew(topology.DefaultConfig(), rng)
	eng := simrt.New(topo)
	cfg := DefaultConfig()
	cfg.Period = 10 * runtime.Minute // faster for tests
	return &fixture{t: t, eng: eng, net: eng.Net(), topo: topo, rng: rng, cfg: cfg}
}

func (f *fixture) addPeer() *gossipPeer {
	f.t.Helper()
	p := &gossipPeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	p.desc = fmt.Sprintf("desc-%d", p.nid)
	g, err := New(f.cfg, f.net, f.rng.Split(fmt.Sprint(p.nid)), p.nid, p)
	if err != nil {
		f.t.Fatal(err)
	}
	p.g = g
	f.peers = append(f.peers, p)
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.ShuffleSize = 0 },
		func(c *Config) { c.MaxView = -1 },
		func(c *Config) { c.RPCTimeout = 0 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	f := newFixture(t, 1)
	p := f.addPeer()
	if _, err := New(f.cfg, f.net, f.rng, p.nid, nil); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestAddRemoveContains(t *testing.T) {
	f := newFixture(t, 2)
	a, b := f.addPeer(), f.addPeer()
	a.g.AddContact(b.nid, "meta-b")
	if !a.g.Contains(b.nid) || a.g.Size() != 1 {
		t.Fatal("contact not added")
	}
	if a.g.Meta(b.nid) != "meta-b" {
		t.Fatal("meta lost")
	}
	// Self-insertion ignored.
	a.g.AddContact(a.nid, "self")
	if a.g.Size() != 1 {
		t.Fatal("self contact accepted")
	}
	a.g.RemoveContact(b.nid)
	if a.g.Contains(b.nid) || a.g.Size() != 0 {
		t.Fatal("contact not removed")
	}
	a.g.RemoveContact(b.nid) // idempotent
}

func TestUpdateMeta(t *testing.T) {
	f := newFixture(t, 3)
	a, b := f.addPeer(), f.addPeer()
	a.g.UpdateMeta(b.nid, "x") // unknown: ignored
	if a.g.Contains(b.nid) {
		t.Fatal("UpdateMeta inserted a contact")
	}
	a.g.AddContact(b.nid, "old")
	a.g.UpdateMeta(b.nid, "new")
	if a.g.Meta(b.nid) != "new" {
		t.Fatal("meta not updated")
	}
}

func TestShuffleSpreadsMembership(t *testing.T) {
	f := newFixture(t, 4)
	const n = 10
	for i := 0; i < n; i++ {
		f.addPeer()
	}
	// Star seeding: everyone knows only peer 0.
	for _, p := range f.peers[1:] {
		p.g.AddContact(f.peers[0].nid, nil)
		f.peers[0].g.AddContact(p.nid, nil)
	}
	for _, p := range f.peers {
		p.g.Start()
	}
	f.eng.Run(12 * f.cfg.Period)
	// After many rounds every peer should know most of the petal.
	for i, p := range f.peers {
		if p.g.Size() < n/2 {
			t.Fatalf("peer %d view size %d, want >= %d after mixing", i, p.g.Size(), n/2)
		}
	}
}

func TestShuffleCarriesDescriptors(t *testing.T) {
	f := newFixture(t, 5)
	a, b, c := f.addPeer(), f.addPeer(), f.addPeer()
	a.g.AddContact(b.nid, nil)
	b.g.AddContact(c.nid, nil)
	// One tick from a: exchanges with b, learns c (with c's stored meta)
	// and b's fresh self-descriptor.
	a.g.Tick()
	f.eng.Run(f.eng.Now() + runtime.Minute)
	if !a.g.Contains(c.nid) {
		t.Fatal("initiator did not learn responder's contacts")
	}
	if a.g.Meta(b.nid) != b.desc {
		t.Fatalf("initiator meta for responder = %v, want fresh descriptor %q", a.g.Meta(b.nid), b.desc)
	}
	if !b.g.Contains(a.nid) {
		t.Fatal("responder did not learn initiator")
	}
	if b.g.Meta(a.nid) != a.desc {
		t.Fatalf("responder meta for initiator = %v, want %q", b.g.Meta(a.nid), a.desc)
	}
}

func TestDeadContactEvictedOnTimeout(t *testing.T) {
	f := newFixture(t, 6)
	a, b := f.addPeer(), f.addPeer()
	a.g.AddContact(b.nid, nil)
	f.net.Fail(b.nid)
	a.g.Tick()
	f.eng.Run(f.eng.Now() + 2*f.cfg.RPCTimeout + runtime.Minute)
	if a.g.Contains(b.nid) {
		t.Fatal("dead contact not evicted")
	}
	if len(a.deadSeen) != 1 || a.deadSeen[0] != b.nid {
		t.Fatalf("OnContactDead calls = %v, want [%d]", a.deadSeen, b.nid)
	}
	if a.g.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", a.g.Evictions())
	}
}

func TestViewNaturallyBoundedUnderChurn(t *testing.T) {
	// With unbounded MaxView, dead contacts are still purged as they are
	// gossiped to, so the view tracks the alive petal.
	f := newFixture(t, 7)
	const n = 12
	for i := 0; i < n; i++ {
		f.addPeer()
	}
	for _, p := range f.peers {
		for _, q := range f.peers {
			if p != q {
				p.g.AddContact(q.nid, nil)
			}
		}
		p.g.Start()
	}
	// Kill half.
	for _, p := range f.peers[:n/2] {
		p.g.Stop()
		f.net.Fail(p.nid)
	}
	f.eng.Run(f.eng.Now() + 30*f.cfg.Period)
	for _, p := range f.peers[n/2:] {
		if p.g.Size() > n-1-n/2+1 { // alive peers minus self, +1 slack
			t.Fatalf("view size %d did not shrink towards alive population", p.g.Size())
		}
	}
}

func TestMaxViewEvictsOldest(t *testing.T) {
	f := newFixture(t, 8)
	f.cfg.MaxView = 3
	p := f.addPeer()
	g, err := New(f.cfg, f.net, f.rng.Split("bounded"), p.nid, p)
	if err != nil {
		t.Fatal(err)
	}
	others := []*gossipPeer{f.addPeer(), f.addPeer(), f.addPeer(), f.addPeer()}
	// Insert with increasing ages via the merge path.
	for i, o := range others[:3] {
		g.insert(Entry{Peer: o.nid, Age: i * 2})
	}
	g.insert(Entry{Peer: others[3].nid, Age: 0})
	if g.Size() != 3 {
		t.Fatalf("size %d, want MaxView 3", g.Size())
	}
	if g.Contains(others[2].nid) {
		t.Fatal("oldest entry survived eviction")
	}
	if !g.Contains(others[3].nid) {
		t.Fatal("new entry not inserted")
	}
}

func TestMergeKeepsYoungerCopy(t *testing.T) {
	f := newFixture(t, 9)
	a, b := f.addPeer(), f.addPeer()
	a.g.insert(Entry{Peer: b.nid, Age: 5, Meta: "old"})
	a.g.insert(Entry{Peer: b.nid, Age: 2, Meta: "young"})
	e := a.g.Entries()[0]
	if e.Age != 2 || e.Meta != "young" {
		t.Fatalf("merge kept %+v, want younger copy", e)
	}
	// Older copy must not overwrite.
	a.g.insert(Entry{Peer: b.nid, Age: 9, Meta: "stale"})
	e = a.g.Entries()[0]
	if e.Age != 2 || e.Meta != "young" {
		t.Fatalf("stale copy overwrote: %+v", e)
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	f := newFixture(t, 10)
	a := f.addPeer()
	var nids []runtime.NodeID
	for i := 0; i < 6; i++ {
		p := f.addPeer()
		nids = append(nids, p.nid)
		a.g.AddContact(p.nid, nil)
	}
	es := a.g.Entries()
	for i, e := range es {
		if e.Peer != nids[i] {
			t.Fatalf("entries not in insertion order: %v", es)
		}
	}
}

func TestStopSilencesProtocol(t *testing.T) {
	f := newFixture(t, 11)
	a, b := f.addPeer(), f.addPeer()
	a.g.AddContact(b.nid, nil)
	a.g.Start()
	a.g.Stop()
	before := a.g.Shuffles()
	f.eng.Run(20 * f.cfg.Period)
	if a.g.Shuffles() != before {
		t.Fatal("stopped protocol kept shuffling")
	}
	// Stopped responder returns an error.
	b.g.Stop()
	if _, err, handled := b.g.HandleRequest(a.nid, shuffleReq{From: a.nid}); !handled || err == nil {
		t.Fatal("stopped responder should error")
	}
}

func TestAgesIncreaseWithoutContact(t *testing.T) {
	f := newFixture(t, 12)
	a, b, c := f.addPeer(), f.addPeer(), f.addPeer()
	a.g.AddContact(b.nid, nil)
	a.g.AddContact(c.nid, nil)
	f.net.Fail(c.nid) // c will never respond but b will
	for i := 0; i < 4; i++ {
		a.g.Tick()
		f.eng.Run(f.eng.Now() + f.cfg.RPCTimeout + runtime.Minute)
	}
	// b was shuffled with (alive): age reset; c evicted on its turn.
	if a.g.Contains(c.nid) {
		t.Fatal("dead contact still present after repeated ticks")
	}
	for _, e := range a.g.Entries() {
		if e.Peer == b.nid && e.Age > 1 {
			t.Fatalf("alive contact age %d, want refreshed", e.Age)
		}
	}
}

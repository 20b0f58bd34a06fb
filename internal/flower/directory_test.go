package flower

import (
	"flowercdn/internal/runtime"
	"testing"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/metrics"
	"flowercdn/internal/topology"
)

// findSeed returns the seed directory of (site, loc).
func (f *fixture) findSeed(site content.SiteID, loc topology.Locality) *Peer {
	f.t.Helper()
	for _, p := range f.seeds {
		if p.Site() == site && p.Locality() == loc {
			return p
		}
	}
	f.t.Fatalf("no seed for site %d loc %d", site, loc)
	return nil
}

func TestExactSummaryRoundTrip(t *testing.T) {
	keys := []content.Key{{Site: 3, Object: 7}, {Site: 3, Object: 0}, {Site: 3, Object: 499}}
	set := summaryOf(keys...)
	for _, k := range keys {
		if !set.Contains(k.Uint64()) {
			t.Fatalf("exact summary missing %v", k)
		}
	}
	for _, k := range []content.Key{{Site: 3, Object: 8}, {Site: 0, Object: 7}, {Site: 3, Object: -1}, {Site: 3, Object: 4000}} {
		if set.Contains(k.Uint64()) {
			t.Fatalf("exact summary has a false positive: %v", k)
		}
	}
	if set.SizeBytes() != len(keys)*8 {
		t.Fatalf("SizeBytes = %d", set.SizeBytes())
	}
}

func TestLookupProvidersOrderingAndCap(t *testing.T) {
	f := newFixture(t, 20, nil)
	f.seedRing()
	dir := f.findSeed(0, 0)
	// Install three members holding the same key, at varying distances
	// from a querying client.
	key := content.Key{Site: 0, Object: 1}
	var members []*Peer
	for i := 0; i < 4; i++ {
		m := f.spawn(0, 0)
		members = append(members, m)
	}
	f.run(5 * runtime.Minute)
	for _, m := range members {
		mi := dir.admitMember(m.NodeID())
		mi.addKey(key)
	}
	asker := members[0].NodeID()
	providers, fromSummary := providerList(dir, key, asker, false)
	if fromSummary {
		t.Fatal("index hit reported as summary hit")
	}
	if len(providers) == 0 || len(providers) > maxProviders {
		t.Fatalf("provider count %d out of bounds", len(providers))
	}
	for _, p := range providers {
		if p == asker {
			t.Fatal("asker returned as its own provider")
		}
	}
	// Latency-sorted: each successive provider is no closer than the
	// previous.
	for i := 1; i < len(providers); i++ {
		if f.net.Latency(asker, providers[i-1]) > f.net.Latency(asker, providers[i]) {
			t.Fatal("providers not sorted by distance to asker")
		}
	}
}

func TestLookupProvidersFallsBackToSummaries(t *testing.T) {
	f := newFixture(t, 21, nil)
	f.seedRing()
	dir := f.findSeed(1, 0)
	d := dir.Directory()
	key := content.Key{Site: 1, Object: 9}
	other := f.spawn(1, 0)
	f.run(2 * runtime.Minute)
	// No index entry, but an old summary claims `other` holds the key.
	store := content.NewStore()
	store.Add(key)
	d.oldSummaries = append(d.oldSummaries, gossipEntryFor(other.NodeID(), store))
	// Any third party asks: ranking prices every candidate for the asker,
	// so it has to be a node the network knows.
	providers, fromSummary := providerList(dir, key, f.findSeed(0, 0).NodeID(), false)
	if !fromSummary {
		t.Fatal("summary fallback not flagged")
	}
	if len(providers) != 1 || providers[0] != other.NodeID() {
		t.Fatalf("providers = %v", providers)
	}
	// The asker itself is excluded even on the summary path.
	providers, _ = providerList(dir, key, other.NodeID(), false)
	if len(providers) != 0 {
		t.Fatal("asker suggested to itself via summaries")
	}
}

// providerList is providersFor's answer as a slice.
func providerList(p *Peer, key content.Key, asker runtime.NodeID, offerSelf bool) ([]runtime.NodeID, bool) {
	var out [maxProviders]runtime.NodeID
	n, fromSummary := p.providersFor(&out, key, asker, offerSelf)
	return out[:n], fromSummary
}

// holdersOf is the directory-index's entry for k, read off the member
// view: the members whose pushed keys hold k, in id order.
func holdersOf(d *directoryState, k content.Key) []runtime.NodeID {
	var out []runtime.NodeID
	for _, m := range d.members {
		if m.keys.has(k) {
			out = append(out, m.nid)
		}
	}
	return out
}

// indexedKeys is how many keys the directory-index holds: the distinct
// keys its members pushed.
func indexedKeys(d *directoryState) int { return len(d.handoffIndex()) }

func gossipEntryFor(nid runtime.NodeID, store *content.Store) gossip.Entry {
	return gossip.Entry{Peer: nid, Meta: ContactMeta{Summary: store.Summary()}}
}

func TestViewSeedIncludesDirectoryAndMembers(t *testing.T) {
	f := newFixture(t, 22, nil)
	f.seedRing()
	dir := f.findSeed(0, 1)
	for i := 0; i < 3; i++ {
		m := f.spawn(0, 1)
		_ = m
	}
	f.run(10 * runtime.Minute)
	seed := dir.viewSeed(runtime.NodeID(424242))
	foundSelf := false
	for _, e := range seed {
		if e.Peer == dir.NodeID() {
			foundSelf = true
			meta, ok := e.Meta.(ContactMeta)
			if !ok || meta.Dir.Node != dir.NodeID() {
				t.Fatal("directory's own seed entry lacks self dir-info")
			}
		}
	}
	if !foundSelf {
		t.Fatal("view seed does not include the directory itself")
	}
	// Excluded client never appears.
	seed = dir.viewSeed(dir.NodeID())
	for _, e := range seed {
		if e.Peer == dir.NodeID() {
			t.Fatal("excluded peer present in seed")
		}
	}
}

func TestMemberExpiryRemovesIndexEntries(t *testing.T) {
	f := newFixture(t, 23, nil)
	f.seedRing()
	dir := f.findSeed(0, 0)
	d := dir.Directory()
	key := content.Key{Site: 0, Object: 3}
	// The ghost is a node that never answers: joined, then failed at
	// once, so it sends no keepalives and a probe of it times out.
	ghost := f.net.Join(&probePeer{}, f.beside(dir))
	f.net.Fail(ghost)
	mi := dir.admitMember(ghost)
	mi.addKey(key)
	// Two sweeps beyond the TTL clear it.
	f.run(3 * f.sys.cfg.KeepaliveInterval)
	if _, ok := d.member(ghost); ok {
		t.Fatal("silent member survived the TTL sweep")
	}
	if len(holdersOf(d, key)) != 0 {
		t.Fatal("expired member's index entries survived")
	}
}

func TestDeadProviderReportPrunesIndex(t *testing.T) {
	f := newFixture(t, 24, nil)
	f.seedRing()
	dir := f.findSeed(0, 0)
	d := dir.Directory()
	key := content.Key{Site: 0, Object: 4}
	dead := runtime.NodeID(777)
	mi := dir.admitMember(dead)
	mi.addKey(key)
	dir.HandleMessage(runtime.NodeID(1), deadProviderReport{Dead: dead})
	if _, ok := d.member(dead); ok {
		t.Fatal("reported-dead member still in view")
	}
	if len(holdersOf(d, key)) != 0 {
		t.Fatal("reported-dead member still indexed")
	}
}

func TestCollabSiblingsSameSiteOnly(t *testing.T) {
	f := newFixture(t, 25, nil)
	f.seedRing()
	f.run(10 * runtime.Minute) // let successor lists fill
	dir := f.findSeed(1, 0)
	sibs := dir.collabSiblings()
	if len(sibs) == 0 {
		t.Fatal("no collaboration siblings despite seeded site neighbours")
	}
	for _, s := range sibs {
		if !dring.SameSite(s.ID, dir.Site()) {
			t.Fatalf("sibling %v belongs to another site", s)
		}
		if s.Node == dir.NodeID() {
			t.Fatal("directory returned itself as sibling")
		}
	}
	// Disabled collaboration returns nothing.
	f2 := newFixture(t, 26, func(c *Config) { c.DirCollaboration = false })
	f2.seedRing()
	f2.run(10 * runtime.Minute)
	if sibs := f2.findSeed(1, 0).collabSiblings(); len(sibs) != 0 {
		t.Fatalf("collaboration disabled but siblings returned: %v", sibs)
	}
}

func TestForeignQueryNotAdmitted(t *testing.T) {
	f := newFixture(t, 27, nil)
	f.seedRing()
	dir := f.findSeed(0, 0)
	before := dir.Directory().MemberCount()
	if _, err := dir.HandleRequest(runtime.NodeID(555), dirQueryReq{
		Key: content.Key{Site: 0, Object: 1}, Client: runtime.NodeID(555), Foreign: true,
	}); err != nil {
		t.Fatal(err)
	}
	if dir.Directory().MemberCount() != before {
		t.Fatal("foreign collab query was admitted to the member view")
	}
	// A native query IS admitted.
	if _, err := dir.HandleRequest(runtime.NodeID(556), dirQueryReq{
		Key: content.Key{Site: 0, Object: 1}, Client: runtime.NodeID(556),
	}); err != nil {
		t.Fatal(err)
	}
	if dir.Directory().MemberCount() != before+1 {
		t.Fatal("native query not admitted")
	}
}

func TestNonDirectoryRejectsDirectoryRPCs(t *testing.T) {
	f := newFixture(t, 28, nil)
	f.seedRing()
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	if c.Role() != RoleContent {
		t.Fatal("setup: client did not join")
	}
	for _, req := range []any{keepaliveReq{}, pushReq{}, dirQueryReq{}} {
		if _, err := c.HandleRequest(runtime.NodeID(1), req); err == nil {
			t.Fatalf("content peer accepted %T", req)
		}
	}
}

func TestDemotionYieldsToWinner(t *testing.T) {
	f := newFixture(t, 29, nil)
	f.seedRing()
	dir := f.findSeed(2, 0)
	// Fake a winning rival and demote.
	winner := f.spawn(2, 0)
	f.run(2 * runtime.Minute)
	entry := dirEntryOf(winner.NodeID(), dir.Directory().Pos())
	dir.demoteToContentPeer(entry)
	if dir.Role() != RoleContent {
		t.Fatalf("role after demotion = %v", dir.Role())
	}
	if dir.Directory() != nil || dir.chordNode != nil {
		t.Fatal("directory state not torn down")
	}
	if dir.DirInfo().Node != winner.NodeID() {
		t.Fatal("demoted peer does not point at the winner")
	}
	if f.sys.Stats()["demotions"] == 0 {
		t.Fatal("demotion not counted")
	}
	// Demoted peers are pruned from the gateway registry.
	for _, e := range f.sys.registry.Entries {
		if e.Node == dir.NodeID() {
			t.Fatal("demoted peer still registered as gateway")
		}
	}
}

func TestDirectClientQueryToWrongNodeRedirects(t *testing.T) {
	f := newFixture(t, 30, nil)
	f.seedRing()
	// A content peer (not a directory) receives a direct client query:
	// it must answer with a vacancy signal, not drop it.
	c := f.spawn(0, 0)
	f.run(5 * runtime.Minute)
	probe := newProbePeer(f)
	c.HandleMessage(probe.nid, clientQueryMsg{
		Seq: 99, Key: content.Key{Site: 0, Object: 1},
		Client: probe.nid, Site: 0, Loc: c.Locality(),
	})
	f.run(runtime.Minute)
	if len(probe.vacants) != 1 || probe.vacants[0].Seq != 99 {
		t.Fatalf("wrong-node direct query not redirected: %+v", probe.vacants)
	}
}

// probePeer records protocol messages sent to it.
type probePeer struct {
	nid     runtime.NodeID
	vacants []vacantResp
	resps   []dirQueryResp
}

func newProbePeer(f *fixture) *probePeer {
	p := &probePeer{}
	p.nid = f.net.Join(p, f.topo.Place(f.rng))
	return p
}

func (p *probePeer) HandleMessage(_ runtime.NodeID, msg any) {
	switch m := msg.(type) {
	case vacantResp:
		p.vacants = append(p.vacants, m)
	case dirQueryResp:
		p.resps = append(p.resps, m)
	}
}

func (p *probePeer) HandleRequest(runtime.NodeID, any) (any, error) {
	return nil, nil
}

func dirEntryOf(nid runtime.NodeID, pos ids.ID) chord.Entry {
	return chord.Entry{Node: nid, ID: pos}
}

func TestMetricsOutcomesAfterLongRun(t *testing.T) {
	f := newFixture(t, 31, nil)
	f.seedRing()
	for i := 0; i < 6; i++ {
		f.spawn(0, 0)
	}
	f.run(3 * runtime.Hour)
	if f.coll.Count(metrics.Unresolved) > f.coll.Total()/10 {
		t.Fatalf("too many unresolved queries: %d of %d",
			f.coll.Count(metrics.Unresolved), f.coll.Total())
	}
}

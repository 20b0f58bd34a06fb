package flower

import (
	"cmp"
	"flowercdn/internal/runtime"
	"fmt"
	"slices"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/gossip"
	"flowercdn/internal/ids"
	"flowercdn/internal/metrics"
	"flowercdn/internal/trace"
)

// directoryState is the extra state a peer carries while holding a
// D-ring directory position (Sec. 3.2): the member view with keepalive
// freshness and the keys each member pushed, and — right after
// promotion — the content summaries retained from its life as a
// content peer, used to answer queries while the index rebuilds
// (Sec. 5.2.2). The member view is the directory-index mapping objects
// to the content peers that cache them: a member's keys are a bitmap
// over its website's objects (exactSummary), and "who holds k" is the
// members whose bitmap has k (rankProviders). A member's keys are still
// charged 8 B per key when a view seed ships them.
type directoryState struct {
	pos      ids.ID
	instance int

	// members is the member view in ascending NodeID order. Arrivals get
	// ever larger ids, so admitting one is almost always an append.
	members []memberInfo

	// oldSummaries is the gossip-view snapshot taken at promotion.
	oldSummaries []gossip.Entry
	// summaryDeadline is when oldSummaries stop being trusted.
	summaryDeadline int64

	sweep runtime.Ticker
	audit runtime.Ticker

	// pendingPromotion guards against promoting several members at
	// once; it names the instance being created and when the attempt
	// expires.
	pendingPromotionPos ids.ID
	pendingPromotionExp int64

	queriesHandled uint64
	queriesScanned uint64 // PetalUp forwards to the next instance

	// siblings is collabSiblings' last list, built from version
	// sibVersion of the chord node's successor list and from the
	// predecessor sibPred. A directory's node has started, so its list
	// is at version 1 or later and the zero sibVersion matches none: the
	// first call builds. It is rebuilt, into a fresh slice, only when
	// the successor list changes — the node rebuilds its list in place,
	// so the version says so, not the slice's address — or the
	// predecessor moves. A list handed to a reply is never written
	// again.
	siblings   []chord.Entry
	sibVersion uint64
	sibPred    chord.Entry
}

type memberInfo struct {
	nid      runtime.NodeID
	lastSeen int64
	// keys are the keys the member pushed, a bitmap of the petal's
	// website behind one pointer, so a member stays 40 B. The bitmaps
	// are the directory-index: there is no other record of who holds k.
	keys exactSummary
	// meta is the boxed ContactMeta viewSeed last handed out for this
	// member, reused while its dir-info and keys stand (see contactMeta
	// and addKey); nil until the member is next sampled.
	meta any
}

// stopTickers ends the sweep and audit loops — on demotion and on
// death: a ticker left armed re-arms for the rest of the run and pins
// the peer, its directory state and its chord node.
func (d *directoryState) stopTickers() {
	d.sweep.Cancel()
	d.audit.Cancel()
}

// member finds nid in the view: its position and whether it is there,
// or where it would go.
func (d *directoryState) member(nid runtime.NodeID) (int, bool) {
	return slices.BinarySearchFunc(d.members, nid, func(m memberInfo, nid runtime.NodeID) int {
		return cmp.Compare(m.nid, nid)
	})
}

// freshestMember picks the most recently seen member — likeliest to be
// alive — or runtime.None from an empty view. The view is in id order,
// so a tie (same millisecond) goes to the smaller NodeID.
func (d *directoryState) freshestMember() runtime.NodeID {
	var best runtime.NodeID = runtime.None
	var bestSeen int64 = -1
	for _, m := range d.members {
		if m.lastSeen > bestSeen {
			best, bestSeen = m.nid, m.lastSeen
		}
	}
	return best
}

// Pos returns the directory's ring position.
func (d *directoryState) Pos() ids.ID { return d.pos }

// Instance returns the PetalUp instance number i of d^i.
func (d *directoryState) Instance() int { return d.instance }

// MemberCount returns the directory's load measure: "the number of
// content peers in its view" (Sec. 4).
func (d *directoryState) MemberCount() int { return len(d.members) }

// QueriesHandled returns how many client queries this instance
// processed.
func (d *directoryState) QueriesHandled() uint64 { return d.queriesHandled }

// becomeFoundingDirectory creates a brand-new D-ring with this peer as
// its first member at pos.
func (p *Peer) becomeFoundingDirectory(pos ids.ID) {
	node, err := p.sys.chordPool.NewNode(p.sys.cfg.Chord, p.sys.net, p.sys.rng.Split("chord"), p, p.nid, pos)
	if err != nil {
		panic(err)
	}
	p.chordNode = node
	node.Create()
	p.becomeDirectory(pos)
}

// claimDirectoryPosition tries to occupy pos on D-ring, serializing
// with rivals through the claim protocol. done (optional) receives the
// outcome; on errors `current` names the node holding or winning the
// position when known.
func (p *Peer) claimDirectoryPosition(pos ids.ID, exclude runtime.NodeID, done func(current chord.Entry, err error)) {
	if p.dead || p.chordNode != nil {
		if done != nil {
			done(chord.NoEntry, fmt.Errorf("flower: peer cannot claim (dead or already on ring)"))
		}
		return
	}
	gw := p.sys.gateway(exclude)
	if !gw.Valid() {
		if p.sys.follower {
			// A follower process never founds a ring — doing so would
			// splinter the population into disjoint overlays. Report
			// failure; the caller falls back to the origin and the next
			// query retries through whatever gateway the bus announces.
			if done != nil {
				done(chord.NoEntry, fmt.Errorf("flower: no reachable gateway on follower process"))
			}
			return
		}
		// No ring to join: found a new one. This only happens when every
		// registered directory is dead — the ring is gone.
		p.becomeFoundingDirectory(pos)
		if done != nil {
			done(chord.NoEntry, nil)
		}
		return
	}
	node, err := p.sys.chordPool.NewNode(p.sys.cfg.Chord, p.sys.net, p.sys.rng.Split("chord"), p, p.nid, pos)
	if err != nil {
		panic(err)
	}
	p.chordNode = node
	node.JoinAt(gw, func(current chord.Entry, err error) {
		if p.dead {
			return
		}
		if err != nil {
			// Not ours: discard the unstarted chord component.
			p.chordNode.Stop()
			p.chordNode = nil
			if done != nil {
				done(current, err)
			}
			return
		}
		p.becomeDirectory(pos)
		if done != nil {
			done(chord.NoEntry, nil)
		}
	})
}

// becomeDirectory installs the directory role once the peer holds pos.
func (p *Peer) becomeDirectory(pos ids.ID) {
	wasContent := p.role == RoleContent
	p.role = RoleDirectory
	p.seating = false
	p.dir = &directoryState{
		pos:      pos,
		instance: dring.InstanceOf(pos),
	}
	// Keep the content summaries gathered while a content peer; they
	// answer queries until pushes rebuild the index (Sec. 5.2.2: "p can
	// try to answer first received queries from its content summaries").
	if wasContent {
		for _, e := range p.gsp.View() {
			if meta, ok := e.Meta.(ContactMeta); ok && meta.Summary != nil {
				p.dir.oldSummaries = append(p.dir.oldSummaries, e)
			}
		}
		p.dir.summaryDeadline = p.eng().Now() + 2*p.sys.cfg.KeepaliveInterval
	}
	// Directories answer to themselves.
	p.dirInfo = DirInfo{Pos: pos, Node: p.nid, Age: 0}
	// The member keepalive loop is replaced by the directory sweep.
	if p.keepaliveTimer != nil {
		p.keepaliveTimer.Cancel()
		p.keepaliveTimer = nil
	}
	p.dir.sweep = p.eng().Every(p.sys.cfg.KeepaliveInterval, p.sys.cfg.KeepaliveInterval, p.directorySweep)
	// Audit soon after integration — duplicate-position races surface
	// within a stabilization period or two — and keep auditing: one
	// cheap lookup per auditInterval keeps the one-directory-per-
	// position invariant self-healing under heavy ring churn.
	p.eng().Schedule(3*p.sys.cfg.Chord.StabilizeInterval, p.auditPosition).Release()
	p.dir.audit = p.eng().Every(auditInterval, auditInterval, p.auditPosition)
	// A directory is still a petal member: keep gossiping so its own
	// summary and (self-pointing) dir-info spread.
	p.gsp.Start()
	// A new ring member is a bootstrap gateway (announced to the other
	// processes on multi-process backends).
	p.sys.registry.Add(chord.Entry{Node: p.nid, ID: pos})
}

// memberTTL is how long a silent member stays in the view/index.
func (p *Peer) memberTTL() int64 {
	return int64(memberTTLFactor * float64(p.sys.cfg.KeepaliveInterval))
}

// directorySweep expires members that stopped sending keepalives
// (Sec. 5.1: the directory "can discover and remove expired pointers
// from its view and directory-index") and audits ring ownership.
func (p *Peer) directorySweep() {
	if p.dead || p.dir == nil {
		return
	}
	d := p.dir
	cutoff := p.eng().Now() - p.memberTTL()
	d.members = slices.DeleteFunc(d.members, func(m memberInfo) bool { return m.lastSeen < cutoff })
	if d.oldSummaries != nil && p.eng().Now() > d.summaryDeadline {
		d.oldSummaries = nil
	}
	p.auditPosition()
}

// auditPosition asks a third-party ring member who owns our position.
// Claim serialization can transiently double-grant while the ring heals
// (rival lookups resolving to different arc owners); whichever
// duplicate the converged ring does NOT route to demotes itself back to
// a content peer, restoring the one-directory-per-position invariant.
func (p *Peer) auditPosition() {
	if p.dead || p.dir == nil {
		return
	}
	gw := p.sys.gateway(p.nid)
	if !gw.Valid() {
		return
	}
	if p.chordClient == nil {
		cl, err := p.sys.chordPool.NewClient(p.sys.cfg.Chord, p.sys.net, p.nid)
		if err != nil {
			panic(err)
		}
		p.chordClient = cl
	}
	pos := p.dir.pos
	p.chordClient.LookupVia(gw, pos, func(owner chord.Entry, _ int, err error) {
		if p.dead || p.dir == nil || p.dir.pos != pos || err != nil {
			return
		}
		if owner.Node == p.nid {
			return // the ring routes to us: all good
		}
		if owner.ID == pos {
			// A rival holds the position and the ring routes to it.
			p.demoteToContentPeer(owner)
			return
		}
		// The ring routes around us entirely (the arc owner doesn't know
		// us): volunteer as its predecessor to restore visibility.
		p.chordNode.Announce(owner)
	})
}

// demoteToContentPeer resolves a duplicate-position race: this peer
// yields the directory role to the peer the ring actually routes to.
func (p *Peer) demoteToContentPeer(winner chord.Entry) {
	if p.dir == nil {
		return
	}
	p.chordNode.Stop()
	p.chordNode = nil
	p.dir.stopTickers()
	p.dir = nil
	p.role = RoleContent
	p.sys.demotions++
	// Dead gateways are pruned lazily, but a demoted one is alive and
	// would otherwise swallow routed queries.
	p.sys.registry.Remove(p.nid)
	p.dirInfo = DirInfo{Pos: winner.ID, Node: winner.Node, Age: 0}
	p.syncedDir = runtime.None
	p.startKeepalive()
	p.maybePush()
}

func (p *Peer) removeMember(nid runtime.NodeID) {
	d := p.dir
	if i, ok := d.member(nid); ok {
		d.members = slices.Delete(d.members, i, i+1)
	}
}

// admitMember records (or refreshes) a content peer in the view. The
// record lives in the view: use it before the next admission or removal.
func (p *Peer) admitMember(nid runtime.NodeID) *memberInfo {
	d := p.dir
	i, ok := d.member(nid)
	if !ok {
		d.members = slices.Insert(d.members, i, memberInfo{nid: nid, keys: newExactSummary(p.site)})
	}
	m := &d.members[i]
	m.lastSeen = p.eng().Now()
	return m
}

// ---- RPC handlers (directory side) ----

var errNotDirectory = fmt.Errorf("flower: not a directory peer")

func (p *Peer) onKeepalive(from runtime.NodeID, _ keepaliveReq) (any, error) {
	if p.dir == nil {
		return nil, errNotDirectory
	}
	p.admitMember(from)
	return keepaliveResp{}, nil
}

func (p *Peer) onPush(from runtime.NodeID, r pushReq) (any, error) {
	if p.dir == nil {
		return nil, errNotDirectory
	}
	m := p.admitMember(from)
	for _, k := range r.Keys {
		m.addKey(k)
	}
	return pushResp{}, nil
}

func (p *Peer) onMemberQuery(from runtime.NodeID, r dirQueryReq) (any, error) {
	if p.dir == nil {
		return nil, errNotDirectory
	}
	if !r.Foreign {
		p.admitMember(from)
	}
	p.dir.queriesHandled++
	var providers [maxProviders]runtime.NodeID
	n, fromSummary := p.providersFor(&providers, r.Key, from, from != p.nid)
	var collab []chord.Entry
	if n == 0 && !r.Foreign {
		collab = p.collabSiblings()
	}
	return newDirQueryReply(providers[:n], fromSummary, collab), nil
}

// collabSiblings returns same-website directory peers drawn from this
// node's ring neighbourhood. D-ring's key layout makes all of a
// website's directory positions successive identifiers, so the
// successor list and predecessor are exactly where siblings live — no
// extra lookups needed. Collaboration effectively widens a query's
// reach from one petal to the website's whole set of petals, which is
// what lets hit ratios grow with scale (Sec. 6.2.2).
//
// The list is the directory's, kept across replies while the ring
// neighbourhood stands (directoryState.siblings): read it, never write
// it.
func (p *Peer) collabSiblings() []chord.Entry {
	if !p.sys.cfg.DirCollaboration || p.chordNode == nil {
		return nil
	}
	node, d := p.chordNode, p.dir
	version, pred := node.SuccessorsVersion(), node.Predecessor()
	if version == d.sibVersion && pred == d.sibPred {
		return d.siblings
	}
	d.siblings, d.sibVersion, d.sibPred = p.buildSiblings(node.Successors(), pred), version, pred
	return d.siblings
}

// buildSiblings collects, into a fresh list, the same-website
// directories among succs and pred.
func (p *Peer) buildSiblings(succs []chord.Entry, pred chord.Entry) []chord.Entry {
	const maxSiblings = 5 // at most k-1 other localities matter
	var out []chord.Entry
	prefix := dring.SitePrefix(p.petalPos)
	consider := func(e chord.Entry) {
		if len(out) >= maxSiblings || !e.Valid() || e.Node == p.nid || dring.SitePrefix(e.ID) != prefix {
			return
		}
		for _, o := range out {
			if o.Node == e.Node {
				return
			}
		}
		if out == nil {
			out = make([]chord.Entry, 0, maxSiblings)
		}
		out = append(out, e)
	}
	for _, e := range succs {
		consider(e)
	}
	consider(pred)
	return out
}

// rankProviders resolves a key to candidate content peers: the members
// whose pushed keys hold it — the directory-index — first, then (within
// the trust window) the promoted peer's old content summaries.
// Providers are ordered by latency to the asking client — the
// locality-aware server selection that keeps transfer distances short —
// and cut to maxProviders. The asker itself is never returned. The
// result is the System's scratch buffer: read it before anything else
// ranks.
func (d *directoryState) rankProviders(p *Peer, key content.Key, asker runtime.NodeID) (ranked []provCand, fromSummary bool) {
	ranked = p.sys.candScratch[:0]
	for i := range d.members {
		m := &d.members[i]
		if m.nid != asker && m.keys.has(key) {
			ranked = append(ranked, provCand{peer: m.nid, lat: p.sys.oracle.Latency(asker, m.nid)})
		}
	}
	if len(ranked) == 0 && d.oldSummaries != nil {
		ranked = p.summaryCands(ranked, d.oldSummaries, key, asker)
		fromSummary = len(ranked) > 0
	}
	return p.sys.nearest(ranked, maxProviders), fromSummary
}

// providersFor is rankProviders as a reply carries it: the ranked peers
// written into out, with the directory — a content peer too — offered
// last when offerSelf is set, it caches the object and the list has
// room. It returns how many it wrote.
func (p *Peer) providersFor(out *[maxProviders]runtime.NodeID, key content.Key, asker runtime.NodeID, offerSelf bool) (n int, fromSummary bool) {
	ranked, fromSummary := p.dir.rankProviders(p, key, asker)
	for _, c := range ranked {
		out[n] = c.peer
		n++
	}
	// Has comes first: on a bounded store it is a touch, asked for or not.
	if p.store.Has(key) && offerSelf && n < maxProviders {
		out[n] = p.nid
		n++
	}
	return n, fromSummary
}

// viewSeed samples member contacts for a joining client's initial view,
// with exact-set summaries built from pushed keys (Sec. 4: a directory
// "provides them with a subset of its old view so that they initialize
// their view of the petal"). The sample shuffles the view's positions
// in id order, the draw sequence the pinned fingerprints depend on. The
// slice is made for the joiner alone: its gossip view takes it over.
func (p *Peer) viewSeed(exclude runtime.NodeID) []gossip.Entry {
	const seedSize = 8
	picks := p.sys.seedScratch[:0]
	for i := range p.dir.members {
		if p.dir.members[i].nid != exclude {
			picks = append(picks, i)
		}
	}
	p.sys.seedScratch = picks
	p.sys.rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	seed := make([]gossip.Entry, 0, seedSize+1)
	// The directory itself is a petal member with cached content; seeding
	// it keeps the directory inside the gossip mesh.
	if p.nid != exclude {
		seed = append(seed, gossip.Entry{Peer: p.nid, Meta: p.selfMeta()})
	}
	for _, i := range picks[:min(len(picks), seedSize)] {
		m := &p.dir.members[i]
		seed = append(seed, gossip.Entry{Peer: m.nid, Meta: p.contactMeta(m)})
	}
	// A fresh PetalUp instance has no members yet: hand out its old view
	// so first clients can reach content peers managed by other
	// instances (Sec. 4's seeding of first clients).
	if len(seed) < seedSize {
		for _, e := range p.dir.oldSummaries {
			if len(seed) >= seedSize {
				break
			}
			if e.Peer != exclude {
				seed = append(seed, e)
			}
		}
	}
	return seed
}

// contactMeta is the metadata a view seed carries for member m: its
// exact summary and this directory's dir-info, boxed once and handed to
// every joiner that samples m until the dir-info or the member's keys
// change. The box holds m's key set itself, a snapshot because addKey
// never writes a set a box holds. A boxed value is immutable, so
// sharing it gives each joiner what a fresh box would.
func (p *Peer) contactMeta(m *memberInfo) any {
	if cm, ok := m.meta.(ContactMeta); ok && cm.Dir == p.dirInfo {
		return m.meta
	}
	m.meta = ContactMeta{Summary: m.keys, Dir: p.dirInfo}
	return m.meta
}

// addKey records that the member holds k, and reports whether its set
// holds k now: not if k is of another website, which no member's store
// holds and the directory does not index. A new key in a set that a
// contactMeta box holds goes into a copy, and the box goes.
func (m *memberInfo) addKey(k content.Key) bool {
	if m.keys.has(k) {
		return true
	}
	if !m.keys.fits(k) {
		return false
	}
	if m.meta != nil {
		m.keys, m.meta = m.keys.clone(), nil
	}
	m.keys.add(k)
	return true
}

// ---- client query processing ----

// OnRouted implements chord.App: a clientQueryMsg routed over D-ring
// lands here, at the node owning the queried position's arc.
func (p *Peer) OnRouted(key ids.ID, payload any, origin runtime.NodeID, hops int, path []trace.Hop) {
	m, ok := payload.(clientQueryMsg)
	if !ok || p.dead {
		return
	}
	// Hop accounting at the directory: the D-ring forwardings this
	// query took, surfaced as the run's mean-hops stat. The tracer keeps
	// the same tally so traces and counters can be cross-checked.
	now := p.eng().Now()
	p.sys.coll.Emit(metrics.CounterEvent(now, "lookup_hops", float64(hops)))
	p.sys.coll.Emit(metrics.CounterEvent(now, "routed_queries", 1))
	p.sys.tracer.Delivered(hops)
	p.handleClientQuery(key, m, path)
}

// onDirectClientQuery serves a clientQueryMsg that arrived as a plain
// message (scan forward or post-claim direct query) rather than through
// ring routing. A recipient that no longer serves the petal redirects
// the client back to D-ring discovery via a vacancy signal.
func (p *Peer) onDirectClientQuery(m clientQueryMsg) {
	if p.dir != nil && dring.SamePetal(p.dir.pos, m.Site, m.Loc) {
		p.handleClientQuery(p.dir.pos, m, m.Path)
		return
	}
	p.net().Send(p.nid, m.Client, vacantResp{Seq: m.Seq, Pos: dring.Position(m.Site, m.Loc, 0)})
}

// handleClientQuery serves a routed or directly-sent client query.
// path is the traced hop segment accumulated since the client issued
// the query (ring forwardings, earlier scan hops); nil when tracing is
// off or the message arrived by direct send.
func (p *Peer) handleClientQuery(routedKey ids.ID, m clientQueryMsg, path []trace.Hop) {
	if p.dir == nil || p.dir.pos != routedKey {
		// We merely cover the arc containing the position: it is vacant
		// (Sec. 5.2.2 join case 2 trigger).
		p.net().Send(p.nid, m.Client, vacantResp{Seq: m.Seq, Pos: routedKey})
		return
	}
	// PetalUp sequential scan (Sec. 4): an overloaded instance passes
	// the query along to d^{i+1}; the final instance absorbs it and, if
	// itself overloaded, recruits a new instance.
	if p.overloaded() {
		next := dring.Position(m.Site, m.Loc, p.dir.instance+1)
		succ := p.chordNode.Successor()
		if succ.Valid() && succ.ID == next && m.Scanned < dring.MaxInstances {
			m.Scanned++
			p.dir.queriesScanned++
			if p.sys.tracer.Enabled() {
				m.Path = trace.Append(path, trace.Hop{
					Kind: trace.HopScan, Node: succ.Node, At: p.eng().Now(),
				})
			}
			p.net().Send(p.nid, succ.Node, m)
			return
		}
		p.maybePromoteInstance(next)
	}
	p.dir.queriesHandled++
	p.admitMember(m.Client)
	resp := dirQueryResp{
		Seq:  m.Seq,
		Dir:  chord.Entry{Node: p.nid, ID: p.dir.pos},
		Seed: p.viewSeed(m.Client),
	}
	if !m.JoinOnly {
		var providers [maxProviders]runtime.NodeID
		n, fromSummary := p.providersFor(&providers, m.Key, m.Client, true)
		resp.FromSummary = fromSummary
		if n > 0 {
			resp.Providers = slices.Clone(providers[:n])
		} else {
			resp.CollabWith = p.collabSiblings()
		}
	}
	if p.sys.tracer.Enabled() {
		resp.Path = trace.Append(path, trace.Hop{
			Kind: trace.HopHome, Node: p.nid, At: p.eng().Now(),
		})
	}
	p.net().Send(p.nid, m.Client, resp)
}

// overloaded applies PetalUp's load rule; classic Flower-CDN
// (DirLoadLimit == 0) is never overloaded.
func (p *Peer) overloaded() bool {
	return p.sys.cfg.DirLoadLimit > 0 && len(p.dir.members) >= p.sys.cfg.DirLoadLimit
}

// maybePromoteInstance recruits a content peer from the view as the
// next directory instance, at most one attempt at a time.
func (p *Peer) maybePromoteInstance(pos ids.ID) {
	d := p.dir
	now := p.eng().Now()
	if d.pendingPromotionPos == pos && now < d.pendingPromotionExp {
		return
	}
	if dring.InstanceOf(pos) >= dring.MaxInstances-1 {
		return
	}
	best := d.freshestMember()
	if best == runtime.None {
		return
	}
	d.pendingPromotionPos = pos
	d.pendingPromotionExp = now + p.sys.cfg.Chord.ClaimTTL
	p.net().Send(p.nid, best, promoteMsg{Pos: pos})
}

// onPromote runs at the content peer chosen to become d^{i+1}.
func (p *Peer) onPromote(m promoteMsg) {
	if p.dead || p.role != RoleContent {
		return
	}
	oldDir := p.dirInfo.Node
	p.claimDirectoryPosition(m.Pos, runtime.None, func(current chord.Entry, err error) {
		if p.dead {
			return
		}
		if err != nil {
			return // somebody else got it, or the ring misbehaved; stay a content peer
		}
		p.sys.dirPromotions++
		// Tell the old directory so it removes us from its index
		// (Sec. 4: "the replacing content peer is then removed from the
		// directory-index of d^i").
		if oldDir != runtime.None {
			p.net().Send(p.nid, oldDir, promotedMsg{NewDir: p.selfEntry()})
		}
	})
}

// onPromoted runs at the old directory when its promotee integrated.
func (p *Peer) onPromoted(from runtime.NodeID, m promotedMsg) {
	if p.dir == nil {
		return
	}
	p.removeMember(from)
	if p.dir.pendingPromotionPos == m.NewDir.ID {
		p.dir.pendingPromotionExp = 0
	}
}

// Leave performs a graceful departure (Sec. 5.2.2's voluntary-leave
// path): a directory hands its view and index to a member before going;
// any peer then leaves the network. The evaluation's churn never calls
// this — peers always fail — but the protocol supports it.
func (p *Peer) Leave() {
	if p.dead {
		return
	}
	if p.dir != nil {
		if best := p.dir.freshestMember(); best != runtime.None {
			members := make([]runtime.NodeID, len(p.dir.members))
			for i, m := range p.dir.members {
				members[i] = m.nid
			}
			p.net().Send(p.nid, best, handoffMsg{Pos: p.dir.pos, Index: p.dir.handoffIndex(), Members: members})
		}
	}
	p.Kill()
}

// handoffIndex is the directory-index as a handoff carries it: every
// key a member pushed, with the members holding it in id order.
func (d *directoryState) handoffIndex() map[content.Key][]runtime.NodeID {
	index := make(map[content.Key][]runtime.NodeID)
	for _, m := range d.members {
		for k := range m.keys.all {
			index[k] = append(index[k], m.nid)
		}
	}
	return index
}

// onHandoff runs at the member receiving a leaving directory's state:
// it claims the position and, on success, adopts the transferred copy.
func (p *Peer) onHandoff(m handoffMsg) {
	if p.dead || p.role != RoleContent {
		return
	}
	p.claimDirectoryPosition(m.Pos, runtime.None, func(current chord.Entry, err error) {
		if p.dead || err != nil {
			return
		}
		p.sys.dirReplacement++
		p.adoptView(m)
	})
}

// adoptView seeds this directory's view and index with a leaving
// directory's transferred copy, leaving itself out. A holder the copy
// names outside its member list is not indexed: only a member's keys
// expire with it.
func (p *Peer) adoptView(m handoffMsg) {
	for _, nid := range m.Members {
		if nid != p.nid {
			p.admitMember(nid)
		}
	}
	for k, ps := range m.Index {
		for _, nid := range ps {
			if i, ok := p.dir.member(nid); ok && nid != p.nid {
				p.dir.members[i].addKey(k)
			}
		}
	}
}

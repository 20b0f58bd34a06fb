package flower

import (
	"cmp"
	"flowercdn/internal/runtime"
	"slices"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/gossip"
	"flowercdn/internal/metrics"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// querySource tags which resolution path produced the provider, mapping
// onto the metrics outcome taxonomy.
type querySource uint8

const (
	srcGossip querySource = iota
	srcDirectory
	srcDirSummary
)

func (s querySource) outcome() metrics.Outcome {
	switch s {
	case srcGossip:
		return metrics.HitLocalGossip
	case srcDirSummary:
		return metrics.HitDirectorySummary
	default:
		return metrics.HitDirectory
	}
}

// provCand is one provider candidate during selection: a petal contact
// on the gossip path, an index or summary entry at a directory.
type provCand struct {
	peer runtime.NodeID
	lat  int64
}

// nearestFirst ranks candidates by latency, ties by NodeID. Peers are
// distinct, so the order is total and any sort gives the same ranking.
func nearestFirst(a, b provCand) int {
	if c := cmp.Compare(a.lat, b.lat); c != 0 {
		return c
	}
	return cmp.Compare(a.peer, b.peer)
}

// nearest sorts cands nearestFirst and cuts them to limit. cands is the
// System's scratch buffer, kept for the next ranking.
func (s *System) nearest(cands []provCand, limit int) []provCand {
	s.candScratch = cands[:0]
	slices.SortFunc(cands, nearestFirst)
	return cands[:min(len(cands), limit)]
}

// summaryCands appends every entry but asker whose content summary
// claims key, priced from asker: the gossip path's scan of the view and
// a promoted directory's scan of its old summaries.
func (p *Peer) summaryCands(cands []provCand, entries []gossip.Entry, key content.Key, asker runtime.NodeID) []provCand {
	for _, e := range entries {
		meta, ok := e.Meta.(ContactMeta)
		if ok && meta.Summary != nil && e.Peer != asker && meta.Summary.Contains(key.Uint64()) {
			cands = append(cands, provCand{peer: e.Peer, lat: p.sys.oracle.Latency(asker, e.Peer)})
		}
	}
	return cands
}

// activeQuery is the in-flight query state machine. A peer runs at most
// one at a time (think time, 6 min mean, dwarfs resolution time).
//
// Queries are pooled per peer (getQuery/putQuery): every callback that
// may outlive a query carries the seq it was created for and checks it
// against q.seq, because after recycling the same *activeQuery pointer
// identifies a different query. seq values are process-unique, so a
// stale callback can never pass the check. The state of one RPC step
// (who was asked, on which path) is not kept here but in the step
// record of that RPC — see steps.go for why.
type activeQuery struct {
	seq   uint64
	key   content.Key
	start int64

	// timeout is the pending deadline of a D-ring routed attempt;
	// onTimeout is its callback, bound to p once, when the record first
	// arms one. At most one deadline is pending per record and putQuery
	// cancels it, so the bound callback never fires for a later query.
	timeout   runtime.Timer
	onTimeout func()
	p         *Peer

	// candidates is the provider list being probed and next the cursor
	// into it. The buffer is the record's own: provider lists are copied
	// in (setCandidates), never adopted, so it survives recycling and
	// nothing written here lands in a message somebody else still holds.
	candidates []runtime.NodeID

	// collab holds same-website sibling directories still to consult
	// before declaring a miss. Siblings never hand out further siblings
	// (Foreign queries carry no CollabWith), so collaboration is one
	// level deep. The slice is the reply's and only ever read.
	collab []chord.Entry

	// path accumulates trace hops while tracing is enabled; always
	// empty otherwise. The backing array survives recycling.
	path []trace.Hop

	next     int32 // cursor into candidates
	attempt  int32 // gateway attempts for D-ring routed queries
	source   querySource
	joinOnly bool
}

// getQuery takes the recycled query record (or allocates the peer's
// first); putQuery returns it once the query fully resolved. The
// candidate and path buffers and the bound timeout callback survive
// recycling.
func (p *Peer) getQuery() *activeQuery {
	q := p.qspare
	if q == nil {
		return &activeQuery{}
	}
	p.qspare = nil
	*q = activeQuery{
		candidates: q.candidates[:0], path: q.path[:0],
		onTimeout: q.onTimeout, p: q.p,
	}
	return q
}

func (p *Peer) putQuery(q *activeQuery) {
	// Usually fired or cancelled by the answer already. Cancelling here,
	// before the record can serve another query, is what lets the bound
	// callback do without a seq of its own.
	runtime.DropTimer(&q.timeout)
	q.collab = nil
	p.qspare = q
}

// setCandidates replaces the provider list with a copy of providers.
func (q *activeQuery) setCandidates(providers []runtime.NodeID) {
	q.candidates = append(q.candidates[:0], providers...)
	q.next = 0
}

// setRanked is setCandidates for a ranking still in the scratch buffer.
func (q *activeQuery) setRanked(ranked []provCand) {
	q.candidates, q.next = q.candidates[:0], 0
	for _, c := range ranked {
		q.candidates = append(q.candidates, c.peer)
	}
}

// armTimeout starts the deadline of one routed attempt.
func (p *Peer) armTimeout(q *activeQuery) {
	if q.onTimeout == nil {
		q.p = p
		q.onTimeout = q.timedOut
	}
	q.timeout = p.eng().Schedule(p.sys.cfg.QueryTimeout, q.onTimeout)
}

// timedOut is the bound deadline callback. The handle in q.timeout is
// the one firing — whatever replaces or clears it cancels it first — so
// it goes back to the clock here, whether or not the query lives on.
func (q *activeQuery) timedOut() {
	runtime.DropTimer(&q.timeout)
	q.p.routedQueryTimedOut(q)
}

// traceHop appends one hop to the active query's path when tracing is
// enabled; a no-op otherwise.
func (p *Peer) traceHop(q *activeQuery, kind trace.HopKind, node runtime.NodeID, fp bool) {
	if !p.sys.tracer.Enabled() {
		return
	}
	q.path = trace.Append(q.path, trace.Hop{
		Kind: kind, Node: node, At: p.eng().Now(), FalsePositive: fp,
	})
}

// Query implements proto.Session: it begins one query for key, an
// object the peer does not cache. A seed still claiming its directory
// seat has not joined D-ring.
func (p *Peer) Query(key content.Key) bool {
	if p.seating {
		return false
	}
	if p.dead || p.query != nil {
		// An unresolved previous query is still in flight; skip this
		// round rather than interleave state machines.
		return true
	}
	if q := p.newQuery(key); p.role == RoleClient {
		p.sendRoutedQuery(q)
	} else {
		p.contentQuery(q)
	}
	return true
}

// newQuery makes the recycled query record the peer's current query,
// for key.
func (p *Peer) newQuery(key content.Key) *activeQuery {
	q := p.getQuery()
	q.seq, q.key, q.start = p.sys.nextQuerySeq(), key, p.eng().Now()
	p.query = q
	p.traceHop(q, trace.HopIssue, p.nid, false)
	return q
}

// sendRoutedQuery submits the query to D-ring through a bootstrap
// gateway (Sec. 3.2: "a client located in loc submits its query to
// D-ring and gets redirected to the directory peer in charge").
func (p *Peer) sendRoutedQuery(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	gw := p.sys.gateway(runtime.None)
	if !gw.Valid() {
		// No known ring member: we are (or believe we are) the first
		// participant; claim the petal's root directory position.
		p.claimFromQuery(q)
		return
	}
	if p.chordClient == nil {
		cl, err := p.sys.chordPool.NewClient(p.sys.cfg.Chord, p.sys.net, p.nid)
		if err != nil {
			panic(err) // config validated at system construction
		}
		p.chordClient = cl
	}
	pos := p.petalPos
	msg := clientQueryMsg{
		Seq:      q.seq,
		Key:      q.key,
		Client:   p.nid,
		Site:     p.site,
		Loc:      p.loc,
		JoinOnly: q.joinOnly,
	}
	if p.sys.tracer.Enabled() {
		// The routed segment starts empty at the client: the overlay
		// stamps each forwarding and the directory ships the whole
		// segment back in its response.
		p.chordClient.RouteViaTraced(gw, pos, msg, nil)
	} else {
		p.chordClient.RouteVia(gw, pos, msg)
	}
	q.attempt++
	p.armTimeout(q)
}

// routedQueryTimedOut runs when a routed attempt's deadline passes. The
// deadline of a finished query is cancelled before its record recycles
// (putQuery), so p.query == q also means "the query that armed it".
func (p *Peer) routedQueryTimedOut(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	if int(q.attempt) < queryRetries {
		p.sendRoutedQuery(q)
		return
	}
	// Routing keeps failing: either the position is vacant behind dead
	// gateways or the ring is in bad shape. Try to claim the position
	// (join case 2); claimFromQuery falls back to the origin on defeat.
	p.claimFromQuery(q)
}

// claimFromQuery attempts to become the petal's directory because
// D-ring has no (reachable) directory for it — join case 2 of
// Sec. 5.2.2 for new clients, and the rejoin path for orphaned content
// peers.
func (p *Peer) claimFromQuery(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	if p.chordNode != nil {
		// Already on the ring (a racing replacement promoted us while
		// this query was in flight): resolve from our own directory.
		if q.joinOnly {
			p.finishJoinOnly(q)
			return
		}
		p.directoryQuery(q)
		return
	}
	pos := p.petalPos
	seq := q.seq
	p.claimDirectoryPosition(pos, runtime.None, func(current chord.Entry, err error) {
		if p.dead || p.query != q || q.seq != seq {
			return
		}
		if err == nil {
			// We are the directory now; resolve our own query from what
			// we know (old summaries for a former content peer, the
			// origin for a brand-new client).
			p.sys.vacancyClaims++
			if q.joinOnly {
				p.finishJoinOnly(q)
				return
			}
			p.directoryQuery(q)
			return
		}
		if current.Valid() {
			// Somebody holds (or just won) the position: adopt and ask
			// them directly.
			p.dirInfo = DirInfo{Pos: pos, Node: current.Node, Age: 0}
			p.net().Send(p.nid, current.Node, clientQueryMsg{
				Seq: q.seq, Key: q.key, Client: p.nid,
				Site: p.site, Loc: p.loc, JoinOnly: q.joinOnly,
			})
			p.armTimeout(q)
			return
		}
		// Ring unreachable altogether.
		if q.joinOnly {
			p.finishJoinOnly(q)
			return
		}
		p.fallbackOrigin(q)
	})
}

// onDirQueryResp handles the directory's answer to a routed query.
func (p *Peer) onDirQueryResp(m dirQueryResp) {
	q := p.query
	if q == nil || q.seq != m.Seq {
		return // stale or duplicate answer
	}
	runtime.DropTimer(&q.timeout)
	if p.sys.tracer.Enabled() {
		// Merge the directory-side segment (ring route + scan forwards +
		// the answering directory) behind the client's issue hop.
		q.path = trace.Concat(q.path, m.Path)
	}
	// Adopt the directory and join the petal (Sec. 3.2: the client
	// "can join petal(ws, loc) as a content peer"). A peer that became
	// a directory itself while this answer travelled keeps pointing at
	// itself.
	if m.Dir.Valid() && p.role != RoleDirectory {
		p.dirInfo = DirInfo{Pos: m.Dir.ID, Node: m.Dir.Node, Age: 0}
	}
	p.joinPetal(m.Seed)
	// A re-joining content peer syncs its store with the (possibly new)
	// directory right away.
	p.maybePush()
	if q.joinOnly {
		p.finishJoinOnly(q)
		return
	}
	q.source = sourceOf(m.FromSummary)
	q.setCandidates(m.Providers)
	q.collab = m.CollabWith
	p.probeCandidate(q, false)
}

// onVacantResp handles the "position vacant" signal from the ring node
// covering our directory position's arc.
func (p *Peer) onVacantResp(m vacantResp) {
	q := p.query
	if q == nil || q.seq != m.Seq {
		return
	}
	runtime.DropTimer(&q.timeout)
	p.claimFromQuery(q)
}

// joinPetal transitions a client to content peer and seeds its view
// from the directory-provided contacts. The seed is the slice viewSeed
// built for this peer alone, so an empty view adopts it; a duplicate
// answer, which would carry the same slice again, never gets here
// (onDirQueryResp's seq check).
func (p *Peer) joinPetal(seed []gossip.Entry) {
	p.gsp.AddContacts(seed)
	if p.role != RoleClient {
		return // already a member (re-join after directory change)
	}
	p.role = RoleContent
	p.gsp.Start()
	p.startKeepalive()
}

// finishJoinOnly completes a membership-only arrival (non-active
// websites are "simply added to [their] petal upon arrival"; no metrics
// are recorded because no content was requested).
func (p *Peer) finishJoinOnly(q *activeQuery) {
	if p.query == q {
		p.query = nil
		p.putQuery(q)
	}
}

// contentQuery is the resolution path for petal members (Sec. 3.1):
// first the gossip view's content summaries, then the directory, then
// the origin.
func (p *Peer) contentQuery(q *activeQuery) {
	// Locality-aware candidate selection: every petal contact whose
	// summary claims the object, nearest first.
	cands := p.summaryCands(p.sys.candScratch[:0], p.gsp.View(), q.key, p.nid)
	q.source = srcGossip
	q.setRanked(p.sys.nearest(cands, gossipCandidates))
	if len(q.candidates) > 0 {
		p.probeCandidate(q, true)
		return
	}
	p.directoryQuery(q)
}

// probeCandidate fetch-probes the next of q.candidates; gossipPath
// selects the fallback when candidates run out.
func (p *Peer) probeCandidate(q *activeQuery, gossipPath bool) {
	if p.dead || p.query != q {
		return
	}
	if int(q.next) == len(q.candidates) {
		if gossipPath {
			p.directoryQuery(q)
		} else if len(q.collab) > 0 {
			p.collabQuery(q, nil)
		} else {
			p.fallbackOrigin(q)
		}
		return
	}
	target := q.candidates[q.next]
	q.next++
	st := p.sys.getStep(stepProbe, p, q, target)
	st.gossipPath = gossipPath
	p.net().Request(p.nid, target, p.sys.work.FetchReqMsg(q.key),
		workload.ProbeTimeout(p.sys.oracle.Latency(p.nid, target)), st.onDone)
}

// probed is probeCandidate's answer.
func (p *Peer) probed(q *activeQuery, seq uint64, target runtime.NodeID, gossipPath bool, resp any, err error) {
	if p.dead || p.query != q || q.seq != seq {
		return
	}
	served := err == nil && resp.(workload.FetchResp).Served
	// An answered probe without the object is a stale summary or
	// Bloom false positive — the flag the per-hop report keys on.
	p.traceHop(q, trace.HopProbe, target, err == nil && !served)
	if err != nil {
		if gossipPath {
			// The contact is gone; drop it from the view so
			// searches stop considering it.
			p.gsp.RemoveContact(target)
		} else if p.dirInfo.Valid() {
			// Tell the directory its pointer is stale so the
			// index stops advertising a dead provider.
			p.net().Send(p.nid, p.dirInfo.Node, deadProviderReport{Dead: target})
		}
		p.probeCandidate(q, gossipPath)
		return
	}
	if !served {
		p.probeCandidate(q, gossipPath)
		return
	}
	p.resolve(q, q.source.outcome(), target)
}

// directoryQuery consults the peer's directory (its own index when the
// peer IS a directory).
func (p *Peer) directoryQuery(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	if p.dir != nil {
		// We are a directory: resolve from our own index/summaries.
		ranked, fromSummary := p.dir.rankProviders(p, q.key, p.nid)
		q.source = sourceOf(fromSummary)
		q.setRanked(ranked)
		p.traceHop(q, trace.HopHome, p.nid, false)
		p.probeCandidate(q, false)
		return
	}
	if !p.dirInfo.Valid() {
		// No directory known: resolve via origin now; petal membership
		// recovery happens through the keepalive loop.
		p.fallbackOrigin(q)
		return
	}
	dirNode := p.dirInfo.Node
	st := p.sys.getStep(stepDirectory, p, q, dirNode)
	p.net().Request(p.nid, dirNode, dirQueryReq{Key: q.key, Client: p.nid}, p.sys.cfg.Chord.RPCTimeout, st.onDone)
}

// directoryAnswered is directoryQuery's answer.
func (p *Peer) directoryAnswered(q *activeQuery, seq uint64, dirNode runtime.NodeID, resp any, err error) {
	if p.dead || p.query != q || q.seq != seq {
		if err != nil && !p.dead {
			p.dirContactFailed(dirNode)
		}
		return
	}
	if err != nil {
		p.dirContactFailed(dirNode)
		p.fallbackOrigin(q)
		return
	}
	p.dirMisses = 0
	p.dirInfo.Age = 0 // fresh contact
	p.traceHop(q, trace.HopHome, dirNode, false)
	rep := resp.(dirQueryReply)
	q.source = sourceOf(rep.FromSummary())
	q.setCandidates(rep.Providers())
	q.collab = rep.CollabWith()
	p.probeCandidate(q, false)
}

// sourceOf names the directory path a provider list came from.
func sourceOf(fromSummary bool) querySource {
	if fromSummary {
		return srcDirSummary
	}
	return srcDirectory
}

// collabQuery asks the next same-website sibling directory for
// providers before conceding a miss (Sec. 3.2's directory
// collaboration). A sibling hit is served from another locality's
// petal — farther than the local petal but still a P2P hit. Siblings
// are consulted sequentially until one yields providers or the list
// runs out. req is the boxed request the previous sibling was sent, nil
// for the first: every sibling gets the same value, so a query boxes it
// once.
func (p *Peer) collabQuery(q *activeQuery, req any) {
	if p.dead || p.query != q {
		return
	}
	if len(q.collab) == 0 {
		p.fallbackOrigin(q)
		return
	}
	sib := q.collab[0]
	q.collab = q.collab[1:]
	if req == nil {
		req = dirQueryReq{Key: q.key, Client: p.nid, Foreign: true}
	}
	st := p.sys.getStep(stepCollab, p, q, sib.Node)
	st.req = req
	p.net().Request(p.nid, sib.Node, req, p.sys.cfg.Chord.RPCTimeout, st.onDone)
}

// siblingAnswered is collabQuery's answer.
func (p *Peer) siblingAnswered(q *activeQuery, seq uint64, sib runtime.NodeID, req, resp any, err error) {
	if p.dead || p.query != q || q.seq != seq {
		return
	}
	if err != nil {
		p.collabQuery(q, req)
		return
	}
	p.traceHop(q, trace.HopHome, sib, false)
	rep := resp.(dirQueryReply)
	if len(rep.Providers()) == 0 {
		p.collabQuery(q, req)
		return
	}
	q.source = srcDirectory
	q.setCandidates(rep.Providers())
	p.probeCandidate(q, false)
}

// fallbackOrigin resolves the query at the origin web server — a miss
// for the P2P system.
func (p *Peer) fallbackOrigin(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	origin := p.sys.origins.Node(q.key.Site)
	p.resolve(q, metrics.Miss, origin)
}

// resolve finalizes a query: record the paper's three metrics, then
// perform the transfer (fetch + store + push bookkeeping).
func (p *Peer) resolve(q *activeQuery, outcome metrics.Outcome, provider runtime.NodeID) {
	if p.query != q {
		return
	}
	p.query = nil
	now := p.eng().Now()
	dist := p.sys.oracle.Latency(p.nid, provider)
	p.sys.coll.Emit(metrics.QueryEvent(now, outcome, metrics.LookupLatency(q.start, now, outcome, dist), dist))
	if p.sys.tracer.Enabled() {
		// The record owns a copy of the path: q recycles below and its
		// backing array will be reused by the peer's next query.
		p.sys.tracer.Emit(now, &trace.Record{
			Query:    q.seq,
			Client:   p.nid,
			Key:      q.key.Uint64(),
			Outcome:  outcome,
			Attempts: int(q.attempt),
			Hops: trace.Append(trace.CopyHops(q.path), trace.Hop{
				Kind: trace.HopServe, Node: provider, At: now,
			}),
		})
	}
	key := q.key // q recycles now; the fetch outlives it
	p.putQuery(q)
	if outcome == metrics.Miss {
		// The object still has to travel from the origin. A peer's next
		// query may resolve before this fetch returns, so the fetch is a
		// step of its own carrying the key, not state of the peer.
		st := p.sys.getStep(stepOriginFetch, p, nil, provider)
		st.key = key
		p.net().Request(p.nid, provider, p.sys.work.FetchReqMsg(key), 0, st.onDone)
		return
	}
	// Hit paths already verified the provider served the object.
	p.acquire(key)
}

// acquire stores a fetched object and runs the push-threshold check
// (Sec. 5.1).
func (p *Peer) acquire(key content.Key) {
	if !p.store.Add(key) {
		return
	}
	p.maybePush()
}

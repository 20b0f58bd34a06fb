package baseline

import (
	"errors"
	"fmt"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/ids"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Router is the overlay a ring-directory peer joins and routes over.
// *chord.Node and *koorde.Node both satisfy it; a router that also has
// Pointers() []chord.Entry (koorde) gets its de Bruijn set into the
// RingMembers snapshot.
type Router interface {
	proto.RingPointers
	Create()
	Join(gateway chord.Entry, cb func(error))
	Stop()
	Route(key ids.ID, payload any)
	RouteTraced(key ids.ID, payload any, path []trace.Hop)
	HandleMessage(from runtime.NodeID, msg any) bool
	HandleRequest(from runtime.NodeID, req any) (resp any, err error, handled bool)
}

// NewRouter builds one peer's overlay node over the deployment's chord
// records, with the signature of chord.Pool.NewNode and
// koorde.NewNodeIn less the overlay's own config.
type NewRouter func(pool *chord.Pool, net runtime.Net, rng *rnd.RNG, app chord.App, nid runtime.NodeID, ringID ids.ID) (Router, error)

// RingSpec is everything that differs between the ring-directory
// protocols. The label strings and RootDraws exist because each
// protocol's random streams were named before the drivers were merged
// and a run's fingerprint depends on every one of them.
type RingSpec struct {
	// Info is the registry entry.
	Info proto.Info
	// Router lowers and validates the overlay's own option (chord-demo)
	// into a node constructor.
	Router func(proto.Options) (NewRouter, error)
	// HomeKey maps an object to the ring key whose owner keeps its
	// directory entry: per object for squirrel, per site for the others.
	HomeKey func(content.Key) ids.ID
	// PushSummaries makes every peer re-register its cached keys with
	// its site's home each refresh period — the only thing that
	// rebuilds a directory after its home fails. It needs a HomeKey
	// that depends on the site alone: a summary goes to one home.
	PushSummaries bool
	// PeerStream (by spawn count) and RingID (by NodeID) are the format
	// strings naming a peer's RNG stream and hashing its ring position;
	// RouterStream names the sub-stream handed to the overlay node.
	PeerStream, RingID, RouterStream string
	// RootDraws draws placements and gateway picks from the deployment's
	// root stream instead of its "identities" split (squirrel).
	RootDraws bool
}

// ChordRouter is the RingSpec.Router of the protocols routed over plain
// Chord fingers.
func ChordRouter(opts proto.Options) (NewRouter, error) {
	cfg := chord.DefaultConfig()
	if opts.Bool("chord-demo", false) {
		cfg = chord.DemoConfig()
	}
	return func(pool *chord.Pool, net runtime.Net, rng *rnd.RNG, app chord.App, nid runtime.NodeID, ringID ids.ID) (Router, error) {
		return pool.NewNode(cfg, net, rng, app, nid, ringID)
	}, nil
}

// SiteHome returns the per-site RingSpec.HomeKey hashing label (a
// format string taking the site number) onto the ring.
func SiteHome(label string) func(content.Key) ids.ID {
	return func(k content.Key) ids.ID { return ids.HashString(fmt.Sprintf(label, k.Site)) }
}

// RegisterRingDirectory registers the ring-directory deployment
// described by s under s.Info.Name.
func RegisterRingDirectory(s RingSpec) { proto.Register(s.Info, s.lower) }

// ringConfig is a spec's options, lowered.
type ringConfig struct {
	newRouter NewRouter
	// refresh is the summary push period (PushSummaries only).
	refresh int64
	// queryTimeout bounds one routed query attempt.
	queryTimeout int64
}

const (
	// queryRetries is the number of routed attempts before the origin
	// fallback.
	queryRetries = 3
	// redirectsPerQuery is how many providers a home suggests per query
	// and providersPerObject how many it remembers per object: the
	// Squirrel paper's numbers, kept for all three protocols.
	redirectsPerQuery  = 1
	providersPerObject = 4
)

// lower is the spec's proto.Lowering: it resolves the option map into a
// validated config and returns the deployment's constructor. It reads
// the router's options, query-timeout (10 s), the shared cache keys,
// and with PushSummaries keepalive-interval (1 h): summaries are bulk
// messages, so they refresh at half the keepalive rate. Unknown keys
// are ignored.
func (s *RingSpec) lower(opts proto.Options) (func(proto.Env) (proto.System, error), error) {
	cfg := ringConfig{queryTimeout: opts.Duration("query-timeout", 10*runtime.Second)}
	name := s.Info.Name
	cacheCfg, err := proto.CacheConfigFromOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cfg.newRouter, err = s.Router(opts); err != nil {
		return nil, err // names its overlay already
	}
	if cfg.queryTimeout <= 0 {
		return nil, fmt.Errorf("%s: query-timeout must be positive", name)
	}
	if s.PushSummaries {
		cfg.refresh = 2 * opts.Duration("keepalive-interval", runtime.Hour)
		if cfg.refresh <= 0 {
			return nil, fmt.Errorf("%s: keepalive-interval must be positive", name)
		}
	}
	return func(env proto.Env) (proto.System, error) {
		d := &ringDriver{spec: s, cfg: cfg, env: env, idRNG: env.RNG.Split("identities"),
			newStore: cacheCfg.StoreFactory(env), pool: chord.NewPool()}
		d.drawRNG = d.idRNG
		if s.RootDraws {
			d.drawRNG = env.RNG
		}
		d.registry.BindBus(env.Net)
		return d, nil
	}, nil
}

type ringDriver struct {
	spec     *RingSpec
	cfg      ringConfig
	env      proto.Env
	idRNG    *rnd.RNG // interests
	drawRNG  *rnd.RNG // placements and gateway picks
	newStore func() *content.Store

	// registry is the ring-member gateway set, mirrored across
	// processes on multi-process backends (chord.Registry).
	registry chord.Registry
	// pool is the one stock of chord records every peer's overlay node
	// draws on.
	pool *chord.Pool
	// peers is the RingInspector snapshot source and the population
	// count; protocol logic never consults it.
	peers    proto.Roster[*peer]
	querySeq uint64
}

// SpawnSeed: the seeds are ordinary ring members.
func (d *ringDriver) SpawnSeed(int) (proto.Individual, func()) {
	ind := d.NewIndividual()
	return ind, d.Spawn(ind)
}

func (d *ringDriver) NewIndividual() proto.Individual {
	return proto.Identity{
		Site:      d.env.Workload.AssignInterest(d.idRNG),
		Placement: d.env.Topo.Place(d.drawRNG),
		Store:     d.newStore(),
	}
}

func (d *ringDriver) Spawn(ind proto.Individual) func() {
	id := ind.(proto.Identity)
	p := &peer{
		d:     d,
		site:  id.Site,
		store: id.Store,
		rng:   d.env.RNG.Split(fmt.Sprintf(d.spec.PeerStream, d.peers.Spawned()+1)),
		index: content.Holders{Bound: providersPerObject},
	}
	p.nid = d.env.Net.Join(p, id.Placement)
	ringID := ids.HashString(fmt.Sprintf(d.spec.RingID, p.nid))
	node, err := d.cfg.newRouter(d.pool, d.env.Net, p.rng.Split(d.spec.RouterStream), p, p.nid, ringID)
	if err != nil {
		panic(err) // config validated at build time
	}
	p.node = node
	d.peers.Add(p)
	p.enterRing(3)
	return p.kill
}

func (d *ringDriver) Stats() proto.Stats {
	return proto.Stats{
		proto.StatPeersSpawned: float64(d.peers.Spawned()),
		proto.StatAlivePeers:   float64(d.peers.Alive()),
	}
}

// RingMembers implements proto.RingInspector: one snapshot record per
// alive, joined ring member, in creation order.
func (d *ringDriver) RingMembers() []proto.RingMember {
	var out []proto.RingMember
	for _, p := range d.peers.Online() {
		if !p.joined {
			continue
		}
		m := proto.RingMemberOf(p.node)
		if db, ok := p.node.(interface{ Pointers() []chord.Entry }); ok {
			m.DeBruijn = proto.RingNodesOf(db.Pointers())
		}
		out = append(out, m)
	}
	return out
}

func (d *ringDriver) nextSeq() uint64 {
	d.querySeq++
	return d.querySeq
}

// ---- wire messages ----

func init() {
	// Socket-backend wire types (interface-typed payloads).
	runtime.RegisterWireType(query{}, homeResp{}, summary{})
}

// query routes over the overlay to the home node of Key.
type query struct {
	Seq    uint64
	Key    content.Key
	Client runtime.NodeID
}

// homeResp is the home's redirect, sent directly to the client.
type homeResp struct {
	Seq       uint64
	Providers []runtime.NodeID
	// Path carries the query's overlay route plus the home hop back to
	// the client on traced runs (nil otherwise).
	Path []trace.Hop
}

// summary re-registers a peer's cached keys with its site's current
// home.
type summary struct {
	Node runtime.NodeID
	Keys []content.Key
}

// WireBytes sizes the summary by its key list.
func (s summary) WireBytes() int { return 32 + 8*len(s.Keys) }

// peer is one ring-directory participant.
type peer struct {
	d     *ringDriver
	nid   runtime.NodeID
	rng   *rnd.RNG
	site  content.SiteID
	store *content.Store
	node  Router

	// index is this node's slice of the directory: for every key this
	// node is currently home of, the newest indexCap providers. It dies
	// with the node.
	index content.Holders

	query      *activeQuery
	queryTimer runtime.Timer
	refresh    runtime.Ticker
	joined     bool
	dead       bool
}

type activeQuery struct {
	seq        uint64
	key        content.Key
	start      int64
	attempt    int
	timeout    runtime.Timer
	candidates []runtime.NodeID
	// redirected marks the first home response consumed; retries share
	// the query's seq, so a late duplicate must not restart the probe
	// chain mid-probe.
	redirected bool
	// path is the hop-by-hop trace on traced runs (nil otherwise).
	path []trace.Hop
}

// enterRing joins the overlay, retrying a few times during bootstrap
// storms; the first peer creates the ring. On a follower process a peer
// never founds a ring of its own — it waits for a gateway announced
// over the bus instead.
func (p *peer) enterRing(attempts int) {
	if p.dead {
		return
	}
	d := p.d
	gw := d.registry.PickAlive(d.drawRNG, d.env.Oracle.Alive, runtime.None)
	if !gw.Valid() {
		if d.env.Follower {
			d.env.Clock.Schedule(200*runtime.Millisecond, func() { p.enterRing(attempts) })
			return
		}
		p.node.Create()
		p.onJoined()
		return
	}
	p.node.Join(gw, func(err error) {
		if p.dead {
			return
		}
		if err != nil {
			if attempts > 1 {
				d.env.Clock.Schedule(10*runtime.Second, func() { p.enterRing(attempts - 1) })
			}
			return
		}
		p.onJoined()
	})
}

func (p *peer) onJoined() {
	p.joined = true
	p.d.registry.Add(p.node.Self())
	if p.d.env.Workload.Active(p.site) {
		p.scheduleNextQuery(p.d.env.Workload.FirstQueryDelay(p.rng))
	}
	if !p.d.spec.PushSummaries {
		return
	}
	// Jittered so a whole population doesn't push in lockstep.
	p.refresh = p.d.env.Clock.Every(
		p.rng.UniformDuration(0, p.d.cfg.refresh), p.d.cfg.refresh, p.pushSummary)
	// A re-joining individual may carry a full cache from earlier
	// sessions; announce it without waiting a whole refresh period.
	if p.store.Len() > 0 {
		p.pushSummary()
	}
}

func (p *peer) pushSummary() {
	if p.dead || !p.joined || p.store.Len() == 0 {
		return
	}
	p.node.Route(p.d.spec.HomeKey(content.Key{Site: p.site}), summary{Node: p.nid, Keys: p.store.Keys()})
	p.d.env.Metrics.Emit(metrics.CounterEvent(p.d.env.Clock.Now(), "summary_pushes", 1))
}

func (p *peer) scheduleNextQuery(delay int64) {
	p.queryTimer = p.d.env.Clock.Schedule(delay, func() {
		if p.dead {
			return
		}
		p.issueQuery()
		p.scheduleNextQuery(p.d.env.Workload.NextQueryDelay(p.rng))
	})
}

func (p *peer) kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.d.peers.Drop()
	p.node.Stop()
	if p.queryTimer != nil {
		p.queryTimer.Cancel()
	}
	if p.refresh != nil {
		p.refresh.Cancel()
	}
	p.query = nil
	p.d.env.Net.Fail(p.nid)
}

// Alive implements the proto.Roster entry.
func (p *peer) Alive() bool { return !p.dead }

// issueQuery starts one query through the distributed directory.
func (p *peer) issueQuery() {
	if p.dead || p.query != nil || !p.joined {
		return
	}
	key, ok := p.d.env.Workload.PickObject(p.rng, p.site, p.store)
	if !ok {
		return
	}
	q := &activeQuery{seq: p.d.nextSeq(), key: key, start: p.d.env.Clock.Now()}
	if p.d.env.Trace.Enabled() {
		q.path = trace.Append(q.path, trace.Hop{
			Kind: trace.HopIssue, Node: p.nid, At: q.start})
	}
	p.query = q
	p.sendQuery(q)
}

func (p *peer) sendQuery(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	q.attempt++
	msg := query{Seq: q.seq, Key: q.key, Client: p.nid}
	if p.d.env.Trace.Enabled() {
		// The routed path segment starts empty; the home ships it back
		// (with its own hop appended) in homeResp.Path.
		p.node.RouteTraced(p.d.spec.HomeKey(q.key), msg, nil)
	} else {
		p.node.Route(p.d.spec.HomeKey(q.key), msg)
	}
	q.timeout = p.d.env.Clock.Schedule(p.d.cfg.queryTimeout, func() {
		if p.dead || p.query != q {
			return
		}
		if q.attempt < queryRetries {
			p.sendQuery(q)
			return
		}
		// The overlay failed us entirely: origin.
		p.resolve(q, metrics.Miss, p.d.env.Origins.Node(q.key.Site))
	})
}

// OnRouted implements chord.App: this node currently terminates routing
// for the payload's home key.
func (p *peer) OnRouted(_ ids.ID, payload any, _ runtime.NodeID, hops int, path []trace.Hop) {
	if p.dead {
		return
	}
	switch m := payload.(type) {
	case query:
		// Hop accounting at the home: the overlay forwardings this
		// query took, surfaced as the run's mean-hops stat.
		now := p.d.env.Clock.Now()
		p.d.env.Metrics.Emit(metrics.CounterEvent(now, "lookup_hops", float64(hops)))
		p.d.env.Metrics.Emit(metrics.CounterEvent(now, "routed_queries", 1))
		p.d.env.Trace.Delivered(hops)
		providers := p.index.Of(m.Key)
		resp := homeResp{Seq: m.Seq}
		if p.d.env.Trace.Enabled() {
			resp.Path = trace.Append(path, trace.Hop{
				Kind: trace.HopHome, Node: p.nid, At: now})
		}
		// Random redirection — no locality information exists.
		for _, i := range p.rng.Perm(len(providers)) {
			if len(resp.Providers) >= redirectsPerQuery {
				break
			}
			if providers[i] != m.Client {
				resp.Providers = append(resp.Providers, providers[i])
			}
		}
		// The requester is about to hold the object (from a provider
		// or the origin): index it optimistically.
		p.index.Add(m.Key, m.Client)
		p.d.env.Net.Send(p.nid, m.Client, resp)
	case summary:
		if !p.d.spec.PushSummaries {
			return
		}
		for _, k := range m.Keys {
			p.index.Add(k, m.Node)
		}
	}
}

// onHomeResp continues the query with the home's redirect.
func (p *peer) onHomeResp(m homeResp) {
	q := p.query
	if q == nil || q.seq != m.Seq || q.redirected {
		return
	}
	q.redirected = true
	runtime.DropTimer(&q.timeout)
	q.candidates = m.Providers
	q.path = trace.Concat(q.path, m.Path)
	p.probeProvider(q)
}

func (p *peer) probeProvider(q *activeQuery) {
	if p.dead || p.query != q {
		return
	}
	if len(q.candidates) == 0 {
		p.resolve(q, metrics.Miss, p.d.env.Origins.Node(q.key.Site))
		return
	}
	target := q.candidates[0]
	q.candidates = q.candidates[1:]
	timeout := workload.ProbeTimeout(p.d.env.Oracle.Latency(p.nid, target))
	p.d.env.Net.Request(p.nid, target, p.d.env.Workload.FetchReqMsg(q.key), timeout,
		func(resp any, err error) {
			if p.dead || p.query != q {
				return
			}
			served := err == nil && resp.(workload.FetchResp).Served
			if p.d.env.Trace.Enabled() {
				q.path = trace.Append(q.path, trace.Hop{
					Kind: trace.HopProbe, Node: target, At: p.d.env.Clock.Now(),
					// A probe that answered but could not serve is a stale
					// directory entry — the summary false-positive flag.
					FalsePositive: err == nil && !served,
				})
			}
			if !served {
				p.probeProvider(q)
				return
			}
			p.resolve(q, metrics.HitDirectory, target)
		})
}

// resolve records metrics and performs the transfer.
func (p *peer) resolve(q *activeQuery, outcome metrics.Outcome, provider runtime.NodeID) {
	if p.query != q {
		return
	}
	runtime.DropTimer(&q.timeout)
	p.query = nil
	env := p.d.env
	now := env.Clock.Now()
	dist := env.Oracle.Latency(p.nid, provider)
	env.Metrics.Emit(metrics.QueryEvent(now, outcome, metrics.LookupLatency(q.start, now, outcome, dist), dist))
	if tr := env.Trace; tr.Enabled() {
		tr.Emit(now, &trace.Record{
			Query: q.seq, Client: p.nid,
			Key: q.key.Uint64(), Outcome: outcome, Attempts: q.attempt,
			Hops: trace.Append(q.path, trace.Hop{
				Kind: trace.HopServe, Node: provider, At: now}),
		})
	}
	if outcome == metrics.Miss {
		env.Net.Request(p.nid, provider, env.Workload.FetchReqMsg(q.key), 0,
			func(_ any, err error) {
				if p.dead || err != nil {
					return
				}
				p.store.Add(q.key)
			})
		return
	}
	p.store.Add(q.key)
}

// ---- runtime.Handler ----

// HandleMessage dispatches overlay traffic and home redirects.
func (p *peer) HandleMessage(from runtime.NodeID, msg any) {
	if p.dead {
		return
	}
	if p.node.HandleMessage(from, msg) {
		return
	}
	if m, ok := msg.(homeResp); ok {
		p.onHomeResp(m)
	}
}

// HandleRequest dispatches overlay RPCs and content fetches.
func (p *peer) HandleRequest(from runtime.NodeID, req any) (any, error) {
	if p.dead {
		return nil, errors.New("baseline: dead peer")
	}
	if resp, err, ok := p.node.HandleRequest(from, req); ok {
		return resp, err
	}
	if r, ok := req.(workload.FetchReq); ok {
		return p.d.env.Workload.FetchRespMsg(r.Key, p.store.Has(r.Key)), nil
	}
	return nil, fmt.Errorf("baseline: unhandled request %T", req)
}

// Package flower implements the paper's primary contribution: the
// Flower-CDN hybrid P2P content distribution network (Sec. 3), its
// PetalUp-CDN scalability extension (Sec. 4, enabled by
// Config.DirLoadLimit), and the churn maintenance protocols (Sec. 5).
//
// The architecture is two-layered:
//
//   - petals: per-(website, locality) gossip clusters of content peers
//     that cache and serve the website's objects to nearby clients;
//   - D-ring: a Chord overlay populated only by directory peers, one
//     (or, under PetalUp, several) per petal, at deterministic ring
//     positions derived from (website, locality, instance), serving as
//     the lookup entry point for new clients.
//
// A peer's life: it arrives as a *client*, submits its first query over
// D-ring, is served (from the petal or the origin), then joins the
// petal as a *content peer* — resolving its later queries through petal
// gossip and its directory, and serving other peers in turn. Content
// peers may be promoted to *directory peers* to replace failures
// (Sec. 5.2) or to absorb load (Sec. 4).
//
// # A query's life cycle
//
// The harness's query timer hands the peer an object it lacks
// (Peer.Query), which takes the peer's recycled activeQuery. A client
// routes it over D-ring (with a deadline bound to the record once,
// retried through other gateways) and waits for the directory's
// answer; a petal member ranks the contacts of its gossip
// view whose summary claims the object, nearest first, and fetch-probes
// them, then asks its directory, then the same website's directories in
// other localities, then the origin (query.go). Whatever path found the
// provider, resolve emits the query's one metrics event, recycles the
// record and stores the object.
//
// Every RPC on that path — probe, directory question, sibling question,
// origin fetch — is one step record (steps.go), taken from a free list
// on the System and handed to the transport with a callback bound when
// the record was made. It returns to the list before its answer is
// handled. An answer is acted on only under the three guards the path
// has always had: the peer is alive, the peer's current query is still
// the record's (p.query == q), and it is still the same query and not
// the recycled record's next one (q.seq == seq). What one RPC needs to
// remember lives in its step, not in activeQuery, because a query can
// have two chains of steps in flight: a routed query that was retried is
// answered once per attempt under the same Seq, and each answer starts
// probing. The chains share the query's candidate list and cursor; the
// first to resolve wins and the guards drop what the other brings home.
//
// In steady state this path allocates nothing at the client but the
// request it sends its directory (alloc_test.go pins it): provider
// rankings sort a scratch buffer on the System, candidate lists are
// copied into a buffer the query owns, and fetch messages are interned
// by the workload. Replies built at directories are still boxed per
// call.
package flower

import (
	"cmp"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"
	"slices"

	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/dring"
	"flowercdn/internal/ids"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// System is one Flower-CDN deployment inside a simulation run. It owns
// the shared environment and the bootstrap directory registry — the
// stand-in for the out-of-band entry points (the supported websites
// themselves) through which real clients would discover D-ring.
type System struct {
	cfg     Config
	net     runtime.Net
	eng     runtime.Clock
	topo    *topology.Topology
	rng     *rnd.RNG
	work    *workload.Workload
	origins *workload.Origins
	coll    metrics.Emitter
	tracer  *trace.Tracer
	// oracle is env.Oracle, what only the experimenter knows; every read
	// of it is pinned by internal/protocols' oracle test.
	oracle runtime.Observer

	// registry holds entries believed to be alive D-ring members; dead
	// ones are pruned lazily as they are handed out. On multi-process
	// backends it is mirrored across processes over the transport's bus
	// (chord.Registry) — the paper's out-of-band entry points (the
	// supported websites) made concrete.
	registry chord.Registry
	// chordPool is the one stock of chord records that every peer's
	// D-ring node and lookup client draws on.
	chordPool *chord.Pool
	// follower marks a process that must wait for an announced gateway
	// instead of founding the D-ring (multi-process backends only).
	follower bool
	// peers is the online roster, for measurement only; protocol logic
	// never consults it (that would be cheating the distribution).
	peers proto.Roster[*Peer]

	// freeSteps recycles the per-RPC records of the query path (steps.go);
	// candScratch is the ranking buffer of contentQuery and rankProviders,
	// and seedScratch viewSeed's sample of member-view positions, each
	// used and released within one call.
	freeSteps   []*step
	candScratch []provCand
	seedScratch []int

	dirPromotions  uint64
	dirReplacement uint64
	vacancyClaims  uint64
	demotions      uint64
	querySeq       uint64
}

// NewSystem validates the config and builds an empty deployment on
// env — of which it reads Net (and the clock behind it), Oracle, Topo,
// RNG, Workload, Origins, Metrics, Trace and Follower. Metrics is any
// event emitter: the harness passes a full metrics.Pipeline, library
// callers and tests a bare *metrics.Collector. Its peers are the
// individuals a proto.Population mints, stores included. Driver.New
// vets env for callers that go through Flower or PetalUp; direct
// callers own its completeness.
func NewSystem(cfg Config, env proto.Env) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A D-ring position packs the locality into dring.LocalityBits.
	if k := env.Topo.Localities(); k > dring.MaxLocalities {
		return nil, fmt.Errorf("flower: %d localities, but D-ring positions hold at most %d", k, dring.MaxLocalities)
	}
	if n := env.Workload.Config().ObjectsPerSite; n > exactSetObjects {
		return nil, fmt.Errorf("flower: %d objects per site, but a member's key set holds at most %d", n, exactSetObjects)
	}
	s := &System{
		cfg:       cfg,
		net:       env.Net,
		eng:       env.Net.Clock(),
		topo:      env.Topo,
		oracle:    env.Oracle,
		rng:       env.RNG,
		work:      env.Workload,
		origins:   env.Origins,
		coll:      env.Metrics,
		tracer:    env.Trace,
		follower:  env.Follower,
		chordPool: chord.NewPool(),
	}
	// On a multi-process backend, mirror the gateway registry over the
	// bus: ring-member registrations announced by other processes feed
	// our registry and vice versa, so a client anywhere can discover a
	// directory anywhere.
	s.registry.BindBus(env.Net)
	return s, nil
}

// DuplicatePositions counts alive directory peers beyond one per
// position — the invariant the audit protocol drives back to zero.
func (s *System) DuplicatePositions() int {
	per := map[ids.ID]int{}
	for _, p := range s.peers.Online() {
		if p.dir != nil {
			per[p.dir.pos]++
		}
	}
	dups := 0
	for _, n := range per {
		if n > 1 {
			dups += n - 1
		}
	}
	return dups
}

// gateway returns an alive registry entry, excluding one node (usually
// the directory just observed dead), pruning dead entries as it scans.
// Returns NoEntry when the registry is empty.
func (s *System) gateway(exclude runtime.NodeID) chord.Entry {
	return s.registry.PickAlive(s.rng, s.oracle.Alive, exclude)
}

// DirectoryCount returns the number of currently-alive registered
// directory peers (diagnostic).
func (s *System) DirectoryCount() int {
	n := 0
	for _, e := range s.registry.Entries {
		if s.oracle.Alive(e.Node) {
			n++
		}
	}
	return n
}

// Peers returns the online peers in spawn order (measurement only). The
// slice is the roster's: read it before the next spawn.
func (s *System) Peers() []*Peer { return s.peers.Online() }

// PetalDirectories returns the alive directory instances currently
// serving petal (site, loc), in instance order (measurement only).
func (s *System) PetalDirectories(site content.SiteID, loc topology.Locality) []*Peer {
	var out []*Peer
	for _, p := range s.peers.Online() {
		if p.dir != nil && dring.SamePetal(p.dir.pos, site, loc) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *Peer) int { return cmp.Compare(a.dir.instance, b.dir.instance) })
	return out
}

// Spawn implements proto.System: an individual comes online as a new
// client (startLife), its store with it (re-indexed through the full
// push on re-join).
func (s *System) Spawn(id proto.Identity) proto.Session {
	p := s.newPeer(id)
	p.startLife()
	return p
}

// SpawnSeed implements proto.System: a bootstrap individual claims the
// position-0 D-ring slot of its petal, as its initial directory peer.
// The first seed creates the ring; later seeds join through a member.
// The paper starts with k*|W| = 600 ("one directory peer per couple
// (website, locality)").
func (s *System) SpawnSeed(id proto.Identity) proto.Session {
	p := s.newPeer(id)
	pos := p.petalPos
	p.seating = true
	switch {
	case s.registry.Len() > 0:
		p.seedClaim(pos, 5)
	case s.follower:
		// A follower process never founds a second, disjoint D-ring:
		// wait for the bootstrap process's founding announcement to
		// arrive over the bus, then claim through it.
		p.awaitGateway(pos, 5)
	default:
		p.becomeFoundingDirectory(pos)
	}
	return p
}

// awaitGateway polls the registry until a bus announcement provides a
// gateway, then proceeds with the normal seed claim. The poll is cheap
// and ends with the peer's session, so no attempt bound is needed.
func (p *Peer) awaitGateway(pos ids.ID, attempts int) {
	if p.dead {
		return
	}
	if p.sys.registry.Len() == 0 {
		p.eng().Schedule(200*runtime.Millisecond, func() { p.awaitGateway(pos, attempts) }).Release()
		return
	}
	p.seedClaim(pos, attempts)
}

// seedClaim claims a seed position with retries: during the initial
// join storm the forming ring occasionally fails a lookup or denies a
// claim while an arc boundary is unknown.
func (p *Peer) seedClaim(pos ids.ID, attempts int) {
	p.claimDirectoryPosition(pos, runtime.None, func(current chord.Entry, err error) {
		if p.dead || err == nil {
			return
		}
		if current.Valid() {
			// Somebody genuinely beat us to the seat; live on as a
			// plain client of that directory.
			p.dirInfo = DirInfo{Pos: pos, Node: current.Node, Age: 0}
		} else if attempts > 1 {
			// Transient failure (lookup timeout or healing denial): retry.
			p.eng().Schedule(p.sys.cfg.SeedRetryDelay, func() { p.seedClaim(pos, attempts-1) }).Release()
			return
		}
		p.seating = false
		p.startLife()
	})
}

func (s *System) newPeer(id proto.Identity) *Peer {
	p := &Peer{
		sys:      s,
		site:     id.Site,
		loc:      id.Placement.Loc,
		petalPos: dring.Position(id.Site, id.Placement.Loc, 0),
		store:    id.Store,
		rng:      id.Work,
	}
	p.qspare = &p.qrec
	p.nid = s.net.Join(p, id.Placement)
	p.initGossip()
	s.peers.Add(p)
	return p
}

// nextQuerySeq hands out query correlation tags.
func (s *System) nextQuerySeq() uint64 {
	s.querySeq++
	return s.querySeq
}

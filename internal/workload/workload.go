package workload

import (
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"fmt"

	"flowercdn/internal/content"
	"flowercdn/internal/topology"
)

// Config mirrors the workload rows of the paper's Table 1.
type Config struct {
	// Sites is |W|, the number of supported websites (paper: 100).
	Sites int
	// ObjectsPerSite is the per-site catalog size (paper: 500).
	ObjectsPerSite int
	// ActiveSites restricts query generation: only peers interested in
	// the first ActiveSites websites submit queries; all others are
	// involved only in churn and maintenance (paper: 6 active of 100).
	ActiveSites int
	// QueryMeanInterval is the mean time between queries at an active
	// peer (paper: 1 query every 6 minutes).
	QueryMeanInterval int64
	// ZipfAlpha is the object-popularity exponent (Breslau et al.
	// measure 0.64–0.83 for web traces; 0.8 is our default).
	ZipfAlpha float64
	// InterestSkew biases which website a peer is assigned interest in:
	// 0 (the paper's setting) is uniform over |W|; larger values
	// Zipf-concentrate interest into low-index sites (exponent =
	// InterestSkew), so site 0 becomes a hot site most of the
	// population cares about — the flash-crowd situation.
	InterestSkew float64
}

// DefaultConfig returns Table 1's workload parameters.
func DefaultConfig() Config {
	return Config{
		Sites:             100,
		ObjectsPerSite:    500,
		ActiveSites:       6,
		QueryMeanInterval: 6 * runtime.Minute,
		ZipfAlpha:         0.8,
	}
}

// Workload owns the catalog, the popularity distribution and interest
// assignment for one run.
type Workload struct {
	cfg     Config
	catalog *content.Catalog
	zipf    *Zipf
	// interest is nil when InterestSkew == 0 (uniform assignment).
	interest *Zipf
	// fetch interns the boxed fetch messages (FetchReqMsg, FetchRespMsg):
	// one row per site, made when the site is first fetched from.
	fetch [][]fetchMsgs
}

// Validate checks the full workload configuration. It is also what
// upstream config validation (harness, sweep specs) calls to reject a
// bad workload before any simulation work starts.
func (c Config) Validate() error {
	if c.Sites < 1 {
		return fmt.Errorf("workload: need at least 1 site, got %d", c.Sites)
	}
	if c.ObjectsPerSite < 1 {
		return fmt.Errorf("workload: need at least 1 object per site, got %d", c.ObjectsPerSite)
	}
	if c.ActiveSites < 1 || c.ActiveSites > c.Sites {
		return fmt.Errorf("workload: active sites %d out of [1, %d]", c.ActiveSites, c.Sites)
	}
	if c.QueryMeanInterval <= 0 {
		return fmt.Errorf("workload: non-positive query interval %d", c.QueryMeanInterval)
	}
	if c.ZipfAlpha < 0 {
		return fmt.Errorf("workload: negative zipf exponent %g", c.ZipfAlpha)
	}
	if c.InterestSkew < 0 {
		return fmt.Errorf("workload: negative interest skew %g", c.InterestSkew)
	}
	return nil
}

// New validates cfg and builds the workload.
func New(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cat, err := content.NewCatalog(cfg.Sites, cfg.ObjectsPerSite)
	if err != nil {
		return nil, err
	}
	z, err := NewZipf(cfg.ObjectsPerSite, cfg.ZipfAlpha)
	if err != nil {
		return nil, err
	}
	w := &Workload{cfg: cfg, catalog: cat, zipf: z, fetch: make([][]fetchMsgs, cfg.Sites)}
	if cfg.InterestSkew > 0 {
		if w.interest, err = NewZipf(cfg.Sites, cfg.InterestSkew); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Config returns the configuration.
func (w *Workload) Config() Config { return w.cfg }

// Catalog returns the content catalog.
func (w *Workload) Catalog() *content.Catalog { return w.catalog }

// AssignInterest draws the website a new peer is interested in:
// uniformly over W by default (paper: "each peer is randomly assigned a
// website from |W| to which it has interest throughout the
// experiment"), Zipf-weighted toward low-index sites when InterestSkew
// is set.
func (w *Workload) AssignInterest(rng *rnd.RNG) content.SiteID {
	if w.interest != nil {
		return content.SiteID(w.interest.Rank(rng))
	}
	return content.SiteID(rng.Intn(w.cfg.Sites))
}

// Active reports whether queries are generated for the given site.
func (w *Workload) Active(site content.SiteID) bool {
	return int(site) < w.cfg.ActiveSites
}

// NextQueryDelay draws the exponential gap to a session's next query
// tick. The run's query process (proto.Queries) is its one caller.
func (w *Workload) NextQueryDelay(rng *rnd.RNG) int64 {
	return rng.ExpDuration(w.cfg.QueryMeanInterval)
}

// FirstQueryDelay draws the de-phasing delay before a freshly arrived
// individual's first action: its session's first query tick, which the
// run's query process (proto.Queries) draws, or — at a site nobody
// queries — flower's petal-membership request. It is uniform in
// [0, 30 s), capped at the mean query interval so
// compressed-timescale runs (the socket demo squeezes the paper's
// hours into seconds) still act promptly. At the paper's settings the
// cap never binds and the draw is identical to the historical 30 s
// de-phase.
func (w *Workload) FirstQueryDelay(rng *rnd.RNG) int64 {
	d := 30 * runtime.Second
	if w.cfg.QueryMeanInterval < d {
		d = w.cfg.QueryMeanInterval
	}
	return rng.UniformDuration(0, d)
}

// PickObject draws the object for a query tick of the run's query
// process (proto.Queries): Zipf-popular objects of the individual's
// site, skipping anything its store already holds (the
// paper's peers "only pose queries for objects unavailable in local
// storage"). It returns false when the peer caches the entire site
// catalog and therefore has nothing left to request.
func (w *Workload) PickObject(rng *rnd.RNG, site content.SiteID, store *content.Store) (content.Key, bool) {
	n := w.cfg.ObjectsPerSite
	if store.Len() >= n {
		return content.Key{}, false
	}
	// Rejection sampling over the Zipf draw: with up to ~30-peer petals
	// and 500-object catalogs, stores stay small relative to the
	// catalog, so a handful of draws almost always suffices. Fall back
	// to a popularity-ordered scan if the peer is close to complete.
	for attempt := 0; attempt < 24; attempt++ {
		k := content.Key{Site: site, Object: content.ObjectID(w.zipf.Rank(rng))}
		if !store.Has(k) {
			return k, true
		}
	}
	for rank := 0; rank < n; rank++ {
		k := content.Key{Site: site, Object: content.ObjectID(rank)}
		if !store.Has(k) {
			return k, true
		}
	}
	return content.Key{}, false
}

// originServer is the trivially-available web server for one site. It
// answers any request affirmatively; origins never fail and are not
// P2P participants — they are the infrastructure the P2P CDN relieves.
type originServer struct {
	site content.SiteID
	w    *Workload
}

func init() {
	// Fetches cross process boundaries on the socket backend.
	runtime.RegisterWireType(FetchReq{}, FetchResp{})
}

// FetchReq asks an origin (or a content peer — protocols reuse it) for
// an object.
type FetchReq struct {
	Key content.Key
}

// FetchResp acknowledges a fetch. Served reports whether the provider
// actually had the object; origins always do, content peers may not
// (stale summary, Bloom false positive).
type FetchResp struct {
	Key    content.Key
	Served bool
}

// WireBytes sizes a fetch response as a small web object (the simulator
// models latency only, but byte accounting still distinguishes object
// transfers from control traffic).
func (FetchResp) WireBytes() int { return 8 * 1024 }

// fetchMsgs holds one object's fetch messages already converted to the
// `any` the transport takes, so sending one does not box it again. A
// fetch is the most frequent message of a busy petal and there are only
// sites × objects × 3 distinct ones.
type fetchMsgs struct {
	req, served, refused any
}

// fetchRow returns the interned messages of k, or nil for a key outside
// the catalog (a decoded request may name anything).
func (w *Workload) fetchRow(k content.Key) *fetchMsgs {
	if !w.catalog.Valid(k) {
		return nil
	}
	row := w.fetch[k.Site]
	if row == nil {
		row = make([]fetchMsgs, w.cfg.ObjectsPerSite)
		w.fetch[k.Site] = row
	}
	return &row[k.Object]
}

// FetchReqMsg returns FetchReq{Key: k} as a message ready to send. The
// value is shared by every sender of that request and, like any boxed
// struct, immutable. Like the rest of a Workload it belongs to one run.
func (w *Workload) FetchReqMsg(k content.Key) any {
	m := w.fetchRow(k)
	if m == nil {
		return FetchReq{Key: k}
	}
	if m.req == nil {
		m.req = FetchReq{Key: k}
	}
	return m.req
}

// ProbeTimeout bounds a FetchReq probe to a content peer a one-way
// latency ms away: the round trip plus 300 ms. The prober knows its RTT
// estimate; a fixed multi-second timeout for a neighbour 40 ms away
// would dominate lookup latency under churn.
func ProbeTimeout(latency int64) int64 { return 2*latency + 300*runtime.Millisecond }

// FetchRespMsg is FetchReqMsg for FetchResp{Key: k, Served: served}.
func (w *Workload) FetchRespMsg(k content.Key, served bool) any {
	m := w.fetchRow(k)
	if m == nil {
		return FetchResp{Key: k, Served: served}
	}
	slot := &m.refused
	if served {
		slot = &m.served
	}
	if *slot == nil {
		*slot = FetchResp{Key: k, Served: served}
	}
	return *slot
}

func (o *originServer) HandleMessage(runtime.NodeID, any) {}

func (o *originServer) HandleRequest(_ runtime.NodeID, req any) (any, error) {
	switch r := req.(type) {
	case FetchReq:
		return o.w.FetchRespMsg(r.Key, true), nil
	default:
		return nil, fmt.Errorf("workload: origin got unexpected request %T", req)
	}
}

// Origins places one origin server per website at a uniformly random
// topology point (paper websites are "under-provisioned" external
// servers with no locality relationship to any petal).
type Origins struct {
	nodes []runtime.NodeID
}

// NewOrigins registers all origin servers on the network, placed in
// topo, the model net delivers over.
func NewOrigins(w *Workload, net runtime.Net, topo *topology.Topology, rng *rnd.RNG) *Origins {
	o := &Origins{nodes: make([]runtime.NodeID, w.cfg.Sites)}
	for s := 0; s < w.cfg.Sites; s++ {
		pos := topology.Point{X: rng.Float64(), Y: rng.Float64()}
		pl := topology.Placement{Pos: pos, Loc: topo.LocalityOf(pos)}
		o.nodes[s] = net.Join(&originServer{site: content.SiteID(s), w: w}, pl)
	}
	return o
}

// Node returns the origin server for a site.
func (o *Origins) Node(site content.SiteID) runtime.NodeID {
	return o.nodes[site]
}

package flower

import (
	"flowercdn/internal/rnd"
	"fmt"

	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/proto"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// This file adapts the Flower-CDN System to the pluggable protocol
// runtime (internal/proto): the package registers itself under
// "flower", and internal/petalup registers the splitting variant via
// NewPetalUpDriver. The harness only ever sees the proto.System face.

func init() {
	proto.Register(proto.Info{
		Name:         "flower",
		Summary:      "Flower-CDN: locality-aware petals behind a D-ring directory overlay (Sec. 3)",
		Compare:      true,
		Order:        0,
		CheckOptions: CheckDriverOptions,
	}, NewDriver)
	// Every concrete type a flower deployment ships inside an
	// interface-typed field (Send/Request payloads, gossip metadata,
	// bus announcements) — the socket backend's gob codec needs them
	// registered before any frame crosses a process boundary.
	runtime.RegisterWireType(
		clientQueryMsg{}, dirQueryResp{}, vacantResp{},
		dirQueryReq{}, dirQueryReply{},
		keepaliveReq{}, keepaliveResp{},
		pushReq{}, pushResp{}, deadProviderReport{},
		promoteMsg{}, promotedMsg{}, handoffMsg{},
		ContactMeta{}, exactSummary{}, &bloom.Filter{},
	)
}

// Option keys the flower-family drivers read (all optional; defaults
// are the paper's Table 1 values):
//
//	gossip-period       int64 ms   petal gossip period
//	keepalive-interval  int64 ms   content-peer keepalive (default: gossip-period)
//	query-timeout       int64 ms   one D-ring routed query attempt (Table 1: 10 s)
//	seed-retry-delay    int64 ms   bootstrap-claim retry pacing (default 30 s)
//	chord-demo          bool       compressed overlay maintenance timescales
//	                               (chord.DemoConfig) for seconds-scale demos
//	push-threshold      float64    changed-store fraction triggering a push
//	dir-collaboration   bool       same-website cross-locality collaboration
//	exact-summaries     bool       exact key sets instead of Bloom summaries
//	load-limit          int        PetalUp per-directory member limit
//	cache-policy        string     per-peer store eviction policy (internal/cache)
//	cache-capacity      int        per-peer store capacity, objects
//
// Unknown keys are ignored (they may target another protocol in the
// same sweep).

// NewDriver builds the classic Flower-CDN deployment driver.
func NewDriver(env proto.Env, opts proto.Options) (proto.System, error) {
	return newDriver(env, opts, false)
}

// NewPetalUpDriver builds the PetalUp-CDN variant: identical protocol
// code with the per-directory load limit enabled (Sec. 4).
func NewPetalUpDriver(env proto.Env, opts proto.Options) (proto.System, error) {
	return newDriver(env, opts, true)
}

// DefaultPetalUpLoadLimit is the per-directory member limit PetalUp
// runs use when the "load-limit" option is absent.
const DefaultPetalUpLoadLimit = 30

// lowerOptions resolves the option map into a full protocol Config and
// validates it — shared by the factories and the registry's static
// CheckOptions hook, so a bad knob fails a sweep before any
// simulation runs.
func lowerOptions(opts proto.Options, petalUp bool) (Config, proto.CacheConfig, error) {
	cfg := DefaultConfig()
	if opts.Bool("chord-demo", false) {
		cfg.Chord = chord.DemoConfig()
	}
	cfg.Gossip.Period = opts.Duration("gossip-period", cfg.Gossip.Period)
	cfg.KeepaliveInterval = opts.Duration("keepalive-interval", cfg.Gossip.Period)
	cfg.QueryTimeout = opts.Duration("query-timeout", cfg.QueryTimeout)
	cfg.SeedRetryDelay = opts.Duration("seed-retry-delay", cfg.SeedRetryDelay)
	cfg.PushThreshold = opts.Float("push-threshold", cfg.PushThreshold)
	cfg.DirCollaboration = opts.Bool("dir-collaboration", cfg.DirCollaboration)
	cfg.ExactSummaries = opts.Bool("exact-summaries", cfg.ExactSummaries)
	if petalUp {
		cfg.DirLoadLimit = opts.Int("load-limit", DefaultPetalUpLoadLimit)
		if cfg.DirLoadLimit <= 0 {
			return cfg, proto.CacheConfig{}, fmt.Errorf("flower: petalup load-limit must be positive, got %d", cfg.DirLoadLimit)
		}
	}
	cacheCfg, err := proto.CacheConfigFromOptions(opts)
	if err != nil {
		return cfg, cacheCfg, fmt.Errorf("flower: %w", err)
	}
	return cfg, cacheCfg, cfg.Validate()
}

// CheckDriverOptions statically validates classic-flower options.
func CheckDriverOptions(opts proto.Options) error {
	_, _, err := lowerOptions(opts, false)
	return err
}

// CheckPetalUpDriverOptions statically validates PetalUp options.
func CheckPetalUpDriverOptions(opts proto.Options) error {
	_, _, err := lowerOptions(opts, true)
	return err
}

func newDriver(env proto.Env, opts proto.Options, petalUp bool) (proto.System, error) {
	cfg, cacheCfg, err := lowerOptions(opts, petalUp)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystem(cfg, Deps{
		Net:      env.Net,
		RNG:      env.RNG,
		Workload: env.Workload,
		Origins:  env.Origins,
		Metrics:  env.Metrics,
		NewStore: cacheCfg.StoreFactory(env),
		Follower: env.Follower,
		Trace:    env.Trace,
	})
	if err != nil {
		return nil, err
	}
	d := &runtimeDriver{sys: sys, env: env, idRNG: env.RNG.Split("identities")}
	// Locality assignment for arriving clients: uniform over the k
	// localities by default, Zipf-concentrated when the harness asks
	// for a geographically skewed audience. Seed directories still
	// cover every locality, so the D-ring stays complete either way.
	d.pickLocality = func() topology.Locality {
		return topology.Locality(d.idRNG.Intn(env.Topo.Localities()))
	}
	if env.LocalitySkew > 0 {
		locZipf, err := workload.NewZipf(env.Topo.Localities(), env.LocalitySkew)
		if err != nil {
			return nil, err
		}
		d.pickLocality = func() topology.Locality {
			return topology.Locality(locZipf.Rank(d.idRNG))
		}
	}
	return d, nil
}

// runtimeDriver is the proto.System adapter over a *System.
type runtimeDriver struct {
	sys          *System
	env          proto.Env
	idRNG        *rnd.RNG
	pickLocality func() topology.Locality
}

func (d *runtimeDriver) Start() {}
func (d *runtimeDriver) Stop()  {}

// SeedCount is one directory peer per (website, locality) — the
// paper's initial D-ring.
func (d *runtimeDriver) SeedCount() int { return proto.DefaultSeedCount(d.env) }

// SpawnSeed brings up the initial directory peer for the i-th
// (website, locality) pair; like every participant it is a persistent
// individual with a limited uptime.
func (d *runtimeDriver) SpawnSeed(i int) (proto.Individual, func()) {
	k := d.env.Topo.Localities()
	site, loc := content.SiteID(i/k), topology.Locality(i%k)
	id := d.sys.NewIdentity(site, loc)
	_, kill := d.sys.SpawnSeedDirectoryIdentity(id)
	return id, kill
}

func (d *runtimeDriver) NewIndividual() proto.Individual {
	site := d.env.Workload.AssignInterest(d.idRNG)
	return d.sys.NewIdentity(site, d.pickLocality())
}

func (d *runtimeDriver) Spawn(ind proto.Individual) func() {
	_, kill := d.sys.SpawnIdentity(ind.(Identity))
	return kill
}

// RingMembers implements proto.RingInspector: one snapshot record per
// alive, integrated D-ring directory peer, in creation order. Clients
// and not-yet-integrated claimants are not ring members.
func (d *runtimeDriver) RingMembers() []proto.RingMember {
	var out []proto.RingMember
	for _, p := range d.sys.peers {
		if p.dead || p.chordNode == nil || p.dir == nil {
			continue
		}
		out = append(out, proto.RingMemberOf(p.chordNode))
	}
	return out
}

func (d *runtimeDriver) Stats() proto.Stats {
	st := d.sys.Stats()
	return proto.Stats{
		proto.StatPeersSpawned: float64(st.PeersSpawned),
		proto.StatAlivePeers:   float64(d.sys.AlivePeerCount()),
		"alive_directories":    float64(d.sys.DirectoryCount()),
		"duplicate_positions":  float64(d.sys.DuplicatePositions()),
		"dir_promotions":       float64(st.DirPromotions),
		"dir_replacements":     float64(st.DirReplacements),
		"vacancy_claims":       float64(st.VacancyClaims),
		"demotions":            float64(st.Demotions),
	}
}

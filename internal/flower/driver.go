package flower

import (
	"fmt"

	"flowercdn/internal/bloom"
	"flowercdn/internal/chord"
	"flowercdn/internal/content"
	"flowercdn/internal/proto"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
)

// This file is the Flower-CDN System's face to the pluggable protocol
// runtime (internal/proto): the package registers one lowering twice —
// "flower", and "petalup" with the per-directory load limit on — and
// *System implements proto.System itself.

func init() {
	proto.Register(proto.Info{
		Name:    "flower",
		Summary: "Flower-CDN: locality-aware petals behind a D-ring directory overlay (Sec. 3)",
		Compare: true,
		Order:   0,
	}, lowering(false))
	// PetalUp-CDN is the identical protocol code with directory
	// splitting enabled; "load-limit" is the Sec. 4 per-directory bound.
	proto.Register(proto.Info{
		Name:    "petalup",
		Summary: "PetalUp-CDN: Flower-CDN with per-directory load splitting (Sec. 4)",
		Compare: true,
		Order:   1,
	}, lowering(true))
	// Every concrete type a flower deployment ships inside an
	// interface-typed field (Send/Request payloads, gossip metadata,
	// bus announcements) — the socket backend's codecs resolve a payload
	// through the wire-type registry (binary's tag table, gob's type
	// names), so each must be registered before any frame crosses a
	// process boundary.
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
// same sweep). Every other protocol parameter is a constant;
// internal/protocols pins the keys every driver reads.

// DefaultPetalUpLoadLimit is the per-directory member limit PetalUp
// runs use when the "load-limit" option is absent.
const DefaultPetalUpLoadLimit = 30

// lowering is the registered driver: it resolves the option map into a
// full protocol Config and validates it; the constructor it returns
// adds what needs the run's Env (the store factory reads its clock and
// metrics).
func lowering(petalUp bool) proto.Lowering {
	return func(opts proto.Options) (func(proto.Env) (proto.System, error), error) {
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
				return nil, fmt.Errorf("flower: petalup load-limit must be positive, got %d", cfg.DirLoadLimit)
			}
		}
		cacheCfg, err := proto.CacheConfigFromOptions(opts)
		if err != nil {
			return nil, fmt.Errorf("flower: %w", err)
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func(env proto.Env) (proto.System, error) {
			s, err := NewSystem(cfg, env)
			if err != nil {
				return nil, err
			}
			s.newStore = cacheCfg.StoreFactory(env)
			s.identities()
			return s, nil
		}, nil
	}
}

// SpawnSeed brings up the initial directory peer for the i-th
// (website, locality) pair; like every participant it is a persistent
// individual with a limited uptime.
func (s *System) SpawnSeed(i int) (proto.Individual, func()) {
	k := s.topo.Localities()
	id := s.NewIdentity(content.SiteID(i/k), topology.Locality(i%k))
	_, kill := s.SpawnSeedDirectoryIdentity(id)
	return id, kill
}

// NewIndividual mints an arriving client: interest by the workload's
// assignment, locality uniform over the k localities by default and
// Zipf-concentrated when the run asks for a geographically skewed
// audience. Seed directories still cover every locality, so the D-ring
// stays complete either way.
func (s *System) NewIndividual() proto.Individual {
	rng := s.identities()
	site := s.work.AssignInterest(rng)
	if s.locZipf != nil {
		return s.NewIdentity(site, topology.Locality(s.locZipf.Rank(rng)))
	}
	return s.NewIdentity(site, topology.Locality(rng.Intn(s.topo.Localities())))
}

func (s *System) identities() *rnd.RNG {
	if s.idRNG == nil {
		s.idRNG = s.rng.Split("identities")
	}
	return s.idRNG
}

// Spawn implements proto.System over SpawnIdentity.
func (s *System) Spawn(ind proto.Individual) func() {
	_, kill := s.SpawnIdentity(ind.(proto.Identity))
	return kill
}

// RingMembers implements proto.RingInspector: one snapshot record per
// alive, integrated D-ring directory peer, in creation order. Clients
// and not-yet-integrated claimants are not ring members.
func (s *System) RingMembers() []proto.RingMember {
	var out []proto.RingMember
	for _, p := range s.peers.Online() {
		if p.chordNode != nil && p.dir != nil {
			out = append(out, proto.RingMemberOf(p.chordNode))
		}
	}
	return out
}

// Stats implements proto.System: the population counts plus the
// protocol's own counters and gauges.
func (s *System) Stats() proto.Stats {
	return proto.Stats{
		proto.StatPeersSpawned: float64(s.peers.Spawned()),
		proto.StatAlivePeers:   float64(s.peers.Alive()),
		"alive_directories":    float64(s.DirectoryCount()),
		"duplicate_positions":  float64(s.DuplicatePositions()),
		"dir_promotions":       float64(s.dirPromotions),  // PetalUp splits
		"dir_replacements":     float64(s.dirReplacement), // failure repairs (Sec. 5.2.1)
		"vacancy_claims":       float64(s.vacancyClaims),  // new-client joins at vacant positions
		"demotions":            float64(s.demotions),      // duplicate-position audits resolved
	}
}

// Package flowercdn is a from-scratch reproduction of "Leveraging P2P
// overlays for Large-scale and Highly Robust Content Distribution and
// Search" (Manal El Dick, VLDB 2009 Ph.D. Workshop): the Flower-CDN
// and PetalUp-CDN peer-to-peer content distribution networks, their
// churn-maintenance protocols, and the simulation study comparing them
// against the Squirrel decentralized web cache.
//
// The package is the front door to the machinery in internal/: a
// discrete-event engine, a landmark latency topology, a complete Chord
// DHT, Cyclon-style gossip, the protocols themselves, workload and
// churn generators, and the experiment harness. What it adds is the
// friendly side of an experiment — Config in hours and minutes and as
// cell flags, Grid, the scenario presets, SeedSet, the distributed-sweep
// options. What comes back is the internal value itself: Result,
// Protocol, SweepResult, SweepCellResult and ScalabilityRow are aliases
// of the harness and sweep types. Typical use:
//
//	cfg := flowercdn.DefaultConfig()
//	cfg.Population = 3000
//	res, err := flowercdn.Run(cfg)
//	fmt.Println(res.HitRatio, res.MeanLookupMs, res.LookupWithin150ms())
//	fmt.Print(flowercdn.FormatSummary(res))
//
// or, for the paper's head-to-head figures:
//
//	f, s, _ := flowercdn.RunComparison(cfg)
//	fmt.Print(flowercdn.FormatFig3(f, s))
package flowercdn

import (
	"fmt"

	"flowercdn/internal/cache"
	"flowercdn/internal/flower"
	"flowercdn/internal/harness"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/runtime"
)

// Protocol selects which system a run simulates. Protocols lists the
// valid names.
type Protocol = harness.Protocol

// The built-in deployable systems.
const (
	// Flower is classic Flower-CDN (Sec. 3 of the paper).
	Flower = harness.ProtocolFlower
	// PetalUp is Flower-CDN with directory splitting (Sec. 4).
	PetalUp = harness.ProtocolPetalUp
	// Squirrel is the baseline P2P web cache the paper compares against.
	Squirrel = harness.ProtocolSquirrel
	// ChordGlobal is a single global Chord directory with no locality
	// petals — it isolates how much of Flower-CDN's win comes from
	// locality awareness versus from directory caching at all.
	ChordGlobal = harness.ProtocolChordGlobal
	// KoordeGlobal is ChordGlobal's deployment routed over a Koorde de
	// Bruijn overlay (Kaashoek & Karger, IPTPS 2003) instead of Chord
	// fingers — same directory scheme, O(log n / log b) lookup hops.
	KoordeGlobal = harness.ProtocolKoordeGlobal
	// OriginOnly sends every query to the origin server — the floor any
	// CDN must beat (hit ratio zero by construction).
	OriginOnly = harness.ProtocolOriginOnly
)

// Protocols returns every protocol, in presentation order.
func Protocols() []Protocol {
	return toProtocols(protocols.Names())
}

// CachePolicies returns the cache-eviction policies, a fixed list
// ("none" first, then alphabetical).
func CachePolicies() []string { return cache.Names() }

// CompareProtocols returns the protocols that belong in head-to-head
// comparison grids (every protocol except degenerate floors like
// origin-only, which stays reachable by name).
func CompareProtocols() []Protocol {
	return toProtocols(protocols.CompareNames())
}

// ProtocolSummary returns the one-line description of a protocol (""
// for unknown names).
func ProtocolSummary(p Protocol) string {
	d, _ := protocols.Lookup(string(p))
	return d.Info.Summary
}

func toProtocols(names []string) []Protocol {
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// Config is the user-facing experiment configuration. The zero value is
// not runnable; start from DefaultConfig (the paper's Table 1) and
// adjust. It runs on the deterministic discrete-event simulation; live
// wall-clock runs are flowersim's -backend socket, not expressible here.
type Config struct {
	// Protocol selects the system under test.
	Protocol Protocol
	// Seed makes runs reproducible: equal seeds, equal results.
	Seed uint64
	// Population is P, the mean number of concurrently-online peers.
	Population int
	// Hours is the simulated experiment length.
	Hours int

	// Sites is |W|; ActiveSites of them receive queries.
	Sites       int
	ActiveSites int
	// ObjectsPerSite is each website's catalog size.
	ObjectsPerSite int
	// Localities is k, the number of landmark localities.
	Localities int
	// MeanUptimeMinutes is m, the mean session length (fail-only churn).
	MeanUptimeMinutes int
	// QueryEveryMinutes is the mean think time between queries.
	QueryEveryMinutes int
	// ZipfAlpha shapes object popularity.
	ZipfAlpha float64

	// GossipEveryMinutes is the petal gossip/keepalive period.
	GossipEveryMinutes int
	// PushThreshold is the changed-store fraction that triggers a push.
	PushThreshold float64
	// DirCollaboration enables same-website directory collaboration.
	DirCollaboration bool
	// ExactSummaries swaps Bloom gossip summaries for exact key sets
	// (ablation).
	ExactSummaries bool
	// PetalUpLoadLimit is the per-directory member limit when Protocol
	// is PetalUp.
	PetalUpLoadLimit int
	// MessageLossRate injects random one-way message loss on top of
	// churn (failure injection; 0 = the paper's reliable links).
	MessageLossRate float64
	// LocalitySkew biases client arrivals toward low-index localities
	// (Zipf exponent; 0 = the paper's uniform spread). See the
	// locality-skew scenario preset.
	LocalitySkew float64
	// InterestSkew biases peer interest toward low-index websites (Zipf
	// exponent; 0 = the paper's uniform assignment), turning site 0
	// into a hot site. See the flash-crowd scenario preset.
	InterestSkew float64
	// CachePolicy bounds every peer's content store with a pluggable
	// eviction policy: "none" (or "", the paper's unbounded model),
	// "lru", "lfu" or "size-aware" — any name CachePolicies lists. See
	// the cache-pressure scenario preset and the capacity sweep grid.
	CachePolicy string
	// CacheCapacity is the per-peer store capacity in objects (the
	// size-aware policy converts it to a byte budget at the workload's
	// 8 KiB mean object size). Required >= 1 for any policy but none.
	CacheCapacity int
	// MeasureMem samples end-of-run heap statistics (live heap after a
	// forced GC, bytes per node) into Result.MemStats — the measurement
	// the big-cell benchmarks track.
	MeasureMem bool
	// Trace opts the run into per-query lookup tracing: every completed
	// query records its hop-by-hop resolution path (overlay forwardings,
	// directory consults, provider probes with false-positive flags,
	// the serving node), retrievable via Result.Traces. False — the
	// default — is the zero-overhead disabled state; enabling tracing
	// does not change modeled traffic or the run fingerprint.
	Trace bool
}

// DefaultConfig returns the paper's Table 1 parameters (P = 3000,
// 24 h, 100 websites with 6 active, 500 objects each, k = 6,
// m = 60 min, one query per 6 min, gossip/keepalive hourly, push
// threshold 0.5).
func DefaultConfig() Config {
	return Config{
		Protocol:           Flower,
		Seed:               1,
		Population:         3000,
		Hours:              24,
		Sites:              100,
		ActiveSites:        6,
		ObjectsPerSite:     500,
		Localities:         6,
		MeanUptimeMinutes:  60,
		QueryEveryMinutes:  6,
		ZipfAlpha:          0.8,
		GossipEveryMinutes: 60,
		PushThreshold:      0.5,
		DirCollaboration:   true,
		PetalUpLoadLimit:   flower.DefaultPetalUpLoadLimit,
	}
}

// QuickConfig returns a scaled-down configuration (P = 400, 8 h, 20
// sites) that preserves the paper's proportions but finishes in a few
// seconds — what the examples and default benchmarks use.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Population = 400
	cfg.Hours = 8
	cfg.Sites = 20
	cfg.ActiveSites = 3
	cfg.ObjectsPerSite = 200
	return cfg
}

// Lower translates the façade config into the internal harness config:
// generic experiment knobs map onto harness fields, protocol knobs onto
// the generic options map each driver reads its own keys from (keys a
// protocol does not understand are ignored, so one option set serves a
// whole comparison grid). It is exported for the in-module
// tools that run the lowered config themselves (cmd/flowersim).
func (c Config) Lower() (harness.Config, error) {
	hc := harness.DefaultConfig()
	if c.Protocol != "" {
		if _, ok := protocols.Lookup(string(c.Protocol)); !ok {
			return hc, fmt.Errorf("flowercdn: unknown protocol %q (have %v)", c.Protocol, Protocols())
		}
		hc.Protocol = c.Protocol
	}
	hc.Seed = c.Seed
	hc.Population = c.Population
	hc.Duration = int64(c.Hours) * runtime.Hour
	hc.Workload.Sites = c.Sites
	hc.Workload.ActiveSites = c.ActiveSites
	hc.Workload.ObjectsPerSite = c.ObjectsPerSite
	hc.Workload.QueryMeanInterval = int64(c.QueryEveryMinutes) * runtime.Minute
	hc.Workload.ZipfAlpha = c.ZipfAlpha
	hc.Workload.InterestSkew = c.InterestSkew
	hc.Topology.Localities = c.Localities
	hc.MeanUptime = int64(c.MeanUptimeMinutes) * runtime.Minute
	hc.MessageLossRate = c.MessageLossRate
	hc.LocalitySkew = c.LocalitySkew
	cachePolicy := c.CachePolicy
	if cachePolicy == "" {
		cachePolicy = "none"
	}
	hc.Options = proto.Options{
		"gossip-period":      int64(c.GossipEveryMinutes) * runtime.Minute,
		"keepalive-interval": int64(c.GossipEveryMinutes) * runtime.Minute,
		"push-threshold":     c.PushThreshold,
		"dir-collaboration":  c.DirCollaboration,
		"exact-summaries":    c.ExactSummaries,
		"load-limit":         c.PetalUpLoadLimit,
		"cache-policy":       cachePolicy,
		"cache-capacity":     c.CacheCapacity,
	}
	hc.MeasureMem = c.MeasureMem
	if c.Trace {
		hc.Trace = &harness.TraceConfig{}
	}
	return hc, nil
}

// Result is the outcome of one run: the embedded Summary (the paper's
// three metrics, the query tallies, the Fig. 3 Series — window i is hour
// i+1 — and the run fingerprint) plus what only the process that ran it
// holds: the Fig. 4/5 histograms Lookup and Transfer with their headline
// points LookupWithin150ms, LookupBeyond1200ms and TransferWithin100ms,
// ProtoStat, MemStats, and on traced runs Traces and HopLatency (see
// internal/trace for the record model and the Analyze/WriteCSV helpers).
type Result = harness.Result

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	hc, err := cfg.Lower()
	if err != nil {
		return nil, err
	}
	return harness.Run(hc)
}

// RunComparison runs Flower-CDN and Squirrel on identical settings and
// seed — the paper's head-to-head setup behind Fig. 3–5.
func RunComparison(cfg Config) (flower, squirrel *Result, err error) {
	hc, err := cfg.Lower()
	if err != nil {
		return nil, nil, err
	}
	return harness.RunComparison(hc)
}

// ScalabilityRow is one Table 2 data point: a population with its
// Flower and Squirrel results.
type ScalabilityRow = harness.Table2Row

// RunScalability sweeps populations, reproducing Table 2.
func RunScalability(cfg Config, populations []int) ([]ScalabilityRow, error) {
	hc, err := cfg.Lower()
	if err != nil {
		return nil, err
	}
	return harness.RunTable2(hc, populations)
}

// FormatTable1 renders the parameter sheet of the run.
func FormatTable1(cfg Config) (string, error) {
	hc, err := cfg.Lower()
	if err != nil {
		return "", err
	}
	return harness.FormatTable1(hc), nil
}

// FormatSummary renders one run's headline numbers.
func FormatSummary(r *Result) string { return harness.FormatSummary(r) }

// FormatFig3 renders the hit-ratio-over-time comparison.
func FormatFig3(f, s *Result) string { return harness.FormatFig3(f, s) }

// FormatFig4 renders the lookup-latency distributions.
func FormatFig4(f, s *Result) string { return harness.FormatFig4(f, s) }

// FormatFig5 renders the transfer-distance distributions.
func FormatFig5(f, s *Result) string { return harness.FormatFig5(f, s) }

// FormatTable2 renders the scalability sweep.
func FormatTable2(rows []ScalabilityRow) string { return harness.FormatTable2(rows) }

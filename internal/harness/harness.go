// Package harness assembles full simulation runs reproducing the
// paper's evaluation (Sec. 6): it wires the engine, topology, network,
// workload, origins, churn and one protocol deployment together, runs
// the experiment, and renders the same tables and figures the paper
// reports — Fig. 3 (hit ratio over time), Fig. 4 (lookup latency
// distribution), Fig. 5 (transfer distance distribution) and Table 2
// (scalability sweep), plus the Table 1 parameter sheet.
//
// What a run reports is declared once: Summary is the portable part
// (what sweeps aggregate and distributed-sweep records store), Result
// embeds it next to what stays with the process that ran the experiment.
//
// The harness knows no concrete protocol: a deployment is resolved by
// name in the protocol list (internal/protocols) and driven through the
// proto.System interface, configuration flows down as an opaque
// proto.Options map, and measurements flow back as a typed event
// stream aggregated by internal/metrics. It does know the backends: it
// builds each built-in one from a clock and a leg (backend.go).
package harness

import (
	"errors"
	"fmt"
	goruntime "runtime" // aliased: flowercdn/internal/runtime owns the plain name
	"slices"

	"flowercdn/internal/churn"
	"flowercdn/internal/metrics"
	"flowercdn/internal/proto"
	"flowercdn/internal/protocols"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/socknet"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Protocol names the deployment under test; any name in
// internal/protocols.All is valid. The constants cover them all.
type Protocol string

const (
	// ProtocolFlower is classic Flower-CDN.
	ProtocolFlower Protocol = "flower"
	// ProtocolPetalUp is Flower-CDN with directory splitting enabled.
	ProtocolPetalUp Protocol = "petalup"
	// ProtocolSquirrel is the paper's baseline.
	ProtocolSquirrel Protocol = "squirrel"
	// ProtocolChordGlobal is a global Chord directory without locality.
	ProtocolChordGlobal Protocol = "chord-global"
	// ProtocolKoordeGlobal is chord-global's deployment scheme routed
	// over Koorde de Bruijn edges.
	ProtocolKoordeGlobal Protocol = "koorde-global"
	// ProtocolOriginOnly sends every query to the origin (the floor).
	ProtocolOriginOnly Protocol = "origin-only"
)

// Config describes one experiment run. DefaultConfig reproduces
// Table 1.
type Config struct {
	Protocol Protocol
	// Backend names the runtime backend the run executes on: "sim"
	// (default — the deterministic discrete-event engine) or "socket"
	// (wall-clock timers, the run genuinely taking Duration to finish,
	// with the population partitioned across the processes of a TCP
	// group — see Socket; a group of one is a single-process live run),
	// or a name added with runtime.RegisterBackend.
	Backend string
	// Socket describes this process's slot in a socket-backend group:
	// listen address, the full index-ordered peer list and our index.
	// Required when Backend is "socket"; must be nil otherwise. The
	// harness derives the process's population share, seed subset and
	// per-group RNG streams from it, so N processes running the same
	// Config (differing only in Socket.Group) form one population.
	Socket *runtime.SocketConfig
	// Seed drives all randomness; equal seeds give identical runs on
	// the sim backend.
	Seed uint64
	// Population is P, the mean population size churn converges to.
	Population int
	// Duration is the experiment length (Table 1 runs: 24 h).
	Duration int64
	// SeedStagger is the gap between initial bootstrap-participant
	// joins.
	SeedStagger int64

	Topology topology.Config
	Workload workload.Config
	// MeanUptime is m (Table 1: 60 min).
	MeanUptime int64
	// LocalitySkew biases which locality a joining client lands in: 0
	// (the paper's setting) distributes arrivals uniformly over the k
	// localities; larger values Zipf-concentrate them into low-index
	// localities (exponent = LocalitySkew), modelling a geographically
	// skewed audience. The harness mints the population, so it shapes
	// every protocol's population alike.
	LocalitySkew float64
	// MessageLossRate injects random one-way message loss on top of
	// churn (0 = the paper's reliable links).
	MessageLossRate float64

	// Options carries protocol-specific knobs, interpreted by the
	// protocol's driver (see each driver's documented keys). Keys a
	// protocol does not understand are ignored, so one option set can
	// serve a whole comparison grid.
	Options proto.Options

	// SeriesWindow is the Fig. 3 bucketing (1 h).
	SeriesWindow int64
	// TailWindows is how many windows before the horizon Table 2's hit
	// ratio averages over.
	TailWindows int

	// OnWindow, when set, is called at the close of every SeriesWindow
	// with that window's aggregates — live per-window metrics for
	// wall-clock runs (on the sim backend it fires too, just at
	// simulation speed). It runs on the run's callback goroutine and
	// must not block.
	OnWindow func(metrics.SeriesPoint)

	// ChurnSchedule layers deterministic adversarial churn events on
	// top of the background Poisson churn: mass joins, correlated mass
	// failures, flapping bursts. Events fire at their absolute sim
	// times on the run's callback goroutine; on a multi-process backend
	// each process applies the schedule to its own population share.
	ChurnSchedule []ChurnEvent
	// Checkpoints are absolute run times at which OnCheckpoint fires —
	// the hook internal/ringcheck uses to snapshot overlay state
	// between churn events. Ignored when OnCheckpoint is nil.
	Checkpoints []int64
	// OnCheckpoint runs at each checkpoint with the deployment under
	// test (assert on it via proto.RingInspector). It runs on the
	// run's callback goroutine and must not block.
	OnCheckpoint func(now int64, sys proto.System)
	// MeasureMem samples Go heap statistics at the end of the run (after
	// a forced GC, with the deployment still live) into Result.MemStats.
	// The per-node quotient is the number the big-cell benchmarks track;
	// it is meaningful only when this process hosts the whole population,
	// so it is left nil for multi-process socket groups.
	MeasureMem bool

	// Trace opts the run into per-query lookup tracing (see
	// internal/trace). Nil — the default — is the zero-overhead
	// disabled state: drivers skip all hop construction and the run
	// fingerprint is unchanged. When set, every completed query's
	// hop-by-hop record lands in Result.Traces; on a socket group,
	// follower processes additionally ship their records home over the
	// announcement bus, so group 0 collects the whole population's.
	Trace *TraceConfig

	// Obs, when set, is attached to the run's metrics pipeline so a live
	// observability server (*obs.Server is the one implementation) sees
	// queries, counters and traces as they happen (socket runs; works on
	// sim too). The caller builds and starts the server; the
	// harness stops it when the run returns (Stop must be idempotent, so
	// a caller-side stop stays safe), keeping the endpoint's lifetime
	// tied to the run it reports on.
	Obs interface {
		metrics.Sink
		// AddTrace takes a record that reached this process over the
		// group bus rather than through the pipeline.
		AddTrace(*trace.Record)
		Stop() error
	}

	// onMint, when set, sees every individual the run mints, with its
	// index in the run's pool (the order of first arrival), and onTick
	// every query tick. Package tests digest a run through them.
	onMint func(idx int, ind proto.Identity)
	onTick func(ind proto.Identity, at int64)
	// buildSim, when set, builds the sim backend's clock and leg from
	// the engine's clock and the function that makes the run's simnet
	// (loss included) on a clock. Package tests decorate either through
	// it; unset, the leg is newNet(clock) on the engine's own clock.
	buildSim func(clock runtime.Clock, newNet func(runtime.Clock) runtime.Transport) (runtime.Clock, runtime.Transport)
}

// TraceConfig opts a run into per-query lookup tracing.
type TraceConfig struct {
	// OnRecord, when set, receives every completed query's record as
	// it is emitted, on the run's callback goroutine; it must not
	// block. Records are also collected into Result.Traces regardless.
	OnRecord func(*trace.Record)
}

// ChurnEvent is one scheduled adversarial churn action. FailFraction
// kills that share of the currently-online sessions (uniformly chosen,
// never announced — like every churn departure); Join brings that many
// individuals online immediately, each with a fresh exponential
// lifetime. A single event may do both (fail first, then join).
type ChurnEvent struct {
	// At is the absolute run time of the event, in ms.
	At int64
	// FailFraction of currently-online sessions to kill, in [0, 1].
	FailFraction float64
	// Join is the number of immediate arrivals.
	Join int
}

// ResolvedBackend returns the backend this config runs on ("sim" when
// unset).
func (c Config) ResolvedBackend() string {
	if c.Backend == "" {
		return "sim"
	}
	return c.Backend
}

// groupInfo returns this process's slot in the process group: (0, 1)
// for single-process backends.
func (c Config) groupInfo() (group, groups int) {
	if c.Socket != nil && len(c.Socket.Peers) > 0 {
		return c.Socket.Group, len(c.Socket.Peers)
	}
	return 0, 1
}

// groupShare splits an integer quantity (population, seed count)
// evenly over the group, remainder to the low indexes.
func groupShare(total, group, groups int) int {
	share := total / groups
	if group < total%groups {
		share++
	}
	return share
}

// DefaultConfig returns the paper's simulation parameters (Table 1)
// for P = 3000 and Flower-CDN.
func DefaultConfig() Config {
	return Config{
		Protocol:     ProtocolFlower,
		Seed:         1,
		Population:   3000,
		Duration:     24 * runtime.Hour,
		SeedStagger:  time2sPerSeed,
		Topology:     topology.DefaultConfig(),
		Workload:     workload.DefaultConfig(),
		MeanUptime:   60 * runtime.Minute,
		SeriesWindow: 1 * runtime.Hour,
		TailWindows:  3,
	}
}

const time2sPerSeed = 2 * runtime.Second

// QuickConfig returns a scaled-down experiment that preserves the
// paper's proportions (active-site share, per-petal densities, churn
// ratio) while running in seconds instead of minutes. Tests, examples
// and the default benchmarks use it; cmd/flowerbench runs the full
// Table 1 scale.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Population = 400
	cfg.Duration = 8 * runtime.Hour
	cfg.Workload.Sites = 20
	cfg.Workload.ActiveSites = 3
	cfg.Workload.ObjectsPerSite = 200
	cfg.SeedStagger = 1 * runtime.Second
	return cfg
}

// demoConfig is the compressed-timescale preset, on the sim backend: a
// small population with the paper's timescales compressed roughly
// 3600× (sub-second gossip and keepalive periods, queries every
// ~50 ms, 1 s metric windows), so a seconds-scale horizon exhibits the
// full protocol lifecycle — seed bootstrap, directory registration,
// petal gossip, churn. SocketDemoConfig runs it on the wall clock; the
// sim smoke tests run it as is. horizon is in milliseconds.
func demoConfig(population int, horizon int64) Config {
	cfg := DefaultConfig()
	cfg.Population = population
	cfg.Duration = horizon
	cfg.SeedStagger = 10 * runtime.Millisecond
	cfg.Topology.Localities = 3
	cfg.Workload.Sites = 3
	cfg.Workload.ActiveSites = 3
	cfg.Workload.ObjectsPerSite = 120
	cfg.Workload.QueryMeanInterval = 50 * runtime.Millisecond
	cfg.Workload.ZipfAlpha = 1.0
	// Churn fast enough to ramp the population within the demo (the
	// arrival gap is MeanUptime/P) while still failing sessions on
	// camera; floor it so sub-second horizons stay sane.
	cfg.MeanUptime = horizon / 2
	if cfg.MeanUptime < 2*runtime.Second {
		cfg.MeanUptime = 2 * runtime.Second
	}
	cfg.SeriesWindow = 1 * runtime.Second
	cfg.TailWindows = 2
	cfg.Options = proto.Options{
		"gossip-period":      250 * runtime.Millisecond,
		"keepalive-interval": 250 * runtime.Millisecond,
		// Table 1's 10 s query timeout and 30 s bootstrap-claim retry
		// dwarf a seconds-scale horizon: a peer whose first routed query
		// or seed claim fails would stall for the whole demo. Compress
		// both like every other timescale.
		"query-timeout":    1500 * runtime.Millisecond,
		"seed-retry-delay": 400 * runtime.Millisecond,
		// The ring's own maintenance must compress with everything else
		// or it never stabilizes inside the horizon.
		"chord-demo": true,
	}
	return cfg
}

// SocketDemoConfig returns the compressed-timescale preset on the
// socket backend, the population spread over the process group sock
// describes (a group of one is a single-process live run). A larger
// group staggers its seeds wider: a seed's D-ring claim across process
// boundaries needs the founding announcement to have crossed the bus
// first. population and horizon (wall-clock ms) are GROUP-wide: pass
// the same values to every process.
func SocketDemoConfig(population int, horizon int64, sock runtime.SocketConfig) Config {
	cfg := demoConfig(population, horizon)
	cfg.Backend = "socket"
	cfg.Socket = &sock
	if sock.Groups() > 1 {
		cfg.SeedStagger = 50 * runtime.Millisecond
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	driver, ok := protocols.Lookup(string(c.Protocol))
	if !ok {
		return fmt.Errorf("harness: unknown protocol %q (one of %v)", c.Protocol, protocols.Names())
	}
	if b := c.ResolvedBackend(); !slices.Contains(runtime.Backends(), b) && runtime.RegisteredBackend(b) == nil {
		return fmt.Errorf("harness: unknown backend %q (one of %v)", b, runtime.Backends())
	}
	if c.ResolvedBackend() == "socket" {
		if c.Socket == nil {
			return errors.New(`harness: backend "socket" needs Config.Socket (listen address, peer list, group index)`)
		}
		if err := c.Socket.Validate(); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	} else if c.Socket != nil {
		return fmt.Errorf("harness: Config.Socket set but backend is %q", c.ResolvedBackend())
	}
	if err := driver.Check(c.Options); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if c.Population < 1 {
		return errors.New("harness: population must be positive")
	}
	if c.Duration <= 0 {
		return errors.New("harness: duration must be positive")
	}
	if c.SeriesWindow <= 0 {
		return errors.New("harness: series window must be positive")
	}
	if c.MeanUptime <= 0 {
		return errors.New("harness: mean uptime must be positive")
	}
	if c.LocalitySkew < 0 {
		return errors.New("harness: locality skew must be non-negative")
	}
	if c.MessageLossRate < 0 || c.MessageLossRate >= 1 {
		return errors.New("harness: message loss rate out of [0, 1)")
	}
	for i, ev := range c.ChurnSchedule {
		if ev.At < 0 {
			return fmt.Errorf("harness: churn event %d at negative time %d", i, ev.At)
		}
		if ev.FailFraction < 0 || ev.FailFraction > 1 {
			return fmt.Errorf("harness: churn event %d fail fraction %g out of [0, 1]", i, ev.FailFraction)
		}
		if ev.Join < 0 {
			return fmt.Errorf("harness: churn event %d joins %d", i, ev.Join)
		}
	}
	return c.Workload.Validate()
}

// Summary is the portable part of a run's outcome: what a sweep
// aggregates and renders, what a distributed-sweep worker sends home and
// what the coordinator's record files store (internal/distsweep encodes
// exactly this field set, float64s bit-exact). The rest of a run's
// outcome is Result's and stays in the process that ran it.
type Summary struct {
	Protocol   Protocol
	Population int
	Duration   int64
	// Backend names the runtime backend the run executed on.
	Backend string

	// HitRatio is cumulative over the run; TailHitRatio covers the
	// TailQueries queries of the TailWindows windows before the horizon
	// (the "after 24 simulation hours" view), 0 when there are none.
	HitRatio     float64
	TailHitRatio float64
	TailQueries  uint64

	MeanLookupMs   float64
	MeanTransferMs float64
	// MeanHops is the mean overlay hop count per routed directory
	// query, for deployments that report per-query hop counts through
	// the "lookup_hops"/"routed_queries" counter pair (the structured
	// overlays do; origin-only has no overlay and reports 0).
	MeanHops float64

	Queries    uint64
	Hits       uint64
	Misses     uint64
	Unresolved uint64

	// Fingerprint is an FNV-1a hash over the run's per-window query,
	// transfer and message counts. On the sim backend it is a
	// deterministic function of the configuration: two processes
	// running the same cell must produce the same value, so diffing
	// fingerprints across processes catches map-order nondeterminism
	// mechanically (see make fingerprint-check).
	Fingerprint uint64
	// Series is the per-window time series (Fig. 3), one point per SeriesWindow.
	Series []metrics.SeriesPoint
}

// Result is the outcome of one run: the Summary plus what only the process
// that ran it holds (one rebuilt from a sweep record is its Summary alone).
type Result struct {
	Summary

	// DriesUp is the instant the workload ran dry (Windowed.DriesUp):
	// a horizon past it measures stragglers.
	DriesUp int64

	// Quantiles complement the paper's means.
	LookupQuantiles   metrics.LatencySummary
	TransferQuantiles metrics.LatencySummary

	// Lookup and Transfer are the Fig. 4 and Fig. 5 histograms.
	Lookup   metrics.Distribution
	Transfer metrics.Distribution

	// Outcome breakdown (outcomes a protocol never produces stay 0).
	GossipHits     uint64
	DirectoryHits  uint64
	DirSummaryHits uint64

	// AlivePeers is the population at the end of the run (the
	// well-known "alive_peers" gauge every deployment reports).
	AlivePeers int
	// Proto holds the deployment's generic counters and gauges: its
	// Stats() snapshot merged over the counter events it streamed
	// through the metrics pipeline during the run.
	Proto proto.Stats

	NetStats        runtime.TransportStats
	EventsProcessed uint64
	// Wire reports the actual serialized traffic — frame bytes, batch
	// counts, the codec in use — when the backend has a wire at all
	// (socket backend only; nil elsewhere). Compare its BytesSent with
	// NetStats.BytesSent to see modeled versus real message sizes.
	Wire *socknet.WireStats
	// MemStats is the end-of-run heap sample (nil unless
	// Config.MeasureMem was set).
	MemStats *MemStats

	// Traces holds every trace record this process collected (nil when
	// Config.Trace was nil). On a socket group, group 0 also receives
	// the records follower processes shipped home over the bus.
	Traces []*trace.Record
	// TraceStats is the tracer's delivery tally — by construction it
	// reconciles exactly with the "lookup_hops"/"routed_queries"
	// counter pair behind MeanHops.
	TraceStats trace.Stats
	// HopLatency is the run's modeled link-latency function, kept for
	// per-hop breakdown attribution (trace.Analyze). Like Traces it is
	// only set on traced runs: a func value would defeat the DeepEqual
	// comparisons the sweep determinism tests run on untraced results.
	HopLatency trace.LatencyFunc
}

// MemStats is the end-of-run memory sample taken when Config.MeasureMem
// is set: live heap after a forced GC while the deployment (every peer,
// view, store and overlay table) is still reachable, so BytesPerNode is
// the steady-state per-node footprint the big-cell path budgets against.
type MemStats struct {
	// HeapAllocBytes is the live heap after runtime.GC().
	HeapAllocBytes uint64
	// TotalAllocBytes is cumulative bytes allocated over the process
	// lifetime (monotone; includes freed memory).
	TotalAllocBytes uint64
	// Mallocs is the cumulative allocation count.
	Mallocs uint64
	// BytesPerNode is HeapAllocBytes / Config.Population.
	BytesPerNode float64
}

// ProtoStat reads one generic protocol stat ("alive_directories",
// "dir_promotions", "summary_pushes", ... — each driver documents its
// vocabulary; 0 when absent).
func (r *Result) ProtoStat(name string) float64 { return r.Proto[name] }

// LookupWithin150ms is Fig. 4's headline point for Flower-CDN: the share
// of served queries resolved within 150 ms (paper: 66%).
func (r *Result) LookupWithin150ms() float64 { return r.Lookup.CDFAt(150) }

// LookupBeyond1200ms is Fig. 4's headline point for Squirrel: the share
// of served queries that took longer than 1 200 ms (paper: 75%).
func (r *Result) LookupBeyond1200ms() float64 { return r.Lookup.TailFraction(1200) }

// TransferWithin100ms is Fig. 5's headline point: the share of transfers
// from a provider at most 100 ms away (paper: 62% vs 22%).
func (r *Result) TransferWithin100ms() float64 { return r.Transfer.CDFAt(100) }

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rnd.New(cfg.Seed)
	topo, err := topology.New(cfg.Topology, master.Split("topology"))
	if err != nil {
		return nil, err
	}
	rt, closeBackend, err := newBackend(cfg, topo, master.Split("loss"))
	if err != nil {
		return nil, err
	}
	// The socket backend holds OS resources (listener, mesh
	// connections); release them when the run ends.
	defer closeBackend()
	clock, net := rt.Clock(), rt.Net()
	work, err := workload.New(cfg.Workload)
	if err != nil {
		return nil, err
	}
	origins := workload.NewOrigins(work, net, topo, master.Split("origins"))

	// The metrics pipeline: the deployment streams typed events; the
	// collector aggregates the paper's three metrics and the generic
	// per-window series, the counter sink tallies whatever protocol
	// vocabulary flows by.
	coll := metrics.NewCollector(cfg.SeriesWindow)
	counters := metrics.NewCounters()
	pipe := metrics.NewPipeline(coll, counters)
	if cfg.Obs != nil {
		pipe.Attach(cfg.Obs)
		// The endpoint's lifetime is the run's: without this, a process
		// that returns early (a socket follower whose group finishes
		// first, an error path) leaves the HTTP server answering with
		// frozen aggregates until process exit. Stop is idempotent, so
		// an owner that also stops it races nothing.
		defer cfg.Obs.Stop() //nolint:errcheck // shutdown is best-effort
	}

	// The streams below are keyed by seed and socket group, never by
	// protocol: one seed gives every protocol the same population and
	// the same protocol stream. Keyed by group, the processes of a
	// socket run mint one population between them, not k clones;
	// topology and loss stay shared so the latency model is identical
	// everywhere.
	group, groups := cfg.groupInfo()
	stream := func(name string) *rnd.RNG { return master.Split(fmt.Sprintf("%s/%d", name, group)) }
	protoRNG, popRNG, churnRNG := stream("protocol"), stream("population"), stream("churn")

	// Optional per-query tracing: the tracer streams completed records
	// into the pipeline, a trace.Collector gathers them for the Result,
	// and on a socket group follower processes ship each record home
	// over the announcement bus so group 0 sees the whole population's.
	var tracer *trace.Tracer
	var traceColl *trace.Collector
	if cfg.Trace != nil {
		tracer = trace.New(pipe, net.Locality)
		traceColl = &trace.Collector{}
		pipe.Attach(traceColl)
		if fn := cfg.Trace.OnRecord; fn != nil {
			pipe.Attach(traceSink(fn))
		}
		if bus := runtime.BusOf(net); bus != nil {
			if group > 0 {
				pipe.Attach(traceSink(func(rec *trace.Record) { bus.Announce(rec) }))
			} else {
				bus.Subscribe(func(msg any) {
					rec, ok := msg.(*trace.Record)
					if !ok {
						return
					}
					traceColl.Add(rec)
					if cfg.Obs != nil {
						cfg.Obs.AddTrace(rec)
					}
				})
			}
		}
	}

	env := proto.Env{
		Clock:    clock,
		Net:      net,
		Oracle:   net,
		Topo:     topo,
		RNG:      protoRNG,
		Workload: work,
		Origins:  origins,
		Metrics:  pipe,
		Trace:    tracer,
		// Exactly one process bootstraps the overlay; the others wait
		// for announced gateways (see proto.Env.Follower).
		Follower: group > 0,
	}
	driver, _ := protocols.Lookup(string(cfg.Protocol))
	sys, err := driver.New(env, cfg.Options)
	if err != nil {
		return nil, err
	}
	cacheCfg, _ := proto.CacheConfigFromOptions(cfg.Options) // vetted by New
	pop, err := proto.NewPopulation(topo, work, popRNG, cfg.LocalitySkew, cacheCfg.StoreInit(env))
	if err != nil {
		return nil, err
	}

	// Per-window observer: samples the transport counters at every
	// window close (feeding the run fingerprint) and surfaces live
	// window aggregates through cfg.OnWindow.
	obs := newWindowObserver(cfg, clock, net, coll)

	queries := proto.NewQueries(clock, work, pipe, cfg.onTick)
	processed, err := drive(cfg, rt, churnRNG, sys, pop, queries)
	if err != nil {
		return nil, err
	}

	res := &Result{Summary: Summary{Protocol: cfg.Protocol, Population: cfg.Population, Duration: cfg.Duration, Backend: cfg.ResolvedBackend()}}
	res.HitRatio = coll.HitRatio()
	res.TailHitRatio, res.TailQueries = coll.TailHitRatio(cfg.TailWindows, cfg.Duration)
	res.DriesUp = coll.Windows().DriesUp()
	res.MeanLookupMs = coll.MeanLookupLatency()
	res.MeanTransferMs = coll.MeanTransferDistance()
	res.LookupQuantiles = coll.LookupSummary()
	res.TransferQuantiles = coll.TransferSummary()
	res.Series = coll.HitRatioSeries()
	res.Lookup = coll.LookupDistribution(metrics.Fig4Bounds)
	res.Transfer = coll.TransferDistribution(metrics.Fig5Bounds)
	res.Queries = coll.Total()
	res.Hits = coll.Hits()
	res.Misses = coll.Count(metrics.Miss)
	res.Unresolved = coll.Count(metrics.Unresolved)
	res.GossipHits = coll.Count(metrics.HitLocalGossip)
	res.DirectoryHits = coll.Count(metrics.HitDirectory)
	res.DirSummaryHits = coll.Count(metrics.HitDirectorySummary)

	// Generic protocol stats: streamed counters first, the deployment's
	// own snapshot second (gauges measured at the end of the run win).
	res.Proto = proto.Stats(counters.Snapshot())
	for k, v := range sys.Stats() {
		res.Proto[k] = v
	}
	res.AlivePeers = int(res.Proto[proto.StatAlivePeers])
	if rq := res.Proto["routed_queries"]; rq > 0 {
		res.MeanHops = res.Proto["lookup_hops"] / rq
	}

	if traceColl != nil {
		res.Traces = traceColl.Records()
		res.TraceStats = tracer.Stats()
		res.HopLatency = net.Latency
	}

	res.NetStats = net.Stats()
	if ws, ok := net.(interface{ WireStats() socknet.WireStats }); ok {
		w := ws.WireStats()
		res.Wire = &w
	}
	res.EventsProcessed = processed
	res.Fingerprint = fingerprint(coll.Windows(), obs.windowMessages(), res.NetStats)
	if cfg.MeasureMem && groups == 1 {
		// Sample while sys (and through it every peer) is still
		// reachable, so the forced GC cannot collect the deployment we
		// are trying to weigh.
		goruntime.GC()
		var m goruntime.MemStats
		goruntime.ReadMemStats(&m)
		res.MemStats = &MemStats{
			HeapAllocBytes:  m.HeapAlloc,
			TotalAllocBytes: m.TotalAlloc,
			Mallocs:         m.Mallocs,
			BytesPerNode:    float64(m.HeapAlloc) / float64(cfg.Population),
		}
		goruntime.KeepAlive(sys)
	}
	return res, nil
}

// traceSink hands each trace record the pipeline carries to a func: the
// run's OnRecord callback, or the group bus a follower ships home on.
type traceSink func(*trace.Record)

// Observe implements metrics.Sink.
func (fn traceSink) Observe(ev metrics.Event) {
	if ev.Kind != metrics.KindTrace {
		return
	}
	if rec, ok := ev.Trace.(*trace.Record); ok {
		fn(rec)
	}
}

// PopulationFactor is Table 1's "Total network size P * 1.3": the pool
// of persistent individuals churn cycles through online sessions. An
// individual's interest, location and cached content survive offline
// periods; each session is a fresh network identity.
const PopulationFactor = 1.3

// pool holds the persistent individuals of one run, in minting order.
type pool struct {
	rng     *rnd.RNG
	pop     *proto.Population
	inds    []proto.Identity
	offline []int // indexes into inds
	cap     int
	onMint  func(idx int, ind proto.Identity) // Config.onMint
	// slots is the current page of the individuals' own records (store
	// and workload stream): made slotPage at a time and never grown, so
	// a page never moves and every minted Identity keeps pointing into
	// it. A page holds at most slotPage-1 unminted slots: a pool does not
	// pay for its cap up front.
	slots []proto.Slot
}

// slotPage is how many individuals' records one page of a pool holds:
// 64 of about 140 B.
const slotPage = 64

// slot returns the records of the next individual to be minted.
func (p *pool) slot() *proto.Slot {
	if len(p.slots) == cap(p.slots) {
		p.slots = make([]proto.Slot, 0, slotPage)
	}
	p.slots = p.slots[:len(p.slots)+1]
	return &p.slots[len(p.slots)-1]
}

// take picks a random offline individual to revive, or mints an arrival
// while the pool has room. ok is false when everyone is online already.
func (p *pool) take() (idx int, ok bool) {
	if n := len(p.offline); n > 0 {
		i := p.rng.Intn(n)
		idx = p.offline[i]
		p.offline[i] = p.offline[n-1]
		p.offline = p.offline[:n-1]
		return idx, true
	}
	if len(p.inds) >= p.cap {
		return 0, false
	}
	return p.add(p.pop.ArrivalIn(p.slot())), true
}

// add registers a newly minted individual and returns its index.
func (p *pool) add(ind proto.Identity) int {
	p.inds = append(p.inds, ind)
	if p.onMint != nil {
		p.onMint(len(p.inds)-1, ind)
	}
	return len(p.inds) - 1
}

// release returns an individual to the offline set.
func (p *pool) release(idx int) {
	p.offline = append(p.offline, idx)
}

// session is one tracked online session of individual idx, with its
// query timer, and the churn.Life its lifetime timer stops. Its Stop
// may be claimed by several schedulers at once — its churn lifetime
// timer and a ChurnSchedule mass failure race freely — so Stop is
// idempotent: whichever fires first wins, every later call is a no-op.
// A stopped session drops the handle: a timer still holding the session
// must not keep the deployment's dead peer reachable.
type session struct {
	h       proto.Session // nil once stopped
	queries *proto.QueryTimer
	idx     int
	pool    *pool
	live    *proto.Roster[*session]
}

// Alive implements the proto.Roster entry.
func (s *session) Alive() bool { return s.h != nil }

// Stop implements churn.Life.
func (s *session) Stop() {
	if h := s.h; h != nil {
		s.h = nil
		s.live.Drop()
		s.queries.Stop()
		h.Kill()
		s.pool.release(s.idx)
	}
}

// sessions brings the pool's individuals online in sys, one session at
// a time, and tracks every online session, so that scheduled mass
// failures can pick victims from the genuinely-alive set without
// double-killing sessions whose own departure timer fires later.
type sessions struct {
	pool    *pool
	sys     proto.System
	queries *proto.Queries
	live    proto.Roster[*session]
}

// track returns the record of a new session h of individual idx: the
// churn.Life its lifetime timer stops.
func (ss *sessions) track(idx int, h proto.Session) *session {
	s := &session{h: h, queries: ss.queries.Start(ss.pool.inds[idx], h), idx: idx, pool: ss.pool, live: &ss.live}
	ss.live.Add(s)
	return s
}

// spawn is the churn process's: it brings an offline or newly minted
// individual online, or returns nil when everyone is online already.
func (ss *sessions) spawn() churn.Life {
	idx, ok := ss.pool.take()
	if !ok {
		return nil
	}
	return ss.track(idx, ss.sys.Spawn(ss.pool.inds[idx]))
}

// seed mints bootstrap individual i and brings it online for its first
// session.
func (ss *sessions) seed(i int) *session {
	ind := ss.pool.pop.SeedIn(i, ss.pool.slot())
	return ss.track(ss.pool.add(ind), ss.sys.SpawnSeed(ind))
}

// drive runs the protocol-agnostic experiment choreography: spawn the
// population's bootstrap individuals (staggered, each with a limited
// uptime like any other peer), then let churn cycle the persistent
// population through online sessions until the horizon — with any
// ChurnSchedule events and checkpoint callbacks layered on top. Every
// individual is minted here, once, when it first arrives; every session
// queries on the run's query clock. It returns the events processed.
//
// On a multi-process backend the choreography partitions: process g of
// N hosts every bootstrap seed with index ≡ g (mod N) — at the seed's
// global stagger slot, so the join storm looks identical — and runs a
// churn process targeting its share of the population. The union over
// processes is the same experiment a single process would run.
func drive(cfg Config, rt runtime.Runtime, churnRNG *rnd.RNG, sys proto.System, pop *proto.Population, queries *proto.Queries) (uint64, error) {
	clock := rt.Clock()
	group, groups := cfg.groupInfo()
	// A group whose population share rounds to zero hosts only its seed
	// subset: the pool cap of 0 makes it decline every fresh churn
	// arrival (the churn process itself needs a positive target, so it
	// idles against the empty pool instead), keeping the union of
	// processes at the configured population.
	popShare := groupShare(cfg.Population, group, groups)
	pl := &pool{
		rng:    churnRNG,
		pop:    pop,
		cap:    int(float64(popShare) * PopulationFactor),
		onMint: cfg.onMint,
	}
	// Made at its cap, the pool never regrows: in a join storm append's
	// quarter steps would copy it dozens of times.
	pl.inds = make([]proto.Identity, 0, pl.cap)
	ss := &sessions{pool: pl, sys: sys, queries: queries}
	churnCfg := churn.Config{TargetPopulation: max(popShare, 1), MeanUptime: cfg.MeanUptime}
	proc, err := churn.NewProcess(churnCfg, clock, churnRNG, ss.spawn)
	if err != nil {
		return 0, err
	}

	seeds := pop.Seeds()
	for i := range seeds {
		if i%groups != group {
			continue // another process hosts this seed
		}
		clock.Schedule(int64(i)*cfg.SeedStagger, func() {
			s := ss.seed(i)
			clock.Schedule(proc.Lifetime(), s.Stop).Release()
		}).Release()
	}
	// Client arrivals start once the bootstrap population is up.
	clock.Schedule(int64(seeds)*cfg.SeedStagger, proc.Start).Release()

	// Scheduled adversarial churn: failures pick victims by a
	// deterministic permutation of the live sessions in spawn order, so
	// sim runs replay bit-identically; joins go through the same pool
	// and get ordinary exponential lifetimes.
	for _, ev := range cfg.ChurnSchedule {
		clock.Schedule(ev.At, func() {
			online := ss.live.Online()
			if n := int(ev.FailFraction*float64(len(online)) + 0.5); n > 0 {
				perm := churnRNG.Perm(len(online))
				for _, j := range perm[:n] {
					online[j].Stop()
				}
			}
			for i := 0; i < groupShare(ev.Join, group, groups); i++ {
				life := ss.spawn()
				if life == nil {
					break // pool exhausted
				}
				clock.Schedule(proc.Lifetime(), life.Stop).Release()
			}
		}).Release()
	}
	if cfg.OnCheckpoint != nil {
		for _, at := range cfg.Checkpoints {
			clock.Schedule(at, func() { cfg.OnCheckpoint(clock.Now(), sys) }).Release()
		}
	}
	return rt.Run(cfg.Duration), nil
}

// RunComparison executes the same configuration under Flower-CDN and
// Squirrel with the same seed — the paper's head-to-head setup.
func RunComparison(cfg Config) (flowerRes, squirrelRes *Result, err error) {
	fc := cfg
	fc.Protocol = ProtocolFlower
	flowerRes, err = Run(fc)
	if err != nil {
		return nil, nil, err
	}
	sc := cfg
	sc.Protocol = ProtocolSquirrel
	squirrelRes, err = Run(sc)
	if err != nil {
		return nil, nil, err
	}
	return flowerRes, squirrelRes, nil
}

// Table2Row is one scalability data point.
type Table2Row struct {
	Population int
	Flower     *Result
	Squirrel   *Result
}

// RunTable2 sweeps the population sizes of Table 2.
func RunTable2(base Config, populations []int) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(populations))
	for _, p := range populations {
		cfg := base
		cfg.Population = p
		f, s, err := RunComparison(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Population: p, Flower: f, Squirrel: s})
	}
	return rows, nil
}

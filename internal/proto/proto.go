// Package proto defines the pluggable protocol runtime: the seam
// between the experiment harness (population churn, seeding, metric
// aggregation — internal/harness) and a protocol deployment (Flower-CDN,
// PetalUp-CDN, Squirrel, the baselines — or any future overlay).
//
// A protocol package implements System, wraps its construction in a
// Factory, and Registers itself under a name in an init function; the
// harness resolves deployments solely through this registry and drives
// them through the System interface. Nothing above the protocol layer
// mentions a concrete protocol type: configuration flows down as an
// opaque Options map, measurements flow up as a typed event stream
// (internal/metrics.Emitter) plus a generic Stats map.
package proto

import (
	"flowercdn/internal/metrics"
	"flowercdn/internal/rnd"
	"flowercdn/internal/runtime"
	"flowercdn/internal/topology"
	"flowercdn/internal/trace"
	"flowercdn/internal/workload"
)

// Env is the substrate one deployment runs on. The harness builds one
// per run; every handle is exclusive to that run.
type Env struct {
	// Clock is the run's time source: the discrete-event engine on the
	// sim backend, the wall clock on the realtime backend.
	Clock runtime.Clock
	// Net is the simulated message layer.
	Net runtime.Transport
	// Topo is the latency/locality model behind Net.
	Topo *topology.Topology
	// RNG is the deployment's deterministic randomness root, split from
	// the run's master seed under the protocol's name.
	RNG *rnd.RNG
	// Workload owns the catalog, popularity and interest assignment.
	Workload *workload.Workload
	// Origins are the per-site origin servers (the miss fallback).
	Origins *workload.Origins
	// Metrics receives the deployment's typed observation stream.
	Metrics metrics.Emitter
	// Trace is the per-query lookup tracer; nil (the common case) means
	// tracing is disabled and every tracer method is a free no-op.
	// Drivers gate per-hop work on Trace.Enabled().
	Trace *trace.Tracer
	// LocalitySkew biases arriving clients over localities: 0 is the
	// paper's uniform spread, larger values Zipf-concentrate arrivals
	// into low-index localities. Locality-blind protocols ignore it.
	LocalitySkew float64
	// Follower marks a process that must not found the overlay. On
	// multi-process backends exactly one process bootstraps (creates
	// the first ring); the others wait for a gateway announced over the
	// transport's Bus (runtime.BusOf) instead of founding a disjoint
	// overlay of their own. Single-process runs leave it false.
	Follower bool
}

// Individual is the persistent half of a participant: interest,
// physical placement, and cached content survive offline periods while
// every online session gets a fresh network identity. The concrete
// type is the protocol's own; the harness only shuttles individuals
// between its churn pool and Spawn.
type Individual any

// Stats is the generic counter/gauge map a deployment reports at the
// end of a run. Well-known keys the harness and formatters understand:
//
//	alive_peers    gauge: sessions this process started and has not killed
//	               (a peer still joining its overlay counts)
//	peers_spawned  counter: sessions ever started
//
// Everything else is protocol vocabulary (alive_directories,
// dir_promotions, registrations, ...) surfaced verbatim in results.
type Stats map[string]float64

// StatAlivePeers and StatPeersSpawned are the well-known Stats keys.
const (
	StatAlivePeers   = "alive_peers"
	StatPeersSpawned = "peers_spawned"
)

// System is one protocol deployment driven by the harness. All calls
// happen on the engine goroutine.
//
// Run shape: Start fires once at time zero; the harness then spawns
// SeedCount bootstrap participants (staggered), starts the churn
// process which mints and revives Individuals through
// NewIndividual/Spawn, runs the engine to the horizon, and finally
// calls Stop and Stats.
type System interface {
	// Start runs once before any participant exists — the hook for
	// deployment-wide periodic work.
	Start()
	// Stop runs after the simulation horizon.
	Stop()
	// SeedCount is the number of bootstrap participants spawned before
	// churn begins (the paper seeds one directory peer per (website,
	// locality); member-ring protocols seed the same count of ordinary
	// members so population ramps stay comparable).
	SeedCount() int
	// SpawnSeed mints and brings online the i-th bootstrap participant
	// (0 <= i < SeedCount). The returned Individual joins the churn
	// pool when its session ends; the kill func ends the session.
	SpawnSeed(i int) (Individual, func())
	// NewIndividual mints a fresh persistent individual (drawing
	// interest and placement from the deployment's RNG).
	NewIndividual() Individual
	// Spawn brings an individual online for one session and returns
	// the kill func that fails it (fail-only churn).
	Spawn(Individual) func()
	// Stats reports the deployment's counters and gauges.
	Stats() Stats
}

// Info describes a registered protocol.
type Info struct {
	// Name is the registry key ("flower", "squirrel", ...).
	Name string
	// Summary is a one-line description for CLI listings.
	Summary string
	// Compare marks protocols included in default head-to-head grids
	// (degenerate floors like origin-only register with Compare false
	// and stay reachable by name).
	Compare bool
	// Order sorts listings and comparison grids (ties break by name);
	// the paper's protocols come first, baselines after.
	Order int
	// CheckOptions statically validates the driver's options without
	// building a deployment (nil = nothing to check). Harness config
	// validation calls it, so a bad knob fails a sweep before any
	// simulation runs rather than minutes into the worker pool.
	CheckOptions func(Options) error
}

// Factory builds a deployment from the run environment and its opaque
// options. Factories must not consult any global state besides the
// registry: everything a run needs arrives through env and opts.
type Factory func(env Env, opts Options) (System, error)

// DefaultSeedCount is the bootstrap population every built-in
// deployment uses — one participant per (website, locality), the size
// of the paper's initial D-ring — so population ramps stay comparable
// across protocols in one grid.
func DefaultSeedCount(env Env) int {
	return env.Workload.Config().Sites * env.Topo.Localities()
}

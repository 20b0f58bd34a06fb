// Package proto defines the pluggable protocol runtime: the seam
// between the experiment harness (population churn, seeding, metric
// aggregation — internal/harness) and a protocol deployment (Flower-CDN,
// PetalUp-CDN, Squirrel, the baselines — or any future overlay).
//
// It is also the skeleton every deployment is cut from, so that what
// the drivers share exists once:
//
//   - A driver is one Lowering, Registered under a name in an init
//     function: options in, a deployment constructor out. Check runs the
//     lowering and drops the result; New vets the Env — once, for every
//     protocol — lowers, and builds. There is no second validation path
//     to keep in step with the first.
//   - Identity is the persistent individual every built-in deployment
//     cycles through sessions: interest, placement, cache.
//   - Roster is who is online: a deployment's live peers (and the
//     harness's live sessions) in spawn order, with the spawned/alive
//     counts behind the well-known Stats keys. It forgets the dead.
//
// That last point is a contract, not an optimisation. The paper's churn
// model gives every re-join a fresh network identity, so a 24 h run
// spawns ~24 sessions per population slot; a session's kill func must
// leave nothing that can reach its peer — no roster entry, no armed
// ticker, no kept closure — so that after kill nobody holds the *Peer
// and it is garbage. Live heap per node is then flat in simulated time
// (make heap-growth-check).
//
// The harness resolves deployments solely through the registry and
// drives them through the System interface. Nothing above the protocol
// layer mentions a concrete protocol type: configuration flows down as
// an opaque Options map, measurements flow up as a typed event stream
// (internal/metrics.Emitter) plus a generic Stats map.
package proto

import (
	"flowercdn/internal/content"
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

// Individual is the persistent half of a participant as the harness
// sees it: an opaque value shuttled between its churn pool and Spawn.
// Every built-in deployment's individuals are Identity values.
type Individual any

// Identity is the persistent part of a participant. The paper's churn
// model (total network size 1.3·P) cycles a fixed population of
// individuals through online sessions: every session gets a fresh
// network address (and ring position, and whatever directory slice its
// node is home of), but the individual's interest, physical location
// and — crucially — its cached content survive offline periods ("a
// content peer has enough storage potential to avoid replacing its
// content through the experiment's duration").
type Identity struct {
	Site      content.SiteID
	Placement topology.Placement
	Store     *content.Store
}

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
// Run shape: the harness spawns SeedCount bootstrap participants
// (staggered), starts the churn process which mints and revives
// Individuals through NewIndividual/Spawn, runs the engine to the
// horizon, and finally reads Stats.
type System interface {
	// SpawnSeed mints and brings online the i-th bootstrap participant
	// (0 <= i < SeedCount(env)). The returned Individual joins the churn
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
}

// Lowering is a driver's whole registration: it resolves and validates
// the option map and returns the constructor of a deployment so
// configured. Check runs it and drops the result, New runs it and calls
// build with the (already vetted) Env. A lowering must not consult any
// global state besides the registries: everything a run needs arrives
// through opts and env.
type Lowering func(opts Options) (build func(Env) (System, error), err error)

// DefaultSeedCount is the bootstrap population of every run: one
// participant per (website, locality), the size of the paper's initial
// D-ring (one directory peer per couple). Member-ring protocols seed
// the same count of ordinary members, so population ramps stay
// comparable across protocols in one grid.
func DefaultSeedCount(env Env) int {
	return env.Workload.Config().Sites * env.Topo.Localities()
}

// Package proto defines the pluggable protocol runtime: the seam
// between the experiment harness (population churn, seeding, metric
// aggregation — internal/harness) and a protocol deployment (Flower-CDN,
// PetalUp-CDN, Squirrel, the baselines — or any future overlay).
//
// It is also the skeleton every deployment is cut from, so that what
// the drivers share exists once:
//
//   - A Driver is an Info and one Lowering: options in, a deployment
//     constructor out. Check vets the shared cache keys and runs the
//     lowering, dropping the result; New does the same, vets the Env —
//     once, for every protocol — and builds. There is no second
//     validation path to keep in step with the first.
//   - Identity is a persistent individual: interest, placement, cache,
//     and its own workload stream. Population mints them, once, outside
//     the protocols, so every protocol of one seed sees the same people
//     arrive in the same order — the common random numbers a
//     head-to-head comparison needs. A deployment only brings an
//     Identity online (System.SpawnSeed, System.Spawn).
//   - Roster is who is online: a deployment's live peers (and the
//     harness's live sessions) in spawn order, with the spawned/alive
//     counts behind the well-known Stats keys. It forgets the dead.
//
// Randomness follows one rule. A workload choice — when an individual
// queries and what — draws from its Identity.Work, through the run's
// Queries. A protocol choice —
// an overlay node's sub-stream, a gossip shuffle, a timer's jitter, a
// gateway or redirect pick — draws from Env.RNG, the protocol stream,
// which the harness keys by seed and socket group, never by protocol
// name.
//
// Roster's forgetting is a contract, not an optimisation. The paper's
// churn model gives every re-join a fresh network identity, so a 24 h
// run spawns ~24 sessions per population slot; a session's Kill
// must leave nothing that can reach its peer — no roster entry, no
// armed ticker, no kept closure — so that after kill nobody holds the
// *Peer and it is garbage. Live heap per node is then flat in simulated
// time (make heap-growth-check).
//
// The built-in drivers are one fixed list, internal/protocols.All; the
// harness resolves a name there and drives the deployment through the
// System interface. Nothing above the protocol
// layer mentions a concrete protocol type: configuration flows down as
// an opaque Options map, measurements flow up as a typed event stream
// (internal/metrics.Emitter) plus a generic Stats map.
package proto

import (
	"fmt"

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
	// sim backend, the wall clock on the socket backend.
	Clock runtime.Clock
	// Net is the message layer: what a deployed peer can do.
	Net runtime.Net
	// Oracle is the same handle as Net, typed as what only the
	// experimenter knows — liveness, locality and latency of other nodes.
	// Every protocol read of it is pinned by a test (internal/protocols);
	// a new one is a decision a deployed peer could not make, or a
	// measurement, and must be listed there.
	Oracle runtime.Observer
	// Topo is the latency/locality model behind Net.
	Topo *topology.Topology
	// RNG is the deployment's protocol stream: every per-peer protocol
	// choice draws from it. The harness splits it from the run's master
	// seed under the socket group alone, so every protocol of one seed
	// starts from the same stream.
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
	// Follower marks a process that must not found the overlay. On
	// multi-process backends exactly one process bootstraps (creates
	// the first ring); the others wait for a gateway announced over the
	// transport's Bus (runtime.BusOf) instead of founding a disjoint
	// overlay of their own. Single-process runs leave it false.
	Follower bool
}

// Identity is the persistent part of a participant. The paper's churn
// model (total network size 1.3·P) cycles a fixed population of
// individuals through online sessions: every session gets a fresh
// network address (and ring position, and whatever directory slice its
// node is home of), but the individual's interest, physical location
// and — crucially — its cached content survive offline periods ("a
// content peer has enough storage potential to avoid replacing its
// content through the experiment's duration"). Population mints them.
type Identity struct {
	Site      content.SiteID
	Placement topology.Placement
	Store     *content.Store
	// Work is the individual's own workload stream, run on across
	// sessions. The query process (Queries) owns it; a protocol draws
	// from it only for an individual that never queries.
	Work *rnd.RNG
}

// Stats is the generic counter/gauge map a deployment reports at the
// end of a run. Well-known keys the harness and formatters understand:
//
//	alive_peers    gauge: sessions this process started and has not killed
//	               (a peer still joining its overlay counts)
//	peers_spawned  counter: sessions ever started
//	unjoined_ticks counter: query ticks before a session joined (Queries)
//	ring_join_abandoned
//	               counter: ring-directory sessions whose last join
//	               attempt failed; each stays online, off the ring
//	               (internal/baseline)
//
// Everything else is protocol vocabulary (alive_directories,
// dir_promotions, registrations, ...) surfaced verbatim in results.
type Stats map[string]float64

// The well-known Stats keys.
const (
	StatAlivePeers        = "alive_peers"
	StatPeersSpawned      = "peers_spawned"
	StatUnjoinedTicks     = "unjoined_ticks"
	StatRingJoinAbandoned = "ring_join_abandoned"
)

// System is one protocol deployment driven by the harness. All calls
// happen on the engine goroutine.
//
// Run shape: the harness spawns the Population's bootstrap individuals
// (staggered) through SpawnSeed, starts the churn process, which mints
// and revives individuals through Spawn, runs the engine to the
// horizon, and finally reads Stats. The harness, not the deployment,
// decides when an individual queries and what (Queries).
type System interface {
	// SpawnSeed brings a bootstrap individual (Population.Seed) online
	// for its first session.
	SpawnSeed(Identity) Session
	// Spawn brings an individual online for one session.
	Spawn(Identity) Session
	// Stats reports the deployment's counters and gauges.
	Stats() Stats
}

// Session is one online session of an individual, as its deployment
// runs it.
type Session interface {
	// Query asks for key. It returns false only when the session has not
	// joined its overlay yet (StatUnjoinedTicks); a session whose
	// previous query is still in flight drops key.
	Query(key content.Key) bool
	// Kill fails the session (fail-only churn); it is idempotent.
	Kill()
}

// Info describes a protocol.
type Info struct {
	// Name is the protocol's name ("flower", "squirrel", ...), the value
	// of -protocol and of Config.Protocol.
	Name string
	// Summary is a one-line description for CLI listings.
	Summary string
	// Compare marks protocols included in default head-to-head grids
	// (degenerate floors like origin-only set it false and stay
	// reachable by name).
	Compare bool
}

// Lowering resolves and validates the protocol's own keys of the option
// map and returns the constructor of a deployment so configured.
// Driver.Check runs it and drops the result, Driver.New runs it and
// calls build with the (already vetted) Env. The shared cache keys are
// the Driver's, not the lowering's: the harness builds the stores. A lowering must not consult any global state
// besides the wire-type table: everything a run needs arrives through
// opts and env.
type Lowering func(opts Options) (build func(Env) (System, error), err error)

// Driver is one protocol: its descriptor and its lowering. The
// built-ins are values exported by their packages and listed, in
// presentation order, by internal/protocols.
type Driver struct {
	Info  Info
	Lower Lowering
}

// Check statically validates opts — the shared cache keys, then the
// lowering's verdict — so a bad knob fails a sweep before any
// simulation runs rather than minutes into the worker pool.
func (d Driver) Check(opts Options) error {
	_, err := d.lower(opts)
	return err
}

// New builds a deployment: it validates opts as Check does, vets env —
// here, once, for every protocol — and builds.
func (d Driver) New(env Env, opts Options) (System, error) {
	build, err := d.lower(opts)
	if err != nil {
		return nil, err
	}
	if env.Clock == nil || env.Net == nil || env.Oracle == nil || env.Topo == nil || env.RNG == nil ||
		env.Workload == nil || env.Origins == nil || env.Metrics == nil {
		return nil, fmt.Errorf("proto: incomplete Env for %s: Clock, Net, Oracle, Topo, RNG, Workload, Origins and Metrics are all required", d.Info.Name)
	}
	return build(env)
}

// lower vets the shared cache keys, for every protocol alike, and runs
// the protocol's lowering.
func (d Driver) lower(opts Options) (func(Env) (System, error), error) {
	if _, err := CacheConfigFromOptions(opts); err != nil {
		return nil, fmt.Errorf("%s: %w", d.Info.Name, err)
	}
	return d.Lower(opts)
}

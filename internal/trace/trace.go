// Package trace is the opt-in per-query lookup tracer built on the
// metrics pipeline: every completed query can carry a hop-by-hop
// record of its resolution path — which nodes it visited, in which
// localities, at what times, and which probes were summary false
// positives — uniformly across the sim and socket backends.
//
// The design contract is zero overhead while disabled: a nil *Tracer
// is fully usable (Enabled reports false, Delivered and Emit are
// no-ops), drivers gate every hop append on Enabled(), no message
// grows its modeled WireBytes, and trace events use their own event
// Kind that every aggregate metrics sink lets fall through — so run
// fingerprints are identical with tracing on or off.
package trace

import (
	"fmt"
	"sync"

	"flowercdn/internal/metrics"
	"flowercdn/internal/runtime"
)

// HopKind classifies one step of a query's resolution path.
type HopKind uint8

const (
	// HopIssue marks the querying client at submission time.
	HopIssue HopKind = iota
	// HopRoute is one overlay forwarding (a Chord finger / successor
	// step or a Koorde de Bruijn step) toward the directory position.
	HopRoute
	// HopScan is a PetalUp sequential-scan forward to the next
	// directory instance.
	HopScan
	// HopHome marks the directory/home node that answered the query
	// (or a collaboration sibling consulted on the way).
	HopHome
	// HopProbe is one provider fetch-probe by the client; its
	// FalsePositive flag marks a probe that answered but did not hold
	// the object (stale summary or Bloom false positive).
	HopProbe
	// HopServe is the terminal hop: the node that provided the object
	// (a content peer on hits, the origin server on misses).
	HopServe

	numHopKinds
)

// String names a hop kind (CSV and report vocabulary).
func (k HopKind) String() string {
	switch k {
	case HopIssue:
		return "issue"
	case HopRoute:
		return "route"
	case HopScan:
		return "scan"
	case HopHome:
		return "home"
	case HopProbe:
		return "probe"
	case HopServe:
		return "serve"
	default:
		return fmt.Sprintf("hop(%d)", int(k))
	}
}

// Hop is one step of a query's path.
type Hop struct {
	Kind HopKind
	// Node is the node this step arrived at (for HopRoute: the forward
	// destination).
	Node runtime.NodeID
	// Loc is Node's physical locality, stamped by the Tracer at Emit.
	Loc runtime.Locality
	// At is the time the step happened, in run milliseconds.
	At int64
	// FalsePositive marks a HopProbe that answered alive but did not
	// hold the object.
	FalsePositive bool
}

// Record is one completed query's trace.
type Record struct {
	// Query is the driver's process-unique query sequence number.
	Query uint64
	// Client is the querying node; Loc its locality, stamped by the
	// Tracer at Emit.
	Client runtime.NodeID
	Loc    runtime.Locality
	// Key is the queried object key (content.Key.Uint64 form).
	Key uint64
	// Outcome is the query's metrics outcome.
	Outcome metrics.Outcome
	// Attempts counts routed submission attempts (1 = no retry).
	Attempts int
	// Hops is the path, in nondecreasing At order; the last hop is
	// HopServe naming the providing node.
	Hops []Hop
}

// RouteHops counts the overlay forwardings in the record's path.
func (r *Record) RouteHops() int {
	n := 0
	for _, h := range r.Hops {
		if h.Kind == HopRoute {
			n++
		}
	}
	return n
}

// Append adds a hop to a path, clamping its timestamp so the path
// stays nondecreasing even when a late duplicate response merges hops
// recorded before an already-appended step.
func Append(path []Hop, h Hop) []Hop {
	if n := len(path); n > 0 && h.At < path[n-1].At {
		h.At = path[n-1].At
	}
	return append(path, h)
}

// Concat appends a remote path segment (e.g. the ring hops a response
// shipped back) hop by hop, with the same monotonicity clamp.
func Concat(path []Hop, seg []Hop) []Hop {
	for _, h := range seg {
		path = Append(path, h)
	}
	return path
}

// CopyHops returns an owned copy of a path (drivers that pool their
// query state hand records a copy so recycling cannot mutate them).
func CopyHops(path []Hop) []Hop {
	if len(path) == 0 {
		return nil
	}
	out := make([]Hop, len(path))
	copy(out, path)
	return out
}

// Stats is the tracer's delivery tally — the same accounting the
// `lookup_hops`/`routed_queries` counters feed, kept alongside so a
// conformance check can assert the two never drift.
type Stats struct {
	// RoutedQueries counts overlay-routed queries delivered at their
	// home/directory node; RouteHops sums their forwarding counts.
	RoutedQueries uint64
	RouteHops     uint64
}

// MeanHops returns RouteHops/RoutedQueries (0 when nothing routed) —
// by construction identical to the counter-derived Result.MeanHops.
func (s Stats) MeanHops() float64 {
	if s.RoutedQueries == 0 {
		return 0
	}
	return float64(s.RouteHops) / float64(s.RoutedQueries)
}

// Tracer is the per-run trace emitter drivers hold (via proto.Env). A
// nil Tracer is the disabled state: every method is a safe no-op and
// Enabled reports false, so call sites need no nil checks of their
// own and the disabled path allocates nothing.
type Tracer struct {
	sink   metrics.Emitter
	locate func(runtime.NodeID) runtime.Locality
	stats  Stats
}

// New builds a tracer that emits KindTrace events into sink and stamps
// every record's localities through locate (the run's
// runtime.Observer.Locality): locality is the experimenter's knowledge,
// so drivers record only which nodes a query visited.
func New(sink metrics.Emitter, locate func(runtime.NodeID) runtime.Locality) *Tracer {
	return &Tracer{sink: sink, locate: locate}
}

// Enabled reports whether tracing is on; drivers gate all hop
// construction on it.
func (t *Tracer) Enabled() bool { return t != nil }

// Delivered tallies one overlay-routed query delivered after hops
// forwardings. Drivers call it unconditionally right beside their
// `lookup_hops`/`routed_queries` counter emissions; on a nil tracer it
// does nothing and allocates nothing.
func (t *Tracer) Delivered(hops int) {
	if t == nil {
		return
	}
	t.stats.RoutedQueries++
	t.stats.RouteHops += uint64(hops)
}

// Stats returns the delivery tally.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return t.stats
}

// Emit stamps the record's localities and streams it into the metrics
// pipeline. The record must own its Hops slice (see CopyHops).
func (t *Tracer) Emit(now int64, rec *Record) {
	if t == nil || rec == nil {
		return
	}
	rec.Loc = t.locate(rec.Client)
	for i := range rec.Hops {
		rec.Hops[i].Loc = t.locate(rec.Hops[i].Node)
	}
	t.sink.Emit(metrics.TraceEvent(now, rec))
}

// Collector is the metrics.Sink that gathers emitted trace records.
// It is mutex-guarded because on wall-clock backends the HTTP
// observability endpoint may read while the run loop appends.
type Collector struct {
	mu   sync.Mutex
	recs []*Record
}

// Observe implements metrics.Sink.
func (c *Collector) Observe(ev metrics.Event) {
	if ev.Kind != metrics.KindTrace {
		return
	}
	if rec, ok := ev.Trace.(*Record); ok {
		c.Add(rec)
	}
}

// Add appends one record (also the entry point for records shipped
// home over a multi-process bus).
func (c *Collector) Add(rec *Record) {
	if rec == nil {
		return
	}
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

// Records returns a snapshot of everything collected so far.
func (c *Collector) Records() []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Record, len(c.recs))
	copy(out, c.recs)
	return out
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

package metrics

import "sort"

// This file is the streaming half of the package: protocols emit typed
// Events into an Emitter, and any number of Sinks (the Collector, the
// generic Windowed series, Counters, or caller-supplied ones) consume
// the stream. The harness wires one Pipeline per run and hands it to
// the protocol deployment; nothing downstream needs to know which
// protocol produced the stream.

// Kind tags an Event.
type Kind int

const (
	// KindQuery is one completed query observation — the stream behind
	// the paper's three metrics (hit ratio, lookup latency, transfer
	// distance).
	KindQuery Kind = iota
	// KindCounter is a named protocol counter increment: promotions,
	// registrations, recoveries — whatever the deployment wants tallied
	// without the harness knowing the vocabulary.
	KindCounter
	// KindTrace carries one completed query's hop-by-hop trace record
	// (a *trace.Record, typed as any to keep this package dependency-
	// free). Only trace-aware sinks consume it; every aggregate sink
	// lets it fall through, so an enabled tracer never perturbs the
	// paper metrics or the run fingerprint.
	KindTrace
)

// Event is one typed observation streamed by a protocol deployment.
type Event struct {
	// When is the simulated emission time.
	When int64
	Kind Kind

	// Query fields (KindQuery).
	Outcome          Outcome
	LookupLatency    int64
	TransferDistance int64

	// Counter fields (KindCounter).
	Counter string
	Delta   float64

	// Trace field (KindTrace): the completed query's *trace.Record.
	Trace any
}

// QueryEvent builds a KindQuery event.
func QueryEvent(when int64, o Outcome, lookup, transfer int64) Event {
	return Event{When: when, Kind: KindQuery, Outcome: o, LookupLatency: lookup, TransferDistance: transfer}
}

// LookupLatency is the paper's lookup latency (Fig. 4) of a query
// issued at start and resolved at now with the provider dist away:
// "the latency taken to resolve a query and reach the destination that
// will provide the requested object". A miss resolves at the client
// and still has to travel to the origin (+dist); a hit was verified by
// a probe the provider answered, so the destination was reached one
// response leg before now (−dist, when there was that much). Every
// deployment's QueryEvent takes its lookup figure from here.
func LookupLatency(start, now int64, o Outcome, dist int64) int64 {
	lookup := now - start
	switch {
	case o == Miss:
		lookup += dist
	case lookup > dist:
		lookup -= dist
	}
	return lookup
}

// CounterEvent builds a KindCounter event.
func CounterEvent(when int64, name string, delta float64) Event {
	return Event{When: when, Kind: KindCounter, Counter: name, Delta: delta}
}

// TraceEvent builds a KindTrace event carrying one query's trace
// record.
func TraceEvent(when int64, rec any) Event {
	return Event{When: when, Kind: KindTrace, Trace: rec}
}

// CounterEvictions is the well-known counter name bounded content
// stores emit once per evicted object. Windowed breaks it out per
// window (the Fig. 3-style series pairs the hit-ratio knee with the
// eviction churn causing it); everything else treats it as ordinary
// protocol vocabulary.
const CounterEvictions = "evictions"

// Emitter is the write side protocols see: they stream observations and
// never learn who is aggregating them.
type Emitter interface {
	Emit(Event)
}

// Sink is the read side: anything that consumes the event stream.
type Sink interface {
	Observe(Event)
}

// Pipeline fans every emitted event out to its sinks in attach order.
// Like the engine it is single-goroutine.
type Pipeline struct {
	sinks []Sink
}

// NewPipeline builds a pipeline over the given sinks.
func NewPipeline(sinks ...Sink) *Pipeline {
	return &Pipeline{sinks: sinks}
}

// Attach adds a sink. Events emitted before the attach are not
// replayed.
func (p *Pipeline) Attach(s Sink) {
	p.sinks = append(p.sinks, s)
}

// Emit implements Emitter.
func (p *Pipeline) Emit(ev Event) {
	for _, s := range p.sinks {
		s.Observe(ev)
	}
}

// Counters accumulates KindCounter events into a name → total map.
type Counters struct {
	totals map[string]float64
}

// NewCounters builds an empty counter sink.
func NewCounters() *Counters {
	return &Counters{totals: make(map[string]float64)}
}

// Observe implements Sink.
func (c *Counters) Observe(ev Event) {
	if ev.Kind == KindCounter {
		c.totals[ev.Counter] += ev.Delta
	}
}

// Get returns one counter's total (0 when never emitted).
func (c *Counters) Get(name string) float64 { return c.totals[name] }

// Snapshot returns a copy of all totals.
func (c *Counters) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(c.totals))
	for k, v := range c.totals {
		out[k] = v
	}
	return out
}

// Names returns the counter names seen so far, sorted.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.totals))
	for k := range c.totals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WindowAgg is one window's aggregates over the query stream.
type WindowAgg struct {
	// Hits and Total count queries by hit/any outcome.
	Hits, Total uint64
	// Served counts queries with a provider (everything but
	// Unresolved); LookupSum and TransferSum accumulate over them.
	Served      uint64
	LookupSum   int64
	TransferSum int64
	// Evictions totals the cache-eviction counter events that fell in
	// the window (0 on unbounded runs).
	Evictions float64
}

// HitRatio returns the window's hit ratio (0 on an empty window).
func (w WindowAgg) HitRatio() float64 {
	if w.Total == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Total)
}

// MeanLookupMs returns the window's mean lookup latency over served
// queries.
func (w WindowAgg) MeanLookupMs() float64 {
	if w.Served == 0 {
		return 0
	}
	return float64(w.LookupSum) / float64(w.Served)
}

// MeanTransferMs returns the window's mean transfer distance over
// served queries.
func (w WindowAgg) MeanTransferMs() float64 {
	if w.Served == 0 {
		return 0
	}
	return float64(w.TransferSum) / float64(w.Served)
}

// Windowed buckets the query-event stream into fixed time windows and
// aggregates each window generically — the machinery behind every
// per-window series (Fig. 3's hit ratio over time, per-hour latency
// trends) for any protocol, with no per-protocol plumbing.
type Windowed struct {
	window int64
	wins   []WindowAgg
}

// NewWindowed builds a windowed aggregator; window must be positive.
func NewWindowed(window int64) *Windowed {
	if window <= 0 {
		window = 1
	}
	return &Windowed{window: window}
}

// Len returns the number of windows touched so far.
func (w *Windowed) Len() int { return len(w.wins) }

// At returns window i's aggregates.
func (w *Windowed) At(i int) WindowAgg { return w.wins[i] }

// Observe implements Sink: KindQuery events are bucketed by When, as
// are eviction counter events; other counters pass through untouched.
func (w *Windowed) Observe(ev Event) {
	switch ev.Kind {
	case KindQuery:
		agg := w.at(ev.When)
		agg.Total++
		if ev.Outcome.IsHit() {
			agg.Hits++
		}
		if ev.Outcome != Unresolved {
			agg.Served++
			agg.LookupSum += ev.LookupLatency
			agg.TransferSum += ev.TransferDistance
		}
	case KindCounter:
		if ev.Counter == CounterEvictions {
			w.at(ev.When).Evictions += ev.Delta
		}
	}
}

// at returns the window covering time t, materializing windows up to
// it.
func (w *Windowed) at(t int64) *WindowAgg {
	i := int(t / w.window)
	for len(w.wins) <= i {
		w.wins = append(w.wins, WindowAgg{})
	}
	return &w.wins[i]
}

// Series renders the windows as the familiar time-series points.
func (w *Windowed) Series() []SeriesPoint {
	out := make([]SeriesPoint, len(w.wins))
	for i, agg := range w.wins {
		out[i] = SeriesPoint{
			Start:          int64(i) * w.window,
			HitRatio:       agg.HitRatio(),
			Queries:        agg.Total,
			MeanLookupMs:   agg.MeanLookupMs(),
			MeanTransferMs: agg.MeanTransferMs(),
			Evictions:      agg.Evictions,
		}
	}
	return out
}

// Tail sums hits and totals over the final n windows (n <= 0 or more
// windows than exist: all of them).
func (w *Windowed) Tail(n int) (hits, total uint64) {
	start := 0
	if n > 0 && n < len(w.wins) {
		start = len(w.wins) - n
	}
	for _, agg := range w.wins[start:] {
		hits += agg.Hits
		total += agg.Total
	}
	return hits, total
}

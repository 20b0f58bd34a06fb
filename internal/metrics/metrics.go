// Package metrics implements the paper's three evaluation metrics
// (Sec. 6): hit ratio ("the fraction of queries successfully served
// from the P2P system"), lookup latency ("the latency taken to resolve
// a query and reach the destination that will provide the requested
// object"), and transfer distance ("the network distance, in latency,
// from the querying peer to the peer that will provide the requested
// object") — plus the time-series and distribution views behind Fig. 3,
// Fig. 4 and Fig. 5.
package metrics

import (
	"flowercdn/internal/runtime"
	"fmt"
	"sort"
	"strings"
)

// Outcome classifies how a query was served.
type Outcome int

const (
	// HitLocalGossip: served by a petal contact found via gossip
	// summaries, without involving the directory.
	HitLocalGossip Outcome = iota
	// HitDirectory: served by a content peer the directory redirected
	// to.
	HitDirectory
	// HitDirectorySummary: served via a freshly promoted directory
	// peer's old content summaries (the Sec. 5.2.2 recovery path).
	HitDirectorySummary
	// Miss: served from the origin web server.
	Miss
	// Unresolved: the query could not be completed at all (routing
	// failure with the client gone, etc.). Counted as a non-hit.
	Unresolved
	numOutcomes
)

// String names an outcome.
func (o Outcome) String() string {
	switch o {
	case HitLocalGossip:
		return "hit-gossip"
	case HitDirectory:
		return "hit-directory"
	case HitDirectorySummary:
		return "hit-dir-summary"
	case Miss:
		return "miss"
	case Unresolved:
		return "unresolved"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// IsHit reports whether the outcome counts as a P2P hit.
func (o Outcome) IsHit() bool {
	return o == HitLocalGossip || o == HitDirectory || o == HitDirectorySummary
}

// Collector accumulates query observations for one run. It is a Sink
// (and an Emitter, for callers that use it standalone) over the typed
// event stream; its per-window series delegates to the generic
// Windowed aggregator.
type Collector struct {
	counts [numOutcomes]uint64

	lookupSum   int64
	transferSum int64
	served      uint64 // queries with a provider (hits + misses)

	lookups   []int64
	transfers []int64

	win *Windowed
}

// NewCollector builds a collector with the given time-series window
// (Fig. 3 uses 1 simulated hour).
func NewCollector(window int64) *Collector {
	if window <= 0 {
		window = runtime.Hour
	}
	return &Collector{win: NewWindowed(window)}
}

// Observe implements Sink: query events feed the run-level aggregates
// and the windowed series; counter events reach the windowed series
// (which breaks out per-window evictions); other kinds pass through
// untouched.
func (c *Collector) Observe(ev Event) {
	if ev.Kind == KindCounter {
		c.win.Observe(ev)
		return
	}
	if ev.Kind != KindQuery {
		return
	}
	if ev.Outcome < 0 || ev.Outcome >= numOutcomes {
		ev.Outcome = Unresolved
	}
	c.counts[ev.Outcome]++
	c.win.Observe(ev)
	if ev.Outcome != Unresolved {
		c.served++
		c.lookupSum += ev.LookupLatency
		c.transferSum += ev.TransferDistance
		c.lookups = append(c.lookups, ev.LookupLatency)
		c.transfers = append(c.transfers, ev.TransferDistance)
	}
}

// Emit implements Emitter, so a bare Collector can stand in for a full
// Pipeline when a test or a library caller needs no other sinks.
func (c *Collector) Emit(ev Event) { c.Observe(ev) }

// Windows exposes the generic per-window aggregates.
func (c *Collector) Windows() *Windowed { return c.win }

// Total returns the number of recorded queries.
func (c *Collector) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Count returns the number of queries with the given outcome.
func (c *Collector) Count(o Outcome) uint64 {
	if o < 0 || o >= numOutcomes {
		return 0
	}
	return c.counts[o]
}

// Hits returns the total number of P2P hits.
func (c *Collector) Hits() uint64 {
	return c.counts[HitLocalGossip] + c.counts[HitDirectory] + c.counts[HitDirectorySummary]
}

// HitRatio returns hits / total over the whole run.
func (c *Collector) HitRatio() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.Hits()) / float64(t)
}

// MeanLookupLatency returns the average lookup latency over served
// queries, in ms.
func (c *Collector) MeanLookupLatency() float64 {
	if c.served == 0 {
		return 0
	}
	return float64(c.lookupSum) / float64(c.served)
}

// MeanTransferDistance returns the average transfer distance over
// served queries, in ms.
func (c *Collector) MeanTransferDistance() float64 {
	if c.served == 0 {
		return 0
	}
	return float64(c.transferSum) / float64(c.served)
}

// SeriesPoint is one window of the per-window time series.
type SeriesPoint struct {
	// Start of the window, ms.
	Start int64
	// HitRatio within the window (0 when the window saw no queries).
	HitRatio float64
	// Queries in the window.
	Queries uint64
	// MeanLookupMs and MeanTransferMs average over the window's served
	// queries (0 when none were served).
	MeanLookupMs   float64
	MeanTransferMs float64
	// Evictions counts cache evictions within the window (0 on
	// unbounded runs).
	Evictions float64
}

// HitRatioSeries returns the Fig. 3 time series.
func (c *Collector) HitRatioSeries() []SeriesPoint {
	return c.win.Series()
}

// TailHitRatio returns the hit ratio over the last n windows before
// horizon — the "after 24 simulation hours" numbers Table 2 reports —
// and the queries it covers; n <= 0 covers the whole run. A tail with
// no queries has no hit ratio: it reports 0 over 0 queries.
func (c *Collector) TailHitRatio(n int, horizon int64) (ratio float64, queries uint64) {
	hits, total := c.win.Tail(n, horizon)
	if total == 0 {
		return 0, 0
	}
	return float64(hits) / float64(total), total
}

// Distribution is a histogram over latency values with inclusive upper
// bucket bounds; the last bucket is unbounded.
type Distribution struct {
	Bounds []int64  // e.g. 150, 300, ... ; implicit +inf final bucket
	Counts []uint64 // len(Bounds)+1
	Total  uint64
}

// NewDistribution bins values against bounds (which must be sorted
// ascending).
func NewDistribution(bounds []int64, values []int64) Distribution {
	d := Distribution{
		Bounds: append([]int64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
	for _, v := range values {
		idx := sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
		d.Counts[idx]++
		d.Total++
	}
	return d
}

// Fraction returns the share of values in bucket i.
func (d Distribution) Fraction(i int) float64 {
	if d.Total == 0 || i < 0 || i >= len(d.Counts) {
		return 0
	}
	return float64(d.Counts[i]) / float64(d.Total)
}

// CDFAt returns the fraction of values known to be <= bound: the
// cumulative share at the largest bucket edge <= bound. On an edge that
// is exact (the paper quotes e.g. "66% of queries resolved within
// 150 ms"); off an edge it is a true lower bound, because the bucket
// straddling bound is left out — the histogram cannot say how much of it
// lies below — and so 0 below the first edge.
func (d Distribution) CDFAt(bound int64) float64 {
	if d.Total == 0 {
		return 0
	}
	var cum uint64
	for i, b := range d.Bounds {
		if b > bound {
			break
		}
		cum += d.Counts[i]
	}
	return float64(cum) / float64(d.Total)
}

// TailFraction returns 1 - CDFAt(bound): the share of values strictly
// above bound when bound is a bucket edge, an upper bound on it
// otherwise.
func (d Distribution) TailFraction(bound int64) float64 {
	if d.Total == 0 {
		return 0
	}
	return 1 - d.CDFAt(bound)
}

// String renders the histogram for harness output.
func (d Distribution) String() string {
	var b strings.Builder
	lo := int64(0)
	for i := range d.Counts {
		var label string
		if i < len(d.Bounds) {
			label = fmt.Sprintf("(%4d,%4d]", lo, d.Bounds[i])
			lo = d.Bounds[i]
		} else {
			label = fmt.Sprintf("(%4d, inf)", lo)
		}
		fmt.Fprintf(&b, "%s %6.1f%%  ", label, 100*d.Fraction(i))
	}
	return strings.TrimSpace(b.String())
}

// LookupDistribution bins the recorded lookup latencies (Fig. 4).
func (c *Collector) LookupDistribution(bounds []int64) Distribution {
	return NewDistribution(bounds, c.lookups)
}

// TransferDistribution bins the recorded transfer distances (Fig. 5).
func (c *Collector) TransferDistribution(bounds []int64) Distribution {
	return NewDistribution(bounds, c.transfers)
}

// Fig4Bounds are the lookup-latency buckets used in our Fig. 4
// rendition (ms).
var Fig4Bounds = []int64{150, 300, 600, 900, 1200, 1800, 2400}

// Fig5Bounds are the transfer-distance buckets used in our Fig. 5
// rendition (ms).
var Fig5Bounds = []int64{50, 100, 150, 200, 300, 400}

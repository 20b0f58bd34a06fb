package metrics

import (
	"maps"
	"slices"
	"sort"
)

// valueCounts is an exact multiset of samples: a count per distinct
// value and the total. A run's latencies and distances are whole
// milliseconds bounded by the horizon and take a few thousand distinct
// values, so it stays that size however many queries are served, and
// every rank and bucket it answers is the one the samples would give.
type valueCounts struct {
	counts map[int64]uint64
	n      uint64
}

func newValueCounts() valueCounts {
	return valueCounts{counts: make(map[int64]uint64)}
}

func (v *valueCounts) add(x int64) {
	v.counts[x]++
	v.n++
}

// percentile reads one quantile; see nearestRank.
func (v *valueCounts) percentile(p float64) int64 {
	return v.nearestRank(slices.Sorted(maps.Keys(v.counts)), p)
}

// summary reads the three reported quantiles off one sort of the
// distinct values.
func (v *valueCounts) summary() LatencySummary {
	sorted := slices.Sorted(maps.Keys(v.counts))
	return LatencySummary{
		P50: v.nearestRank(sorted, 0.50),
		P90: v.nearestRank(sorted, 0.90),
		P99: v.nearestRank(sorted, 0.99),
	}
}

// nearestRank reads the p-quantile by nearest rank, walking the
// distinct values in ascending order (sorted) until the samples at or
// below one pass the rank: p <= 0 is the minimum, p > 1 the maximum,
// no samples 0.
func (v *valueCounts) nearestRank(sorted []int64, p float64) int64 {
	if v.n == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.0000001
	}
	if p > 1 {
		p = 1
	}
	rank := int(p*float64(v.n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if uint64(rank) >= v.n {
		rank = int(v.n) - 1
	}
	var through uint64
	for _, x := range sorted {
		through += v.counts[x]
		if through > uint64(rank) {
			return x
		}
	}
	panic("metrics: value counts do not sum to their total")
}

// distribution bins the samples against bounds, a distinct value's
// count at a time.
func (v *valueCounts) distribution(bounds []int64) Distribution {
	d := newBins(bounds)
	for x, n := range v.counts {
		d.add(x, n)
	}
	return d
}

// newBins is an empty histogram over bounds (sorted ascending).
func newBins(bounds []int64) Distribution {
	return Distribution{
		Bounds: append([]int64(nil), bounds...),
		Counts: make([]uint64, len(bounds)+1),
	}
}

// add puts n samples of value x in the first bucket whose inclusive
// upper bound holds it, or in the unbounded last one.
func (d *Distribution) add(x int64, n uint64) {
	idx := sort.Search(len(d.Bounds), func(i int) bool { return x <= d.Bounds[i] })
	d.Counts[idx] += n
	d.Total += n
}

// LookupPercentile returns the p-quantile (0 < p <= 1) of the recorded
// lookup latencies by nearest rank. Returns 0 with no observations.
func (c *Collector) LookupPercentile(p float64) int64 { return c.lookups.percentile(p) }

// TransferPercentile is LookupPercentile over transfer distances.
func (c *Collector) TransferPercentile(p float64) int64 { return c.transfers.percentile(p) }

// LatencySummary bundles the quantiles reported alongside the paper's
// means.
type LatencySummary struct {
	P50, P90, P99 int64
}

// LookupSummary returns lookup-latency quantiles.
func (c *Collector) LookupSummary() LatencySummary { return c.lookups.summary() }

// TransferSummary returns transfer-distance quantiles.
func (c *Collector) TransferSummary() LatencySummary { return c.transfers.summary() }

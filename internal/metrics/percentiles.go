package metrics

import "slices"

// Percentile returns the p-quantile (0 < p <= 1) of the recorded
// lookup latencies using nearest-rank on a sorted copy. Returns 0 with
// no observations.
func (c *Collector) LookupPercentile(p float64) int64 {
	return nearestRank(sortedCopy(c.lookups), p)
}

// TransferPercentile is Percentile over transfer distances.
func (c *Collector) TransferPercentile(p float64) int64 {
	return nearestRank(sortedCopy(c.transfers), p)
}

func sortedCopy(values []int64) []int64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return sorted
}

// nearestRank reads the p-quantile off an ascending sample: p <= 0 is
// the minimum, p > 1 the maximum, an empty sample 0.
func nearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.0000001
	}
	if p > 1 {
		p = 1
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LatencySummary bundles the quantiles reported alongside the paper's
// means.
type LatencySummary struct {
	P50, P90, P99 int64
}

// LookupSummary returns lookup-latency quantiles.
func (c *Collector) LookupSummary() LatencySummary { return summarize(c.lookups) }

// TransferSummary returns transfer-distance quantiles.
func (c *Collector) TransferSummary() LatencySummary { return summarize(c.transfers) }

// summarize sorts one copy of the series and reads the three ranks from
// it: a run keeps every query's sample, so the sort is the cost.
func summarize(values []int64) LatencySummary {
	sorted := sortedCopy(values)
	return LatencySummary{
		P50: nearestRank(sorted, 0.50),
		P90: nearestRank(sorted, 0.90),
		P99: nearestRank(sorted, 0.99),
	}
}

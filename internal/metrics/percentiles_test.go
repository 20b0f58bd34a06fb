package metrics

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"flowercdn/internal/sim"
)

func collectorWith(lookups []int64) *Collector {
	c := NewCollector(sim.Hour)
	for _, v := range lookups {
		c.Observe(QueryEvent(0, HitDirectory, v, v*2))
	}
	return c
}

func TestPercentileBasics(t *testing.T) {
	c := collectorWith([]int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if got := c.LookupPercentile(0.5); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := c.LookupPercentile(1.0); got != 100 {
		t.Fatalf("p100 = %d, want 100", got)
	}
	if got := c.LookupPercentile(0.1); got != 10 {
		t.Fatalf("p10 = %d, want 10", got)
	}
	// Transfer distances are doubled in the fixture.
	if got := c.TransferPercentile(0.5); got != 100 {
		t.Fatalf("transfer p50 = %d, want 100", got)
	}
}

func TestPercentileEmptyAndClamped(t *testing.T) {
	c := NewCollector(sim.Hour)
	if c.LookupPercentile(0.5) != 0 {
		t.Fatal("empty collector percentile should be 0")
	}
	c2 := collectorWith([]int64{42})
	if c2.LookupPercentile(-1) != 42 || c2.LookupPercentile(2) != 42 {
		t.Fatal("out-of-range p not clamped")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	c := collectorWith([]int64{90, 10, 50, 30, 70})
	if got := c.LookupPercentile(0.5); got != 50 {
		t.Fatalf("p50 over unsorted input = %d, want 50", got)
	}
}

func TestPercentileMonotoneInP(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		c := collectorWith(vals)
		prev := int64(-1)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			cur := c.LookupPercentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinObservedRange(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		lo, hi := int64(raw[0]), int64(raw[0])
		for i, v := range raw {
			vals[i] = int64(v)
			if vals[i] < lo {
				lo = vals[i]
			}
			if vals[i] > hi {
				hi = vals[i]
			}
		}
		c := collectorWith(vals)
		p := float64(pRaw%100+1) / 100
		got := c.LookupPercentile(p)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaries(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	c := collectorWith(vals)
	ls := c.LookupSummary()
	if ls.P50 != 50 || ls.P90 != 90 || ls.P99 != 99 {
		t.Fatalf("lookup summary %+v", ls)
	}
	ts := c.TransferSummary()
	if ts.P50 != 100 {
		t.Fatalf("transfer summary %+v", ts)
	}
}

// oldPercentile is the function nearestRank and summarize replaced: a
// full copy and sort.Slice per quantile.
func oldPercentile(values []int64, p float64) int64 {
	if len(values) == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.0000001
	}
	if p > 1 {
		p = 1
	}
	sorted := make([]int64, len(values))
	copy(sorted, values)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func TestPercentileMatchesOldFunction(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	samples := [][]int64{nil, {}, {42}, {5, 5, 5, 5}}
	for _, n := range []int{2, 3, 10, 99, 100, 101, 1000, 4999} {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int64N(500) // duplicates on purpose
		}
		samples = append(samples, s)
	}
	ps := []float64{-1, 0, 1e-9, 0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1, 1.5}
	for i := 0; i < 20; i++ {
		ps = append(ps, rng.Float64())
	}
	for _, s := range samples {
		c := collectorWith(s)
		for _, p := range ps {
			if got, want := c.LookupPercentile(p), oldPercentile(s, p); got != want {
				t.Fatalf("n=%d p=%g: LookupPercentile %d, old function %d", len(s), p, got, want)
			}
		}
		want := LatencySummary{oldPercentile(s, 0.50), oldPercentile(s, 0.90), oldPercentile(s, 0.99)}
		if got := c.LookupSummary(); got != want {
			t.Fatalf("n=%d: LookupSummary %+v, old function %+v", len(s), got, want)
		}
		want.P50, want.P90, want.P99 = want.P50*2, want.P90*2, want.P99*2
		if got := c.TransferSummary(); got != want {
			t.Fatalf("n=%d: TransferSummary %+v, old function %+v", len(s), got, want)
		}
	}
}

// TestDistributionsMatchRawBinning: the histograms a collector bins from
// its value counts are the ones NewDistribution bins from the served
// queries' raw samples, over the figure bounds and random ones (repeated
// edges and none at all among them), with samples on an edge, one either
// side of it, zero, repeats, unresolved queries mixed in and an empty
// collector.
func TestDistributionsMatchRawBinning(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	for trial := range 300 {
		var bounds []int64
		switch trial % 3 {
		case 0:
			bounds = Fig4Bounds
		case 1:
			bounds = Fig5Bounds
		default:
			bounds = make([]int64, rng.IntN(9))
			for i := range bounds {
				bounds[i] = rng.Int64N(3000)
			}
			slices.Sort(bounds)
		}
		sample := func() int64 {
			switch rng.IntN(4) {
			case 0:
				if len(bounds) > 0 {
					return bounds[rng.IntN(len(bounds))] + rng.Int64N(3) - 1
				}
				return 0
			case 1:
				return 0
			default:
				return rng.Int64N(3500)
			}
		}
		n := rng.IntN(400)
		if trial < 3 {
			n = 0
		}
		c := NewCollector(sim.Hour)
		var lookups, transfers []int64
		for range n {
			o := Outcome(rng.IntN(int(numOutcomes)))
			l, d := sample(), sample()
			c.Observe(QueryEvent(0, o, l, d))
			if o != Unresolved {
				lookups = append(lookups, l)
				transfers = append(transfers, d)
			}
		}
		if got, want := c.LookupDistribution(bounds), NewDistribution(bounds, lookups); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, bounds %v: LookupDistribution %+v, raw binning %+v", trial, bounds, got, want)
		}
		if got, want := c.TransferDistribution(bounds), NewDistribution(bounds, transfers); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, bounds %v: TransferDistribution %+v, raw binning %+v", trial, bounds, got, want)
		}
	}
}

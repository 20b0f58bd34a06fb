package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"flowercdn/internal/sim"
)

func TestOutcomeClassification(t *testing.T) {
	hits := []Outcome{HitLocalGossip, HitDirectory, HitDirectorySummary}
	for _, o := range hits {
		if !o.IsHit() {
			t.Fatalf("%v should be a hit", o)
		}
	}
	for _, o := range []Outcome{Miss, Unresolved} {
		if o.IsHit() {
			t.Fatalf("%v should not be a hit", o)
		}
	}
	if HitDirectory.String() != "hit-directory" || Miss.String() != "miss" {
		t.Fatal("outcome names wrong")
	}
	if Outcome(99).String() == "" {
		t.Fatal("unknown outcome should still render")
	}
}

func TestHitRatio(t *testing.T) {
	c := NewCollector(sim.Hour)
	for i := 0; i < 6; i++ {
		c.Observe(QueryEvent(0, HitDirectory, 100, 50))
	}
	for i := 0; i < 4; i++ {
		c.Observe(QueryEvent(0, Miss, 1000, 300))
	}
	if got := c.HitRatio(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("HitRatio = %g, want 0.6", got)
	}
	if c.Total() != 10 || c.Hits() != 6 {
		t.Fatalf("totals: %d/%d", c.Hits(), c.Total())
	}
	if c.Count(HitDirectory) != 6 || c.Count(Miss) != 4 {
		t.Fatal("per-outcome counts wrong")
	}
}

func TestEmptyCollectorSafe(t *testing.T) {
	c := NewCollector(0)
	if c.HitRatio() != 0 || c.MeanLookupLatency() != 0 || c.MeanTransferDistance() != 0 {
		t.Fatal("empty collector should report zeros")
	}
	if len(c.HitRatioSeries()) != 0 {
		t.Fatal("empty collector has no series")
	}
	if c.TailHitRatio(5) != 0 {
		t.Fatal("empty tail ratio should be 0")
	}
}

func TestMeans(t *testing.T) {
	c := NewCollector(sim.Hour)
	c.Observe(QueryEvent(0, HitDirectory, 100, 40))
	c.Observe(QueryEvent(0, Miss, 300, 200))
	// Unresolved queries contribute to hit ratio denominator but not to
	// latency means (there is no provider to measure).
	c.Observe(QueryEvent(0, Unresolved, 0, 0))
	if got := c.MeanLookupLatency(); math.Abs(got-200) > 1e-9 {
		t.Fatalf("MeanLookupLatency = %g, want 200", got)
	}
	if got := c.MeanTransferDistance(); math.Abs(got-120) > 1e-9 {
		t.Fatalf("MeanTransferDistance = %g, want 120", got)
	}
	if got := c.HitRatio(); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("HitRatio = %g, want 1/3", got)
	}
}

func TestHitRatioSeriesWindows(t *testing.T) {
	c := NewCollector(sim.Hour)
	// Window 0: 1 hit, 1 miss. Window 2: 2 hits.
	c.Observe(QueryEvent(10*sim.Minute, HitLocalGossip, 0, 0))
	c.Observe(QueryEvent(50*sim.Minute, Miss, 0, 0))
	c.Observe(QueryEvent(2*sim.Hour+1, HitDirectory, 0, 0))
	c.Observe(QueryEvent(2*sim.Hour+2, HitDirectory, 0, 0))
	s := c.HitRatioSeries()
	if len(s) != 3 {
		t.Fatalf("series length %d, want 3", len(s))
	}
	if s[0].HitRatio != 0.5 || s[0].Queries != 2 {
		t.Fatalf("window 0: %+v", s[0])
	}
	if s[1].Queries != 0 || s[1].HitRatio != 0 {
		t.Fatalf("empty window 1: %+v", s[1])
	}
	if s[2].HitRatio != 1 || s[2].Queries != 2 {
		t.Fatalf("window 2: %+v", s[2])
	}
	if s[2].Start != 2*sim.Hour {
		t.Fatalf("window 2 start %d", s[2].Start)
	}
}

func TestTailHitRatio(t *testing.T) {
	c := NewCollector(sim.Hour)
	// Hour 0: all misses; hours 1-2: all hits.
	for i := 0; i < 10; i++ {
		c.Observe(QueryEvent(int64(i), Miss, 0, 0))
	}
	for i := 0; i < 10; i++ {
		c.Observe(QueryEvent(sim.Hour+int64(i), HitDirectory, 0, 0))
		c.Observe(QueryEvent(2*sim.Hour+int64(i), HitDirectory, 0, 0))
	}
	if got := c.TailHitRatio(2); got != 1 {
		t.Fatalf("TailHitRatio(2) = %g, want 1", got)
	}
	if got := c.TailHitRatio(100); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("TailHitRatio(100) = %g, want overall 2/3", got)
	}
	if got := c.TailHitRatio(0); math.Abs(got-c.HitRatio()) > 1e-9 {
		t.Fatal("TailHitRatio(0) should fall back to overall")
	}
}

func TestDistributionBinning(t *testing.T) {
	d := NewDistribution([]int64{100, 200}, []int64{50, 100, 150, 201, 999})
	// Buckets: <=100: {50,100}; <=200: {150}; >200: {201,999}.
	if d.Counts[0] != 2 || d.Counts[1] != 1 || d.Counts[2] != 2 {
		t.Fatalf("counts = %v", d.Counts)
	}
	if math.Abs(d.Fraction(0)-0.4) > 1e-9 {
		t.Fatalf("Fraction(0) = %g", d.Fraction(0))
	}
	if math.Abs(d.CDFAt(100)-0.4) > 1e-9 || math.Abs(d.CDFAt(200)-0.6) > 1e-9 {
		t.Fatalf("CDF: %g %g", d.CDFAt(100), d.CDFAt(200))
	}
	if math.Abs(d.TailFraction(200)-0.4) > 1e-9 {
		t.Fatalf("TailFraction(200) = %g", d.TailFraction(200))
	}
	if d.Fraction(-1) != 0 || d.Fraction(5) != 0 {
		t.Fatal("out-of-range fractions should be 0")
	}
}

// CDFAt answers at the largest edge <= its argument: exact on an edge, a
// lower bound off one (the straddling bucket is never counted), 0 below
// the first edge; TailFraction is its complement everywhere.
func TestCDFAtIsTheLowerBoundAtTheEdgeBelow(t *testing.T) {
	check := func(d Distribution, bound int64, want float64) {
		t.Helper()
		if got := d.CDFAt(bound); math.Abs(got-want) > 1e-12 {
			t.Errorf("bounds %v: CDFAt(%d) = %g, want %g", d.Bounds, bound, got, want)
		}
		if got := d.TailFraction(bound); math.Abs(got-(1-want)) > 1e-12 {
			t.Errorf("bounds %v: TailFraction(%d) = %g, want %g", d.Bounds, bound, got, 1-want)
		}
	}
	d := NewDistribution([]int64{150, 300}, []int64{100, 250, 250, 400})
	for _, c := range []struct {
		bound int64
		want  float64
	}{
		{100, 0}, {149, 0}, {150, 0.25}, {200, 0.25}, {299, 0.25}, {300, 0.75}, {5000, 0.75},
	} {
		check(d, c.bound, c.want)
	}
	// Every edge of the figure histograms, with one value exactly on each
	// edge, one just past it and one past the last: edge i has seen i+1
	// on-edge values and i just-past ones.
	for _, bounds := range [][]int64{Fig4Bounds, Fig5Bounds} {
		var vals []int64
		for _, b := range bounds {
			vals = append(vals, b, b+1)
		}
		d := NewDistribution(bounds, vals)
		n := float64(len(vals))
		check(d, bounds[0]-1, 0)
		for i, b := range bounds {
			check(d, b, float64(2*i+1)/n)
			check(d, b+1, float64(2*i+1)/n)
		}
		check(d, bounds[len(bounds)-1]*10, (n-1)/n)
	}
	if e := (Distribution{}); e.CDFAt(150) != 0 || e.TailFraction(150) != 0 {
		t.Error("an empty distribution reports 0 for both")
	}
}

func TestDistributionCDFIsMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		bounds := []int64{100, 500, 1000, 5000, 20000}
		d := NewDistribution(bounds, vals)
		prev := 0.0
		for _, b := range bounds {
			cur := d.CDFAt(b)
			if cur+1e-12 < prev {
				return false
			}
			prev = cur
		}
		return len(vals) == 0 || prev <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorDistributions(t *testing.T) {
	c := NewCollector(sim.Hour)
	c.Observe(QueryEvent(0, HitDirectory, 120, 40))
	c.Observe(QueryEvent(0, Miss, 1500, 250))
	ld := c.LookupDistribution(Fig4Bounds)
	if ld.Total != 2 || math.Abs(ld.CDFAt(150)-0.5) > 1e-9 {
		t.Fatalf("lookup distribution wrong: %+v", ld)
	}
	td := c.TransferDistribution(Fig5Bounds)
	if td.Total != 2 || math.Abs(td.CDFAt(100)-0.5) > 1e-9 {
		t.Fatalf("transfer distribution wrong: %+v", td)
	}
}

func TestDistributionString(t *testing.T) {
	d := NewDistribution([]int64{100}, []int64{50, 150})
	s := d.String()
	if !strings.Contains(s, "50.0%") {
		t.Fatalf("render missing percentages: %q", s)
	}
	if !strings.Contains(s, "inf") {
		t.Fatalf("render missing unbounded bucket: %q", s)
	}
}

func TestInvalidOutcomeCoercedToUnresolved(t *testing.T) {
	c := NewCollector(sim.Hour)
	c.Observe(QueryEvent(0, Outcome(42), 0, 0))
	if c.Count(Unresolved) != 1 {
		t.Fatal("invalid outcome not coerced")
	}
}

package metrics

import (
	"reflect"
	"testing"

	"flowercdn/internal/sim"
)

func TestPipelineFansOut(t *testing.T) {
	coll := NewCollector(sim.Hour)
	counters := NewCounters()
	pipe := NewPipeline(coll)
	pipe.Attach(counters)

	pipe.Emit(QueryEvent(10, HitDirectory, 100, 40))
	pipe.Emit(QueryEvent(20, Miss, 300, 200))
	pipe.Emit(CounterEvent(30, "promotions", 1))
	pipe.Emit(CounterEvent(40, "promotions", 2))

	if coll.Total() != 2 || coll.Hits() != 1 {
		t.Fatalf("collector saw %d/%d", coll.Total(), coll.Hits())
	}
	if counters.Get("promotions") != 3 {
		t.Fatalf("promotions = %g", counters.Get("promotions"))
	}
	if counters.Get("absent") != 0 {
		t.Fatal("absent counter non-zero")
	}
	if got := counters.Names(); !reflect.DeepEqual(got, []string{"promotions"}) {
		t.Fatalf("Names() = %v", got)
	}
	snap := counters.Snapshot()
	snap["promotions"] = 99
	if counters.Get("promotions") != 3 {
		t.Fatal("Snapshot aliases internal state")
	}
	// Counter events do not perturb query aggregates and vice versa.
	if coll.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %g", coll.HitRatio())
	}
}

func TestWindowedAggregatesGenerically(t *testing.T) {
	w := NewWindowed(100)
	w.Observe(QueryEvent(10, HitLocalGossip, 50, 20))
	w.Observe(QueryEvent(90, Miss, 150, 100))
	w.Observe(QueryEvent(250, Unresolved, 0, 0))
	w.Observe(CounterEvent(50, "ignored", 1))

	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	first := w.At(0)
	if first.Total != 2 || first.Hits != 1 || first.Served != 2 {
		t.Fatalf("window 0 = %+v", first)
	}
	if first.MeanLookupMs() != 100 || first.MeanTransferMs() != 60 {
		t.Fatalf("window 0 means = %g/%g", first.MeanLookupMs(), first.MeanTransferMs())
	}
	// Unresolved counts toward total, not served.
	third := w.At(2)
	if third.Total != 1 || third.Served != 0 || third.HitRatio() != 0 {
		t.Fatalf("window 2 = %+v", third)
	}
	if third.MeanLookupMs() != 0 {
		t.Fatal("empty served window mean not 0")
	}

	series := w.Series()
	if len(series) != 3 || series[0].HitRatio != 0.5 || series[0].MeanLookupMs != 100 {
		t.Fatalf("series = %+v", series)
	}
	if series[1].Queries != 0 {
		t.Fatal("gap window not empty")
	}

	hits, total := w.Tail(2, int64(w.Len())*100)
	if hits != 0 || total != 1 {
		t.Fatalf("Tail(2) = %d/%d", hits, total)
	}
	hits, total = w.Tail(0, int64(w.Len())*100)
	if hits != 1 || total != 3 {
		t.Fatalf("Tail(0) = %d/%d", hits, total)
	}
}

func TestCollectorIsAnEmitter(t *testing.T) {
	// A bare Collector stands in for a Pipeline in library use.
	var e Emitter = NewCollector(sim.Hour)
	e.Emit(QueryEvent(0, HitDirectory, 10, 5))
	c := e.(*Collector)
	if c.Total() != 1 || c.Count(HitDirectory) != 1 {
		t.Fatal("Emit did not record")
	}
	// Record remains equivalent to Emit for existing callers.
	c.Observe(QueryEvent(1, Miss, 20, 10))
	if c.Total() != 2 || c.Count(Miss) != 1 {
		t.Fatal("Record did not route through Observe")
	}
}

func TestWindowedBreaksOutEvictions(t *testing.T) {
	w := NewWindowed(100)
	w.Observe(CounterEvent(10, CounterEvictions, 1))
	w.Observe(CounterEvent(20, CounterEvictions, 1))
	w.Observe(CounterEvent(250, CounterEvictions, 3))
	w.Observe(CounterEvent(30, "promotions", 7)) // other counters pass through

	if w.Len() != 3 {
		t.Fatalf("Len = %d", w.Len())
	}
	if got := w.At(0).Evictions; got != 2 {
		t.Fatalf("window 0 evictions = %g", got)
	}
	if got := w.At(1).Evictions; got != 0 {
		t.Fatalf("window 1 evictions = %g", got)
	}
	if got := w.At(2).Evictions; got != 3 {
		t.Fatalf("window 2 evictions = %g", got)
	}
	series := w.Series()
	if series[0].Evictions != 2 || series[2].Evictions != 3 {
		t.Fatalf("series evictions = %+v", series)
	}
	// Eviction-only windows hold no queries.
	if series[2].Queries != 0 || series[2].HitRatio != 0 {
		t.Fatalf("eviction-only window gained queries: %+v", series[2])
	}
}

func TestCollectorForwardsEvictionsToWindows(t *testing.T) {
	c := NewCollector(100)
	c.Emit(QueryEvent(10, HitDirectory, 50, 20))
	c.Emit(CounterEvent(40, CounterEvictions, 2))
	if got := c.Windows().At(0).Evictions; got != 2 {
		t.Fatalf("collector window evictions = %g", got)
	}
	// Counter events never perturb the query aggregates.
	if c.Total() != 1 || c.Hits() != 1 {
		t.Fatalf("counters leaked into query totals: %d/%d", c.Total(), c.Hits())
	}
	series := c.HitRatioSeries()
	if len(series) != 1 || series[0].Evictions != 2 {
		t.Fatalf("series = %+v", series)
	}
}

// The three formulas LookupLatency replaced, as the drivers had them.
func flowerResolveLookup(start, now int64, o Outcome, dist int64) int64 {
	lookup := now - start
	if o == Miss {
		lookup += dist
	} else if lookup > dist {
		lookup -= dist
	}
	return lookup
}

// ringdir.resolve was "the same definition as flower.resolve", written
// out again.
var ringdirResolveLookup = flowerResolveLookup

// origin-only's Query: the provider is known a priori, the lookup is
// the one leg it takes to reach the origin.
func originOnlyLookup(dist int64) int64 { return dist }

func TestLookupLatencyIsTheThreeFormulasItReplaced(t *testing.T) {
	cases := []struct {
		name             string
		start, now, dist int64
		o                Outcome
		want             int64
	}{
		{"miss: the query still travels to the origin", 1000, 1400, 90, Miss, 490},
		{"miss resolved at once", 1000, 1000, 90, Miss, 90},
		{"hit, lookup > dist: reached one response leg ago", 1000, 1400, 90, HitDirectory, 310},
		{"gossip hit, lookup > dist", 1000, 1181, 90, HitLocalGossip, 91},
		{"hit, lookup == dist: nothing to take off", 1000, 1090, 90, HitDirectorySummary, 90},
		{"hit, lookup < dist", 1000, 1040, 90, HitLocalGossip, 40},
		{"hit at zero distance", 1000, 1040, 0, HitDirectory, 40},
	}
	for _, c := range cases {
		got := LookupLatency(c.start, c.now, c.o, c.dist)
		if got != c.want || got != flowerResolveLookup(c.start, c.now, c.o, c.dist) ||
			got != ringdirResolveLookup(c.start, c.now, c.o, c.dist) {
			t.Errorf("%s: LookupLatency = %d, want %d (flower/ringdir had %d)", c.name, got, c.want,
				flowerResolveLookup(c.start, c.now, c.o, c.dist))
		}
	}
	// origin-only resolves every query the instant it issues it.
	for _, dist := range []int64{0, 1, 37, 250} {
		if got := LookupLatency(5000, 5000, Miss, dist); got != originOnlyLookup(dist) {
			t.Errorf("origin-only at dist %d: LookupLatency = %d, want %d", dist, got, originOnlyLookup(dist))
		}
	}
}

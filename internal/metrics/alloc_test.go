package metrics

import (
	"testing"

	"flowercdn/internal/sim"
)

// TestObserveAllocPins pins the collector's run-long state to the values
// it has seen, not the queries it has served: once the lookup latencies
// and transfer distances of a range have each been counted, observing
// more queries in that range (served or unresolved, in a window already
// open) allocates nothing. Keeping a sample per query appended two
// int64s to ever-growing lists here.
func TestObserveAllocPins(t *testing.T) {
	c := NewCollector(sim.Hour)
	for v := int64(0); v < 1000; v++ {
		c.Observe(QueryEvent(0, HitDirectory, v, v%333))
	}
	// A run is a batch: AllocsPerRun truncates its average, and a list
	// grown by append allocates only once per growth.
	i := int64(0)
	batch := func() {
		for range 10000 {
			c.Observe(QueryEvent(i%sim.Hour, Outcome(i%int64(numOutcomes)), i%1000, (i*7)%333))
			i++
		}
	}
	if got := testing.AllocsPerRun(10, batch); got != 0 {
		t.Errorf("10 000 queries in a seen value range allocate %v objects, want 0", got)
	}
	if n := len(c.lookups.counts) + len(c.transfers.counts); n != 1000+333 {
		t.Errorf("%d distinct values kept, want %d", n, 1000+333)
	}
}

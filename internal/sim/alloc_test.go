package sim

import "testing"

// TestPeriodicFiringAllocs pins the engine's periodic-timer hot path at
// zero allocations per firing: every experiment reduces to millions of
// gossip/keepalive ticks, so a single allocation here multiplies into
// most of a run's garbage. The periodic timer re-arming its own embedded
// Timer and the wheel linking timers through themselves are what keep
// this at zero; this guard keeps it there.
func TestPeriodicFiringAllocs(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.Every(1, 1, func() { fired++ })
	eng.Run(1000) // warm up
	avg := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 10)
	})
	if fired == 0 {
		t.Fatal("periodic timer never fired")
	}
	if avg > 0 {
		t.Errorf("periodic firing allocates %.2f objects per 10 firings; want 0", avg)
	}
}

// TestOneShotAllocs is the same guard for the one-shot path, which
// every simulated message takes: scheduling and firing an event costs
// its share of a Timer slab and nothing else — filing, cascading
// through every level and popping allocate nothing.
func TestOneShotAllocs(t *testing.T) {
	eng := NewEngine()
	fired := 0
	fn := func() { fired++ }
	batch := func() {
		for i := int64(0); i < timerSlabSize; i++ {
			eng.Schedule(i*i*i, fn) // up to 2^27 ms ahead: four levels
		}
		eng.RunAll()
	}
	batch() // warm up
	const runs = 100
	avg := testing.AllocsPerRun(runs, batch)
	if want := (runs + 2) * timerSlabSize; fired != want { // AllocsPerRun warms up once too
		t.Fatalf("fired %d events, want %d", fired, want)
	}
	if avg > 1 {
		t.Errorf("%d one-shot events allocate %.2f objects; want 1, the slab", timerSlabSize, avg)
	}
}

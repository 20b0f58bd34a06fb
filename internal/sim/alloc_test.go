package sim

import (
	"testing"
	"unsafe"

	"flowercdn/internal/transporttest"
)

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

// TestReleasedTimerAllocBytes is the guard TestOneShotAllocs cannot be:
// bytes, not objects, over enough timers that a slab would show. A timer
// whose handle is released is recycled once it has left the wheel, so
// scheduling, releasing and firing — what the message layer does per
// delivery — and scheduling, cancelling and releasing — what it does
// per RPC deadline — allocate nothing once the free list holds the
// working set.
func TestReleasedTimerAllocBytes(t *testing.T) {
	const timers = 4 * timerSlabSize
	fn := func() {}
	for _, tc := range []struct {
		name  string
		batch func(eng *Engine)
	}{
		{"Schedule+Release+fire", func(eng *Engine) {
			for i := int64(0); i < timers; i++ {
				eng.Schedule(i*i, fn).Release() // up to 2^22 ms ahead: three levels
			}
		}},
		{"Schedule+Cancel+Release", func(eng *Engine) {
			for i := int64(0); i < timers; i++ {
				d := eng.Schedule(4000+i, fn)
				d.Cancel()
				d.Release()
			}
		}},
	} {
		eng := NewEngine()
		got := transporttest.AllocBytes(20, func() {
			tc.batch(eng)
			eng.RunAll()
		})
		if got != 0 {
			t.Errorf("%s: %d bytes over 20 rounds of %d timers; want 0", tc.name, got, timers)
		}
	}

	// A released timer is free again before its function runs: a chain of
	// events, each scheduling the next, lives in one record.
	eng := NewEngine()
	left := 0
	var hop func()
	hop = func() {
		if left--; left > 0 {
			eng.Schedule(3, hop).Release()
		}
	}
	got := transporttest.AllocBytes(2, func() {
		left = timers
		hop()
		eng.RunAll()
	})
	if records := freeRecords(eng); got != 0 || records != 1 {
		t.Errorf("a chain of %d events allocated %d bytes and used %d records; want 0 and 1", timers, got, records)
	}
}

// TestReleaseAfterFireAllocBytes: a timer released only after it fired
// — a deadline a caller drops once the event it guarded is over — goes
// back on its engine's free list, so the next Schedule reuses it.
func TestReleaseAfterFireAllocBytes(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	got := transporttest.AllocBytes(20, func() {
		for i := 0; i < 4*timerSlabSize; i++ {
			tm := eng.Schedule(1, fn)
			eng.RunAll()
			tm.Release()
		}
	})
	if records := freeRecords(eng); got != 0 || records != 1 {
		t.Errorf("%d bytes over 20 rounds, %d free records; want 0 and 1", got, records)
	}
}

// freeRecords counts the records on the engine's free list.
func freeRecords(eng *Engine) int {
	n := 0
	for t := eng.w.free; t != nil; t = t.next {
		n++
	}
	return n
}

// TestTimerAllocSize keeps a Timer at six words, the size class it is
// carved from slabs in: two links, so that Cancel unlinks at once, and a
// pointer to its wheel, so that Release after firing recycles it; the
// state bits share the last word, and the free lists reuse a link.
func TestTimerAllocSize(t *testing.T) {
	if got := unsafe.Sizeof(Timer{}); got != 48 {
		t.Errorf("sim.Timer is %d bytes; want 48", got)
	}
}

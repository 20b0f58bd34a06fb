package wallclock

import (
	goruntime "runtime"
	"testing"

	"flowercdn/internal/runtime"
)

// allocBytesInRun runs step as a chain of immediately-due timers inside
// one Run — each firing calls step and schedules the next, released —
// and returns the bytes allocated between firing warm and firing
// warm+rounds. Measured from inside the loop because Run itself
// allocates its idle timer on entry.
func allocBytesInRun(c *Clock, warm, rounds int, step func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var before, after goruntime.MemStats
	n := 0
	var fire func()
	fire = func() {
		switch n++; n {
		case warm:
			goruntime.ReadMemStats(&before)
		case warm + rounds:
			goruntime.ReadMemStats(&after)
			c.Stop()
			return
		}
		step()
		c.Schedule(0, fire).Release()
	}
	c.Schedule(0, fire).Release()
	c.Run(1 << 40)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReleasedTimerAllocBytes pins what a transport does per message on
// the wall clock — Schedule and Release in one statement for a
// delivery; Schedule, Cancel, Release for an RPC deadline the reply beat
// — at zero bytes once the free list holds the working set.
func TestReleasedTimerAllocBytes(t *testing.T) {
	c := NewClock()
	nop := func() {}
	var first runtime.Timer
	others := 0
	got := allocBytesInRun(c, 100, 5000, func() {
		d := c.Schedule(4000, nop)
		if first == nil {
			first = d
		} else if d != first {
			others++
		}
		d.Cancel()
		d.Release()
	})
	if got != 0 {
		t.Errorf("5000 deliveries and cancelled deadlines allocated %d bytes; want 0", got)
	}
	// One record in all: the firing delivery's is free before its callback
	// runs, serves the deadline, and is free again for the next delivery.
	if c.Pending() != 0 || others != 0 {
		t.Errorf("%d pending, %d deadlines on a second record; want 0 and 0", c.Pending(), others)
	}
}

// TestTickerAllocBytes: a ticker releases the timer of each firing as
// it arms the next, with its callback bound once, so steady ticking
// allocates nothing — as sim.PeriodicTimer does not.
func TestTickerAllocBytes(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	c := NewClock()
	var before, after goruntime.MemStats
	n := 0
	c.Every(0, 1, func() {
		switch n++; n {
		case 5:
			goruntime.ReadMemStats(&before)
		case 55:
			goruntime.ReadMemStats(&after)
			c.Stop()
		}
	})
	c.Run(1 << 40)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Errorf("50 ticks allocated %d bytes; want 0", got)
	}
}

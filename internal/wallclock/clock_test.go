package wallclock

import (
	"testing"

	"flowercdn/internal/runtime"
)

// TestTimerOrdering checks that same-deadline timers fire in schedule
// order and differently-deadlined timers fire by deadline — the same
// (when, seq) total order the engine guarantees.
func TestTimerOrdering(t *testing.T) {
	c := NewClock()
	var got []int
	c.Schedule(30, func() { got = append(got, 3) })
	c.Schedule(10, func() { got = append(got, 1) })
	c.Schedule(10, func() { got = append(got, 2) }) // same deadline, later seq
	c.Run(60)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}

func TestTimerCancel(t *testing.T) {
	c := NewClock()
	fired := false
	tm := c.Schedule(20, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel reported no effect")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel reported effect")
	}
	c.Run(50)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunHorizonAndScheduleDuringRun(t *testing.T) {
	c := NewClock()
	var fired []int64
	c.Schedule(10, func() {
		fired = append(fired, c.Now())
		c.Schedule(15, func() { fired = append(fired, c.Now()) }) // due ~25
	})
	c.Schedule(500, func() { fired = append(fired, -1) }) // beyond horizon
	n := c.Run(100)
	if n != 2 {
		t.Fatalf("processed %d callbacks, want 2", n)
	}
	if len(fired) != 2 || fired[1] < 20 {
		t.Fatalf("fired at %v, want two firings with the second at >= 20ms", fired)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending %d, want the beyond-horizon timer queued", c.Pending())
	}
}

func TestTickerFiresAndStops(t *testing.T) {
	c := NewClock()
	count := 0
	tick := c.Every(5, 10, func() { count++ })
	c.Run(48)
	if count < 3 {
		t.Fatalf("ticker fired %d times in 48ms with period 10, want >= 3", count)
	}
	tick.Cancel()
	if !tick.(*ticker).cancelled {
		t.Fatal("ticker not cancelled after Cancel")
	}
	before := count
	c.Run(80)
	if count != before {
		t.Fatalf("ticker fired after Cancel: %d -> %d", before, count)
	}
}

func TestStopInterruptsRun(t *testing.T) {
	c := NewClock()
	c.Schedule(5, func() { c.Stop() })
	c.Schedule(40, func() { t.Fatal("callback after Stop") })
	c.Run(60)
	if c.Pending() != 1 {
		t.Fatalf("pending %d after Stop, want 1", c.Pending())
	}
}

// TestSecondReleaseIsANoOp: releasing a fired or cancelled timer twice
// frees its record once, so the free records are listed once each, the
// next timers get distinct records and every callback runs.
func TestSecondReleaseIsANoOp(t *testing.T) {
	c := NewClock()
	fired := c.Schedule(0, func() {})
	c.Run(c.Now())
	cancelled := c.Schedule(1000, func() {})
	cancelled.Cancel()
	for _, tm := range []runtime.Timer{fired, cancelled} {
		tm.Release()
		tm.Release()
	}
	if err := c.check(); err != nil {
		t.Fatalf("after releasing two timers twice each: %v", err)
	}
	ran := 0
	a := c.Schedule(0, func() { ran++ })
	b := c.Schedule(0, func() { ran++ })
	c2 := c.Schedule(0, func() { ran++ })
	if a == b || b == c2 || a == c2 {
		t.Fatal("two live timers share one record")
	}
	c.Run(c.Now())
	if ran != 3 {
		t.Fatalf("%d of 3 callbacks ran", ran)
	}
}

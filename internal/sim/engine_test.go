package sim

import (
	"testing"
	"testing/quick"

	"flowercdn/internal/rnd"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100 (clock advances to until)", e.Now())
	}
}

func TestSameInstantIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, func() {
		e.Schedule(-10, func() {
			if e.Now() != 50 {
				t.Errorf("negative delay fired at %d, want 50", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := int64(-1)
	e.Schedule(100, func() {
		e.At(10, func() { fired = e.Now() })
	})
	e.RunAll()
	if fired != 100 {
		t.Fatalf("past At fired at %d, want 100", fired)
	}
}

func TestRunStopsAtBoundaryInclusive(t *testing.T) {
	e := NewEngine()
	var at, after bool
	e.Schedule(100, func() { at = true })
	e.Schedule(101, func() { after = true })
	e.Run(100)
	if !at {
		t.Fatal("event at the boundary did not run")
	}
	if after {
		t.Fatal("event after the boundary ran")
	}
	e.Run(101)
	if !after {
		t.Fatal("event did not run on subsequent Run")
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.Schedule(10, func() { ran = true })
	if !tm.Cancel() {
		t.Fatal("Cancel() = false on pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	e.Run(100)
	if ran {
		t.Fatal("cancelled timer ran")
	}
	if tm.key&(timerFired|timerCancelled) != timerCancelled {
		t.Fatalf("timer state %03b, want cancelled only", tm.key&(1<<stateBits-1))
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(10, func() {})
	e.Run(100)
	if tm.key&timerFired == 0 {
		t.Fatal("timer did not fire")
	}
	if tm.Cancel() {
		t.Fatal("Cancel() after fire = true, want false")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.RunAll()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %d, want 99", e.Now())
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var times []int64
	p := e.Every(10, 25, func() { times = append(times, e.Now()) })
	e.Run(100)
	want := []int64{10, 35, 60, 85}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("firing times %v, want %v", times, want)
		}
	}
	p.Cancel()
	if !p.cancelled {
		t.Fatal("periodic timer not cancelled after Cancel")
	}
	before := len(times)
	e.Run(1000)
	if len(times) != before {
		t.Fatal("periodic timer fired after Cancel")
	}
}

func TestEveryCancelFromWithinCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var p *PeriodicTimer
	p = e.Every(0, 10, func() {
		count++
		if count == 3 {
			p.Cancel()
		}
	})
	e.Run(1000)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (cancel from callback)", count)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(_, 0, _) did not panic")
		}
	}()
	NewEngine().Every(0, 0, func() {})
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At with nil fn did not panic")
		}
	}()
	NewEngine().At(5, nil)
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, 1, func() {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	e.Run(1000)
	if count != 5 {
		t.Fatalf("count = %d, want 5 after Stop", count)
	}
	if e.Now() != 4 {
		t.Fatalf("Now() = %d after Stop, want 4 (clock not advanced past stop)", e.Now())
	}
	// The engine is reusable after a Stop: the pending periodic firings
	// at t=5,6,7 execute on the next Run.
	e.Run(e.Now() + 3)
	if count != 8 {
		t.Fatalf("count = %d after resume, want 8", count)
	}
}

func TestProcessedCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(int64(i), func() {})
	}
	c := e.Schedule(3, func() {})
	c.Cancel()
	n := e.Run(100)
	if n != 7 {
		t.Fatalf("Run processed %d events, want 7 (cancelled not counted)", n)
	}
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

func TestClockNeverGoesBackwards(t *testing.T) {
	// Property: for any sequence of schedule delays, observed event
	// times are non-decreasing.
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := int64(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(int64(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int64 {
		e := NewEngine()
		rng := rnd.New(42)
		var out []int64
		for i := 0; i < 200; i++ {
			e.Schedule(rng.Int63n(1000), func() { out = append(out, e.Now()) })
		}
		e.RunAll()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestNilTimerIsInert: both methods of a nil *Timer are no-ops, so code
// that may or may not have armed one need not check.
func TestNilTimerIsInert(t *testing.T) {
	var tm *Timer
	if tm.Cancel() {
		t.Fatal("cancelling a nil timer had an effect")
	}
	tm.Release()
}

// TestUnreleasedTimerIsNeverReused is the contract a kept handle relies
// on: its record is its own for good, whatever else is recycled, so a
// Cancel long after it fired touches nobody else's timer.
func TestUnreleasedTimerIsNeverReused(t *testing.T) {
	e := NewEngine()
	kept := e.Schedule(1, func() {})
	e.RunAll()
	fired := false
	for i := 0; i < 3*timerSlabSize; i++ {
		tm := e.Schedule(1, func() { fired = true })
		if tm == kept {
			t.Fatal("a timer whose handle was kept was handed out again")
		}
		tm.Release()
		kept.Cancel() // stale: must not reach whatever was just scheduled
		fired = false
		e.RunAll()
		if !fired {
			t.Fatalf("round %d: a stale Cancel stopped somebody else's timer", i)
		}
	}
}

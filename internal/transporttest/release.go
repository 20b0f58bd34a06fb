package transporttest

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"flowercdn/internal/runtime"
)

// ReleaseClock decorates a clock so that the ownership rule of
// runtime.Timer.Release — the caller gives every handle back, and after
// Release does not touch it again — is checked instead of trusted: every
// Schedule and At hands out a handle of its own, and any method called
// on one after its Release, a second Release included, is passed to
// report with the file:line of the call and of the Release. A handle
// that becomes unreachable without Release is reported too, with the
// file:line that scheduled it, by ReportDropped. Every call is
// forwarded, reported or not, so the run is the undecorated run —
// bit-identical on the sim backend, the offending call landing wherever
// it would have — with the reports added. Like that backend it is for
// one goroutine.
func ReleaseClock(inner runtime.Clock, report func(violation string)) *CheckedClock {
	return &CheckedClock{Clock: inner, report: report}
}

// CheckedClock is ReleaseClock's clock. It forwards Now, Every and Stop
// through the embedded clock.
type CheckedClock struct {
	runtime.Clock
	report func(string)

	// mu guards what the finalizers of dropped handles leave, from the
	// runtime's finalizer goroutine.
	mu      sync.Mutex
	dropped []string
	closed  bool // ReportDropped has run: later drops are not reported
}

func (c *CheckedClock) Schedule(delay int64, fn func()) runtime.Timer {
	return c.handle(c.Clock.Schedule(delay, fn))
}

func (c *CheckedClock) At(t int64, fn func()) runtime.Timer {
	return c.handle(c.Clock.At(t, fn))
}

// handle wraps inner for the Schedule or At call two frames up, with a
// finalizer that records the wrapper if it is collected unreleased.
func (c *CheckedClock) handle(inner runtime.Timer) *checkedTimer {
	t := &checkedTimer{inner: inner, clock: c, scheduled: callerPC(2)}
	goruntime.SetFinalizer(t, (*checkedTimer).collected)
	return t
}

// ReportDropped passes to report every handle that has become
// unreachable without Release — the caller dropped it, against
// runtime.Timer's rule, so its record never went back to the clock —
// each with the file:line that scheduled it. It collects twice and waits
// for the finalizers, so call it at the end of the run while the
// deployment is still reachable: a handle an alive peer holds is not
// dropped. Handles collected after it are not reported, since once the
// run ends the whole deployment, and every handle it holds, is garbage.
func (c *CheckedClock) ReportDropped() {
	goruntime.GC()
	goruntime.GC()
	finished := awaitFinalizers()
	c.mu.Lock()
	dropped := c.dropped
	c.dropped, c.closed = nil, true
	c.mu.Unlock()
	if !finished {
		c.report("ReportDropped: the finalizers of dropped handles did not run within 10 s")
	}
	for _, v := range dropped {
		c.report(v)
	}
}

// awaitFinalizers waits for every finalizer queued so far to run.
// Finalizers run one batch at a time on one goroutine, so a sentinel's
// finalizer, queued by a later collection, runs no earlier than the
// batch ahead of it; twice, because that goroutine may be midway through
// a batch when the first sentinel is queued. It reports false if a
// sentinel takes over 10 s.
func awaitFinalizers() bool {
	for range 2 {
		done := make(chan struct{})
		sentinel := new([32]byte) // not a tiny allocation, which may never be finalized
		goruntime.SetFinalizer(sentinel, func(*[32]byte) { close(done) })
		sentinel = nil
		goruntime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			return false
		}
	}
	return true
}

type checkedTimer struct {
	inner     runtime.Timer
	clock     *CheckedClock
	scheduled uintptr        // the Schedule or At call's return address
	released  atomic.Uintptr // the Release call's; 0 while the caller owns the handle
}

// collected is the finalizer: a handle collected unreleased was dropped.
func (t *checkedTimer) collected() {
	if t.released.Load() != 0 {
		return
	}
	c := t.clock
	c.mu.Lock()
	if !c.closed {
		c.dropped = append(c.dropped, fmt.Sprintf("timer scheduled at %s dropped without Release", site(t.scheduled)))
	}
	c.mu.Unlock()
}

// callerPC is the return address into the function skip frames above
// callerPC's caller.
func callerPC(skip int) uintptr {
	var pc [1]uintptr
	goruntime.Callers(skip+2, pc[:])
	return pc[0]
}

func site(pc uintptr) string {
	f, _ := goruntime.CallersFrames([]uintptr{pc}).Next()
	return fmt.Sprintf("%s:%d", f.File, f.Line)
}

// check reports the method call it is made from if the handle has been
// released.
func (t *checkedTimer) check(method string) {
	if released := t.released.Load(); released != 0 {
		t.clock.report(fmt.Sprintf("%s at %s on a timer released at %s", method, site(callerPC(2)), site(released)))
	}
}

func (t *checkedTimer) Cancel() bool {
	t.check("Cancel")
	return t.inner.Cancel()
}

func (t *checkedTimer) Release() {
	t.check("Release")
	t.released.Store(callerPC(1))
	t.inner.Release()
}

package transporttest

import (
	"fmt"
	goruntime "runtime"

	"flowercdn/internal/runtime"
)

// ReleaseClock decorates a clock so that the ownership rule of
// runtime.Timer.Release — after Release the caller does not touch the
// handle again — is checked instead of trusted: every Schedule and At
// hands out a handle of its own, and any method called on one after its
// Release, a second Release included, is passed to report with the
// file:line of the call and of the Release. Every call is forwarded,
// reported or not, so the run is the undecorated run — bit-identical on
// the sim backend, the offending call landing wherever it would have —
// with the reports added. Like that backend it is for one goroutine.
func ReleaseClock(inner runtime.Clock, report func(violation string)) runtime.Clock {
	return &releaseClock{Clock: inner, report: report}
}

// releaseClock forwards Now, Every and Stop through the embedded clock.
type releaseClock struct {
	runtime.Clock
	report func(string)
}

func (c *releaseClock) Schedule(delay int64, fn func()) runtime.Timer {
	return &checkedTimer{inner: c.Clock.Schedule(delay, fn), report: c.report}
}

func (c *releaseClock) At(t int64, fn func()) runtime.Timer {
	return &checkedTimer{inner: c.Clock.At(t, fn), report: c.report}
}

type checkedTimer struct {
	inner    runtime.Timer
	report   func(string)
	released uintptr // the Release call's return address; 0 while the caller owns the handle
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
	if t.released != 0 {
		t.report(fmt.Sprintf("%s at %s on a timer released at %s", method, site(callerPC(2)), site(t.released)))
	}
}

func (t *checkedTimer) Cancel() bool {
	t.check("Cancel")
	return t.inner.Cancel()
}

func (t *checkedTimer) Release() {
	t.check("Release")
	t.released = callerPC(1)
	t.inner.Release()
}

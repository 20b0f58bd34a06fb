// Package sim provides the discrete-event simulation engine that every
// other package in this repository runs on. It plays the role PeerSim's
// event-driven framework plays in the paper: a virtual clock with
// millisecond resolution, an ordered event queue, and cancellable and
// periodic timers. The engine models latency only — bandwidth and CPU
// are deliberately out of scope, matching the paper's simulator.
//
// All times are int64 milliseconds of simulated time. The constants
// Millisecond, Second, Minute and Hour mirror the time package at that
// resolution.
//
// The queue is a hierarchical timing wheel over that millisecond clock:
// 8 levels of 256 slots, one byte of the firing time per level, which
// covers every non-negative int64. With base the wheel's position,
// level l slot i holds exactly the pending timers whose firing time
// agrees with base in every byte above l and has byte l equal to i (for
// l > 0, i is beyond base's own byte l). So all timers of one
// millisecond share one slot at any moment. Every timer carries an
// explicit sequence number, taken from one counter as it is scheduled,
// and every slot holds its timers in increasing sequence: a new timer
// has the newest and is appended, and a slot of level l > 0 is refiled,
// front to back, into the empty levels below at the moment base enters
// its span, nothing being filed into it afterwards. Within one
// millisecond that is the (when, seq) total order the simulations'
// determinism rests on.
//
// A caller may also file a timer late. Reserve takes a sequence number
// and files nothing; AtReserved files a timer under it later, walking
// back from its slot's tail past the newer timers, so that it fires
// where it would have fired had it been scheduled when the number was
// reserved. The message layer reserves an RPC's deadline that way and
// files it only when the deadline can fire: for the RPCs a reply beats,
// nearly all of them, the wheel never sees a deadline.
//
// The wheel is also the wall clock's queue (internal/wallclock files its
// timers in a Wheel under its own lock), and every timer links back to
// its slot's neighbours and to its wheel: Cancel unlinks a timer at
// once on either clock, so the queue holds live timers only.
//
// Timer records are carved from slabs and recycled only on request: a
// handle the caller keeps is never reused, so a stale Cancel stays a
// no-op; a handle given back with Timer.Release rejoins its wheel's
// free list once the timer has fired or been cancelled, and the next
// Schedule takes it from there. Every caller in the tree releases every
// handle it drops — the message layer, the protocols, churn and the
// harness; transporttest.ReleaseClock reports one collected unreleased,
// by the line that scheduled it, in the harness's
// TestNoTimerUsedAfterRelease — so a run's timer memory follows the
// depth of the queue, not the event count.
package sim

import (
	"fmt"
	"math"
	"unsafe"
)

// Time unit constants, in simulated milliseconds.
const (
	Millisecond int64 = 1
	Second            = 1000 * Millisecond
	Minute            = 60 * Second
	Hour              = 60 * Minute
)

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; an entire simulation runs on one goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// Events fire in (when, seq) order, seq being the scheduling sequence
// or the one Reserve handed out: the order of the timing wheel
// described in the package comment.
type Engine struct {
	w         Wheel
	now       int64
	processed uint64
	stopped   bool
}

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of timers queued. Cancelled timers are not
// among them: Cancel unlinks a timer at once. Nor are reserved places
// (Reserve): a place counts once AtReserved files a timer in it.
func (e *Engine) Pending() int { return e.w.n }

// Schedule runs fn after delay milliseconds of simulated time. A
// negative delay is treated as zero (fn runs at the current instant,
// after all events already queued for it). It returns a cancellable
// Timer handle.
func (e *Engine) Schedule(delay int64, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t. Times in the past are
// clamped to the current instant.
func (e *Engine) At(t int64, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	return e.w.At(t, e.now, fn)
}

// Reserve hands out the next scheduling sequence number without
// queueing anything: the place, among the events of one instant, that
// a timer filed later with AtReserved takes. A caller that will most
// likely never file it — an RPC deadline a reply beats — keeps the
// firing order it would have had at the price of a counter increment.
func (e *Engine) Reserve() uint64 { return e.w.Reserve() }

// AtReserved runs fn at absolute simulated time t (clamped to the
// current instant), in the place seq gives it: after the events of
// that instant scheduled before seq was reserved, before those
// scheduled since. seq must come from Reserve and serve one timer.
func (e *Engine) AtReserved(t int64, seq uint64, fn func()) *Timer {
	if fn == nil {
		panic("sim: AtReserved called with nil function")
	}
	return e.w.AtReserved(t, e.now, seq, fn)
}

// fire advances the clock to an event's time and runs it, the function
// fn of record t. A ticker's record is filed again once fn has run,
// unless fn cancelled the ticker. Whether t is a ticker's is read
// before fn runs: a one-shot record may be free already, and fn may
// file its next timer in it.
func (e *Engine) fire(when int64, t *Timer, fn func()) {
	e.now = when
	e.processed++
	if t.key&timerPeriodic == 0 {
		fn()
		return
	}
	p := (*PeriodicTimer)(unsafe.Pointer(t)) // inner is p's first field
	fn()
	if !p.cancelled {
		p.arm(e.now + p.period)
	}
}

// Every schedules fn to run every period milliseconds, with the first
// execution after firstDelay. The returned PeriodicTimer keeps firing
// until cancelled. Period must be positive.
func (e *Engine) Every(firstDelay, period int64, fn func()) *PeriodicTimer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %d", period))
	}
	p := &PeriodicTimer{eng: e, period: period, fn: fn}
	p.inner.w = &e.w
	p.arm(e.now + firstDelay)
	return p
}

// PeriodicTimer re-schedules itself after each firing until Cancel is
// called. Its Timer is embedded rather than carved from the engine's
// slab — a long-lived ticker would otherwise pin a whole slab — and is
// re-armed across firings with the caller's function itself: the
// engine recognises the record by its periodic bit and, the Timer being
// the first field, finds the ticker from it (fire). A ticker is one
// allocation, and its firings none.
//
// That conversion reads a PeriodicTimer where the wheel handed over a
// Timer, which is sound only for a record that is the head of a whole
// PeriodicTimer. So timerPeriodic is set by arm below and nowhere else:
// never on a slab or free record (Wheel.Check reports one that is),
// whose memory past the Timer belongs to other records.
type PeriodicTimer struct {
	inner     Timer // first: fire converts a *Timer back to its ticker
	eng       *Engine
	period    int64
	fn        func()
	cancelled bool
}

// arm files the ticker's record to fire fn at when.
func (p *PeriodicTimer) arm(when int64) {
	w := &p.eng.w
	w.arm(&p.inner, when, p.eng.now, p.fn)
	p.inner.key |= timerPeriodic
}

// Cancel stops all future firings.
func (p *PeriodicTimer) Cancel() {
	if p.cancelled {
		return
	}
	p.cancelled = true
	p.inner.Cancel()
	p.fn = nil
}

// Step executes the single next event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	when, t, fn := e.w.pop(math.MaxInt64)
	if fn == nil {
		return false
	}
	e.fire(when, t, fn)
	return true
}

// Run executes events until the clock would pass `until` or the queue
// drains, whichever comes first. Events stamped exactly at `until` are
// executed. It returns the number of events processed by this call.
// After Run returns, the clock is at min(until, time of last event) —
// it is advanced to `until` if the queue drained early, so subsequent
// Schedule calls behave consistently.
func (e *Engine) Run(until int64) uint64 {
	start := e.processed
	for !e.stopped {
		when, t, fn := e.w.pop(until)
		if fn == nil {
			break
		}
		e.fire(when, t, fn)
	}
	// Advance the clock to the boundary only if we were not stopped
	// mid-run; a Stop leaves the clock at the last executed event so the
	// caller can resume exactly where it left off.
	if !e.stopped && e.now < until {
		e.now = until
	}
	e.stopped = false
	return e.processed - start
}

// RunAll executes events until the queue is empty. Useful in tests;
// beware of self-rescheduling periodic timers, which never drain.
func (e *Engine) RunAll() uint64 {
	start := e.processed
	for e.Step() {
		if e.stopped {
			break
		}
	}
	e.stopped = false
	return e.processed - start
}

// Stop makes the currently executing Run/RunAll return after the
// current event completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

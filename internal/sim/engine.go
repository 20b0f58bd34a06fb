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
// level l slot i holds, in scheduling order, exactly the pending timers
// whose firing time agrees with base in every byte above l and has
// byte l equal to i (for l > 0, i is beyond base's own byte l). So all
// timers of one millisecond share one slot at any moment. A slot of
// level l > 0 is refiled, front to back, into the empty levels below
// at the moment base enters its span, and nothing is filed into it
// afterwards. Every slot is therefore a FIFO, and FIFO within one
// millisecond is the (when, scheduling sequence) total order the
// simulations' determinism rests on — kept without a comparison.
//
// Timer records are carved from slabs and recycled only on request: a
// handle the caller keeps is never reused, so a stale Cancel stays a
// no-op; a handle given back with Timer.Release rejoins the engine's
// free list when the timer fires or the wheel discards it cancelled,
// and the next Schedule takes it from there. The message layer releases
// every timer it schedules, which is nearly all of them, so a run's
// timer memory follows the depth of the queue, not the event count.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time unit constants, in simulated milliseconds.
const (
	Millisecond int64 = 1
	Second            = 1000 * Millisecond
	Minute            = 60 * Second
	Hour              = 60 * Minute
)

// Timer is a handle for a scheduled event. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled timer is a
// no-op. The zero value is not a valid timer.
type Timer struct {
	when      int64
	next      *Timer // the timer filed after this one in the same wheel slot, or free after it
	fn        func()
	cancelled bool
	fired     bool
	released  bool
}

// Cancel prevents the timer's function from running when its time
// arrives. It reports whether the cancellation had any effect (i.e. the
// timer had neither fired nor been cancelled already). The timer stays
// in its slot until the wheel reaches or refiles it.
func (t *Timer) Cancel() bool {
	if t == nil || t.cancelled || t.fired {
		return false
	}
	t.cancelled = true
	t.fn = nil // release closure for GC
	return true
}

// Release gives the handle up: the caller will not use it again. The
// timer still fires unless it was cancelled; the engine takes the record
// back at the moment it leaves the wheel — as it fires, or as a cancelled
// one is discarded — and hands it to a later Schedule. A timer has no
// pointer to its engine (that would be a fourth word on every timer), so
// one released only after it left the wheel goes to the collector as an
// unreleased one does. Releasing a nil timer is a no-op.
func (t *Timer) Release() {
	if t != nil {
		t.released = true
	}
}

// The wheel's geometry: one byte of the firing time per level, so the
// 8 levels cover every non-negative int64 and no timer is ever too far
// ahead to file.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 64 / wheelBits
)

// slot is a FIFO of timers, linked through Timer.next.
type slot struct {
	head, tail *Timer
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; an entire simulation runs on one goroutine, which
// is what makes runs bit-for-bit reproducible.
//
// Events fire in (when, scheduling sequence) order. The queue is the
// timing wheel described in the package comment: a timer is filed at
// the level of the highest byte in which its firing time differs from
// base (level 0 when none does), into the slot that byte names. base
// only ever moves to the start of the first occupied slot ahead of it,
// never past the limit of the Run in progress, and the slot it enters
// is refiled into the levels below in order; those levels are empty at
// that moment, so every slot stays in scheduling order and insert, pop
// and cancel are O(1) with no comparison between timers.
type Engine struct {
	now       int64
	base      int64 // wheel position; base <= now whenever a timer is filed
	pending   int
	processed uint64
	stopped   bool

	// slab is the current chunk of bulk-allocated Timer structs. Timers
	// are handed out pointer-by-pointer from the chunk, amortizing one
	// heap allocation over timerSlabSize Schedule calls, and only when
	// free is empty. A timer whose handle the caller kept is never
	// recycled (the handle may be held indefinitely); its chunk is
	// garbage-collected once every handle into it is gone.
	slab []Timer

	// free lists, through Timer.next, the released timers that have left
	// the wheel: newTimer takes from here first. Last in, first out, so
	// the record a message's delivery just vacated carries the reply.
	free *Timer

	// occupied has bit i of level l set while slots[l][i] is non-empty.
	occupied [wheelLevels][wheelSlots / 64]uint64
	slots    [wheelLevels][wheelSlots]slot
}

// timerSlabSize is the bulk-allocation chunk for Timer structs.
const timerSlabSize = 512

// NewEngine returns an engine with the clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// newTimer hands out a recycled Timer, or the next one from the slab.
func (e *Engine) newTimer() *Timer {
	if t := e.free; t != nil {
		e.free, t.next = t.next, nil
		return t
	}
	if len(e.slab) == 0 {
		e.slab = make([]Timer, timerSlabSize)
	}
	t := &e.slab[0]
	e.slab = e.slab[1:]
	return t
}

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of timers filed in the wheel. Cancelled
// timers count until the wheel discards them, which it does when it
// reaches them or refiles their slot into a lower level, whichever
// comes first.
func (e *Engine) Pending() int { return e.pending }

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
	timer := e.newTimer()
	e.arm(timer, t, fn)
	return timer
}

// arm files a timer that is not in the wheel (new, or fired) to run fn
// at time when, clamped to the current instant.
func (e *Engine) arm(t *Timer, when int64, fn func()) {
	if when < e.now {
		when = e.now
	}
	if e.pending == 0 {
		// Draining through cancelled timers can leave base ahead of now.
		e.base = e.now
	}
	t.when, t.fn, t.fired, t.cancelled, t.released = when, fn, false, false, false
	e.pending++
	e.file(t)
}

// file appends t to the slot its firing time and base assign it to.
// t.when must not be before base.
func (e *Engine) file(t *Timer) {
	l := (bits.Len64(uint64(t.when^e.base)|1) - 1) / wheelBits
	i := uint(t.when>>(l*wheelBits)) % wheelSlots
	s := &e.slots[l][i]
	t.next = nil
	if s.tail == nil {
		s.head = t
		e.occupied[l][i/64] |= 1 << (i % 64)
	} else {
		s.tail.next = t
	}
	s.tail = t
}

// firstOccupied returns the first non-empty slot of level l at or after
// index from.
func (e *Engine) firstOccupied(l int, from uint) (uint, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	occ := &e.occupied[l]
	w := from / 64
	if b := occ[w] >> (from % 64); b != 0 {
		return from + uint(bits.TrailingZeros64(b)), true
	}
	for w++; w < uint(len(occ)); w++ {
		if occ[w] != 0 {
			return w*64 + uint(bits.TrailingZeros64(occ[w])), true
		}
	}
	return 0, false
}

// next unfiles and returns the first timer in (when, sequence) order if
// it is due at or before limit, discarding the cancelled timers it
// meets on the way. base follows, but never beyond limit, so whatever
// is scheduled after a Run(limit) still lies ahead of the wheel.
func (e *Engine) next(limit int64) *Timer {
	for e.pending > 0 {
		if i, ok := e.firstOccupied(0, uint(e.base)%wheelSlots); ok {
			when := e.base&^(wheelSlots-1) | int64(i)
			if when > limit {
				return nil
			}
			e.base = when
			s := &e.slots[0][i]
			t := s.head
			if s.head = t.next; s.head == nil {
				s.tail = nil
				e.occupied[0][i/64] &^= 1 << (i % 64)
			}
			t.next = nil
			e.pending--
			if t.cancelled {
				e.recycle(t)
				continue
			}
			return t
		}
		if !e.cascade(limit) {
			return nil
		}
	}
	return nil
}

// cascade moves base to the start of the first occupied slot above
// level 0 and refiles that slot, in order, into the levels below, which
// are empty. It reports false, leaving the wheel as it is, when that
// start lies beyond limit.
func (e *Engine) cascade(limit int64) bool {
	for l := 1; l < wheelLevels; l++ {
		shift := uint(l * wheelBits)
		i, ok := e.firstOccupied(l, uint(e.base>>shift)%wheelSlots+1)
		if !ok {
			continue
		}
		// base with byte l set to i and the bytes below cleared.
		start := int64(uint64(e.base)&(math.MaxUint64<<(shift+wheelBits))) | int64(i)<<shift
		if start > limit {
			return false
		}
		e.base = start
		s := &e.slots[l][i]
		t := s.head
		*s = slot{}
		e.occupied[l][i/64] &^= 1 << (i % 64)
		for t != nil {
			after := t.next
			if t.cancelled {
				t.next = nil
				e.pending--
				e.recycle(t)
			} else {
				e.file(t)
			}
			t = after
		}
		return true
	}
	panic("sim: pending timers but no occupied slot")
}

// recycle takes back a timer that has just left the wheel, if its
// handle was released; t.next must be nil.
func (e *Engine) recycle(t *Timer) {
	if t.released {
		e.free, t.next = t, e.free
	}
}

// fire advances the clock to t's time and runs it. A released timer is
// back on the free list before its function runs, so what the function
// schedules first reuses it.
func (e *Engine) fire(t *Timer) {
	e.now = t.when
	t.fired = true
	fn := t.fn
	t.fn = nil
	e.processed++
	e.recycle(t)
	fn()
}

// Every schedules fn to run every period milliseconds, with the first
// execution after firstDelay. The returned PeriodicTimer keeps firing
// until cancelled. Period must be positive.
func (e *Engine) Every(firstDelay, period int64, fn func()) *PeriodicTimer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %d", period))
	}
	p := &PeriodicTimer{eng: e, period: period, fn: fn}
	p.fire = p.doFire
	e.arm(&p.inner, e.now+firstDelay, p.fire)
	return p
}

// PeriodicTimer re-schedules itself after each firing until Cancel is
// called. Its Timer is embedded rather than carved from the engine's
// slab — a long-lived ticker would otherwise pin a whole slab — and is
// re-armed across firings (with a single cached fire closure), so
// steady-state periodic work allocates nothing per firing.
type PeriodicTimer struct {
	eng       *Engine
	period    int64
	fn        func()
	fire      func() // cached method value; one allocation per timer, not per firing
	inner     Timer
	cancelled bool
}

func (p *PeriodicTimer) doFire() {
	if p.cancelled {
		return
	}
	p.fn()
	if !p.cancelled {
		p.eng.arm(&p.inner, p.eng.now+p.period, p.fire)
	}
}

// Cancel stops all future firings.
func (p *PeriodicTimer) Cancel() {
	if p.cancelled {
		return
	}
	p.cancelled = true
	p.inner.Cancel()
	p.fn = nil
	p.fire = nil
}

// Step executes the single next event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (e *Engine) Step() bool {
	t := e.next(math.MaxInt64)
	if t == nil {
		return false
	}
	e.fire(t)
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
		t := e.next(until)
		if t == nil {
			break
		}
		e.fire(t)
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

// Package wallclock is the single wall-clock run loop every real-time
// backend paces itself with: a runtime.Clock backed by real
// time.Timers that fires callbacks serialized onto one goroutine (so
// protocol code stays lock-free, exactly as on the discrete-event
// engine), ordered by the same (deadline, seq) total order.
//
// Two backends drive it: internal/rtnet (the in-process "realtime"
// loopback) and internal/socknet (the multi-process "socket" TCP
// transport). Scheduling is safe from any goroutine — transport reader
// goroutines hand deliveries to the loop through Schedule — but
// callbacks only ever execute inside Run, one at a time.
//
// The queue is internal/sim's hierarchical timing wheel — 8 levels of
// 256 one-millisecond slots — with a back link in every timer, so that
// Schedule, the loop's pop and Cancel are all O(1) with no comparison
// between timers, and Cancel still unlinks at once: the queue holds
// live timers only, as an RPC transport that cancels a 5 s deadline per
// call needs. Run sleeps until the first deadline, or until the start of
// the slot that holds it when that slot has yet to be refiled.
//
// Timer records are recycled only on request, as on the engine: a
// handle the caller keeps is never reused; one given back with Release
// is recycled as soon as it is out of the wheel — at once if it has
// fired or been cancelled, otherwise when Run pops it — and the next
// Schedule takes it. Release itself takes no lock: it marks a queued
// timer for Run to free, and pushes one already out onto an atomic
// stack that Schedule drains. The transports release every timer they
// schedule and a ticker releases each firing's, so a steady stream of
// deliveries, RPC deadlines and ticks allocates no timers.
package wallclock

import (
	"sync"
	"sync/atomic"
	"time"

	"flowercdn/internal/runtime"
)

// timer is the one-shot timer handle. Its deadline, callback and
// links are guarded by the owning clock's mutex, so Cancel is safe from
// any goroutine, even though callbacks only ever run on the loop; its
// state is atomic, so that Fired, Cancelled and Release take no lock.
type timer struct {
	c          *Clock
	when       int64
	seq        uint64 // scheduling order, which the wheel keeps without reading it; the order tests read it
	fn         func()
	next, prev *timer        // neighbours in the wheel slot; next also links the free lists
	state      atomic.Uint32 // timerFired, timerCancelled, timerReleased
}

// A timer's state bits. Fired and cancelled are set under the clock's
// mutex, at most one of them, as the timer leaves the queue; released is
// set by Release, with no lock.
const (
	timerFired = 1 << iota
	timerCancelled
	timerReleased
)

// Cancel takes a queued timer out of the wheel at once, so the queue
// never holds dead deadlines: RPC timeouts are scheduled seconds ahead
// and nearly all of them are cancelled microseconds later.
func (t *timer) Cancel() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.state.Load()&(timerFired|timerCancelled) != 0 {
		return false
	}
	c.queue.remove(t)
	t.fn = nil
	t.state.Or(timerCancelled) // after the unlink: a Release that sees it may reuse t.next
	return true
}

func (t *timer) Fired() bool { return t.state.Load()&timerFired != 0 }

func (t *timer) Cancelled() bool { return t.state.Load()&timerCancelled != 0 }

func (t *timer) When() int64 { return t.when }

// Release gives the handle up; see runtime.Timer. Whichever of Release
// and the timer's leaving the queue comes second recycles the record:
// a queued timer is only marked here, and Run frees it as it pops it;
// one that has already fired or been cancelled goes on the clock's
// released stack, without the lock. A second Release is a no-op.
func (t *timer) Release() {
	old := t.state.Or(timerReleased)
	if old&timerReleased != 0 || old&(timerFired|timerCancelled) == 0 {
		return
	}
	c := t.c
	for {
		top := c.released.Load()
		t.next = top
		if c.released.CompareAndSwap(top, t) {
			return
		}
	}
}

// Clock is the wall-clock implementation of runtime.Clock. Time is
// int64 milliseconds since the clock was created; live deadlines are
// kept in a timing wheel and executed by Run — the single run loop —
// when the wall clock reaches them. Scheduling is safe from any
// goroutine; callbacks run only on the goroutine inside Run, one at a
// time.
type Clock struct {
	mu        sync.Mutex
	start     time.Time
	queue     wheel
	free      *timer // released and out of the wheel, through next: at takes from here first
	seq       uint64
	processed uint64
	stopped   bool
	// released is a stack, through next, of the timers Release gave back
	// after they had left the wheel; at moves it to free when free runs
	// dry.
	released atomic.Pointer[timer]
	// reached is the latest clock reading Run has acted on. No timer is
	// filed before it, so one scheduled with a reading taken just before
	// cannot sort ahead of timers that have already fired.
	reached int64
	// sleeping is set while Run waits for wakeAt, the next deadline or a
	// time before it; only a deadline earlier than that needs to send on
	// wake. Stop sends too.
	sleeping bool
	wakeAt   int64
	wake     chan struct{}
}

// NewClock starts a wall clock at time zero (= now).
func NewClock() *Clock {
	return &Clock{start: time.Now(), wake: make(chan struct{}, 1)}
}

// Now returns wall-clock milliseconds since the run started (reads
// only the immutable start, so it takes no lock).
func (c *Clock) Now() int64 { return int64(time.Since(c.start) / time.Millisecond) }

// Schedule runs fn after delay wall-clock milliseconds.
func (c *Clock) Schedule(delay int64, fn func()) runtime.Timer {
	if delay < 0 {
		delay = 0
	}
	now := c.Now()
	return c.at(now+delay, now, fn)
}

// At runs fn when the wall clock reaches t (clamped to now).
func (c *Clock) At(t int64, fn func()) runtime.Timer { return c.at(t, c.Now(), fn) }

func (c *Clock) at(t, now int64, fn func()) *timer {
	if fn == nil {
		panic("wallclock: At called with nil function")
	}
	c.mu.Lock()
	if c.queue.n == 0 {
		c.queue.base = c.reached // an empty wheel may start anywhere not ahead of a deadline
	}
	t = max(t, now, c.reached)
	c.seq++
	tm := c.free
	if tm == nil {
		tm = c.released.Swap(nil)
	}
	if tm != nil {
		c.free = tm.next
		tm.state.Store(0)
	} else {
		tm = &timer{c: c}
	}
	tm.when, tm.seq, tm.fn = t, c.seq, fn
	c.queue.push(tm)
	wake := c.sleeping && t < c.wakeAt
	c.mu.Unlock()
	if wake {
		c.kick()
	}
	return tm
}

// ticker implements runtime.Ticker by arming a one-shot timer after
// every firing — the record of the firing before, released as it is
// rearmed, so a running ticker allocates nothing.
type ticker struct {
	c         *Clock
	period    int64
	fn        func()
	run       func() // p.fire, bound once
	mu        sync.Mutex
	inner     *timer
	cancelled bool
}

func (p *ticker) fire() {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return
	}
	fn := p.fn
	fired := p.inner.when
	p.mu.Unlock()
	fn()
	p.mu.Lock()
	if !p.cancelled {
		// Rearm at a fixed multiple of the fire *deadline*, like the
		// engine's PeriodicTimer: cadence stays `period` regardless of
		// callback duration or loop latency (At clamps a missed deadline
		// to now, so a slow callback catches up instead of backlogging).
		p.inner.Release()
		p.inner = p.c.at(fired+p.period, p.c.Now(), p.run)
	}
	p.mu.Unlock()
}

func (p *ticker) Cancel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancelled {
		return
	}
	p.cancelled = true
	if p.inner != nil {
		p.inner.Cancel()
	}
	p.fn = nil
}

func (p *ticker) Cancelled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cancelled
}

// Every schedules fn every period wall-clock milliseconds, first firing
// after firstDelay. Period must be positive.
func (c *Clock) Every(firstDelay, period int64, fn func()) runtime.Ticker {
	if period <= 0 {
		panic("wallclock: Every called with non-positive period")
	}
	p := &ticker{c: c, period: period, fn: fn}
	p.run = p.fire
	// Hold p.mu across the first arm: if the timer is due immediately,
	// fire() on the run loop blocks on p.mu until p.inner is assigned,
	// so its locked rearm cannot race this write.
	p.mu.Lock()
	p.inner = c.Schedule(firstDelay, p.run).(*timer)
	p.mu.Unlock()
	return p
}

// Stop makes the in-progress Run return after the current callback.
func (c *Clock) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.kick()
}

// kick wakes a sleeping Run (non-blocking; a pending wake is enough).
func (c *Clock) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Processed returns the number of callbacks executed so far.
func (c *Clock) Processed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.processed
}

// Pending returns the number of queued timers. Cancelled ones are not
// among them: Cancel removes a timer from the queue.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.n
}

// Run is the run loop: it executes due timers in (deadline, seq) order,
// sleeping on a real time.Timer between deadlines, until the wall clock
// passes `until` (ms since clock start) or Stop is called. Timers due
// at or before `until` are executed; later ones remain queued. It
// returns the number of callbacks executed by this call.
//
// The wall clock is read once per turn: a turn runs every timer due at
// that reading, and only a turn that found none goes to sleep.
func (c *Clock) Run(until int64) uint64 {
	var executed uint64
	idle := time.NewTimer(time.Hour) // reset before every sleep
	defer idle.Stop()
	for {
		now := c.Now()
		due := min(now, until)
		ran := false
		c.mu.Lock()
		c.reached = now
		c.sleeping = false
		for !c.stopped {
			t := c.queue.next(due)
			if t == nil {
				break
			}
			fn := t.fn
			t.fn = nil
			if t.state.Or(timerFired)&timerReleased != 0 {
				t.next, c.free = c.free, t
			}
			c.processed++
			c.mu.Unlock()
			fn() // outside the lock: callbacks schedule freely
			executed++
			ran = true
			c.mu.Lock()
		}
		if c.stopped {
			c.stopped = false
			c.mu.Unlock()
			return executed
		}
		if ran {
			c.mu.Unlock()
			continue // callbacks took time: look again before sleeping
		}
		if now >= until {
			c.mu.Unlock()
			return executed
		}
		// Sleep until the first deadline, or until the start of the slot
		// that holds it if that slot is above level 0: at worst the loop
		// wakes to refile it and sleeps again.
		target := until
		if _, _, first, ok := c.queue.ahead(); ok && first < target {
			target = first
		}
		c.sleeping, c.wakeAt = true, target
		c.mu.Unlock()
		idle.Reset(time.Duration(target-now) * time.Millisecond)
		select {
		case <-idle.C:
		case <-c.wake:
		}
	}
}

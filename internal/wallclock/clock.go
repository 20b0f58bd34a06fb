// Package wallclock is the single wall-clock run loop every real-time
// backend paces itself with: a runtime.Clock backed by real
// time.Timers that fires callbacks serialized onto one goroutine (so
// protocol code stays lock-free, exactly as on the discrete-event
// engine), ordered by the same (deadline, seq) total order.
//
// The "socket" backend drives it (the clock plus internal/socknet's
// process-group transport, built by the harness); simnet's tests run it
// alone. Scheduling is safe from any goroutine — transport reader
// goroutines hand deliveries to the loop through Schedule — but
// callbacks only ever execute inside Run, one at a time.
//
// The queue is internal/sim's timing wheel, the engine's own, guarded by
// the clock's mutex: Schedule, the loop's pop and Cancel are O(1) with
// no comparison between timers, and Cancel unlinks at once, so the queue
// holds live timers only, as an RPC transport that cancels a 5 s
// deadline per call needs. Run sleeps until the first deadline, or until
// the start of the slot that holds it when that slot has yet to be
// refiled. Timer records are the engine's too, recycled as the engine
// recycles them; Release takes no lock here.
package wallclock

import (
	"sync"
	"time"

	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
)

// Clock is the wall-clock implementation of runtime.Clock. Time is
// int64 milliseconds since the clock was created; live deadlines are
// kept in a timing wheel and executed by Run — the single run loop —
// when the wall clock reaches them. Scheduling is safe from any
// goroutine; callbacks run only on the goroutine inside Run, one at a
// time.
type Clock struct {
	mu        sync.Mutex
	start     time.Time
	wheel     sim.Wheel // guarded by mu
	processed uint64
	stopped   bool
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
	c := &Clock{start: time.Now(), wake: make(chan struct{}, 1)}
	c.wheel.Guard(&c.mu)
	return c
}

// Now returns wall-clock milliseconds since the run started (reads
// only the immutable start, so it takes no lock).
func (c *Clock) Now() int64 { return int64(time.Since(c.start) / time.Millisecond) }

// Schedule runs fn after delay wall-clock milliseconds.
func (c *Clock) Schedule(delay int64, fn func()) runtime.Timer {
	now := c.Now()
	t, _ := c.at(now+delay, now, fn)
	return t
}

// At runs fn when the wall clock reaches t (clamped to now).
func (c *Clock) At(t int64, fn func()) runtime.Timer {
	tm, _ := c.at(t, c.Now(), fn)
	return tm
}

// at files fn for t, clamped to now and to the reading Run last acted
// on, and returns the timer with that deadline.
func (c *Clock) at(t, now int64, fn func()) (*sim.Timer, int64) {
	if fn == nil {
		panic("wallclock: At called with nil function")
	}
	c.mu.Lock()
	t = max(t, now, c.reached)
	tm := c.wheel.At(t, c.reached, fn)
	wake := c.sleeping && t < c.wakeAt
	c.mu.Unlock()
	if wake {
		c.kick()
	}
	return tm, t
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
	inner     *sim.Timer
	due       int64 // inner's deadline
	cancelled bool
}

func (p *ticker) fire() {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return
	}
	fn := p.fn
	p.mu.Unlock()
	fn()
	p.mu.Lock()
	if !p.cancelled {
		// Rearm at a fixed multiple of the fire *deadline*, like the
		// engine's PeriodicTimer: cadence stays `period` regardless of
		// callback duration or loop latency (At clamps a missed deadline
		// to now, so a slow callback catches up instead of backlogging).
		p.inner.Release()
		p.inner, p.due = p.c.at(p.due+p.period, p.c.Now(), p.run)
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
	now := c.Now()
	p.inner, p.due = c.at(now+firstDelay, now, p.run)
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
	return c.wheel.Len()
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
			_, fn := c.wheel.Pop(due)
			if fn == nil {
				break
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
		if first, ok := c.wheel.Ahead(); ok && first < target {
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

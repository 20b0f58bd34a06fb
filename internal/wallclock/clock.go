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
// Timer records are recycled only on request, as on the engine: a
// handle the caller keeps is never reused; one given back with Release
// goes on the clock's free list as soon as it is out of the heap — at
// once if it has fired or been cancelled (Cancel unlinks immediately),
// otherwise when Run pops it — and the next Schedule takes it. The
// transports release every timer they schedule and a ticker releases
// each firing's, so a steady stream of deliveries, RPC deadlines and
// ticks allocates no timers.
package wallclock

import (
	"sync"
	"time"

	"flowercdn/internal/runtime"
)

// timer is the one-shot timer handle. Its state is guarded by the
// owning clock's mutex so Cancel is safe from any goroutine, even
// though callbacks only ever run on the loop.
type timer struct {
	c         *Clock
	when      int64
	seq       uint64
	fn        func()
	pos       int // index in the clock's heap; meaningless once fired or cancelled
	fired     bool
	cancelled bool
	released  bool
}

// Cancel takes a queued timer out of the heap at once, so the queue
// never holds dead deadlines: RPC timeouts are scheduled seconds ahead
// and nearly all of them are cancelled microseconds later.
func (t *timer) Cancel() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.cancelled || t.fired {
		return false
	}
	t.cancelled = true
	t.fn = nil
	t.c.queue.remove(t.pos)
	return true
}

func (t *timer) Fired() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.fired
}

func (t *timer) Cancelled() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.cancelled
}

func (t *timer) When() int64 { return t.when }

// Release gives the handle up; see runtime.Timer. A timer already out
// of the heap is recycled here, a queued one when Run pops it.
func (t *timer) Release() {
	c := t.c
	c.mu.Lock()
	t.released = true
	if t.fired || t.cancelled {
		c.free = append(c.free, t)
	}
	c.mu.Unlock()
}

// timerHeap is a binary min-heap on (when, seq) — the engine's event
// order, so same-deadline timers fire in schedule order — in which
// every timer knows its index.
type timerHeap []*timer

func (t *timer) before(u *timer) bool {
	if t.when != u.when {
		return t.when < u.when
	}
	return t.seq < u.seq
}

func (q timerHeap) set(i int, t *timer) {
	q[i] = t
	t.pos = i
}

// up moves t from the hole at i toward the root; down toward the leaves.
func (q timerHeap) up(i int, t *timer) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(q[parent]) {
			break
		}
		q.set(i, q[parent])
		i = parent
	}
	q.set(i, t)
}

func (q timerHeap) down(i int, t *timer) {
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if child+1 < len(q) && q[child+1].before(q[child]) {
			child++
		}
		if !q[child].before(t) {
			break
		}
		q.set(i, q[child])
		i = child
	}
	q.set(i, t)
}

func (q *timerHeap) push(t *timer) {
	*q = append(*q, t)
	q.up(len(*q)-1, t)
}

// remove takes out the timer at index i, filling the hole with the
// last one.
func (q *timerHeap) remove(i int) {
	old := *q
	last := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	if i == len(*q) {
		return
	}
	if i > 0 && last.before((*q)[(i-1)/2]) {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// Clock is the wall-clock implementation of runtime.Clock. Time is
// int64 milliseconds since the clock was created; live deadlines are
// kept in a heap and executed by Run — the single run loop — when the
// wall clock reaches them. Scheduling is safe from any goroutine;
// callbacks run only on the goroutine inside Run, one at a time.
type Clock struct {
	mu        sync.Mutex
	start     time.Time
	queue     timerHeap
	free      []*timer // released and out of the heap: at takes from here first
	seq       uint64
	processed uint64
	stopped   bool
	// reached is the latest clock reading Run has acted on. No timer is
	// filed before it, so one scheduled with a reading taken just before
	// cannot sort ahead of timers that have already fired.
	reached int64
	// sleeping is set while Run waits for the next deadline; only then
	// does a new earliest deadline need to send on wake. Stop sends too.
	sleeping bool
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
	t = max(t, now, c.reached)
	c.seq++
	var tm *timer
	if n := len(c.free); n > 0 {
		tm, c.free = c.free[n-1], c.free[:n-1]
	} else {
		tm = new(timer)
	}
	*tm = timer{c: c, when: t, seq: c.seq, fn: fn}
	c.queue.push(tm)
	wake := c.sleeping && tm.pos == 0
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
	return len(c.queue)
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
		for !c.stopped && len(c.queue) > 0 && c.queue[0].when <= due {
			t := c.queue[0]
			c.queue.remove(0)
			t.fired = true
			fn := t.fn
			t.fn = nil
			if t.released {
				c.free = append(c.free, t)
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
		target := until
		if len(c.queue) > 0 && c.queue[0].when < target {
			target = c.queue[0].when
		}
		c.sleeping = true
		c.mu.Unlock()
		idle.Reset(time.Duration(target-now) * time.Millisecond)
		select {
		case <-idle.C:
		case <-c.wake:
		}
	}
}

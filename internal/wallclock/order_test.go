package wallclock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowercdn/internal/runtime"
	"flowercdn/internal/sim"
)

// This file checks what the clock adds to the engine's wheel, whose
// order internal/sim's order_test.go proves: scheduling, cancelling and
// releasing from several goroutines while the loop runs, Release with no
// lock, and deadlines clamped to the reading Run last acted on. What
// every goroutine did is checked after the run against the timers it
// scheduled, with the deadline the clock gave each, less those whose
// Cancel returned true: exactly the others that were due fired, in
// deadline order, and one goroutine's timers of one deadline in the
// order it scheduled them. The clock reuses the records of handles the
// scripts give back — pending, cancelled, fired, or in the statement
// that schedules them — and handOuts and Wheel.Check look at what the
// firing sequence would only show late.

// rec is one one-shot timer or one firing of a ticker.
type rec struct {
	when      int64
	s         *script // the goroutine that scheduled it; nil for a ticker's firing
	seq       int     // its place among that goroutine's timers
	h         *sim.Timer
	cancelled atomic.Bool // set once Cancel has returned true
	ran       atomic.Bool // the callback has run
	missed    bool        // Cancel returned false before the run ended: it must have fired
	released  bool        // the script gave h back and may not touch it again (its goroutine only)
}

// handOuts is the handle each record was last handed out under, across
// goroutines. The scripts keep every handle, so no record is collected
// and a record seen twice is one the clock reused: its earlier handle
// must have been released.
type handOuts struct {
	mu     sync.Mutex
	tenant map[*sim.Timer]*rec
}

func (h *handOuts) adopt(t *testing.T, tm *sim.Timer, r *rec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// prev.released is written by prev's goroutine before Release, which
	// takes the clock's mutex, as did the Schedule that reused the record.
	if prev := h.tenant[tm]; prev != nil && !prev.released {
		t.Errorf("timer for %d handed out again, its handle was never released", prev.when)
	}
	h.tenant[tm] = r
}

// check runs Wheel.Check under the clock's lock.
func (c *Clock) check() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wheel.Check()
}

// tick is one ticker with the firings seen so far (loop goroutine only).
type tick struct {
	period int64
	h      runtime.Ticker
	fired  []*rec
}

// script is what one goroutine did.
type script struct {
	timers []*rec
	ticks  []*tick
	out    *handOuts
	// live, while the scripts play one after another before the loop
	// runs, is how many timers the clock must hold: the reference for
	// Pending after every cancel and release. nil while the loop runs.
	live *int
}

// delay draws a delay from one of the wheel's bands: due now (or
// before), within level 0's 256 ms, seconds and minutes (levels 1 and
// 2), or hours ahead (level 3). The loop only ever reaches the first
// two; the rest are there to be cancelled, or to be left queued.
func delay(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return int64(rng.Intn(2) - 1)
	case 1:
		return int64(1 + rng.Intn(255))
	case 2:
		return int64(256 + rng.Intn(60_000))
	case 3:
		return int64(65_536 + rng.Intn(30*60_000))
	case 4:
		return 1<<24 + rng.Int63n(3*24*60*60_000)
	default:
		return int64(1 + rng.Intn(31))
	}
}

// play runs n random operations against c. Every callback appends to
// *fired, which only the loop goroutine touches.
func (s *script) play(t *testing.T, c *Clock, rng *rand.Rand, n int, fired *[]*rec) {
	for i := 0; i < n; i++ {
		switch op := rng.Intn(14); {
		case op < 4: // Schedule, from every band
			s.add(t, c, delay(rng), fired)
		case op < 6: // deadlines on either side of now
			s.add(t, c, int64(rng.Intn(40)-10), fired)
		case op < 8: // Schedule and give the handle back at once, as a transport does
			s.add(t, c, delay(rng), fired).release()
		case op < 11 && len(s.timers) > 0: // Release one: pending, fired or cancelled; or Cancel it first
			r := s.timers[rng.Intn(len(s.timers))]
			if r.released {
				break
			}
			if op == 10 && r.h.Cancel() {
				r.cancelled.Store(true)
				s.cancelled()
			}
			r.release()
			s.checkPending(t, c)
			if err := c.check(); err != nil {
				t.Error(err)
			}
		case op < 12:
			tk := &tick{period: int64(2 + rng.Intn(6))}
			ready := make(chan struct{}) // the first firing may come before Every returns
			tk.h = c.Every(int64(rng.Intn(10)), tk.period, func() {
				<-ready
				r := &rec{when: tk.h.(*ticker).due} // the firing's deadline; rearmed after this returns
				tk.fired = append(tk.fired, r)
				*fired = append(*fired, r)
			})
			close(ready)
			s.ticks = append(s.ticks, tk)
			s.scheduled()
		case len(s.timers) > 0: // Cancel one of this goroutine's timers
			r := s.timers[rng.Intn(len(s.timers))]
			if r.released {
				break
			}
			if r.h.Cancel() {
				r.cancelled.Store(true)
				s.cancelled()
				if r.h.Cancel() {
					t.Error("second Cancel returned true")
				}
			} else if !r.cancelled.Load() {
				r.missed = true
			}
			s.checkPending(t, c)
		}
	}
}

func (s *script) scheduled() {
	if s.live != nil {
		*s.live++
	}
}

func (s *script) cancelled() {
	if s.live != nil {
		*s.live--
	}
}

// checkPending compares Pending with the reference, when there is one.
func (s *script) checkPending(t *testing.T, c *Clock) {
	if s.live != nil && c.Pending() != *s.live {
		t.Errorf("Pending() = %d, the reference holds %d timers", c.Pending(), *s.live)
	}
}

// add schedules one timer after delay, as Schedule does, with a
// callback that logs the firing.
func (s *script) add(t *testing.T, c *Clock, delay int64, fired *[]*rec) *rec {
	r := &rec{s: s, seq: len(s.timers)}
	ready := make(chan struct{}) // the callback may run before at returns
	now := c.Now()
	r.h, r.when = c.at(now+delay, now, func() {
		<-ready
		if r.cancelled.Load() {
			t.Error("callback ran after Cancel returned true")
		}
		if r.ran.Swap(true) {
			t.Error("callback ran twice")
		}
		*fired = append(*fired, r)
	})
	s.out.adopt(t, r.h, r)
	close(ready)
	s.timers = append(s.timers, r)
	s.scheduled()
	return r
}

// release gives the handle back; the record keeps what the reference
// needs.
func (r *rec) release() {
	r.released = true
	r.h.Release()
}

// TestOrderAgainstReference drives Schedule, Every, Cancel and Release
// from several goroutines while the loop runs, then checks the firing
// sequence against what every goroutine did. Most seeds start the clock
// just short of a level's boundary — 256 ms, 65.5 s or 4.7 h — so that
// the run crosses it and the wheel refiles a slot from that level down.
func TestOrderAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := NewClock()
		if l := seed % 4; l > 0 {
			c.start = c.start.Add(-time.Duration(1<<(8*l)-15) * time.Millisecond)
		}
		var fired []*rec
		var scripts [4]script
		out := &handOuts{tenant: map[*sim.Timer]*rec{}}
		live := 0
		for g := range scripts {
			scripts[g].out = out
		}
		// Part of every script is queued before the loop starts, one
		// script after another, with Pending checked after every cancel;
		// the rest races the loop.
		for g := range scripts {
			scripts[g].live = &live
			scripts[g].play(t, c, rand.New(rand.NewSource(seed*100+int64(g))), 100, &fired)
			scripts[g].live = nil
		}
		loop := make(chan struct{})
		go func() { c.Run(1 << 40); close(loop) }()
		var wg sync.WaitGroup
		for g := range scripts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				scripts[g].play(t, c, rand.New(rand.NewSource(seed*100+50+int64(g))), 400, &fired)
			}(g)
		}
		wg.Wait()
		for g := range scripts {
			for _, tk := range scripts[g].ticks {
				tk.h.Cancel()
			}
		}
		// Nothing is scheduled from here on, and every deadline under
		// 256 ms away is behind this one: it ends the run. What lies
		// beyond it stays queued.
		_, end := c.at(c.Now()+300, c.Now(), c.Stop)
		<-loop

		// What should have fired — the timers due by the end, less the
		// cancelled ones — and what should still be queued.
		want, queued := 0, 0
		for g := range scripts {
			for _, r := range scripts[g].timers {
				due := r.when <= end
				switch {
				case r.cancelled.Load():
				case due:
					want++
				default:
					queued++
				}
				if r.ran.Load() != (due && !r.cancelled.Load()) || r.missed && !r.ran.Load() {
					t.Fatalf("seed %d: timer for %d ran=%v cancelled=%v missed=%v, the run ended at %d", seed, r.when, r.ran.Load(), r.cancelled.Load(), r.missed, end)
				}
			}
			for _, tk := range scripts[g].ticks {
				want += len(tk.fired)
				for i := 1; i < len(tk.fired); i++ {
					if tk.fired[i].when < tk.fired[i-1].when+tk.period {
						t.Fatalf("seed %d: ticker of period %d fired at %d then %d", seed, tk.period, tk.fired[i-1].when, tk.fired[i].when)
					}
				}
			}
		}
		if len(fired) != want {
			t.Fatalf("seed %d: %d callbacks ran, want %d", seed, len(fired), want)
		}
		last := map[*script]*rec{}
		for i, r := range fired {
			if i > 0 && r.when < fired[i-1].when {
				t.Fatalf("seed %d: firing %d is due at %d, after one due at %d", seed, i, r.when, fired[i-1].when)
			}
			if p := last[r.s]; r.s != nil && p != nil && p.when == r.when && p.seq > r.seq {
				t.Fatalf("seed %d: a goroutine's timers for %d fired out of the order it scheduled them", seed, r.when)
			}
			last[r.s] = r
		}
		if c.Pending() != queued {
			t.Fatalf("seed %d: %d timers pending after the run, want %d", seed, c.Pending(), queued)
		}
		// The handles still held: a queued one cancels, once.
		for g := range scripts {
			for _, r := range scripts[g].timers {
				if r.released {
					continue
				}
				wasQueued := !r.cancelled.Load() && !r.ran.Load()
				if got := r.h.Cancel(); got != wasQueued {
					t.Fatalf("seed %d: Cancel returned %v after the run on a timer queued=%v", seed, got, wasQueued)
				}
				if wasQueued {
					queued--
				}
			}
		}
		if c.Pending() != queued {
			t.Fatalf("seed %d: %d timers pending once the held ones are cancelled, want the %d released ones", seed, c.Pending(), queued)
		}
		if err := c.check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCancelRemovesAtOnce pins eager removal on both clocks: the queue
// holds live timers only, however many deadlines were scheduled and
// cancelled — an RPC transport does that once per call, seconds ahead.
func TestCancelRemovesAtOnce(t *testing.T) {
	eng, wall := sim.NewEngine(), NewClock()
	for _, tc := range []struct {
		name    string
		clock   runtime.Clock
		pending func() int
	}{{"engine", eng.Clock(), eng.Pending}, {"wallclock", wall, wall.Pending}} {
		const live = 7
		for i := 0; i < live; i++ {
			tc.clock.Schedule(5000, func() {})
		}
		for i := 0; i < 100_000; i++ {
			if !tc.clock.Schedule(5000, func() {}).Cancel() {
				t.Fatalf("%s: Cancel of a pending deadline reported no effect", tc.name)
			}
		}
		if tc.pending() != live {
			t.Fatalf("%s: pending %d after 100000 schedule-then-cancel deadlines, want the %d live ones", tc.name, tc.pending(), live)
		}
	}
}

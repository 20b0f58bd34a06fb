package wallclock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"flowercdn/internal/runtime"
)

// This file checks the clock's contract the way internal/sim's
// order_test.go checks the wheel's: against a reference that is nothing
// but a slice sorted by (when, seq). The wall clock cannot be stepped,
// so the reference is built after the run from what every goroutine
// did: the timers it scheduled, with the deadline and sequence number
// the clock gave each, less those whose Cancel returned true.
//
// The reference never reuses a timer. The clock does, for handles the
// scripts give back with Release — pending, cancelled, fired, or in the
// statement that schedules them — and the firing sequence must not
// show it; handOuts and checkFree look at what the sequence would only
// show late.

// rec is one one-shot timer or one firing of a ticker.
type rec struct {
	when      int64
	seq       uint64
	h         runtime.Timer // one-shot timers only
	cancelled atomic.Bool   // set once Cancel has returned true
	ran       atomic.Bool   // the callback has run
	released  bool          // the script gave h back and may not touch it again (its goroutine only)
}

// handOuts is the handle each record was last handed out under, across
// goroutines. The scripts keep every handle, so no record is collected
// and a record seen twice is one the clock reused: its earlier handle
// must have been released.
type handOuts struct {
	mu     sync.Mutex
	tenant map[*timer]*rec
}

func (h *handOuts) adopt(t *testing.T, tm *timer, r *rec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// prev.released is written by prev's goroutine before Release, which
	// takes the clock's mutex, as did the Schedule that reused the record.
	if prev := h.tenant[tm]; prev != nil && !prev.released {
		t.Errorf("timer (when %d, seq %d) handed out again, its handle was never released", prev.when, prev.seq)
	}
	h.tenant[tm] = r
}

// checkFree looks at the clock's free list: a free record is a released
// one, out of the heap and listed once.
func checkFree(c *Clock) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[*timer]bool{}
	for _, tm := range c.free {
		switch {
		case seen[tm]:
			return fmt.Errorf("timer (when %d, seq %d) is on the free list twice", tm.when, tm.seq)
		case tm.pos < len(c.queue) && c.queue[tm.pos] == tm:
			return fmt.Errorf("timer (when %d, seq %d) is on the free list while in the heap", tm.when, tm.seq)
		case !tm.released:
			return fmt.Errorf("timer (when %d, seq %d) is on the free list, its handle was never released", tm.when, tm.seq)
		}
		seen[tm] = true
	}
	return nil
}

func sortRecs(rs []*rec) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].when != rs[j].when {
			return rs[i].when < rs[j].when
		}
		return rs[i].seq < rs[j].seq
	})
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
}

// play runs n random operations against c. Every callback appends to
// *fired, which only the loop goroutine touches.
func (s *script) play(t *testing.T, c *Clock, rng *rand.Rand, n int, fired *[]*rec) {
	for i := 0; i < n; i++ {
		switch op := rng.Intn(14); {
		case op < 4: // Schedule, delays from 0 (and below) to 30 ms
			s.add(t, fired, func(fn func()) runtime.Timer { return c.Schedule(int64(rng.Intn(32)-1), fn) })
		case op < 6: // At, deadlines on either side of now
			s.add(t, fired, func(fn func()) runtime.Timer { return c.At(c.Now()+int64(rng.Intn(40)-10), fn) })
		case op < 8: // Schedule and give the handle back at once, as a transport does
			r := s.add(t, fired, func(fn func()) runtime.Timer { return c.Schedule(int64(rng.Intn(32)-1), fn) })
			r.release()
		case op < 11 && len(s.timers) > 0: // Release one: pending, fired or cancelled; or Cancel it first
			r := s.timers[rng.Intn(len(s.timers))]
			if r.released {
				break
			}
			if op == 10 && r.h.Cancel() {
				r.cancelled.Store(true)
			}
			r.release()
			if err := checkFree(c); err != nil {
				t.Error(err)
			}
		case op < 12:
			tk := &tick{period: int64(2 + rng.Intn(6))}
			ready := make(chan struct{}) // the first firing may come before Every returns
			tk.h = c.Every(int64(rng.Intn(10)), tk.period, func() {
				<-ready
				in := tk.h.(*ticker).inner // the timer now firing; released and rearmed after this returns
				r := &rec{when: in.when, seq: in.seq}
				tk.fired = append(tk.fired, r)
				*fired = append(*fired, r)
			})
			close(ready)
			s.ticks = append(s.ticks, tk)
		case len(s.timers) > 0: // Cancel one of this goroutine's timers
			r := s.timers[rng.Intn(len(s.timers))]
			if r.released {
				break
			}
			if r.h.Cancel() {
				r.cancelled.Store(true)
				if r.h.Cancel() {
					t.Error("second Cancel returned true")
				}
			} else if !r.cancelled.Load() && !r.h.Fired() {
				t.Error("Cancel returned false on a timer neither fired nor cancelled")
			}
		}
	}
}

// add schedules one timer through mk, whose callback logs the firing.
func (s *script) add(t *testing.T, fired *[]*rec, mk func(fn func()) runtime.Timer) *rec {
	r := &rec{}
	ready := make(chan struct{}) // the callback may run before mk returns
	r.h = mk(func() {
		<-ready
		if r.cancelled.Load() {
			t.Error("callback ran after Cancel returned true")
		}
		if r.ran.Swap(true) {
			t.Error("callback ran twice")
		}
		*fired = append(*fired, r)
	})
	r.when, r.seq = r.h.When(), r.h.(*timer).seq
	s.out.adopt(t, r.h.(*timer), r)
	close(ready)
	s.timers = append(s.timers, r)
	return r
}

// release gives the handle back; the record keeps what the reference
// needs.
func (r *rec) release() {
	r.released = true
	r.h.Release()
}

// TestOrderAgainstReference drives Schedule, At, Every and Cancel from
// several goroutines while the loop runs, then compares the firing
// sequence with the sorted-slice reference.
func TestOrderAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := NewClock()
		var fired []*rec
		var scripts [4]script
		out := &handOuts{tenant: map[*timer]*rec{}}
		for g := range scripts {
			scripts[g].out = out
		}
		// Part of every script is queued before the loop starts, the rest
		// races it.
		for g := range scripts {
			scripts[g].play(t, c, rand.New(rand.NewSource(seed*100+int64(g))), 100, &fired)
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
		// Nothing is scheduled from here on, and the furthest deadline is
		// under 40 ms away: a timer behind all of them ends the run.
		c.Schedule(50, c.Stop)
		<-loop

		// The reference: what should have fired, in (when, seq) order.
		var want []*rec
		for g := range scripts {
			for _, r := range scripts[g].timers {
				if !r.cancelled.Load() {
					want = append(want, r)
				}
				if r.ran.Load() == r.cancelled.Load() {
					t.Fatalf("seed %d: timer ran=%v cancelled=%v", seed, r.ran.Load(), r.cancelled.Load())
				}
				if r.released {
					continue
				}
				if r.h.Cancel() {
					t.Fatalf("seed %d: Cancel returned true after the run ended", seed)
				}
				if r.h.Fired() == r.cancelled.Load() {
					t.Fatalf("seed %d: timer fired=%v cancelled=%v", seed, r.h.Fired(), r.cancelled.Load())
				}
			}
			for _, tk := range scripts[g].ticks {
				want = append(want, tk.fired...)
				for i := 1; i < len(tk.fired); i++ {
					if tk.fired[i].when < tk.fired[i-1].when+tk.period {
						t.Fatalf("seed %d: ticker of period %d fired at %d then %d", seed, tk.period, tk.fired[i-1].when, tk.fired[i].when)
					}
				}
			}
		}
		sortRecs(want)
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d callbacks ran, the reference has %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d was (when %d, seq %d), reference says (when %d, seq %d)",
					seed, i, fired[i].when, fired[i].seq, want[i].when, want[i].seq)
			}
		}
		if c.Pending() != 0 {
			t.Fatalf("seed %d: %d timers pending after everything fired or was cancelled", seed, c.Pending())
		}
		if err := checkFree(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCancelRemovesAtOnce pins eager removal: the queue holds live
// timers only, however many deadlines were scheduled and cancelled —
// an RPC transport does that once per call, seconds ahead.
func TestCancelRemovesAtOnce(t *testing.T) {
	c := NewClock()
	const live = 7
	for i := 0; i < live; i++ {
		c.Schedule(5000, func() {})
	}
	for i := 0; i < 100_000; i++ {
		if !c.Schedule(5000, func() {}).Cancel() {
			t.Fatal("Cancel of a pending deadline reported no effect")
		}
	}
	if c.Pending() != live {
		t.Fatalf("pending %d after 100000 schedule-then-cancel deadlines, want the %d live ones", c.Pending(), live)
	}
}

package wallclock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// checkFree looks at the clock's wheel and free lists. Every queued
// timer sits in the slot its deadline and the wheel's base assign it,
// linked both ways, in scheduling order, with the slot's occupied bit
// set, and the wheel counts them. A free record — on the free list or
// the released stack — is a released one, fired or cancelled, out of
// the wheel and listed once.
func checkFree(c *Clock) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &c.queue
	queued := map[*timer]bool{}
	for l := range w.slots {
		for i := range w.slots[l] {
			s := &w.slots[l][i]
			if occ := w.occupied[l][i/64]>>(i%64)&1 == 1; occ != (s.head != nil) {
				return fmt.Errorf("slot %d of level %d: occupied bit %v, head %p", i, l, occ, s.head)
			}
			var prev *timer
			for tm := s.head; tm != nil; prev, tm = tm, tm.next {
				if tm.prev != prev {
					return fmt.Errorf("timer (when %d, seq %d) has a broken back link", tm.when, tm.seq)
				}
				if gl, gi := w.slotOf(tm); gl != l || gi != uint(i) {
					return fmt.Errorf("timer (when %d, seq %d) is in slot %d of level %d, base %d assigns slot %d of level %d", tm.when, tm.seq, i, l, w.base, gi, gl)
				}
				if prev != nil && prev.seq > tm.seq {
					return fmt.Errorf("slot %d of level %d holds seq %d before seq %d", i, l, prev.seq, tm.seq)
				}
				if tm.state.Load()&(timerFired|timerCancelled) != 0 {
					return fmt.Errorf("timer (when %d, seq %d) is queued, fired or cancelled", tm.when, tm.seq)
				}
				queued[tm] = true
			}
			if s.tail != prev {
				return fmt.Errorf("slot %d of level %d: tail is not the last timer", i, l)
			}
		}
	}
	if len(queued) != w.n {
		return fmt.Errorf("the wheel counts %d timers, its slots hold %d", w.n, len(queued))
	}
	seen := map[*timer]bool{}
	for _, list := range []*timer{c.free, c.released.Load()} {
		for tm := list; tm != nil; tm = tm.next {
			st := tm.state.Load()
			switch {
			case seen[tm]:
				return fmt.Errorf("timer (when %d, seq %d) is free twice", tm.when, tm.seq)
			case queued[tm]:
				return fmt.Errorf("timer (when %d, seq %d) is free while in the wheel", tm.when, tm.seq)
			case st&timerReleased == 0:
				return fmt.Errorf("timer (when %d, seq %d) is free, its handle was never released", tm.when, tm.seq)
			case st&(timerFired|timerCancelled) == 0:
				return fmt.Errorf("timer (when %d, seq %d) is free, neither fired nor cancelled", tm.when, tm.seq)
			}
			seen[tm] = true
		}
	}
	return nil
}

func sortRecs(rs []*rec) {
	sort.Slice(rs, func(i, j int) bool { return before(rs[i], rs[j]) })
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
			s.add(t, fired, func(fn func()) runtime.Timer { return c.Schedule(delay(rng), fn) })
		case op < 6: // At, deadlines on either side of now
			s.add(t, fired, func(fn func()) runtime.Timer { return c.At(c.Now()+int64(rng.Intn(40)-10), fn) })
		case op < 8: // Schedule and give the handle back at once, as a transport does
			r := s.add(t, fired, func(fn func()) runtime.Timer { return c.Schedule(delay(rng), fn) })
			r.release()
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
			} else if !r.cancelled.Load() && !r.h.Fired() {
				t.Error("Cancel returned false on a timer neither fired nor cancelled")
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
	s.scheduled()
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
// sequence with the sorted-slice reference. Most seeds start the clock
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
		out := &handOuts{tenant: map[*timer]*rec{}}
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
		stop := c.Schedule(300, c.Stop)
		end := &rec{when: stop.When(), seq: stop.(*timer).seq}
		<-loop

		// The reference: what should have fired, in (when, seq) order,
		// and what should still be queued.
		var want []*rec
		queued := 0
		for g := range scripts {
			for _, r := range scripts[g].timers {
				due := before(r, end)
				switch {
				case r.cancelled.Load():
				case due:
					want = append(want, r)
				default:
					queued++
				}
				if r.ran.Load() != (due && !r.cancelled.Load()) {
					t.Fatalf("seed %d: timer (when %d, seq %d) ran=%v cancelled=%v, the run ended at %d", seed, r.when, r.seq, r.ran.Load(), r.cancelled.Load(), end.when)
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
		if c.Pending() != queued {
			t.Fatalf("seed %d: %d timers pending after the run, the reference has %d", seed, c.Pending(), queued)
		}
		if err := checkFree(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
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
					r.cancelled.Store(true)
					queued--
				}
				if r.h.Fired() != r.ran.Load() || r.h.Cancelled() != r.cancelled.Load() {
					t.Fatalf("seed %d: timer fired=%v cancelled=%v, its callback ran=%v", seed, r.h.Fired(), r.h.Cancelled(), r.ran.Load())
				}
			}
		}
		if c.Pending() != queued {
			t.Fatalf("seed %d: %d timers pending once the held ones are cancelled, want the %d released ones", seed, c.Pending(), queued)
		}
		if err := checkFree(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// before reports whether r sorts before u in (when, seq) order.
func before(r, u *rec) bool {
	if r.when != u.when {
		return r.when < u.when
	}
	return r.seq < u.seq
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

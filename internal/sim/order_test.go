package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"flowercdn/internal/rnd"
)

// This file checks the wheel against the definition of its contract: a
// reference scheduler that keeps every pending timer in one slice
// sorted by (when, seq). A byte string is decoded into engine operations
// and played on both; everything either one lets a caller observe must
// agree after every operation.
//
// The reference never reuses a timer. The engine does, for handles the
// script gives back with Release, and must be none the wiser: the same
// script is played a third time on an engine whose handles ignore
// Release; and after every operation both engines' wheels and free
// lists are walked (Wheel.Check).

type handle interface {
	Cancel() bool
	Release()
}
type ticker interface{ Cancel() }

// scheduler is what the script drives, on the engine and on the
// reference alike.
type scheduler interface {
	Now() int64
	Processed() uint64
	schedule(delay int64, fn func()) handle
	at(t int64, fn func()) handle
	// reserve and atReserved are Engine.Reserve and Engine.AtReserved.
	reserve() uint64
	atReserved(t int64, seq uint64, fn func()) handle
	every(first, period int64, fn func()) ticker
	Step() bool
	Run(until int64) uint64
	RunAll() uint64
	Stop()
	// pending is Engine.Pending: the timers neither fired nor cancelled.
	pending() int
	// check returns what is wrong with the scheduler's own state, if
	// anything.
	check() error
}

// wheelSched plays a script on the engine. With recycle set a released
// handle is released; without, Release is ignored, which is the engine
// as it was before it recycled anything.
type wheelSched struct {
	*Engine
	recycle bool
	// tenant is the handle each record was last handed out under. The
	// script keeps every handle, so no record is ever collected and a
	// record seen twice is one the engine reused.
	tenant map[*Timer]*wheelHandle
	err    error // the first violation seen at a hand-out
}

type wheelHandle struct {
	w        *wheelSched
	t        *Timer
	released bool
}

func (h *wheelHandle) Cancel() bool { return h.t.Cancel() }
func (h *wheelHandle) Release() {
	h.released = true
	if h.w.recycle {
		h.t.Release()
	}
}

// adopt wraps a record the engine just handed out.
func (w *wheelSched) adopt(t *Timer) handle {
	if prev := w.tenant[t]; prev != nil && !prev.released && w.err == nil {
		w.err = fmt.Errorf("timer for %d handed out again, its handle was never released", t.when)
	}
	h := &wheelHandle{w: w, t: t}
	w.tenant[t] = h
	return h
}

func (w *wheelSched) schedule(d int64, fn func()) handle { return w.adopt(w.Schedule(d, fn)) }
func (w *wheelSched) at(t int64, fn func()) handle       { return w.adopt(w.At(t, fn)) }
func (w *wheelSched) reserve() uint64                    { return w.Reserve() }
func (w *wheelSched) atReserved(t int64, seq uint64, fn func()) handle {
	return w.adopt(w.AtReserved(t, seq, fn))
}
func (w *wheelSched) every(first, period int64, fn func()) ticker {
	return w.Every(first, period, fn)
}
func (w *wheelSched) pending() int { return w.Pending() }

// check is the first violation seen at a hand-out, else Wheel.Check.
func (w *wheelSched) check() error {
	if w.err != nil {
		return w.err
	}
	return w.Engine.w.Check()
}

// refEngine is the reference: every pending timer in one slice sorted
// by (when, seq), seq being the order of insertion — or of reservation,
// for a timer filed in a reserved place.
type refEngine struct {
	now       int64
	processed uint64
	stopped   bool
	seq       uint64 // the next insertion's or reservation's
	queue     []*refTimer
}

type refTimer struct {
	when int64
	seq  uint64
	fn   func()
	dead bool // cancelled or fired
}

func (t *refTimer) Cancel() bool {
	was := t.dead
	t.dead = true
	return !was
}

func (t *refTimer) Release() {}

type refTicker struct {
	t         handle
	cancelled bool
}

func (p *refTicker) Cancel() {
	p.cancelled = true
	p.t.Cancel()
}

func (r *refEngine) Now() int64        { return r.now }
func (r *refEngine) Processed() uint64 { return r.processed }
func (r *refEngine) Stop()             { r.stopped = true }
func (r *refEngine) check() error      { return nil }

func (r *refEngine) schedule(delay int64, fn func()) handle {
	return r.at(r.now+max(delay, 0), fn)
}

func (r *refEngine) at(when int64, fn func()) handle {
	return r.atReserved(when, r.reserve(), fn)
}

func (r *refEngine) reserve() uint64 {
	r.seq++
	return r.seq - 1
}

func (r *refEngine) atReserved(when int64, seq uint64, fn func()) handle {
	t := &refTimer{when: max(when, r.now), seq: seq, fn: fn}
	i := sort.Search(len(r.queue), func(i int) bool {
		q := r.queue[i]
		return q.when > t.when || q.when == t.when && q.seq > seq
	})
	r.queue = slices.Insert(r.queue, i, t)
	return t
}

func (r *refEngine) every(first, period int64, fn func()) ticker {
	p := &refTicker{}
	var tick func()
	tick = func() {
		if fn(); !p.cancelled {
			p.t = r.at(r.now+period, tick)
		}
	}
	p.t = r.schedule(first, tick)
	return p
}

func (r *refEngine) pending() int {
	n := 0
	for _, t := range r.queue {
		if !t.dead {
			n++
		}
	}
	return n
}

// head discards the cancelled timers in front and returns the first
// live one, nil when there is none.
func (r *refEngine) head() *refTimer {
	for len(r.queue) > 0 && r.queue[0].dead {
		r.queue = r.queue[1:]
	}
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

func (r *refEngine) Step() bool {
	t := r.head()
	if t == nil {
		return false
	}
	r.queue = r.queue[1:]
	r.now, t.dead = t.when, true
	r.processed++
	t.fn()
	return true
}

func (r *refEngine) Run(until int64) uint64 {
	start := r.processed
	for !r.stopped {
		if t := r.head(); t == nil || t.when > until {
			break
		}
		r.Step()
	}
	if !r.stopped && r.now < until {
		r.now = until
	}
	r.stopped = false
	return r.processed - start
}

func (r *refEngine) RunAll() uint64 {
	start := r.processed
	for r.Step() && !r.stopped {
	}
	r.stopped = false
	return r.processed - start
}

// edgeDelays puts a timer one either side of every level boundary of
// the wheel, beyond 2^40 ms, in the past, and where now+delay overflows.
var edgeDelays = []int64{
	0, -1, -7, 1, 2,
	1<<8 - 1, 1 << 8, 1<<8 + 1,
	1<<16 - 1, 1 << 16, 1<<16 + 1,
	1<<24 - 1, 1 << 24, 1<<24 + 1,
	1<<32 - 1, 1 << 32, 1<<32 + 1,
	1<<40 - 1, 1 << 40, 1<<40 + 1,
	1<<48 - 1, 1 << 48, 1<<48 + 1,
	1<<56 - 1, 1 << 56, 1<<56 + 1,
	1<<41 + 12345, math.MaxInt64,
}

// delayOf maps a script byte to a delay: the low values pick an edge,
// the rest are small delays that collide and interleave.
func delayOf(b byte) int64 {
	if int(b) < len(edgeDelays) {
		return edgeDelays[b]
	}
	return int64(b) - int64(len(edgeDelays))
}

// Script operations; an operation byte is taken modulo opCount.
const (
	opSchedule    = iota // delay, action, arg
	opAt                 // absolute time, action, arg
	opEvery              // first delay, period, firings before it cancels itself, action, arg
	opCancel             // which timer
	opCancelEvery        // which periodic timer
	opStep
	opRun // until = now + delay
	opStop
	opRunAll
	opRelease         // which timer: pending (it fires later, released), fired or cancelled
	opCancelRelease   // which timer: Cancel then Release, as a reply does to an RPC deadline
	opScheduleRelease // delay, action, arg: released in the statement that schedules it
	opReserve         // a place for a later opAtReserved or actFileReserved
	opAtReserved      // delay, which unused place, action, arg
	opCount
)

// What a callback does when it fires; taken modulo actCount.
const (
	actNone        = iota
	actSchedule    // a child after delayOf(arg)
	actSameInstant // a chain of arg%4+1 children, each at the instant of its parent
	actCancel      // timer number arg
	actCancelEvery // periodic timer number arg
	actStop
	actBurst        // two children at the same later instant
	actRelease      // timer number arg, possibly the one now firing
	actFileReserved // the oldest unused place, filed after delayOf(arg), as a deadline an RPC's lost leg files
	actCount
)

// event is one observation: a firing, or the state after an operation.
type event struct {
	kind    byte // 'f' fired, 'o' after an operation
	id      int64
	now     int64
	result  uint64 // processed count, or what the operation returned
	pending int
}

// play runs the script on s and returns everything observable, or the
// first thing s.check found wrong.
func play(s scheduler, script []byte) ([]event, error) {
	var (
		log      []event
		timers   []handle
		released []bool // timers[i] has been given back: the script may not touch it again
		tickers  []ticker
		places   []uint64 // reserved and not filed yet
		nextID   int64
		pos      int
	)
	read := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	keep := func(hs ...handle) {
		timers = append(timers, hs...)
		released = append(released, make([]bool, len(hs))...)
	}
	// pick is the timer a script byte names, or -1 if there is none or
	// the script has released it.
	pick := func(k byte) int {
		if len(timers) == 0 || released[int(k)%len(timers)] {
			return -1
		}
		return int(k) % len(timers)
	}
	release := func(i int) {
		released[i] = true
		timers[i].Release()
	}
	// place takes the unused reserved place a script byte names.
	place := func(k byte) (uint64, bool) {
		if len(places) == 0 {
			return 0, false
		}
		i := int(k) % len(places)
		seq := places[i]
		places = slices.Delete(places, i, i+1)
		return seq, true
	}
	var callback func(action, arg byte) func()
	act := func(action, arg byte) {
		switch action % actCount {
		case actSchedule:
			keep(s.schedule(delayOf(arg), callback(actNone, 0)))
		case actSameInstant:
			if arg%4 > 0 {
				keep(s.schedule(0, callback(actSameInstant, arg%4-1)))
			} else {
				keep(s.schedule(-1, callback(actNone, 0)))
			}
		case actCancel:
			if i := pick(arg); i >= 0 {
				timers[i].Cancel()
			}
		case actRelease:
			if i := pick(arg); i >= 0 {
				release(i)
			}
		case actCancelEvery:
			if len(tickers) > 0 {
				tickers[int(arg)%len(tickers)].Cancel()
			}
		case actStop:
			s.Stop()
		case actBurst:
			keep(s.schedule(delayOf(arg), callback(actNone, 0)),
				s.schedule(delayOf(arg), callback(actNone, 0)))
		case actFileReserved:
			if seq, ok := place(0); ok {
				keep(s.atReserved(s.Now()+delayOf(arg), seq, callback(actNone, 0)))
			}
		}
	}
	callback = func(action, arg byte) func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, event{'f', id, s.Now(), s.Processed(), s.pending()})
			act(action, arg)
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for pos < len(script) {
		var result uint64
		switch read() % opCount {
		case opSchedule:
			d := delayOf(read())
			keep(s.schedule(d, callback(read(), read())))
		case opAt:
			t := delayOf(read())
			keep(s.at(t, callback(read(), read())))
		case opEvery:
			first, period := delayOf(read()), max(delayOf(read()), 1)
			left := int(read()%8) + 1
			fire := callback(read(), read())
			var tk ticker
			tk = s.every(first, period, func() {
				fire()
				if left--; left == 0 {
					tk.Cancel()
				}
			})
			tickers = append(tickers, tk)
		case opCancel:
			if i := pick(read()); i >= 0 {
				result = b2u(timers[i].Cancel())
			}
		case opRelease:
			if i := pick(read()); i >= 0 {
				release(i)
			}
		case opCancelRelease:
			if i := pick(read()); i >= 0 {
				result = b2u(timers[i].Cancel())
				release(i)
			}
		case opScheduleRelease:
			d := delayOf(read())
			keep(s.schedule(d, callback(read(), read())))
			release(len(timers) - 1)
		case opReserve:
			places = append(places, s.reserve())
		case opAtReserved:
			d, k := delayOf(read()), read()
			fire := callback(read(), read())
			if seq, ok := place(k); ok {
				keep(s.atReserved(s.Now()+d, seq, fire))
			}
		case opCancelEvery:
			if k := int(read()); len(tickers) > 0 {
				tickers[k%len(tickers)].Cancel()
			}
		case opStep:
			result = b2u(s.Step())
		case opRun:
			result = s.Run(s.Now() + delayOf(read()))
		case opStop:
			s.Stop()
		case opRunAll:
			result = s.RunAll()
		}
		log = append(log, event{'o', int64(s.Processed()), s.Now(), result, s.pending()})
		if err := s.check(); err != nil {
			return log, fmt.Errorf("after operation %d: %w", len(log), err)
		}
	}
	// Whatever is still filed must come out in order too.
	s.RunAll()
	return append(log, event{'o', int64(s.Processed()), s.Now(), 0, s.pending()}), s.check()
}

// checkOrder plays the script on the engine, on an engine that is never
// given a timer back, and on the reference, and fails at the first
// observation in which they differ.
func checkOrder(t *testing.T, script []byte) {
	t.Helper()
	wheel := func(recycle bool) *wheelSched {
		return &wheelSched{Engine: NewEngine(), recycle: recycle, tenant: map[*Timer]*wheelHandle{}}
	}
	got, err := play(wheel(true), script)
	if err != nil {
		t.Fatalf("script %v: %v", script, err)
	}
	kept, err := play(wheel(false), script)
	if err != nil {
		t.Fatalf("script %v, Release ignored: %v", script, err)
	}
	want, _ := play(&refEngine{}, script)
	for i := range min(len(got), len(want)) {
		if got[i] != kept[i] {
			t.Fatalf("script %v: observation %d is %c%+v, with Release ignored it is %c%+v",
				script, i, got[i].kind, got[i], kept[i].kind, kept[i])
		}
		if got[i] != want[i] {
			t.Fatalf("script %v: observation %d is %c%+v, the reference has %c%+v",
				script, i, got[i].kind, got[i], want[i].kind, want[i])
		}
	}
	if len(got) != len(want) || len(got) != len(kept) {
		t.Fatalf("script %v: %d observations, %d with Release ignored, the reference has %d",
			script, len(got), len(kept), len(want))
	}
}

// edge is the script byte that selects the given edge delay.
func edge(d int64) byte { return byte(slices.Index(edgeDelays, d)) }

// small is the script byte for a delay of d ms that is not an edge.
func small(d int) byte { return byte(d + len(edgeDelays)) }

// orderSeeds are the three traps a wheel sets that a heap does not,
// then a script through every operation.
var orderSeeds = [][]byte{
	// Run(until) stops short of a level-1 slot (span 256..511): base
	// must not enter it, or the timer scheduled next, for 210, is filed
	// behind the wheel.
	{
		opSchedule, small(44), actNone, 0, // 44
		opAt, edge(1<<8 + 1), actNone, 0, // 257
		opRun, small(200), // to 200
		opSchedule, small(10), actNone, 0, // 210
		opRun, edge(1 << 16),
	},
	// Cancelling every timer empties the wheel far ahead of now; the
	// next insert must re-anchor it.
	{
		opSchedule, edge(1 << 16), actNone, 0,
		opSchedule, edge(1<<24 + 1), actNone, 0,
		opCancel, 0, opCancel, 1,
		opStep, opRunAll,
		opSchedule, small(5), actNone, 0,
		opSchedule, small(3), actNone, 0,
		opRun, small(100),
	},
	// Events scheduled for the current instant from inside a callback
	// join the slot being drained and run in the same pass, after what
	// was already queued for that instant and before the next one.
	{
		opSchedule, small(10), actSameInstant, 3,
		opSchedule, small(10), actNone, 0,
		opSchedule, small(11), actNone, 0,
		opRun, small(10),
		opRun, small(1),
	},
	{
		opEvery, small(3), small(7), 4, actBurst, small(7),
		opEvery, edge(0), edge(1 << 8), 7, actCancel, 2,
		opAt, edge(1 << 40), actCancelEvery, 0,
		opSchedule, edge(-7), actStop, 0,
		opSchedule, edge(math.MaxInt64), actSchedule, edge(1 << 56),
		opRun, edge(1<<16 - 1), opStop, opRun, edge(1), opStep,
		opSchedule, edge(1<<32 + 1), actSameInstant, 2,
		opCancelEvery, 1, opRun, edge(1<<41 + 12345), opRunAll,
	},
	// Timers given back in every state — pending (fires later),
	// cancelled but still filed, fired, firing — between and inside
	// schedules that would take a free record at once if there were one.
	{
		opScheduleRelease, small(5), actSchedule, small(5), // fires into its own record
		opSchedule, edge(1 << 16), actNone, 0,
		opCancelRelease, 1, // filed at level 2 until the wheel gets there
		opSchedule, small(7), actRelease, 2, // releases itself as it fires
		opSchedule, small(9), actBurst, small(1),
		opRelease, 3,
		opRun, small(8),
		opSchedule, small(1), actCancel, 4, // the child of timer 0, due at 10
		opRelease, 2, // fired and released before: ignored
		opRun, edge(1<<16 + 1),
		opScheduleRelease, edge(0), actSameInstant, 3,
		opRunAll,
	},
	// Places reserved ahead of timers for the instants they are filed
	// for later: into a level-0 slot, into a level-1 slot that is
	// refiled after (from inside a callback, as a lost RPC leg files its
	// deadline), and at the present instant, half of which has fired.
	// Each fires ahead of the newer timers of its instant.
	{
		opReserve,                         // A
		opSchedule, small(20), actNone, 0, // 20
		opReserve,                        // B
		opAt, edge(1<<8 + 1), actNone, 0, // 257, level 1
		opSchedule, small(20), actNone, 0, // 20
		opReserve,                         // C
		opSchedule, small(40), actNone, 0, // 40
		opSchedule, small(40), actNone, 0, // 40
		opAtReserved, small(20), 0, actNone, 0, // A at 20
		opSchedule, small(2), actFileReserved, edge(1<<8 - 1), // B at 2+255
		opRun, small(39),
		opStep,                               // the first timer for 40
		opAtReserved, edge(0), 0, actNone, 0, // C at 40
		opRunAll,
	},
}

// FuzzEngineOrder decodes its input into Schedule, At, Every, both
// Cancels, Release, Reserve, AtReserved, Step, Run, RunAll and Stop —
// between runs and from inside callbacks — and requires the engine to
// fire the same events at the same times as the reference, with the
// same Now and Processed after every operation, whether or not the
// released timers are recycled.
// Plain `go test` runs the seeds.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range orderSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip("longer than any minimal counter-example needs to be")
		}
		checkOrder(t, script)
	})
}

// TestEngineOrderRandomScripts plays seeded random scripts, so that
// every `go test` covers more of the operation space than the
// hand-written seeds do.
func TestEngineOrderRandomScripts(t *testing.T) {
	rng := rnd.New(12)
	for n := 0; n < 2000; n++ {
		script := make([]byte, 8+rng.Intn(120))
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		checkOrder(t, script)
	}
}
